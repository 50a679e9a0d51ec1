"""Synthetic IMDB with the JOB-light schema.

JOB-light (Kipf et al., "Learned Cardinalities") uses six IMDB tables joined
star-style on ``title.id = <fact>.movie_id``:

* ``title``            -- movies (the dimension),
* ``movie_companies``  -- production companies per movie,
* ``cast_info``        -- cast entries per movie,
* ``movie_info``       -- typed info rows per movie,
* ``movie_info_idx``   -- indexed info rows per movie,
* ``movie_keyword``    -- keywords per movie.

The generator reproduces JOB-light's categorical domains (e.g. 7 title
kinds, 11 cast roles) and injects correlation between ``kind_id`` and
``production_year`` plus skewed fan-out on every ``movie_id`` foreign key.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import (
    DatasetBundle,
    cluster_rows,
    correlated_codes,
    foreign_key,
    zipf_codes,
)
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.utils.rng import derive_rng

#: Base row counts at ``scale=1.0`` -- deliberately laptop-sized; the paper's
#: 1 TB scale is out of reach in process (see DESIGN.md's substitutions).
BASE_ROWS = {
    "title": 6000,
    "movie_companies": 15000,
    "cast_info": 30000,
    "movie_info": 20000,
    "movie_info_idx": 8000,
    "movie_keyword": 12000,
}


def make_imdb(seed: int = 42, scale: float = 1.0) -> DatasetBundle:
    """Generate the synthetic IMDB bundle."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rows = {name: max(10, int(count * scale)) for name, count in BASE_ROWS.items()}
    catalog = Catalog()

    # -- title ---------------------------------------------------------
    rng = derive_rng(seed, "imdb", "title")
    n_title = rows["title"]
    title_id = np.arange(n_title, dtype=np.int64)
    kind_id = zipf_codes(rng, n_title, domain=7, skew=1.1)
    # Production year correlates with kind: e.g. TV episodes cluster in
    # recent years while classic film kinds skew older.
    year_bucket = correlated_codes(rng, kind_id, domain=14, strength=0.75, skew=0.6)
    production_year = 1880 + year_bucket * 10 + rng.integers(0, 10, n_title)
    episode_nr = zipf_codes(rng, n_title, domain=100, skew=1.5)
    catalog.register(
        Table.from_arrays(
            "title",
            cluster_rows(
                {
                    "id": title_id,
                    "kind_id": kind_id,
                    "production_year": production_year.astype(np.int64),
                    "episode_nr": episode_nr,
                },
                order_by=["kind_id", "production_year"],
            ),
        )
    )

    # -- satellite tables ------------------------------------------------
    def satellite(
        name: str, extra: dict[str, tuple[int, float, float]]
    ) -> None:
        """Register a fact table: movie_id FK + correlated categorical columns.

        ``extra`` maps column name -> (domain, zipf skew, correlation with
        movie popularity).
        """
        sat_rng = derive_rng(seed, "imdb", name)
        n = rows[name]
        movie_id = foreign_key(sat_rng, n, n_title, skew=1.1)
        arrays: dict[str, np.ndarray] = {"movie_id": movie_id}
        for column, (domain, skew, corr) in extra.items():
            if corr > 0:
                arrays[column] = correlated_codes(
                    sat_rng, movie_id % domain, domain, strength=corr, skew=skew
                )
            else:
                arrays[column] = zipf_codes(sat_rng, n, domain, skew)
        # ORDER BY (leading dimension column, join key), the common
        # fact-table clustering in production.
        leading = next(iter(extra))
        arrays = cluster_rows(arrays, order_by=[leading, "movie_id"])
        catalog.register(Table.from_arrays(name, arrays))
        catalog.add_join_edge("title", "id", name, "movie_id")

    satellite(
        "movie_companies",
        {
            "company_id": (400, 1.2, 0.0),
            "company_type_id": (2, 0.4, 0.5),
        },
    )
    satellite(
        "cast_info",
        {
            "person_id": (3000, 1.3, 0.0),
            "role_id": (11, 1.0, 0.6),
        },
    )
    satellite(
        "movie_info",
        {
            "info_type_id": (113, 1.2, 0.7),
        },
    )
    satellite(
        "movie_info_idx",
        {
            "info_type_id": (113, 1.4, 0.5),
        },
    )
    satellite(
        "movie_keyword",
        {
            "keyword_id": (1500, 1.4, 0.0),
        },
    )

    bundle = DatasetBundle(
        name="imdb",
        catalog=catalog,
        primary_keys={"title": "id"},
        foreign_keys={
            ("movie_companies", "movie_id"): "title",
            ("cast_info", "movie_id"): "title",
            ("movie_info", "movie_id"): "title",
            ("movie_info_idx", "movie_id"): "title",
            ("movie_keyword", "movie_id"): "title",
        },
        filter_columns={
            "title": ["kind_id", "production_year", "episode_nr"],
            "movie_companies": ["company_id", "company_type_id"],
            "cast_info": ["person_id", "role_id"],
            "movie_info": ["info_type_id"],
            "movie_info_idx": ["info_type_id"],
            "movie_keyword": ["keyword_id"],
        },
        seed=seed,
        scale=scale,
    )
    bundle.validate_references()
    return bundle
