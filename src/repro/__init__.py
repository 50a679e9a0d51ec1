"""repro: a reproduction of ByteCard (SIGMOD 2024).

Learned cardinality estimation for a columnar data warehouse: per-table
tree Bayesian networks + FactorJoin for COUNT, RBX for COUNT DISTINCT, and
the production framework around them (training service, model loader,
validator, monitor), evaluated end to end on a simulated ByteHouse-style
engine.  See README.md for a tour and DESIGN.md for the system inventory.

The most useful entry points::

    from repro import ByteCard, make_imdb, bind_sql, EngineSession

    bundle = make_imdb(scale=0.5)
    bytecard = ByteCard.build(bundle)
    query = bind_sql("SELECT COUNT(*) FROM title WHERE kind_id = 1",
                     bundle.catalog)
    bytecard.estimate_count(query)
"""

from repro.core.bytecard import ByteCard
from repro.core.config import ByteCardConfig
from repro.datasets import make_aeolus, make_imdb, make_stats
from repro.engine import EngineSession, EstimatorSuite
from repro.sql import bind_sql, parse_sql

__version__ = "1.0.0"

__all__ = [
    "ByteCard",
    "ByteCardConfig",
    "make_imdb",
    "make_stats",
    "make_aeolus",
    "EngineSession",
    "EstimatorSuite",
    "bind_sql",
    "parse_sql",
    "__version__",
]
