"""The ledger's four workloads and the SQL streams replayed through them.

A workload fixes a dataset, a pool of query templates, a repeat/unique
mix, a serving tier and a client count.  The template pool is part of the
workload's definition (its ``WorkloadSpec.seed`` is constant), and every
template is equally likely, so the *mix* of query shapes is the same for
every ``--seed``; the seed decides the order of arrivals and the literals
of every unique variant.  That keeps a latency percentile comparable
between two seeds, which a pool re-drawn per seed does not (its median
moved 2x between seeds when tried).

The program under test receives only the SQL strings.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.datasets import make_aeolus, make_imdb, make_stats
from repro.datasets.base import DatasetBundle
from repro.errors import ReproError
from repro.serving.fingerprint import query_fingerprint
from repro.sql import bind_sql
from repro.sql.query import CardQuery
from repro.stream.arrivals import ArrivalConfig, ArrivalProcess, FrequencyClass
from repro.workloads.generator import Workload, WorkloadSpec, generate_workload

DATASETS = {"imdb": make_imdb, "stats": make_stats, "aeolus": make_aeolus}

#: ``tags.Count`` lexes as the COUNT keyword (a ``src/`` bug this benchmark
#: must not depend on either way): templates naming it are dropped *by
#: name*, so the streams stay byte-identical once the lexer is fixed.
UNPARSEABLE_COLUMNS = frozenset({("tags", "Count")})

#: one frequency class: every template equally likely (see module docstring)
UNIFORM_MIX = (FrequencyClass("all", 1.0),)


@dataclasses.dataclass(frozen=True)
class WorkloadDef:
    """One named workload of the ledger."""

    name: str
    why: str
    dataset: str
    #: the template pool; its seed is fixed, it is part of the definition
    spec: WorkloadSpec
    repeat_fraction: float
    #: "service" (in-process ``ByteCard.serve()``) or "fleet"
    tier: str
    clients: int
    #: arrivals generated per stream; the first 10 % are warm-up
    stream_length: int
    #: republish one table's BN and refresh every this many queries (0: never)
    refresh_every: int = 0

    def scaled(self, divisor: int) -> "WorkloadDef":
        """The same workload with its stream (and refresh period) cut."""
        return dataclasses.replace(
            self,
            stream_length=self.stream_length // divisor,
            refresh_every=self.refresh_every // divisor,
        )


_DASH_SPEC = WorkloadSpec(
    name="dash",
    num_queries=64,
    min_tables=1,
    max_tables=4,
    aggregation_fraction=0.3,
    or_group_fraction=0.3,
    num_ndv_queries=16,
    seed=7,
)

WORKLOADS: dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        WorkloadDef(
            name="dash_repeat",
            why=(
                "repeat-heavy dashboard traffic: estimates are cache hits, so SQL "
                "bind, fingerprint, estimate cache and executor do the work"
            ),
            dataset="imdb",
            spec=_DASH_SPEC,
            repeat_fraction=0.9,
            tier="service",
            clients=1,
            stream_length=2400,
        ),
        WorkloadDef(
            name="adhoc_join",
            why=(
                "every arrival a unique 3-5 table join: every estimate misses, so "
                "evidence build, BN kernel, FactorJoin and batch wait own plan time"
            ),
            dataset="stats",
            spec=WorkloadSpec(
                name="adhoc",
                num_queries=64,
                min_tables=3,
                max_tables=5,
                or_group_fraction=0.3,
                num_ndv_queries=0,
                seed=7,
            ),
            repeat_fraction=0.0,
            tier="service",
            clients=1,
            stream_length=1000,
        ),
        WorkloadDef(
            name="fleet_mixed",
            why=(
                "half-repeated online mix from 2 clients through a worker process: "
                "frame codec, router dispatch, worker batching, store warm-start"
            ),
            dataset="aeolus",
            spec=WorkloadSpec(
                name="fleet",
                num_queries=64,
                min_tables=1,
                max_tables=3,
                num_ndv_queries=16,
                seed=7,
            ),
            repeat_fraction=0.5,
            tier="fleet",
            clients=2,
            stream_length=5000,
        ),
        WorkloadDef(
            name="churn_refresh",
            why=(
                "dash_repeat's templates with a model republish + refresh every 100 "
                "queries: generation bumps, invalidation fan-out, estimator rebuild"
            ),
            dataset="imdb",
            spec=_DASH_SPEC,
            repeat_fraction=0.7,
            tier="service",
            clients=1,
            stream_length=2400,
            refresh_every=100,
        ),
    )
}


def build_dataset(workload: WorkloadDef) -> DatasetBundle:
    return DATASETS[workload.dataset](scale=1.0)


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Stream:
    """A seed's arrivals for one workload, as SQL text."""

    sqls: tuple[str, ...]
    #: the generator's query behind each SQL string -- used only to compute
    #: ground truth for the output checks, never handed to the program
    queries: tuple[CardQuery, ...]
    #: name of the template each arrival derives from (verbatim or re-anchored)
    strata: tuple[str, ...]
    sql_hash: str
    arrival_config: ArrivalConfig
    templates: int
    templates_dropped_by_name: int
    templates_rejected: int
    variants_rejected: int

    def __len__(self) -> int:
        return len(self.sqls)


def _names_unparseable_column(query: CardQuery) -> bool:
    columns = {(p.table, p.column) for p in query.all_predicates()}
    columns.update(query.group_by)
    columns.add((query.agg.table, query.agg.column))
    return bool(columns & UNPARSEABLE_COLUMNS)


def _round_trips(query: CardQuery, sql: str, catalog) -> bool:
    """``sql`` binds back to the same canonical fingerprint as ``query``."""
    try:
        return query_fingerprint(bind_sql(sql, catalog)) == query_fingerprint(query)
    except ReproError:
        return False


def usable_templates(
    bundle: DatasetBundle, spec: WorkloadSpec
) -> tuple[list[CardQuery], int, int]:
    """The workload's template pool: ``(kept, dropped_by_name, rejected)``."""
    generated = generate_workload(bundle, spec)
    kept: list[CardQuery] = []
    dropped = rejected = 0
    for template in generated.queries + generated.ndv_queries:
        if _names_unparseable_column(template):
            dropped += 1
        elif not _round_trips(template, template.to_sql(), bundle.catalog):
            rejected += 1
        else:
            kept.append(template)
    return kept, dropped, rejected


def build_stream(
    workload: WorkloadDef, seed: int, bundle: DatasetBundle | None = None
) -> Stream:
    """The first ``workload.stream_length`` arrivals under ``seed``."""
    bundle = bundle or build_dataset(workload)
    length = workload.stream_length
    templates, dropped, rejected = usable_templates(bundle, workload.spec)
    defaults = ArrivalConfig()
    config = ArrivalConfig(
        # 1.5x the arrivals needed, so thinning and rejects cannot run short
        horizon_s=1.5 * length / defaults.base_qps + defaults.day_s,
        repeat_fraction=workload.repeat_fraction,
        frequency_classes=UNIFORM_MIX,
        seed=seed,
    )
    arrivals = ArrivalProcess(
        bundle.catalog, Workload(workload.spec.name, queries=templates), config
    )
    sqls: list[str] = []
    queries: list[CardQuery] = []
    strata: list[str] = []
    variants_rejected = 0
    for event in arrivals.events():
        if len(sqls) == length:
            break
        sql = event.query.to_sql()
        # A re-anchored literal may print in a form the lexer does not read
        # (exponent notation); such a variant is dropped, never "fixed".
        if not event.repeated and not _round_trips(event.query, sql, bundle.catalog):
            variants_rejected += 1
            continue
        sqls.append(sql)
        queries.append(event.query)
        strata.append(event.template)
    if len(sqls) < length:
        raise RuntimeError(
            f"{workload.name}: only {len(sqls)} of {length} arrivals generated"
        )
    digest = hashlib.sha256("\n".join(sqls).encode()).hexdigest()
    return Stream(
        sqls=tuple(sqls),
        queries=tuple(queries),
        strata=tuple(strata),
        sql_hash=digest,
        arrival_config=config,
        templates=len(templates),
        templates_dropped_by_name=dropped,
        templates_rejected=rejected,
        variants_rejected=variants_rejected,
    )
