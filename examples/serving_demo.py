"""The serving tier: cache, deadlines, and refresh safety.

Run with::

    python examples/serving_demo.py

Demonstrates the runtime role ByteCard plays inside a query-engine node
(the paper's daemon process / Inference Engine on the optimizer's
critical path):

1. build ByteCard on AEOLUS and wrap it in an ``EstimationService``;
2. replay a repeated workload from 8 threads -- equivalent requests share
   one cached entry, so only the first of them runs BN inference;
3. issue a request under an impossibly tight deadline -- the service
   degrades to the traditional estimator and records the fallback;
4. refresh ByteCard's models mid-serving -- once the rebuilt estimators
   are installed the affected cache entries are invalidated by generation,
   never served stale;
5. drive a full ``EngineSession`` through the service.
"""

from __future__ import annotations

import threading
import time

from repro.core import ByteCard, ByteCardConfig
from repro.datasets import make_aeolus
from repro.serving import ServingConfig
from repro.sql.query import CardQuery, PredicateOp, TablePredicate
from repro.utils.rng import derive_rng


def main() -> None:
    print("== 1. build ByteCard and start the serving tier ==")
    bundle = make_aeolus(scale=0.3)
    config = ByteCardConfig(training_sample_rows=5000, rbx_corpus_size=400,
                            rbx_epochs=6, monitor_queries_per_table=6)
    bytecard = ByteCard.build(bundle, config=config)
    service = bytecard.serve(ServingConfig(deadline_ms=50.0, num_workers=8,
                                           queue_capacity=128))
    rng = derive_rng(bundle.seed, "serving-demo")
    queries = []
    for index in range(8):
        table = sorted(bundle.filter_columns)[index % len(bundle.filter_columns)]
        column = bundle.filter_columns[table][0]
        values = bundle.catalog.table(table).column(column).values
        anchor = float(values[int(rng.integers(len(values)))])
        queries.append(CardQuery(
            tables=(table,),
            predicates=(TablePredicate(table, column, PredicateOp.LE, anchor),),
            name=f"demo-{index}",
        ))
    print(f"  serving {len(queries)} distinct single-table queries")

    print("== 2. replay from 8 threads ==")

    def client() -> None:
        for _ in range(25):
            for query in queries:
                service.estimate_count(query)

    threads = [threading.Thread(target=client) for _ in range(8)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    stats = service.stats()
    print(f"  requests       : {stats.requests}  "
          f"({stats.requests / elapsed:,.0f} req/s)")
    print(f"  cache hit rate : {stats.cache_hit_rate:.1%}")
    print(f"  model calls    : {stats.cache_misses}")
    print(f"  p99 latency    : {stats.p99_latency * 1e3:.3f} ms")

    print("== 3. deadline miss degrades to the traditional estimator ==")
    uncached = CardQuery(
        tables=(queries[0].tables[0],),
        predicates=(TablePredicate(
            queries[0].tables[0], queries[0].predicates[0].column,
            PredicateOp.GE, 0.0,
        ),),
        name="demo-uncached",
    )
    detail = service.estimate_count_detail(uncached, deadline_ms=0.001)
    print(f"  source={detail.source}  value={detail.value:,.0f}  "
          f"degraded={detail.degraded}")
    print(f"  fallbacks recorded: {service.stats().fallbacks}")

    print("== 4. a model refresh invalidates cached estimates ==")
    before = service.stats().cache_invalidations
    table = queries[0].tables[0]
    bytecard.forge_service.train_count_models(bundle, tables=[table])
    bytecard.refresh()
    service.estimate_count(queries[0])  # recomputed against the new model
    after = service.stats().cache_invalidations
    print(f"  invalidations: {before} -> {after}")

    print("== 5. an EngineSession planning through the serving tier ==")
    from repro.engine import EngineSession

    session = EngineSession(bundle.catalog, service=service)
    result = session.run(queries[0])
    print(f"  result_rows={result.result_rows}  "
          f"total_cost={result.total_cost:,.1f}")
    service.close()
    print("done.")


if __name__ == "__main__":
    main()
