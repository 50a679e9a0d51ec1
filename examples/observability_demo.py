"""One registry, every subsystem: the repro.obs observability layer.

Run with::

    python examples/observability_demo.py

Walks the full deployment with observability on (the default):

1. build ByteCard on AEOLUS -- the Model Loader and Model Monitor record
   load/evict/generation events and per-model Q-Error drift as they run;
2. serve a workload through the concurrent tier -- latencies split per
   path (cache / model / fallback), spans time each stage;
3. run GROUP BY queries through an ``EngineSession`` -- the optimizer logs
   per-decision timings with estimate provenance, the executor logs
   scan/join/resize/pre-sizing counters;
4. print the enriched EXPLAIN output and the Prometheus-style export.
"""

from __future__ import annotations

from repro.core import ByteCard, ByteCardConfig
from repro.datasets import make_aeolus
from repro.engine import EngineSession
from repro.engine.explain import explain_plan, explain_result
from repro.serving import ServingConfig
from repro.sql.query import (
    AggKind,
    AggSpec,
    CardQuery,
    JoinCondition,
    PredicateOp,
    TablePredicate,
)


def main() -> None:
    print("== 1. build ByteCard (loader + monitor instrumented) ==")
    bundle = make_aeolus(scale=0.3)
    config = ByteCardConfig(training_sample_rows=5000, rbx_corpus_size=400,
                            rbx_epochs=6, monitor_queries_per_table=6)
    bytecard = ByteCard.build(bundle, config=config)
    registry = bytecard.metrics()
    print(f"  generation     : {registry.get('loader_generation').value:.0f}")
    print(f"  loaded models  : {registry.get('loader_loaded_models').value:.0f}")
    print(f"  drift series   : {len(bytecard.monitor.drift)} models tracked")

    print("== 2. serve a small workload (per-path latencies) ==")
    service = bytecard.serve(ServingConfig(deadline_ms=200.0, num_workers=4))
    query = CardQuery(
        tables=("ads",),
        predicates=(TablePredicate("ads", "target_platform", PredicateOp.LE, 3.0),),
        name="obs-count",
    )
    for _ in range(5):
        service.estimate_count(query)  # 1 model miss, then cache hits
    detail = service.estimate_count_detail(query)
    stages = " ".join(str(s) for s in detail.stages)
    print(f"  source={detail.source}  path={detail.path}  stages: {stages}")
    for path, snap in sorted(service.stats().path_latencies.items()):
        print(f"  {path:<9}: n={snap.count}  p50={snap.p50 * 1e3:.3f} ms")

    print("== 3. plan and execute through the same registry ==")
    session = EngineSession(bundle.catalog, service=service)
    group_query = CardQuery(
        tables=("ads", "impressions"),
        joins=(JoinCondition("ads", "ad_id", "impressions", "ad_id"),),
        group_by=(("impressions", "user_segment"),),
        agg=AggSpec(AggKind.COUNT, None, None),
        name="obs-groupby",
    )
    plan = session.optimizer.plan(group_query)
    result = session.executor.execute(plan)
    session.run(group_query)  # replan: selectivities now come from cache
    print(explain_plan(session.optimizer.plan(group_query)))
    print(explain_result(result))

    print("== 4. the unified export ==")
    text = bytecard.metrics_text()
    wanted = ("serving_request_seconds_count", "loader_refresh_total",
              "monitor_qerror_p90", "engine_hash_resizes_total",
              "engine_presize_waste_slots_total", "optimizer_decision_seconds")
    for line in text.splitlines():
        if line.startswith(wanted):
            print(f"  {line}")
    print(f"  ... {len(text.splitlines())} export lines, "
          f"{len(registry)} metrics total")
    service.close()
    print("done.")


if __name__ == "__main__":
    main()
