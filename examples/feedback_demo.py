"""The runtime cardinality feedback loop, end to end.

Run with::

    python examples/feedback_demo.py [store-dir]

Walks the closed loop `repro.feedback` adds around ordinary query
execution -- no synthetic monitor probes anywhere in this script:

1. build ByteCard and enable the feedback log; wire an engine session
   with ``EngineConfig(enable_feedback=True)`` -- every executed query
   now pairs its estimates with the actual cardinalities observed;
2. shift a table's data distribution *after* its model was trained
   (the paper's drift scenario) and keep serving production queries --
   the stale model's Q-Errors pile up in the log as a by-product;
3. ``reassess_from_feedback`` gates the table on that evidence alone:
   the fallback is imposed and the forge schedules a retrain whose
   priority reflects the observed error mass (summed log-Q-Error);
4. the forge retrains in the background and hot-swaps the model; the
   monitor's next pass (or the in-job revalidation, when its random
   draw cooperates) lifts the fallback;
5. scrape the loop's own metrics: records captured and evidence
   consumed.
"""

from __future__ import annotations

import sys
import tempfile

from _shared import build_small_bytecard, shift_distribution

from repro.engine import EngineConfig, EngineSession
from repro.sql.query import CardQuery, PredicateOp, TablePredicate

TABLE, COLUMN = "impressions", "cost_millis"


def main(store_dir: str) -> None:
    print("== 1. build ByteCard + enable the runtime feedback log ==")
    bundle, bytecard = build_small_bytecard(scale=0.15, seed=71)
    log = bytecard.enable_feedback()
    session = EngineSession(
        bundle.catalog,
        suite=bytecard.as_suite(),
        config=EngineConfig(enable_feedback=True),
        registry=bytecard.obs,
    )
    assert session.feedback is log
    print(f"  feedback log attached (capacity {log.capacity})")

    print(f"== 2. drift {TABLE!r} and keep serving production queries ==")
    shift_distribution(bundle, TABLE, COLUMN)
    shift_distribution(bundle, TABLE, "user_segment")
    values = bundle.catalog.table(TABLE).column(COLUMN).values
    anchors = sorted(
        {float(values.min()), float(values.mean()), float(values.max())}
    )
    for index, anchor in enumerate(anchors):
        result = session.run(
            CardQuery(
                tables=(TABLE,),
                predicates=(
                    TablePredicate(TABLE, COLUMN, PredicateOp.GE, anchor),
                ),
                name=f"prod-{index}",
            )
        )
        print(f"  prod-{index}: {result.result_rows} rows")
    records = log.records_for(TABLE)
    print(f"  {len(records)} evidence records captured as a by-product:")
    for record in records:
        print(
            f"    est {record.estimated:12.1f}  actual {record.actual:12.1f}"
            f"  q-error {record.qerror:10.1f}  [{record.source}]"
        )

    # Multi-join traffic over the drifted table: each join step's actual
    # intermediate cardinality is captured too.
    from repro.workloads import aeolus_online

    workload = aeolus_online(bundle, num_queries=20, seed=5)
    for query in [q for q in workload.queries if len(q.joins) >= 2][:4]:
        session.run(query)
    joins = sum(1 for r in log.snapshot() if r.kind == "join")
    print(f"  + {joins} join-step records from multi-join traffic")

    print("== 3. gate the model on runtime evidence alone ==")
    with bytecard.forge(store_dir) as manager:
        report = bytecard.reassess_from_feedback(TABLE)
        assert report is not None and report.source == "feedback"
        print(
            f"  verdict: passed={report.passed}, worst q-error "
            f"{report.worst:.1f}, error mass {report.error_mass:.1f}"
        )
        print(f"  fallback imposed: {TABLE in bytecard.fallback_tables}")
        submitted = bytecard.obs.counter(
            "forge_jobs_submitted_total", kind="bn"
        ).value
        print(f"  forge bn jobs submitted: {submitted:.0f}")

        print("== 4. background retrain -> hot swap -> fallback lifted ==")
        assert manager.drain(timeout=120.0), "retrain missed its deadline"
    for attempt in range(1, 4):
        if TABLE not in bytecard.fallback_tables:
            break
        report = bytecard.reassess_table(TABLE)
        print(
            f"  monitor pass {attempt}: passed={report.passed}, "
            f"worst q-error {report.worst:.1f}"
        )
    assert TABLE not in bytecard.fallback_tables, "fallback never lifted"
    print("  fallback lifted: True")

    print("== 5. the loop's own metrics ==")
    for line in bytecard.metrics_text().splitlines():
        if line.startswith(
            ("feedback_", "monitor_feedback", "forge_jobs")
        ):
            print(f"  {line}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(tmp)
