"""The asynchronous model lifecycle: drift-triggered retraining end to end.

Run with::

    python examples/forge_demo.py [store_dir]

Walks the loop `repro.forge` adds around the core framework:

1. build ByteCard and attach a forge manager -- every current model is
   persisted into a versioned, checksummed artifact store;
2. corrupt a table's Bayesian network CPTs in place (one-hot rows are
   row-stochastic, so the health validator accepts them -- the realistic
   *silent* drift case the Q-Error gate exists for);
3. one monitor pass gates the table, imposes the traditional fallback, and
   -- through the assessment listener -- schedules a background retrain;
4. a forge worker retrains, persists a new artifact version, hot-swaps it
   through ``ByteCard.refresh()`` (a new model snapshot, so the cached
   answer of the drifted model is never served again), and the
   re-assessment lifts the fallback;
5. roll the model back one version and forward again, hot-swapping both
   ways;
6. restart: a **fresh** ByteCard warm-starts from the store directory and
   serves estimates with zero training calls.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.core import ByteCard, ByteCardConfig
from repro.core.serialization import deserialize_bn, serialize_bn
from repro.datasets import make_aeolus
from repro.forge import ForgeConfig
from repro.sql.query import CardQuery, PredicateOp, TablePredicate

TABLE = "ads"
QUERY = CardQuery(
    tables=(TABLE,),
    predicates=(
        TablePredicate(TABLE, "target_platform", PredicateOp.EQ, 1.0),
    ),
)


def corrupt_cpts(bytecard: ByteCard, table: str) -> None:
    """Publish a one-hot-CPT version of a table's BN: passes the health
    validator, fails the Q-Error gate."""
    record = bytecard.registry.latest("bn", table)
    assert record is not None
    model = deserialize_bn(record.blob)
    for cpd in model.cpds:
        flat = cpd.reshape(-1, cpd.shape[-1])
        flat[:] = 0.0
        flat[:, 0] = 1.0
    bytecard.registry.publish("bn", table, serialize_bn(model))
    bytecard.refresh()


def main(store_dir: Path) -> None:
    print("== 1. build + attach forge ==")
    bundle = make_aeolus(scale=0.15, seed=91)
    config = ByteCardConfig(
        training_sample_rows=4000,
        rbx_corpus_size=300,
        rbx_epochs=5,
        monitor_queries_per_table=6,
        join_bucket_count=40,
        max_bins=32,
    )
    bytecard = ByteCard.build(bundle, config=config, run_monitor=False)
    manager = bytecard.forge(store_dir, ForgeConfig(backoff_base_s=0.01))
    service = bytecard.serve()
    print(f"  store: {store_dir}")
    for kind, name in manager.store.keys():
        record = manager.store.current(kind, name)
        assert record is not None
        print(f"  persisted {kind}/{name:<14} v{record.version} "
              f"({record.nbytes / 1024:6.1f} KB)")

    print("\n== 2. silent drift: corrupted CPTs pass the health check ==")
    corrupt_cpts(bytecard, TABLE)
    detail = service.estimate_count_detail(QUERY, deadline_ms=None)
    print(f"  corrupted model serves {detail.value:.0f} rows "
          f"(source={detail.source}) -- and the cache now holds it")
    generation_before = bytecard.loader.generation

    print("\n== 3. monitor pass: gate, fallback, background retrain ==")
    reports = manager.run_monitor_cycle()
    report = {r.name: r for r in reports}[TABLE]
    print(f"  {TABLE}: p90 Q-Error={report.p90:.1f} "
          f"passed={report.passed} -> fallback={sorted(bytecard.fallback_tables)}")

    print("\n== 4. forge worker: retrain -> persist -> hot-swap -> re-assess ==")
    if not manager.drain(600.0):
        raise SystemExit("background retrain did not finish in time")
    versions = [v.version for v in manager.store.versions("bn", TABLE)]
    print(f"  stored versions of bn/{TABLE}: {versions}")
    print(f"  loader generation: {generation_before} -> "
          f"{bytecard.loader.generation}")
    detail = service.estimate_count_detail(QUERY, deadline_ms=None)
    print(f"  post-swap estimate {detail.value:.0f} rows "
          f"(source={detail.source}: a miss under the new snapshot)")
    print(f"  fallback tables now: {sorted(bytecard.fallback_tables)}")

    print("\n== 5. rollback / roll forward ==")
    artifact = manager.rollback("bn", TABLE)
    print(f"  rolled back to v{artifact.version} and hot-swapped it in")
    retrained = manager.submit_retrain("bn", TABLE)
    retrained.wait(600.0)
    current = manager.store.current("bn", TABLE)
    assert current is not None
    print(f"  retrain job {retrained.state.value}: current is now "
          f"v{current.version}")
    manager.close()
    service.close()

    print("\n== 6. restart: warm start from the store, zero training ==")
    import repro.core.modelforge as modelforge

    def no_training(*_args, **_kwargs):
        raise AssertionError("warm start must not train")

    saved = modelforge.fit_tree_bn, modelforge.train_rbx
    modelforge.fit_tree_bn = modelforge.train_rbx = no_training  # type: ignore
    try:
        restarted = ByteCard.from_store(bundle, store_dir, config=config)
    finally:
        modelforge.fit_tree_bn, modelforge.train_rbx = saved
    assert restarted.forge_service.history == []
    print(f"  loaded: {restarted.loader.loaded_keys()}")
    print(f"  estimate from warm-started models: "
          f"{restarted.estimate_count(QUERY):.0f} rows")
    print("  training calls during restart: 0")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory(prefix="forge-demo-") as tmp:
            main(Path(tmp) / "store")
