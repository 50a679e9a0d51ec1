"""The ByteCard model lifecycle: forge, registry, loader, monitor.

Run with::

    python examples/model_lifecycle.py

Walks the production loop of the paper's Figure 2 on AEOLUS:

1. the Model Preprocessor selects columns, maps types, collects join
   patterns, and builds the join buckets;
2. the ModelForge Service trains per-table BNs and the universal RBX
   network, publishing timestamped blobs to the (simulated cloud) registry;
3. the Model Loader refreshes, size-checks, health-validates, and
   initializes inference contexts;
4. the Model Monitor gates model quality with auto-generated test queries;
5. an ingestion signal (Kafka-style) reaches the forge, which retrains the
   table in the background, stores the new version, and hot-swaps it in;
6. a deliberately corrupted model blob is refused by the health detector.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core import ByteCard, ByteCardConfig
from repro.core.modelforge import IngestionSignal
from repro.core.serialization import deserialize_bn, serialize_bn
from repro.datasets import make_aeolus


def main() -> None:
    print("== 1. dataset + preprocessing ==")
    bundle = make_aeolus(scale=0.5)
    config = ByteCardConfig(rbx_corpus_size=1000, rbx_epochs=15,
                            monitor_queries_per_table=10)
    bytecard = ByteCard(bundle, config=config)
    info = bytecard.preprocessor.preprocessor_info(bundle.filter_columns)
    join_keys = [(r.table, r.column) for r in info if r.is_join_key]
    print(f"  model_preprocessor_info rows : {len(info)}")
    print(f"  collected join keys          : {join_keys}")

    print("\n== 2. ModelForge training ==")
    for model_info in bytecard.forge_service.train_count_models(bundle):
        print(
            f"  trained bn/{model_info.name:<12} "
            f"{model_info.nbytes / 1024:7.1f} KB in {model_info.seconds:.2f}s "
            f"(ts={model_info.timestamp})"
        )
    rbx_info = bytecard.forge_service.train_rbx_universal()
    print(f"  trained rbx/universal  {rbx_info.nbytes / 1024:7.1f} KB "
          f"in {rbx_info.seconds:.2f}s")

    print("\n== 3. Model Loader refresh ==")
    bytecard.refresh()
    print(f"  loaded: {bytecard.loader.loaded_keys()}")
    print(f"  resident bytes: {bytecard.loader.total_bytes():,}")

    print("\n== 4. Model Monitor gating ==")
    for report in bytecard.run_monitor(fine_tune=False):
        if report.untested:
            verdict, p90 = "UNTESTED -> traditional fallback", "     n/a"
        elif report.passed:
            verdict, p90 = "PASS", f"{report.p90:8.2f}"
        else:
            verdict, p90 = "GATED -> traditional fallback", f"{report.p90:8.2f}"
        print(f"  {report.name:<28} p90 Q-Error={p90} {verdict}")

    print("\n== 5. ingestion signal -> forge retrain -> hot swap ==")
    before = bytecard.registry.latest("bn", "impressions")
    with tempfile.TemporaryDirectory() as store_dir:
        with bytecard.forge(store_dir) as forge:
            job = forge.submit_signal(
                IngestionSignal(table="impressions", source="kafka",
                                details={"topic": "ad_impressions",
                                         "offset": 123456})
            )
            job.wait()
    after = bytecard.registry.latest("bn", "impressions")
    assert before is not None and after is not None
    print(f"  job {job.kind}/{job.name}: {job.state.value}")
    print(f"  impressions model timestamp: {before.timestamp} -> {after.timestamp}")
    print(f"  serving generation: {bytecard.snapshot().generation}")

    print("\n== 6. health detector refuses a corrupted model ==")
    record = bytecard.registry.latest("bn", "ads")
    assert record is not None
    model = deserialize_bn(record.blob)
    model.cpds[0] = model.cpds[0] * 3.0  # no longer a distribution
    bytecard.registry.publish("bn", "ads", serialize_bn(model))
    report = bytecard.loader.refresh()
    print(f"  refused: {report.refused}")
    print("  the previous healthy version keeps serving:")
    engine = bytecard.loader.get("bn", "ads")
    assert engine is not None
    estimate = engine.estimate(
        engine.featurize_sql_query(
            "SELECT COUNT(*) FROM ads WHERE target_platform = 1"
        )
    )
    print(f"  estimate from resident model: {estimate:.0f} rows")


if __name__ == "__main__":
    main()
