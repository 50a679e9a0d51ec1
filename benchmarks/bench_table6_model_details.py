"""Table 6: details of ByteCard's models per dataset.

Reproduces the paper's Table 6: per-dataset model size and training time of
the BN ensemble, the FactorJoin join-buckets, and RBX -- including the
calibration fine-tuning run triggered for AEOLUS's high-NDV columns (the
only dataset where the paper reports an RBX training time).

Expected shape: BN and FactorJoin artifacts are megabyte-scale and train in
seconds-to-minutes; RBX is a few hundred KB, trained once; only AEOLUS gets
a fine-tuned RBX variant.
"""

from __future__ import annotations

from conftest import record_table, render_grid

from repro.core import ByteCardConfig, ModelForgeService, ModelMonitor, ModelRegistry
from repro.core.serialization import serialize_rbx
from repro.estimators.factorjoin.buckets import JoinBucketizer
from repro.utils.timer import Stopwatch


def _dataset_rows(lab, dataset: str, rbx_info) -> list[list[str]]:
    bundle = lab.bundles[dataset]
    config = ByteCardConfig()
    registry = ModelRegistry()
    forge = ModelForgeService(registry, config)

    infos = forge.train_count_models(bundle)
    bn_bytes = sum(i.nbytes for i in infos)
    bn_seconds = sum(i.seconds for i in infos)

    with Stopwatch() as sw:
        bucketizer = JoinBucketizer(bundle.catalog, num_buckets=200)
    fj_bytes = bucketizer.nbytes
    fj_seconds = sw.elapsed

    rows = [
        [dataset, "BN", f"{bn_bytes / 1e6:.2f} MB", f"{bn_seconds:.2f} s"],
        [dataset, "FactorJoin", f"{fj_bytes / 1e6:.2f} MB", f"{fj_seconds:.2f} s"],
    ]
    if dataset == "AEOLUS":
        # The calibration path: fine-tune RBX for the high-NDV columns.
        monitor = ModelMonitor(bundle, config)
        table, column = bundle.high_ndv_columns[0]
        samples = monitor.collect_column_samples(table, column)
        with Stopwatch() as sw:
            blob = forge.tune_column(lab.rbx_network, table, column, samples)
        rows.append(
            [
                dataset,
                "RBX (fine-tuned)",
                f"{len(blob) / 1e6:.2f} MB",
                f"{sw.elapsed:.2f} s",
            ]
        )
    else:
        rows.append(
            [dataset, "RBX", f"{rbx_info / 1e6:.2f} MB", "- (universal)"]
        )
    return rows


def test_table6_model_details(lab, benchmark):
    rbx_bytes = len(serialize_rbx(lab.rbx_network))
    rows = benchmark.pedantic(
        lambda: [
            row
            for dataset in ("IMDB", "STATS", "AEOLUS")
            for row in _dataset_rows(lab, dataset, rbx_bytes)
        ],
        rounds=1,
        iterations=1,
    )
    table = render_grid(
        "Table 6: Details of ByteCard's Models",
        ["Dataset", "Method", "Model Size", "Training Time"],
        rows,
    )
    record_table("table6_model_details", table)

    # Shape: every artifact is below the paper's ~5 MB per-table scale and
    # the RBX network is a few hundred KB.
    for row in rows:
        size_mb = float(row[2].split()[0])
        assert size_mb < 32.0
    assert rbx_bytes < 2_000_000
