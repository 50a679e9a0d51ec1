"""The streaming soak in miniature: drift arrives mid-traffic, the loop heals.

Run with::

    python examples/stream_demo.py [store-dir]

``repro.stream`` replays a pre-generated query arrival stream and a
drift-recipe ingest stream against a live ByteCard on a simulated clock:

1. build ByteCard and compile the two streams -- diurnal query arrivals
   (repeats + uniques + post-drift probes) and one ``shift`` drift recipe
   that appends rows past the trained domain at t=30s;
2. run the :class:`~repro.stream.StreamDriver` soak: queries are served
   through the estimation service *and* executed, so runtime feedback
   accumulates; ingest events mutate the catalog in place through
   ``Table.append_rows`` with generation-keyed zone-map invalidation;
3. at every window boundary the monitor re-assesses from feedback
   evidence alone; the drifted table is gated and a prioritized retrain
   is submitted to the forge, which the driver runs at the next event --
   it publishes mid-traffic, on the same virtual clock;
4. print the windowed timeline -- watch the drift window's Q-Error spike,
   the detection, the landing, and the recovery windows returning to the
   pre-drift baseline.
"""

from __future__ import annotations

import sys
import tempfile

from _shared import build_small_bytecard

from repro.forge import ForgeConfig
from repro.stream import (
    ArrivalConfig,
    ArrivalProcess,
    DriftRecipe,
    IngestProcess,
    SimClock,
    StreamConfig,
    StreamDriver,
)
from repro.workloads import aeolus_online

HORIZON_S = 90.0
WINDOW_S = 30.0


def main(store_dir: str) -> None:
    print("== 1. build ByteCard + compile the arrival and ingest streams ==")
    bundle, bytecard = build_small_bytecard(
        scale=0.06,
        training_sample_rows=1500,
        rbx_corpus_size=100,
        rbx_epochs=2,
        monitor_queries_per_table=5,
        join_bucket_count=20,
        max_bins=16,
    )
    workload = aeolus_online(bundle, num_queries=12, seed=5)
    ingest = IngestProcess(
        bundle.catalog,
        (
            DriftRecipe(
                "impressions", "cost_millis", "shift",
                at_s=30.0, fraction=0.5, batches=2, spread_s=5.0,
            ),
        ),
        seed=29,
    )
    arrivals = ArrivalProcess(
        bundle.catalog,
        workload,
        ArrivalConfig(
            horizon_s=HORIZON_S, base_qps=1.5, day_s=HORIZON_S / 1.5, seed=17
        ),
        probes=ingest.probes(),
    )
    n_queries = len(arrivals.events())
    n_ingest = len(ingest.events())
    print(f"  {n_queries} query arrivals, {n_ingest} ingest batches "
          f"over {HORIZON_S:.0f} virtual seconds")

    print("== 2-3. soak: serve + execute + reassess + retrain mid-traffic ==")
    clock = SimClock()
    # No forge workers: the driver runs each retrain at the next event.
    forge_config = ForgeConfig(num_workers=0)
    with bytecard.forge(store_dir, forge_config, clock=clock) as manager:
        driver = StreamDriver(
            bytecard,
            arrivals,
            ingest,
            clock=clock,
            manager=manager,
            config=StreamConfig(window_s=WINDOW_S, recovery_windows=1),
        )
        timeline = driver.run()
        scheduler = manager.scheduler
        left = scheduler.pending_count() + scheduler.running_count()

    print("== 4. the windowed timeline ==")
    header = (
        f"  {'win':>3}  {'phase':<8}  {'span':<10}  {'q':>4}  {'probes':>6}"
        f"  {'p50':>6}  {'p90':>8}  {'detected':<12}  {'landed':>6}  gated"
    )
    print(header)
    for w in timeline.windows:
        span = f"[{w.t_start_s:.0f},{w.t_end_s:.0f})"
        print(
            f"  {w.index:>3}  {w.phase:<8}  {span:<10}"
            f"  {w.queries:>4}  {w.probes:>6}"
            f"  {w.qerror_p50:>6.1f}  {w.qerror_p90:>8.1f}"
            f"  {','.join(w.detections) or '-':<12}"
            f"  {w.retrains_landed or '-':>6}"
            f"  {','.join(w.gated_tables) or '-'}"
        )
    assert timeline.detected_tables(), "drift was never detected"
    assert timeline.retrains_landed() >= 1, "no retrain published"
    assert left == 0, "a forge job was left after the soak"
    assert not timeline.stalled_windows(), "serving stalled"
    baseline = timeline.baseline_p90()
    recovered = timeline.recovered_p90()
    print(f"  baseline p90 {baseline:.1f}  ->  recovered p90 {recovered:.1f}")
    print(f"  detections: {sorted(timeline.detected_tables())}, "
          f"retrains landed: {timeline.retrains_landed()}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(tmp)
