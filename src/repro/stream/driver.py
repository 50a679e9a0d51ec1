"""The soak driver: replay query + ingest events against a live ByteCard.

:class:`StreamDriver` merges the pre-generated arrival and ingest streams
into one virtual-time event loop and plays it against the full stack:

* queries are served through the estimation service (cache, admission,
  deadline fallback) *and* executed through an
  :class:`~repro.engine.session.EngineSession` with feedback capture on,
  so every event both measures the served estimate's Q-Error against the
  actual result and deposits runtime evidence in the feedback log;
* ingest events mutate the catalog in place through the storage mutation
  API (:meth:`Table.append_rows` / :meth:`Table.delete_where`), with zone
  maps invalidated by partition generation;
* at every window boundary the driver asks the monitor to re-assess each
  table *from runtime evidence alone*; a failed verdict gates the table
  and -- when a :class:`~repro.forge.ForgeManager` is attached -- submits
  a prioritized retrain that publishes mid-traffic;
* the per-window timeline (Q-Error quantiles, P99 latency, cache hit
  rate, fallback shares, detections, retrain landings, stalls) is read
  from :class:`~repro.serving.stats.ServiceStats` deltas and from the
  retrain jobs the driver ran.

There is one time axis.  The driver advances its
:class:`~repro.stream.clock.SimClock` to each event's timestamp and then
runs the forge jobs due by then on its own thread (the manager's
scheduler has no workers), so a retrain lands at the first event after
its submission -- Table 3 puts a BN + FactorJoin retrain far below one
inter-arrival gap.  After the event horizon the driver advances the clock
to each pending retry's backoff until no job is left.  The timeline is
therefore a function of the seeds alone; only ``latency_p99_ms``, a
wall-time measurement, varies between runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from repro.engine import EngineConfig, EngineSession
from repro.errors import SchemaError
from repro.forge.scheduler import JobState
from repro.serving.config import ServingConfig
from repro.stream.arrivals import ArrivalProcess, QueryEvent
from repro.stream.clock import SimClock
from repro.stream.ingest import IngestEvent, IngestProcess, apply_ingest

__all__ = ["StreamConfig", "WindowStats", "SoakTimeline", "StreamDriver"]


@dataclass(frozen=True)
class StreamConfig:
    """Tunables of the soak loop."""

    #: timeline bucket width, in virtual seconds
    window_s: float = 30.0
    #: a window "stalls" when (admission rejections + deadline timeouts)
    #: exceed this share of its requests
    stall_fallback_budget: float = 0.1
    #: extra windows of traffic replayed after the event horizon so
    #: post-retrain recovery is measured on live queries
    recovery_windows: int = 2

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise SchemaError("window_s must be positive")
        if self.stall_fallback_budget < 0:
            raise SchemaError("stall_fallback_budget must be >= 0")
        if self.recovery_windows < 0:
            raise SchemaError("recovery_windows must be >= 0")


@dataclass(frozen=True)
class WindowStats:
    """One timeline bucket of the soak run."""

    index: int
    t_start_s: float
    t_end_s: float
    #: "traffic" during the event horizon, "recovery" afterwards
    phase: str
    queries: int
    repeated: int
    probes: int
    ingest_events: int
    rows_appended: int
    rows_deleted: int
    qerror_p50: float
    qerror_p90: float
    qerror_max: float
    #: service-wide P99 over the recent latency window, milliseconds
    latency_p99_ms: float
    cache_hit_rate: float
    #: (rejections + timeouts) / requests within this window
    fallback_share: float
    rejected: int
    timeouts: int
    #: tables whose feedback re-assessment failed in this window
    detections: tuple[str, ...]
    #: retrains that published during this window
    retrains_landed: int
    #: tables gated to the traditional estimator at window close
    gated_tables: tuple[str, ...]
    stalled: bool
    #: raw per-query Q-Errors (excluded from the JSON summary)
    qerrors: tuple[float, ...] = field(default=(), repr=False)

    def summary(self) -> dict:
        doc = asdict(self)
        doc.pop("qerrors")
        return doc


@dataclass
class SoakTimeline:
    """The driver's full record of one soak run."""

    windows: list[WindowStats] = field(default_factory=list)
    #: drift detections: {table, window, at_s, p90, error_mass}
    detections: list[dict] = field(default_factory=list)
    #: retrain landings: {window, at_s, count}
    landings: list[dict] = field(default_factory=list)
    #: virtual time of the first ingest event (None: no ingest)
    first_drift_at_s: float | None = None

    # ------------------------------------------------------------------
    def baseline_p90(self) -> float | None:
        """P90 Q-Error over all queries in windows fully before the drift."""
        if self.first_drift_at_s is None:
            cutoff = float("inf")
        else:
            cutoff = self.first_drift_at_s
        sample = [
            q
            for w in self.windows
            if w.t_end_s <= cutoff
            for q in w.qerrors
        ]
        return float(np.quantile(sample, 0.9)) if sample else None

    def recovered_p90(self) -> float | None:
        """P90 Q-Error over the post-drain recovery windows."""
        sample = [
            q
            for w in self.windows
            if w.phase == "recovery"
            for q in w.qerrors
        ]
        return float(np.quantile(sample, 0.9)) if sample else None

    def stalled_windows(self) -> list[WindowStats]:
        return [w for w in self.windows if w.stalled]

    def detected_tables(self) -> set[str]:
        return {d["table"] for d in self.detections}

    def retrains_landed(self) -> int:
        return sum(entry["count"] for entry in self.landings)

    def as_dict(self) -> dict:
        return {
            "windows": [w.summary() for w in self.windows],
            "detections": self.detections,
            "landings": self.landings,
            "first_drift_at_s": self.first_drift_at_s,
            "baseline_p90": self.baseline_p90(),
            "recovered_p90": self.recovered_p90(),
            "stalled_windows": [w.index for w in self.stalled_windows()],
        }


def merge_events(
    queries: Sequence[QueryEvent], ingests: Sequence[IngestEvent]
) -> tuple:
    """One timeline, ordered by timestamp; ingest wins ties.

    A mutation stamped at ``t`` is visible to every query stamped at ``t``,
    matching the "data lands, then analysts query it" reading of equal
    timestamps.
    """
    tagged = [(e.at_s, 0, e.seq, e) for e in ingests]
    tagged += [(e.at_s, 1, e.seq, e) for e in queries]
    tagged.sort(key=lambda item: item[:3])
    return tuple(item[3] for item in tagged)


class _Accumulator:
    """Mutable per-window tallies."""

    def __init__(self) -> None:
        self.qerrors: list[float] = []
        self.queries = 0
        self.repeated = 0
        self.probes = 0
        self.ingest_events = 0
        self.rows_appended = 0
        self.rows_deleted = 0


class StreamDriver:
    """Replay merged streams against ByteCard; record the window timeline."""

    def __init__(
        self,
        bytecard,
        arrivals: ArrivalProcess,
        ingest: IngestProcess | None = None,
        *,
        clock: SimClock | None = None,
        config: StreamConfig | None = None,
        manager=None,
        serving_config: ServingConfig | None = None,
        engine_config: EngineConfig | None = None,
    ):
        self.bytecard = bytecard
        self.arrivals = arrivals
        self.ingest = ingest
        self.clock = clock or SimClock()
        self.config = config or StreamConfig()
        self.manager = manager
        self.serving_config = serving_config or ServingConfig(
            deadline_ms=250.0
        )
        self.engine_config = engine_config or EngineConfig(
            enable_feedback=True
        )
        if not self.engine_config.enable_feedback:
            raise SchemaError(
                "the soak driver requires EngineConfig(enable_feedback=True)"
            )
        if manager is not None and manager.scheduler.clock is not self.clock:
            raise SchemaError(
                "the soak driver runs the forge on its own clock: attach "
                "bytecard.forge(dir, ForgeConfig(num_workers=0), clock=clock)"
            )
        #: retrains that published since the last window closed
        self._landed = 0

    # ------------------------------------------------------------------
    def merged_events(self) -> tuple:
        ingest_events = self.ingest.events() if self.ingest else ()
        return merge_events(self.arrivals.events(), ingest_events)

    # ------------------------------------------------------------------
    def run(self) -> SoakTimeline:
        bytecard = self.bytecard
        feedback = bytecard.enable_feedback()
        service = bytecard.serve(config=self.serving_config)
        session = EngineSession(
            bytecard.bundle.catalog,
            service=service,
            config=self.engine_config,
            registry=bytecard.obs,
        )
        timeline = SoakTimeline()
        events = self.merged_events()
        ingest_events = self.ingest.events() if self.ingest else ()
        if ingest_events:
            timeline.first_drift_at_s = min(e.at_s for e in ingest_events)
        horizon = self.arrivals.config.horizon_s
        try:
            window_end = self._play(
                timeline, events, session, service,
                t_start=0.0, t_stop=horizon, phase="traffic",
            )
            if self.config.recovery_windows > 0:
                duration = self.config.recovery_windows * self.config.window_s
                recovery = self.arrivals.extension(window_end, duration)
                self._play(
                    timeline, recovery, session, service,
                    t_start=window_end, t_stop=window_end + duration,
                    phase="recovery",
                )
        finally:
            service.close()
        return timeline

    # ------------------------------------------------------------------
    def _play(
        self, timeline, events, session, service, t_start, t_stop, phase
    ) -> float:
        """Replay ``events`` over ``[t_start, t_stop)``, then run the forge
        until no job is left; returns the final window boundary (a multiple
        of ``window_s`` from ``t_start``)."""
        window_s = self.config.window_s
        window_start = t_start
        window_end = t_start + window_s
        acc = _Accumulator()
        prev_stats = service.stats()
        for event in events:
            while event.at_s >= window_end:
                prev_stats = self._close_window(
                    timeline, acc, service, session,
                    window_start, window_end, phase, prev_stats,
                )
                acc = _Accumulator()
                window_start = window_end
                window_end += window_s
            self.clock.advance_to(event.at_s)
            self._run_forge()
            if isinstance(event, IngestEvent):
                summary = apply_ingest(session.catalog, event)
                acc.ingest_events += 1
                if summary["action"] == "append":
                    acc.rows_appended += summary["rows"]
                else:
                    acc.rows_deleted += summary["rows"]
            else:
                self._serve_query(event, session, service, acc)
        while window_start < t_stop:
            prev_stats = self._close_window(
                timeline, acc, service, session,
                window_start, window_end, phase, prev_stats,
            )
            acc = _Accumulator()
            window_start = window_end
            window_end += window_s
        self.clock.advance_to(window_start)
        self._run_forge(drain=True)
        return window_start

    def _serve_query(self, event, session, service, acc) -> None:
        estimate = service.estimate_count_detail(event.query)
        result = session.run(event.query)
        actual = max(1.0, float(result.result_rows))
        served = max(1.0, float(estimate.value))
        acc.qerrors.append(max(served / actual, actual / served))
        acc.queries += 1
        acc.repeated += 1 if event.repeated else 0
        acc.probes += 1 if event.probe else 0

    # ------------------------------------------------------------------
    def _close_window(
        self, timeline, acc, service, session,
        t_start, t_end, phase, prev_stats,
    ):
        detections = self._reassess(timeline, t_end)
        stats = service.stats()
        requests = stats.requests - prev_stats.requests
        rejected = stats.rejected - prev_stats.rejected
        timeouts = stats.timeouts - prev_stats.timeouts
        hits = stats.cache_hits - prev_stats.cache_hits
        misses = stats.cache_misses - prev_stats.cache_misses
        landed, self._landed = self._landed, 0
        if landed > 0:
            timeline.landings.append(
                {
                    "window": len(timeline.windows),
                    "at_s": t_end,
                    "count": landed,
                }
            )
        fallback_share = (
            (rejected + timeouts) / requests if requests > 0 else 0.0
        )
        qerrors = acc.qerrors
        window = WindowStats(
            index=len(timeline.windows),
            t_start_s=t_start,
            t_end_s=t_end,
            phase=phase,
            queries=acc.queries,
            repeated=acc.repeated,
            probes=acc.probes,
            ingest_events=acc.ingest_events,
            rows_appended=acc.rows_appended,
            rows_deleted=acc.rows_deleted,
            qerror_p50=float(np.quantile(qerrors, 0.5)) if qerrors else 1.0,
            qerror_p90=float(np.quantile(qerrors, 0.9)) if qerrors else 1.0,
            qerror_max=float(max(qerrors)) if qerrors else 1.0,
            latency_p99_ms=stats.p99_latency * 1e3,
            cache_hit_rate=(
                hits / (hits + misses) if hits + misses > 0 else 0.0
            ),
            fallback_share=fallback_share,
            rejected=rejected,
            timeouts=timeouts,
            detections=tuple(detections),
            retrains_landed=landed,
            gated_tables=tuple(sorted(self.bytecard.fallback_tables)),
            stalled=(
                requests > 0
                and fallback_share > self.config.stall_fallback_budget
            ),
            qerrors=tuple(qerrors),
        )
        timeline.windows.append(window)
        return stats

    def _reassess(self, timeline, at_s) -> list[str]:
        """Ask the monitor for a runtime-evidence verdict per table."""
        log = self.bytecard.feedback_log
        if log is None:
            return []
        failed = []
        for table in log.scoped_tables():
            report = self.bytecard.reassess_from_feedback(table)
            if report is not None and report.passed is False:
                failed.append(table)
                timeline.detections.append(
                    {
                        "table": table,
                        "window": len(timeline.windows),
                        "at_s": at_s,
                        "p90": report.p90,
                        "error_mass": report.error_mass,
                    }
                )
        return failed

    # ------------------------------------------------------------------
    def _run_forge(self, drain: bool = False) -> None:
        """Run the retrains due at the clock's time; count the published.

        With ``drain``, then advance the clock to each pending job's due
        time (a retry's backoff) and run it, until no job is left.
        """
        if self.manager is None:
            return
        while True:
            ran = self.manager.run_ready()
            self._landed += sum(job.state is JobState.SUCCEEDED for job in ran)
            ready_at = self.manager.scheduler.next_ready_at() if drain else None
            if ready_at is None:
                return
            self.clock.advance_to(ready_at)
