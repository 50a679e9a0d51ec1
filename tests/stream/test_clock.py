"""Tests for the injectable clock and components running on virtual time."""

import threading
import time

import pytest

from repro.forge.scheduler import JobPriority, JobState, TrainingScheduler
from repro.stream import SYSTEM_CLOCK, Clock, SimClock, SystemClock


class TestSimClock:
    def test_starts_at_start(self):
        assert SimClock().now() == 0.0
        assert SimClock(start=5.0).now() == 5.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == 2.0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_advance_to_is_monotonic(self):
        clock = SimClock()
        clock.advance_to(10.0)
        clock.advance_to(4.0)  # never rewinds
        assert clock.now() == 10.0

    def test_satisfies_clock_protocol(self):
        assert isinstance(SimClock(), Clock)
        assert isinstance(SystemClock(), Clock)


class TestSystemClock:
    def test_now_tracks_monotonic(self):
        before = time.monotonic()
        now = SYSTEM_CLOCK.now()
        after = time.monotonic()
        assert before <= now <= after


class TestSchedulerOnVirtualTime:
    """A scheduler without workers runs jobs only when its owner calls
    ``run_ready``, at the owner's virtual time."""

    def test_retry_backoff_expires_only_at_a_later_virtual_time(self):
        """A failed job's backoff deadline lives on the injected clock: it
        retries only when ``run_ready`` is called at a virtual time past
        it, no matter how much real time passes."""
        clock = SimClock()
        attempts = []

        def runner(job):
            attempts.append(clock.now())
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return "ok"

        scheduler = TrainingScheduler(
            runner,
            num_workers=0,
            max_attempts=2,
            backoff_base_s=30.0,  # virtual seconds
            backoff_max_s=60.0,
            clock=clock,
        )
        job = scheduler.submit("bn", "t")
        assert scheduler.run_ready() == [job]
        assert job.state is JobState.PENDING
        assert scheduler.next_ready_at() == 30.0
        # Real time passes, virtual time does not: no retry.
        time.sleep(0.05)
        assert scheduler.run_ready() == []
        clock.advance(29.0)
        assert scheduler.run_ready() == []
        assert not job.done
        clock.advance(2.0)
        assert scheduler.run_ready() == [job]
        assert job.state is JobState.SUCCEEDED
        assert job.attempts == 2
        assert attempts == [0.0, 31.0]
        assert scheduler.next_ready_at() is None

    def test_job_timestamps_come_from_the_clock(self):
        clock = SimClock(start=100.0)
        scheduler = TrainingScheduler(
            lambda job: "ok", num_workers=0, clock=clock
        )
        job = scheduler.submit("bn", "t")
        assert job.created_s == 100.0
        assert not job.done  # nothing runs until the owner asks
        clock.advance(5.0)
        assert scheduler.run_ready() == [job]
        assert job.finished_s == 105.0

    def test_jobs_run_on_the_calling_thread_most_urgent_first(self):
        ran = []
        threads_before = set(threading.enumerate())
        scheduler = TrainingScheduler(
            lambda job: ran.append((job.name, threading.get_ident())),
            num_workers=0,
            clock=SimClock(),
        )
        scheduler.submit("bn", "normal", priority=JobPriority.NORMAL)
        scheduler.submit("bn", "urgent", priority=JobPriority.URGENT)
        assert [job.name for job in scheduler.run_ready()] == [
            "urgent", "normal",
        ]
        me = threading.get_ident()
        assert ran == [("urgent", me), ("normal", me)]
        assert set(threading.enumerate()) <= threads_before

    def test_drain_runs_what_is_due_and_never_blocks(self):
        clock = SimClock()

        def runner(job):
            if job.attempts == 1:
                raise RuntimeError("transient")
            return "ok"

        scheduler = TrainingScheduler(
            runner,
            num_workers=0,
            backoff_base_s=3600.0,
            backoff_max_s=3600.0,
            clock=clock,
        )
        job = scheduler.submit("bn", "t")
        began = time.monotonic()
        assert scheduler.drain(timeout=None) is False  # the backoff pends
        assert time.monotonic() - began < 5.0
        assert job.attempts == 1
        clock.advance(3600.0)
        assert scheduler.drain() is True
        assert job.state is JobState.SUCCEEDED
        assert scheduler.pending_count() == scheduler.running_count() == 0

    def test_only_a_scheduler_without_workers_takes_a_clock(self):
        with pytest.raises(ValueError):
            TrainingScheduler(lambda job: None, num_workers=1, clock=SimClock())
        with pytest.raises(ValueError):
            TrainingScheduler(lambda job: None, num_workers=-1)

    def test_a_threaded_scheduler_runs_its_own_jobs(self):
        with TrainingScheduler(lambda job: None, num_workers=1) as scheduler:
            assert scheduler.clock is SYSTEM_CLOCK
            with pytest.raises(RuntimeError):
                scheduler.run_ready()
