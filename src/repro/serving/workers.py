"""The worker pool: bounded concurrency with admission control.

A small thread pool with a hard cap on the number of *admitted* requests
(running + queued, whether on a worker or inline on their caller's thread via
:meth:`WorkerPool.run_inline`).  When the bound is reached, admission
returns ``None`` instead of queueing -- the service answers such requests
with the traditional estimator immediately, which is the paper's degradation
contract: under a traffic spike the optimizer must keep planning (with
coarser estimates) rather than stall behind an unbounded inference queue.

The pool runs its own **daemon** worker threads instead of a
:class:`~concurrent.futures.ThreadPoolExecutor` so teardown can be bounded:
``ThreadPoolExecutor`` registers an interpreter-exit hook that *joins* its
workers, so a single hung inference call would wedge process exit forever.
Here :meth:`shutdown` can give up on a hung worker after a timeout -- the
thread is abandoned (daemonized, it dies with the process) and queued work
is either finished or cancelled, never silently dropped: a cancelled future
raises ``CancelledError`` to its waiter, which the serving tier answers with
the traditional fallback.

Shutdown ordering for a graceful close is: :meth:`refuse_new` (new requests
degrade instead of queueing), :meth:`drain` (bounded wait for in-flight
work), then :meth:`shutdown` (bounded join, cancelling the queue if the
drain timed out).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, TypeVar

T = TypeVar("T")


class WorkerPool:
    """Bounded thread pool with admission control and bounded teardown."""

    def __init__(
        self,
        num_workers: int = 4,
        queue_capacity: int = 64,
        thread_name_prefix: str = "repro-serving",
    ):
        self.num_workers = num_workers
        self.queue_capacity = queue_capacity
        # One slot per worker plus the queue bound; acquired at admission,
        # released when the task finishes (success, failure, or cancel).
        self._slots = threading.Semaphore(num_workers + queue_capacity)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queue: deque[tuple[Future, Callable[[], object]]] = deque()
        #: admitted tasks (queued or running) not yet finished
        self._active = 0
        self._refusing = False
        self._shutdown = False
        self._threads = [
            threading.Thread(
                target=self._run,
                name=f"{thread_name_prefix}-{i}",
                daemon=True,
            )
            for i in range(num_workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, task: tuple[Future, Callable[[], object]] | None) -> bool:
        """Take a slot and count one admitted task; queue it when given."""
        if self._refusing or self._shutdown:
            return False
        if not self._slots.acquire(blocking=False):
            return False
        with self._lock:
            if self._shutdown or self._refusing:
                self._slots.release()
                return False
            self._active += 1
            if task is not None:
                self._queue.append(task)
                self._work.notify()
        return True

    def try_submit(
        self, fn: Callable[..., T], *args, **kwargs
    ) -> Future | None:
        """Submit ``fn`` if a slot is free; ``None`` means *rejected*."""
        future: Future = Future()
        if not self._admit((future, lambda: fn(*args, **kwargs))):
            return None
        return future

    def run_inline(self, fn: Callable[[], T]) -> Future | None:
        """Admit ``fn`` like :meth:`try_submit`, but run it here and now.

        For callers with nothing to time out: the task holds a slot and is
        seen by :meth:`refuse_new` / :meth:`drain` like any pooled one, but
        executes on the calling thread -- no queue, no cross-thread wake-up.
        The returned future is already resolved (``None``: *rejected*).
        """
        if not self._admit(None):
            return None
        future: Future = Future()
        self._resolve(future, fn)
        return future

    def _resolve(self, future: Future, thunk: Callable[[], object]) -> None:
        try:
            if future.set_running_or_notify_cancel():
                try:
                    result = thunk()
                except BaseException as exc:
                    future.set_exception(exc)
                else:
                    future.set_result(result)
        finally:
            self._finish_one()

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._shutdown:
                    self._work.wait()
                if self._queue:
                    future, thunk = self._queue.popleft()
                elif self._shutdown:
                    return
                else:  # pragma: no cover - spurious wakeup
                    continue
            self._resolve(future, thunk)

    def _finish_one(self) -> None:
        self._slots.release()
        with self._lock:
            self._active -= 1
            if self._active == 0:
                self._idle.notify_all()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def refuse_new(self) -> None:
        """Stop admitting: every future ``try_submit`` returns ``None``."""
        self._refusing = True

    @property
    def refusing(self) -> bool:
        """Whether :meth:`refuse_new` (or a shutdown) stopped admission."""
        return self._refusing

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every admitted task finished; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._active:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def shutdown(
        self,
        wait: bool = True,
        timeout: float | None = None,
        cancel_futures: bool = False,
    ) -> bool:
        """Stop the pool.

        ``cancel_futures`` cancels queued-but-unstarted tasks (their waiters
        see ``CancelledError``); already-running tasks always finish on
        their own.  With ``wait``, worker threads are joined for at most
        ``timeout`` seconds total; a hung worker is abandoned (daemon
        thread) rather than wedging the caller.  Returns ``True`` when
        every worker thread exited.
        """
        self._refusing = True
        cancelled: list[Future] = []
        with self._lock:
            self._shutdown = True
            if cancel_futures:
                while self._queue:
                    future, _thunk = self._queue.pop()
                    cancelled.append(future)
            self._work.notify_all()
        for future in cancelled:
            future.cancel()
            self._finish_one()
        if not wait:
            return False
        deadline = None if timeout is None else time.monotonic() + timeout
        joined = True
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(remaining)
            joined = joined and not thread.is_alive()
        return joined

    def close(self, timeout: float | None = None) -> bool:
        """Graceful bounded teardown: refuse, drain, then shut down.

        Returns ``True`` when in-flight work drained within ``timeout``;
        on ``False`` the queue was cancelled and any hung worker abandoned.
        """
        start = time.monotonic()
        self.refuse_new()
        drained = self.drain(timeout)
        remaining = None
        if timeout is not None:
            remaining = max(0.0, timeout - (time.monotonic() - start))
        self.shutdown(wait=True, timeout=remaining, cancel_futures=not drained)
        return drained

    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
