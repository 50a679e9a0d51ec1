"""One pipeline for all four tasks: COUNT, selectivity, NDV and group NDV
each go through the same cache, admission, fallback ladder and drain rules
of :class:`EstimationService`."""

import threading

import pytest

from repro.estimators.base import CountEstimator, NdvEstimator
from repro.serving import EstimationService, ServingConfig
from repro.sql.query import AggKind, AggSpec, CardQuery, PredicateOp, TablePredicate

FILTERED = CardQuery(
    tables=("t",), predicates=(TablePredicate("t", "c", PredicateOp.LE, 5.0),)
)
#: task -> (a query of the task, the service's detail method for it)
TASKS = {
    "count": (FILTERED, "estimate_count_detail"),
    "selectivity": (FILTERED, "selectivity_detail"),
    "ndv": (
        CardQuery(tables=("t",), agg=AggSpec(AggKind.COUNT_DISTINCT, "t", "c")),
        "estimate_ndv_detail",
    ),
    "group_ndv": (
        CardQuery(tables=("t",), group_by=(("t", "c"),)),
        "group_ndv_detail",
    ),
}


class Answers(CountEstimator, NdvEstimator):
    """Answers every task with ``base`` plus its snapshot token."""

    name = "answers"

    def __init__(self, base: float):
        self.base = base
        self.token = 0
        self.error: Exception | None = None
        #: set, a request blocks in the model until the test releases it
        self.gate: threading.Event | None = None
        self.entered = threading.Event()
        self.calls = 0

    def cache_key(self, task, query):
        return (self.token,)

    def _answer(self, offset: float) -> float:
        self.calls += 1
        self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0)
        if self.error is not None:
            raise self.error
        return self.base + offset + self.token

    def estimate_count(self, query):
        return self._answer(100.0)

    def selectivity(self, query):
        return self._answer(0.5) / 1000.0

    def estimate_ndv(self, query):
        return self._answer(7.0)

    def group_ndv(self, query):
        return self._answer(9.0)


def make_service():
    model = Answers(0.0)
    fallback = Answers(1000.0)
    service = EstimationService(
        model,
        fallback,
        fallback,
        ServingConfig(deadline_ms=None, num_workers=1),
    )
    return service, model, fallback


def serve(service: EstimationService, task: str):
    query, method = TASKS[task]
    return getattr(service, method)(query)


@pytest.fixture(params=sorted(TASKS))
def task(request):
    return request.param


def test_a_repeat_hits_and_a_new_snapshot_misses(task):
    service, model, _ = make_service()
    with service:
        first, repeat = serve(service, task), serve(service, task)
        model.token = 1
        renewed = serve(service, task)
    assert [first.source, repeat.source, renewed.source] == ["model", "cache", "model"]
    assert first.value == repeat.value != renewed.value
    assert model.calls == 2
    assert [s.name for s in first.stages] == ["serve.cache_lookup", "serve.model"]
    assert [s.name for s in repeat.stages] == ["serve.cache_lookup"]
    stats = service.stats()
    assert stats.requests == 3 and stats.cache_hits == 1
    assert stats.path_latencies["model"].count == 2
    assert stats.path_latencies["cache"].count == 1
    assert service.stats_collector.requests[task].value == 3


def test_a_model_error_answers_from_the_fallback(task):
    service, model, fallback = make_service()
    model.error = RuntimeError("boom")
    with service:
        served = serve(service, task)
    assert served.source == "fallback-error" and served.path == "fallback"
    assert [s.name for s in served.stages] == [
        "serve.cache_lookup",
        "serve.model",
        "serve.fallback",
    ]
    assert fallback.calls == 1
    stats = service.stats()
    assert (stats.errors, stats.fallbacks) == (1, 1)
    assert stats.path_latencies["fallback"].count == 1


def test_after_close_a_request_is_answered_rejected(task):
    service, model, fallback = make_service()
    service.close()
    served = serve(service, task)
    assert served.source == "fallback-rejected"
    assert (model.calls, fallback.calls) == (0, 1)
    assert service.stats().rejected == 1


def test_close_waits_for_an_in_flight_request(task):
    service, model, _ = make_service()
    model.gate = threading.Event()
    served, closed = [], []
    request = threading.Thread(target=lambda: served.append(serve(service, task)))
    request.start()
    assert model.entered.wait(timeout=5.0)
    closer = threading.Thread(target=lambda: closed.append(service.close(timeout=10.0)))
    closer.start()
    closer.join(timeout=0.2)
    assert closer.is_alive(), "close() returned while a request was in flight"
    model.gate.set()
    closer.join(timeout=10.0)
    request.join(timeout=10.0)
    assert closed == [True]
    assert served[0].source == "model"
