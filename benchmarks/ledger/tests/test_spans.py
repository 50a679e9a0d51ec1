"""Span recording and self-time arithmetic on synthetic spans."""

import threading

import pytest

from spans import Span, SpanRecorder, self_times


def make(name, start, end, parent=None):
    span = Span(name, start, parent, query_id=0)
    span.end = end
    return span


def test_self_time_is_duration_minus_direct_children():
    query = make("query", 0.0, 10.0)
    plan = make("optimizer.plan", 1.0, 6.0, query)
    first = make("tier.count", 2.0, 3.0, plan)
    second = make("tier.count", 3.5, 5.0, plan)
    execute = make("executor.execute", 6.0, 9.5, query)
    spans = [query, plan, first, second, execute]
    own = self_times(spans)
    assert own[id(query)] == pytest.approx(10.0 - 5.0 - 3.5)
    assert own[id(plan)] == pytest.approx(5.0 - 1.0 - 1.5)
    assert own[id(first)] == pytest.approx(1.0)
    assert own[id(first)] + own[id(second)] == pytest.approx(2.5)
    # self times partition the root: nothing counted twice, nothing lost
    assert sum(own.values()) == pytest.approx(query.duration)


def test_a_parent_outside_the_window_is_ignored():
    outside = make("query", 0.0, 4.0)
    inside = make("tier.count", 1.0, 2.0, outside)
    assert self_times([inside]) == {id(inside): pytest.approx(1.0)}


def test_recorder_nests_spans_and_tags_results():
    recorder = SpanRecorder()
    served = recorder.wrap(
        lambda query: (0.25, "cache"), "tier.selectivity",
        tag_of=lambda result: result[1], keep_arg=True,
    )

    def plan(query):
        return served(query)

    traced_plan = recorder.wrap(plan, "optimizer.plan")
    with recorder.span("query", query_id=7):
        assert traced_plan("q") == (0.25, "cache")
    by_name = {span.name: span for span in recorder.spans()}
    assert by_name["tier.selectivity"].parent is by_name["optimizer.plan"]
    assert by_name["optimizer.plan"].parent is by_name["query"]
    assert by_name["query"].parent is None
    assert by_name["tier.selectivity"].tag == "cache"
    assert by_name["tier.selectivity"].arg == "q"
    assert {span.query_id for span in recorder.spans()} == {7}


def test_a_raising_call_is_still_recorded_and_reraised():
    recorder = SpanRecorder()

    def boom(_query):
        raise ValueError("no model")

    with pytest.raises(ValueError):
        recorder.wrap(boom, "tier.group_ndv")("q")
    (span,) = recorder.spans()
    assert span.tag == "raised" and span.end >= span.start


def test_threads_keep_separate_stacks():
    recorder = SpanRecorder()

    def client(query_id):
        with recorder.span("query", query_id=query_id):
            with recorder.span("executor.execute"):
                pass

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    spans = recorder.spans()
    assert len(spans) == 8
    for span in spans:
        if span.parent is not None:
            assert span.parent.query_id == span.query_id
