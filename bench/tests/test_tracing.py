import threading

import pytest

from tracing import Span, Tracer, coverage, descendants, self_times, summarize


def _spans():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping, as two
    # threads would), and g [2, 3] inside a.
    return [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),
        Span("g", 2.0, 3.0, parent=1),
    ]


def test_self_time_subtracts_the_union_of_child_intervals():
    assert self_times(_spans()) == [5.0, 2.0, 3.0, 1.0]


def test_coverage_is_layer_self_time_over_root_lane_seconds():
    spans = _spans()
    assert descendants(spans, 0) == [1, 2, 3]
    assert coverage(spans, 0) == pytest.approx(0.6)
    assert coverage(spans, 0, lanes=2) == pytest.approx(0.3)


def test_summary_adds_up_per_name():
    spans = _spans() + [Span("g", 3.5, 4.0, parent=1)]
    summary = summarize(spans)
    assert summary["g"]["count"] == 2
    assert summary["g"]["total_s"] == pytest.approx(1.5)
    assert summary["a"]["self_s"] == pytest.approx(1.5)


def test_tracer_nests_per_thread_and_threads_name_their_parent():
    tracer = Tracer(enabled=True)
    with tracer.span("root") as root:
        with tracer.span("child"):
            with tracer.span("grandchild", trace_id="t1"):
                pass

        def work():
            with tracer.span("thread", parent=root.index):
                with tracer.span("inner"):
                    pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["root"].parent is None
    assert by_name["child"].parent == root.index
    assert by_name["grandchild"].parent == by_name["child"].index
    assert by_name["grandchild"].attrs == {"trace_id": "t1"}
    assert by_name["thread"].parent == root.index
    assert by_name["inner"].parent == by_name["thread"].index
    assert all(span.end >= span.start for span in tracer.spans)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("root") as span:
        span.attrs["x"] = 1
    assert tracer.spans == []
