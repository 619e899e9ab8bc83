"""Unit tests of the benchmark's own arithmetic and span recorder.

These run in tier-1 (they need nothing from ``src/``); the benchmark
runs themselves live in ``perfbench/run.py`` and are never collected.
"""

import pytest

from perfbench.spans import Span, SpanRecorder, covered_time, self_times
from perfbench.stats import (
    arrival_times,
    frame_gaps,
    run_closed_loop,
    run_open_loop,
    tail,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# -- the ">= 10 samples beyond" tail rule ------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    result = tail(range(1, 101))
    assert result.value == 90
    assert result.pct == pytest.approx(100 * 89 / 99)
    assert result.samples == 100
    assert sum(v > result.value for v in range(1, 101)) == 10


def test_tail_moves_up_with_more_samples():
    assert tail(range(1000)).pct > tail(range(100)).pct > tail(range(30)).pct > 50


def test_tail_falls_back_to_median_when_too_few_samples():
    result = tail([5.0, 1.0, 3.0, 2.0, 4.0])
    assert result.value == 3.0
    assert result.pct == 50.0
    assert not result.resolved


def test_tail_does_not_count_ties_as_beyond():
    values = [1.0] * 50 + [2.0] * 15
    result = tail(values)
    # 2.0 has nothing above it; 1.0 has the 15 samples of 2.0 above it
    assert result.value == 1.0
    assert sum(v > result.value for v in values) >= 10
    assert result.resolved


# -- open-loop timing from the due time ---------------------------------------


def test_open_loop_latency_counts_from_due_time():
    clock = FakeClock()

    def send(index):
        clock.now += 1.0
        return index

    records = run_open_loop([0.0, 0.1, 0.2], send, senders=1,
                            clock=clock, sleep=clock.sleep)
    # one sender, one second per request: later requests queue behind it
    assert [r.sent for r in records] == pytest.approx([0.0, 1.0, 2.0])
    assert [r.late for r in records] == pytest.approx([0.0, 0.9, 1.8])
    assert [r.latency for r in records] == pytest.approx([1.0, 1.9, 2.8])
    assert [r.outcome for r in records] == [0, 1, 2]


def test_open_loop_never_sends_early_and_records_errors():
    clock = FakeClock()

    def send(index):
        clock.now += 0.5
        if index == 1:
            raise RuntimeError("boom")
        return index

    records = run_open_loop([0.0, 3.0], send, senders=1,
                            clock=clock, sleep=clock.sleep)
    assert records[1].sent == pytest.approx(3.0)
    assert records[1].latency == pytest.approx(0.5)
    assert records[1].error == "RuntimeError: boom"
    assert records[1].outcome is None


def test_closed_loop_stops_before_overrunning_the_window():
    clock = FakeClock()

    def send(index):
        clock.now += 0.3
        return index

    records = run_closed_loop(send, seconds=1.0, clock=clock)
    assert len(records) == 3  # a fourth would end at 1.2 s
    assert all(r.late == 0.0 for r in records)
    assert records[-1].done == pytest.approx(0.9)


def test_closed_loop_sends_at_least_one_request():
    clock = FakeClock()

    def send(index):
        clock.now += 5.0
        return index

    assert len(run_closed_loop(send, seconds=1.0, clock=clock)) == 1


def test_arrivals_are_seeded_sorted_and_fixed_in_count():
    first = arrival_times(7, rate=0.3, seconds=20)
    assert first == arrival_times(7, rate=0.3, seconds=20)
    assert first != arrival_times(8, rate=0.3, seconds=20)
    assert len(first) == 7  # 6 gaps at 0.3/s over 20 s
    assert first == sorted(first)
    assert first[0] == 0.0 and first[-1] == 20.0


def test_frame_gaps_share_a_reply_between_its_frames():
    # a whole-clip reply: 4 frames arrive together 2 s after the send
    assert frame_gaps(10.0, [12.0] * 4) == pytest.approx([0.5] * 4)
    # a stream: first partial after 1 s, then one every 0.1 s
    assert frame_gaps(0.0, [1.0, 1.1, 1.2]) == pytest.approx([1.0, 0.1, 0.1])


# -- self time with overlapping children --------------------------------------


def _span(name, start, end, parent=None):
    return Span(id=name, name=name, start=start, end=end, parent=parent, request=None)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span("parent", 0.0, 10.0),
        _span("a", 1.0, 4.0, "parent"),
        _span("b", 3.0, 6.0, "parent"),  # overlaps a: [1, 6] counted once
        _span("c", 8.0, 12.0, "parent"),  # runs past the parent: only [8, 10]
        _span("grandchild", 1.5, 2.0, "a"),
    ]
    own = self_times(spans)
    assert own["parent"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["a"] == pytest.approx(3.0 - 0.5)
    assert own["c"] == pytest.approx(4.0)


def test_covered_time_of_disjoint_and_nested_intervals():
    assert covered_time(0, 10, [(1, 2), (3, 4)]) == pytest.approx(2.0)
    assert covered_time(0, 10, [(1, 9), (2, 3)]) == pytest.approx(8.0)
    assert covered_time(0, 10, []) == 0.0


def test_recorder_links_parents_requests_and_errors(tmp_path):
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    class Layer:
        def outer(self):
            clock.now += 1.0
            return self.inner()

        def inner(self):
            clock.now += 2.0
            return [1, 2, 3]

        def broken(self):
            raise ValueError("no")

        @classmethod
        def build(cls):
            return cls()

    recorder.wrap(Layer, "outer", "outer")
    recorder.wrap(Layer, "inner", "inner",
                  after=lambda args, kwargs, result, state: {"n": len(result)})
    recorder.wrap(Layer, "broken", "broken")
    recorder.wrap(Layer, "build", "build")
    recorder.set_request("r1")
    layer = Layer.build()
    assert layer.outer() == [1, 2, 3]
    with pytest.raises(ValueError):
        layer.broken()
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["inner"].attrs == {"n": 3}
    assert by_name["outer"].duration == pytest.approx(3.0)
    assert by_name["broken"].attrs == {"error": True}
    assert {s.request for s in recorder.spans} == {"r1"}
    path = recorder.dump(tmp_path / "spans.jsonl")
    from perfbench.spans import load_spans

    assert [s.name for s in load_spans([path])] == [s.name for s in recorder.spans]
