"""Self-time arithmetic of layer spans, nested and interleaved."""

import numpy as np
import pytest

from spans import Recorder, self_times, traced_call, traced_generator


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.t = 0

    def __call__(self) -> int:
        return self.t

    def tick(self, n: int) -> None:
        self.t += n


def per_layer(rec: Recorder) -> dict:
    cols = rec.columns()
    own = self_times(cols["layer"], cols["start"], cols["end"], cols["parent"], len(rec.layer_names))
    return {name: int(own[i]) for i, name in enumerate(rec.layer_names) if own[i]}


def test_nested_spans_subtract_only_direct_children():
    # root [0, 100) > A [10, 90) > B [20, 70) > A [30, 40)
    layer = [0, 1, 2, 1]
    start = [0, 10, 20, 30]
    end = [100, 90, 70, 40]
    parent = [-1, 0, 1, 2]
    own = self_times(layer, start, end, parent, 3)
    assert own.tolist() == [20, 30 + 10, 40]
    assert own.sum() == 100


def test_sibling_spans_interleaving_two_layers():
    # root [0, 50) > A [0, 10), B [10, 25), A [25, 30), B [30, 50)
    layer = [0, 1, 2, 1, 2]
    start = [0, 0, 10, 25, 30]
    end = [50, 10, 25, 30, 50]
    parent = [-1, 0, 0, 0, 0]
    assert self_times(layer, start, end, parent, 3).tolist() == [0, 15, 35]


def test_same_layer_child_is_rejected():
    with pytest.raises(ValueError):
        self_times([1, 1], [0, 1], [10, 2], [-1, 0], 2)


def test_open_span_is_rejected():
    with pytest.raises(ValueError):
        self_times([1, 2], [0, 5], [10, 0], [-1, 0], 3)


def test_recorder_skips_same_layer_calls_but_counts_them():
    clock = FakeClock()
    rec = Recorder(["a", "b"], clock=clock)
    a, b = rec.layer_id["a"], rec.layer_id["b"]

    def inner_b():
        clock.tick(5)

    def inner_a():
        clock.tick(3)
        wrapped_b()
        clock.tick(2)

    wrapped_b = traced_call(rec, b, inner_b, "b.calls")
    wrapped_a = traced_call(rec, a, inner_a, "a.calls")

    def outer_a():
        clock.tick(1)
        wrapped_a()  # same layer: no new span

    rec.open(0)
    traced_call(rec, a, outer_a, "a.calls")()
    clock.tick(4)
    rec.close()
    assert rec.counts == {"a.calls": 2, "b.calls": 1}
    assert len(rec.layer) == 3  # root, a, b
    assert per_layer(rec) == {"(unattributed)": 4, "a": 6, "b": 5}


def test_interleaved_generator_flows_are_timed_per_resume():
    """Two flows of different layers resumed alternately by a scheduler of
    a third layer: every resume is its own span, so self times add up."""
    clock = FakeClock()
    rec = Recorder(["sched", "x", "y"], clock=clock)
    ids = rec.layer_id

    def flow(cost):
        for _ in range(3):
            clock.tick(cost)
            got = yield cost
            assert got == "go"
        clock.tick(cost)
        return cost

    fx = traced_generator(rec, ids["x"], flow, "x")(2)
    fy = traced_generator(rec, ids["y"], flow, "y")(7)

    def drive():
        fx.send(None)
        fy.send(None)
        results = []
        for gen in (fx, fy, fx, fy, fx, fy):
            clock.tick(1)
            try:
                gen.send("go")
            except StopIteration as stop:
                results.append(stop.value)
        return results

    rec.open(0)
    assert traced_call(rec, ids["sched"], drive, "d")() == [2, 7]
    rec.close()
    assert per_layer(rec) == {"sched": 6, "x": 8, "y": 28}
    assert rec.counts == {"d": 1, "x": 1, "y": 1}
    cols = rec.columns()
    # Every segment closed: nothing left open on the stack.
    assert (cols["end"] >= cols["start"]).all()
    assert np.count_nonzero(cols["layer"] == ids["x"]) == 4


def test_exception_thrown_into_wrapped_generator_closes_its_span():
    clock = FakeClock()
    rec = Recorder(["x"], clock=clock)

    def flow():
        try:
            yield 1
        except KeyError:
            clock.tick(3)
            yield 2

    gen = traced_generator(rec, rec.layer_id["x"], flow, "x")()
    rec.open(0)
    assert next(gen) == 1
    assert gen.throw(KeyError("k")) == 2
    gen.close()
    rec.close()
    assert per_layer(rec) == {"x": 3}
