"""Tests for observation policies (configurable observation contexts)."""

from types import SimpleNamespace

import pytest

from repro.core import APPLICATION_LEVEL, CONTROL, Component, Message, MIDDLEWARE_LEVEL, OS_LEVEL
from repro.core.errors import ObservationError
from repro.core.observation import ObservationProbe
from repro.core.obspolicy import ObservationPolicy
from repro.metrics import collect_telemetry, enable_telemetry
from repro.runtime import SmpSimRuntime

from tests.runtime.conftest import make_pipeline_app


def probe_with(policy):
    c = Component("c")
    c.add_required("out")
    return ObservationProbe(c, policy=policy)


def data_msg():
    return Message(payload=b"x" * 100)


def test_policy_validation():
    with pytest.raises(ObservationError, match="unknown"):
        ObservationPolicy(levels=frozenset({"bogus"}))
    with pytest.raises(ObservationError, match="sample_every"):
        ObservationPolicy(sample_every=0)


def test_full_policy_records_everything():
    probe = probe_with(ObservationPolicy.full())
    probe.record_send("out", data_msg(), 100)
    assert probe.send_timer.count == 1
    assert probe.bytes_sent > 0


def test_counters_only_policy_skips_timing_and_bytes():
    probe = probe_with(ObservationPolicy.counters_only())
    for _ in range(5):
        probe.record_send("out", data_msg(), 100)
    assert probe.data_sends.value == 5  # counters stay exact
    assert probe.send_timer.count == 0
    assert probe.bytes_sent == 0


def test_sampled_policy_times_one_in_n():
    probe = probe_with(ObservationPolicy.sampled(4))
    for _ in range(40):
        probe.record_send("out", data_msg(), 100)
    assert probe.data_sends.value == 40
    assert probe.send_timer.count == 10


def test_sampled_policy_with_telemetry_attached():
    """Telemetry rides on the same operation stream as the timers: the
    1-in-n choice still runs over every send and receive in order
    (control messages included), while telemetry and the Table-2
    counters see every data message."""
    c = Component("c")
    c.add_required("out")
    c.add_provided("in")
    probe = ObservationProbe(c, policy=ObservationPolicy.sampled(3))
    rt = SimpleNamespace(containers={"c": SimpleNamespace(probe=probe, component=c, extra={})})
    enable_telemetry(rt, window_ns=1_000)  # each stamped op opens a window
    for i in range(12):  # ops 2i+1 (send) and 2i+2 (receive)
        stamped = Message(payload=b"x" * 100, sent_at_us=10 * i)
        probe.record_send("out", stamped, 100 + 2 * i)
        probe.record_receive("in", stamped, 200 + 2 * i, now_us=10 * i + 1)
    probe.record_send("out", Message(payload=None, kind=CONTROL, tag="eos"), 7)  # op 25
    probe.record_send("out", data_msg(), 500)  # op 26
    probe.record_receive("in", data_msg(), 600)  # op 27: timed
    registry = collect_telemetry(rt, final_ns=1_000_000)

    # Timed: ops 3, 9, 15, 21 (sends) and 6, 12, 18, 24, 27 (receives).
    assert (probe.send_timer.count, probe.send_timer.total_ns) == (4, 102 + 108 + 114 + 120)
    assert (probe.recv_timer.count, probe.recv_timer.total_ns) == (5, 204 + 210 + 216 + 222 + 600)
    assert probe.send_timers_by_iface["out"].count == 4
    assert probe.latency_timer.count == 4  # op 27 carries no send stamp
    assert probe.data_sends.value == 13
    assert probe.data_receives.value == 13
    assert probe.bytes_sent == probe.bytes_received == 13 * data_msg().size_bytes

    def value(name, **labels):
        return registry.counter(name, component="c", **labels).value

    assert value("messages_sent_total", iface="out") == 13
    assert value("messages_received_total", iface="in") == 13
    assert registry.histogram("send_duration_ns", component="c", iface="out").count == 14
    assert registry.histogram("receive_duration_ns", component="c", iface="in").count == 13
    assert registry.histogram("delivery_latency_ns", component="c", iface="in").count == 12
    assert len(registry.windows) == 24  # folded at every roll, not once


def test_disabled_level_raises_at_report():
    probe = probe_with(ObservationPolicy.counters_only())
    probe.report(APPLICATION_LEVEL)  # allowed
    with pytest.raises(ObservationError, match="disabled"):
        probe.report(OS_LEVEL)
    with pytest.raises(ObservationError, match="disabled"):
        probe.report(MIDDLEWARE_LEVEL)


def test_runtime_wide_policy_applies_to_all_components():
    app = make_pipeline_app()
    rt = SmpSimRuntime()
    rt.observation_policy = ObservationPolicy.counters_only()
    rt.run(app)
    reports = rt.collect(plan=[("prod", APPLICATION_LEVEL), ("prod", MIDDLEWARE_LEVEL)])
    rt.stop()
    assert reports[("prod", APPLICATION_LEVEL)]["sends"] == 5
    # disabled level: the service answers with an error marker, not a crash
    assert "error" in reports[("prod", MIDDLEWARE_LEVEL)]


def test_per_component_policy_override():
    app = make_pipeline_app()
    app.components["prod"].place(observation_policy=ObservationPolicy.counters_only())
    rt = SmpSimRuntime()
    rt.run(app)
    reports = rt.collect(
        plan=[("prod", MIDDLEWARE_LEVEL), ("cons", MIDDLEWARE_LEVEL)]
    )
    rt.stop()
    assert "error" in reports[("prod", MIDDLEWARE_LEVEL)]
    assert reports[("cons", MIDDLEWARE_LEVEL)]["receive"]["count"] > 0


def test_sampling_still_measures_representative_means():
    """Sampled timing converges to the same mean as full timing on a
    uniform workload (middleware durations are per-size deterministic)."""
    means = {}
    for tag, policy in (("full", None), ("sampled", ObservationPolicy.sampled(3))):
        app = make_pipeline_app(n_messages=30, payload_bytes=50_000)
        if policy:
            app.components["prod"].place(observation_policy=policy)
        rt = SmpSimRuntime()
        rt.run(app)
        reports = rt.collect(plan=[("prod", MIDDLEWARE_LEVEL)])
        rt.stop()
        means[tag] = reports[("prod", MIDDLEWARE_LEVEL)]["send"]["mean_ns"]
    assert means["sampled"] == pytest.approx(means["full"], rel=0.05)
