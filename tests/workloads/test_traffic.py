"""Tests for the traffic-model scale workload.

The contracts under test mirror the CI gates: the trace digest is
identical for every shard count, one flush per receive instant
reproduces the per-envelope reference digests, and the measure ->
repartition -> rerun loop improves shard balance without touching the
digest.
"""

import json

import pytest

from repro.sim.shard import PROFILE_SCHEMA, repartition_from_profile
from repro.workloads import (
    TrafficConfig,
    build_traffic_graph,
    run_traffic,
    traffic_profile_payload,
)

CFG = TrafficConfig(n_components=200, n_sessions=40, ticks=2, spin=5)


def test_graph_is_deterministic_and_complete():
    graph = build_traffic_graph(CFG)
    again = build_traffic_graph(CFG)
    assert graph["names"] == again["names"]
    assert graph["edges"] == again["edges"]
    assert len(graph["names"]) == CFG.n_components
    n_ingress, n_front, n_back, n_sink = graph["tiers"]
    assert n_ingress + n_front + n_back + n_sink == CFG.n_components
    names = set(graph["names"])
    assert all(a in names and b in names for a, b in graph["edges"])


def test_traffic_rejects_tiny_graphs():
    with pytest.raises(ValueError, match="at least 8"):
        build_traffic_graph(TrafficConfig(n_components=4))


def test_digest_invariant_across_shard_counts():
    reference = run_traffic(CFG, 1)
    assert reference["events"] == reference["requests"] * (2 + 2 * CFG.fanout)
    for n_shards in (2, 4):
        result = run_traffic(CFG, n_shards)
        assert result["digest"] == reference["digest"]
        assert result["events"] == reference["events"]
        assert result["makespan_ns"] == reference["makespan_ns"]


#: Trace digest of each seed at 3 shards under the per-envelope
#: reference release (``Staging.release_below``, one kernel event per
#: envelope below a release horizon).
TRAFFIC_DIGESTS = {
    1: "afc3d582497f73075c451b976144fcbfc103f1b9a969186b28f7bad93dc25b11",
    7: "476893927b75e4cf1e245fe4ecab090a1d9f043a22ceed75e49bb3ed84e4b34d",
    42: "c264ef6e1419cfdab596917afc3f27e7a88c4b2244d4e16d2b359630c078ca12",
}


@pytest.mark.parametrize("seed", (1, 7, 42))
def test_batched_release_matches_per_envelope(seed):
    config = TrafficConfig(n_components=120, n_sessions=24, ticks=2, spin=0, seed=seed)
    result = run_traffic(config, 3)
    assert result["digest"] == TRAFFIC_DIGESTS[seed]
    assert result["events"] == 360
    # One flush per (shard, receive instant) on this tick-aligned
    # workload: 360 deliveries in 12 kernel callbacks.
    assert (result["released"], result["batches"]) == (360, 12)


def test_repartition_improves_balance_and_preserves_digest():
    config = TrafficConfig(n_components=400, ticks=2, spin=0)
    graph = build_traffic_graph(config)
    static = run_traffic(config, 4, graph=graph)
    profile = traffic_profile_payload(static)
    tuned_partition = repartition_from_profile(
        graph["names"], graph["edges"], 4, profile
    )
    tuned = run_traffic(config, 4, partition=tuned_partition, graph=graph)
    assert tuned["digest"] == static["digest"]
    # The heavy sessions skew the static partition; the observed profile
    # must recover a measurably flatter event spread.
    assert max(tuned["shard_events"]) < max(static["shard_events"])


def test_profile_payload_is_schema_clean_json():
    result = run_traffic(TrafficConfig(n_components=64, ticks=1, spin=0), 2)
    payload = traffic_profile_payload(result)
    assert payload["schema"] == PROFILE_SCHEMA
    assert payload["n_shards"] == 2
    json.dumps(payload)  # must serialize as-is (CLI --record-profile)
    assert all(edge["messages"] > 0 for edge in payload["edges"])
    assert all(comp["events"] > 0 for comp in payload["components"].values())
