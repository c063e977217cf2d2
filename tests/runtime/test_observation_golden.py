"""Golden pins of what EMBera observes on the two simulated platforms.

The observation -- per-component execution times, send/receive timings
and counts -- is the product, so a simulator change that is meant to be
pure speed must leave it byte-identical.  These tests pin, for seed 0 and
8 images with stored coefficients:

- the sha256 of a canonical dump of ``collect()``,
- ``makespan_ns``,
- the decoded frames digest,

and bound the kernel event count from above, for the decode alone and
with the ``collect()`` query on top, so that a saving in simulator
events cannot silently come back.  The ``repro demo-*``
outputs (Table-2 rows, execution times, makespan) are pinned verbatim
in ``tests/golden/``.

With the live telemetry plane and the campaign contracts attached (and
every component pinned to its core), the ``collect()`` digest and the
merged registry's ``metrics_digest`` are pinned too, for the plain SMP
runtime and the 1- and 2-shard runtimes.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults.campaign import attach_campaign_contracts
from repro.metrics import collect_telemetry, enable_telemetry, metrics_digest
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, build_sti7200_assembly, frames_digest
from repro.runtime import ShardedSmpSimRuntime, SmpSimRuntime, Sti7200SimRuntime

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

FRAMES_SHA256 = "aa09939b9078c9dcfddeb82a279be898c0b81ff7ef2097df161bbfd1f9c0860b"

PLATFORMS = {
    "smp": (
        build_smp_assembly,
        SmpSimRuntime,
        "Reorder",
        "b85e1eee7a3a0717a561eb778cc5086ddf9dd281ed73f833f8d4e83a003cd290",
        71_536_721,
        450,
        512,
    ),
    "sti7200": (
        build_sti7200_assembly,
        Sti7200SimRuntime,
        "Fetch-Reorder",
        "237775534e312e24598dc266be114bad82440b44325a2c9056b407945b149892",
        15_792_532_910,
        450,
        441,
    ),
}


#: (metrics_digest, collect() sha256) with telemetry and contracts on.
TELEMETRY_PLAIN = (
    "94f6eb40ab3afa96eae345abdb2aaf9a1015b0ef4c6e2348d36cfdee36f6f33a",
    "973bb19429455107a8714a157e6bf83f3c87741e4a7bb7366f79b79b2ec2f0c5",
)
TELEMETRY_SHARDED = (
    "0c7250ce9037b9a9956b80fcf2658770a106b5e100e7efb600fd5d7118bd4e00",
    "8c62e052972061699259eb2121db1b6915cee0525558cec43d631c6d7ff11f13",
)
TELEMETRY_RUNS = {
    "plain": (SmpSimRuntime, TELEMETRY_PLAIN),
    "1-shard": (lambda: ShardedSmpSimRuntime(1), TELEMETRY_SHARDED),
    "2-shard": (lambda: ShardedSmpSimRuntime(2), TELEMETRY_SHARDED),
}


def _dump_sha(reports):
    dump = repr(sorted(reports.items(), key=lambda kv: repr(kv[0])))
    return hashlib.sha256(dump.encode()).hexdigest()


def observe(platform):
    build, runtime, sink = PLATFORMS[platform][:3]
    stream = generate_stream(8, 96, 96, quality=75, seed=0)
    app = build(stream, use_stored_coefficients=True, keep_frames=True)
    rt = runtime()
    rt.run(app)
    run_events = rt.kernel.events_executed
    reports_sha = _dump_sha(rt.collect())
    return rt, run_events, reports_sha, frames_digest(app.components[sink].frames)


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_observation_is_pinned(platform):
    rt, run_events, reports_sha, frames_sha = observe(platform)
    _, _, _, expected_sha, makespan_ns, max_run_events, max_events = PLATFORMS[platform]
    assert rt.makespan_ns == makespan_ns
    assert frames_sha == FRAMES_SHA256
    assert reports_sha == expected_sha
    assert run_events <= max_run_events
    assert rt.kernel.events_executed <= max_events


@pytest.mark.parametrize("run", sorted(TELEMETRY_RUNS))
def test_telemetry_observation_is_pinned(run):
    make_runtime, (expected_metrics, expected_reports) = TELEMETRY_RUNS[run]
    stream = generate_stream(8, 96, 96, quality=75, seed=0)
    app = build_smp_assembly(stream, use_stored_coefficients=True, keep_frames=True)
    for i, comp in enumerate(app.components.values()):
        comp.placement.setdefault("core", i)
    attach_campaign_contracts(app)
    rt = make_runtime()
    rt.deploy(app)
    enable_telemetry(rt)
    rt.start()
    rt.wait()
    reports_sha = _dump_sha(rt.collect())
    registry = collect_telemetry(rt)
    rt.stop()
    assert frames_digest(app.components["Reorder"].frames) == FRAMES_SHA256
    assert reports_sha == expected_reports
    assert metrics_digest(registry) == expected_metrics


@pytest.mark.parametrize("command", ["demo-smp", "demo-sti7200"])
def test_demo_output_matches_golden(command, capsys):
    assert main([command]) == 0
    expected = (GOLDEN / f"{command.replace('-', '_')}.txt").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["demo-smp", "demo-sti7200"])
def test_long_demo_output_matches_golden(command, capsys):
    """192 images: long chains of slices on every core, where the
    executor's clock jumps on one core overlap work queued by others."""
    assert main([command, "192"]) == 0
    expected = (GOLDEN / f"{command.replace('-', '_')}_192.txt").read_text()
    assert capsys.readouterr().out == expected
