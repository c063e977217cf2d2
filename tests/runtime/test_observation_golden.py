"""Golden pins of what EMBera observes on the two simulated platforms.

The observation -- per-component execution times, send/receive timings
and counts -- is the product, so a simulator change that is meant to be
pure speed must leave it byte-identical.  These tests pin, for seed 0 and
8 images with stored coefficients:

- the sha256 of a canonical dump of ``collect()``,
- ``makespan_ns``,
- the decoded frames digest,

and bound the kernel event count from above, so that a saving in
simulator events cannot silently come back.  The ``repro demo-*``
outputs (Table-2 rows, execution times, makespan) are pinned verbatim
in ``tests/golden/``.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, build_sti7200_assembly, frames_digest
from repro.runtime import SmpSimRuntime, Sti7200SimRuntime

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

FRAMES_SHA256 = "aa09939b9078c9dcfddeb82a279be898c0b81ff7ef2097df161bbfd1f9c0860b"

PLATFORMS = {
    "smp": (
        build_smp_assembly,
        SmpSimRuntime,
        "Reorder",
        "b85e1eee7a3a0717a561eb778cc5086ddf9dd281ed73f833f8d4e83a003cd290",
        71_536_721,
        1_192,
    ),
    "sti7200": (
        build_sti7200_assembly,
        Sti7200SimRuntime,
        "Fetch-Reorder",
        "237775534e312e24598dc266be114bad82440b44325a2c9056b407945b149892",
        15_792_532_910,
        2_102,
    ),
}


def observe(platform):
    build, runtime, sink = PLATFORMS[platform][:3]
    stream = generate_stream(8, 96, 96, quality=75, seed=0)
    app = build(stream, use_stored_coefficients=True, keep_frames=True)
    rt = runtime()
    rt.run(app)
    reports = rt.collect()
    dump = repr(sorted(reports.items(), key=lambda kv: repr(kv[0])))
    return rt, hashlib.sha256(dump.encode()).hexdigest(), frames_digest(app.components[sink].frames)


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_observation_is_pinned(platform):
    rt, reports_sha, frames_sha = observe(platform)
    _, _, _, expected_sha, makespan_ns, max_events = PLATFORMS[platform]
    assert rt.makespan_ns == makespan_ns
    assert frames_sha == FRAMES_SHA256
    assert reports_sha == expected_sha
    assert rt.kernel.events_executed <= max_events


@pytest.mark.parametrize("command", ["demo-smp", "demo-sti7200"])
def test_demo_output_matches_golden(command, capsys):
    assert main([command]) == 0
    expected = (GOLDEN / f"{command.replace('-', '_')}.txt").read_text()
    assert capsys.readouterr().out == expected
