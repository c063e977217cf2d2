"""The benchmark's output checks, closed forms and result line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from calibrate import REFERENCE_S, calibrate
from workloads import (
    MjpegSmp,
    MjpegSti7200,
    Phases,
    Traffic,
    check_table2,
    table2_expected,
    traffic_requests,
)

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO = BENCH_DIR.parent


class SmallSmp(MjpegSmp):
    n_images = 4


class FlippedPixel(SmallSmp):
    def run(self, seed, ph):
        out = super().run(seed, ph)
        out["frames"][2].flat[17] ^= 1
        return out


class MissingMessage(SmallSmp):
    def run(self, seed, ph):
        out = super().run(seed, ph)
        out["reports"][("Reorder", "application")]["receives"] -= 1
        out["msgs"] -= 1
        return out


def result_line(monkeypatch, capsys, tmp_path, cls) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, "mjpeg_smp", cls)
    monkeypatch.setattr(run, "RECORDS", tmp_path)
    assert run.main(["--workload", "mjpeg_smp", "--seed", "3", "--seconds", "0"]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_clean_runs_pass(monkeypatch, capsys, tmp_path):
    line = result_line(monkeypatch, capsys, tmp_path, SmallSmp)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] == run.MIN_UNTRACED
    assert sorted(line["metrics"]) == sorted(name for name, _, _ in run.END_TO_END)
    record = json.loads((tmp_path / "mjpeg_smp-seed3-trace0.json").read_text())
    assert record["host"]["nproc"] >= 1
    first = record["runs"][0]
    assert set(first["phases"]) == {"synthesize", "build", "deploy", "simulate", "report"}
    assert first["calibration_s"] > 0
    assert first["import_s_cpu"] > 0  # a fresh interpreter's start-up
    assert first["wall_s_cpu"] >= first["setup_s_cpu"] > 0
    assert first["wall_s_wallclock"] > 0


def test_normalize_rescales_cpu_time_to_the_reference_host():
    rep = {"msgs": 100, "setup_s_cpu": 1.0, "sim_s_cpu": 2.0, "wall_s_cpu": 4.0}
    run.normalize(rep, 2 * REFERENCE_S)  # a host half as fast as the reference
    assert (rep["setup_s"], rep["sim_s"], rep["wall_s"]) == (0.5, 1.0, 2.0)
    assert rep["msgs_per_s"] == 100.0


def test_calibration_workload_takes_measurable_time():
    assert calibrate() > 0


@pytest.mark.parametrize("cls", [FlippedPixel, MissingMessage], ids=["flipped-pixel", "missing-message"])
def test_one_wrong_output_fails_the_run(monkeypatch, capsys, tmp_path, cls):
    line = result_line(monkeypatch, capsys, tmp_path, cls)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == run.MIN_UNTRACED


@pytest.mark.parametrize("n_images", [2, 3, 7])
@pytest.mark.parametrize("cls", [MjpegSmp, MjpegSti7200], ids=["smp", "sti7200"])
def test_closed_form_counts_match_collect(cls, n_images):
    wl = cls(n_images=n_images)
    wl.imports()
    out = wl.run(0, Phases())
    expected = table2_expected(n_images, wl.n_idct, wl.merged_io)
    assert check_table2(out["reports"], expected) == []
    assert out["msgs"] == 36 * (n_images - 1)
    assert wl.verify(out, wl.prepare(0)) == []


def test_same_program_as_the_cli():
    """``repro run --images 8`` prints this frames digest at seed 0."""
    wl = MjpegSmp(n_images=8)
    wl.imports()
    out = wl.run(0, Phases())
    assert out["digests"]["frames"] == (
        "aa09939b9078c9dcfddeb82a279be898c0b81ff7ef2097df161bbfd1f9c0860b"
    )


def test_traffic_closed_form_and_shard_invariance():
    wl = Traffic(n_components=400)
    wl.imports()
    ref = wl.prepare(5)
    out = wl.run(5, Phases())
    assert wl.verify(out, ref) == []
    assert out["requests"] == traffic_requests(wl.config(5))


def test_traced_run_reports_every_declared_layer_metric():
    wl = SmallSmp()
    wl.imports()
    ref = wl.prepare(0)
    rep, metrics, cols = run.traced_run(wl, 0, ref, (0.1, 0.1), 1.0)
    assert rep["errors"] == []
    assert {name for name, _ in run.PER_LAYER} <= set(metrics)
    assert metrics["mjpeg.huffman.blocks"] == 4 * 144
    assert metrics["runtime.transfers"] > 0
    # Layer self times plus the unattributed rest make up the phase.
    shares = [v for k, v in metrics.items() if k.endswith(".self_share") and k != "mjpeg.self_share"]
    assert sum(shares) + metrics["tracing.unattributed_share"] == pytest.approx(1.0)
    assert len(cols["layer"]) == len(cols["start"]) > 0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traffic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
