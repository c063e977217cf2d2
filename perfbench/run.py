"""The repository benchmark: one workload, repeated for a time budget.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mjpeg_smp --seed 0 --seconds 25 --trace 0

``--trace 0`` repeats untraced runs and prints the end-to-end metrics
(process CPU time rescaled to a reference host speed measured by a
calibration workload between runs; the raw CPU and wall-clock figures
are printed beside them and kept in the record);
``--trace 1`` makes untraced runs for the first half of the budget, then
runs with every layer's entry points wrapped in span recorders and
prints the per-layer metrics.  Every run's output is checked; the last
stdout line is a JSON object ``{"correct", "attempted", "failed",
"metrics"}`` and a full record of every run is written to
``.perfbench/<workload>-seed<seed>-trace<t>.json`` (spans of the last
traced run beside it, ``.spans.npz``).  See ``perfbench/README.md``.
"""

from time import perf_counter, process_time

PROCESS_T0 = perf_counter()

import argparse  # noqa: E402 - the import clock starts above
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench"

#: (name, unit, higher is better) of the end-to-end metrics.
END_TO_END = (
    ("setup_s", "s", False),
    ("msgs_per_s", "msg/s", True),
    ("wall_s", "s", False),
    ("peak_rss_mb", "MB", False),
)

_SHARE_LAYERS = (
    "sim.kernel", "sim.executor", "sim.mailbox", "sim.shard", "hw", "oslinux",
    "os21", "embx", "core", "runtime", "core.observation", "metrics", "trace",
    "mjpeg", "mjpeg.components", "workloads.traffic",
)

#: (name, unit) of the per-layer metrics printed by ``--trace 1``.
PER_LAYER = (
    ("sim.kernel.events", "count"),
    ("sim.kernel.cancel_ratio", "ratio"),
    ("sim.kernel.self_s", "s"),
    ("sim.kernel.ns_per_event", "ns"),
    ("sim.executor.slices", "count"),
    ("sim.mailbox.envelopes", "count"),
    ("sim.mailbox.cross_shard", "count"),
    ("sim.mailbox.batch_factor", "ratio"),
    ("sim.shard.sweeps", "count"),
    ("sim.shard.useful_sweep_ratio", "ratio"),
    ("hw.cost_calls", "count"),
    ("oslinux.calls", "count"),
    ("os21.calls", "count"),
    ("embx.sends", "count"),
    ("embx.receives", "count"),
    ("core.ops", "count"),
    ("core.nbytes_calls", "count"),
    ("runtime.transfers", "count"),
    ("core.observation.records", "count"),
    ("metrics.records", "count"),
    ("metrics.windows", "count"),
    ("trace.events", "count"),
    ("mjpeg.huffman.blocks", "count"),
    ("mjpeg.idct.blocks", "count"),
    ("mjpeg.encoder.frames", "count"),
    ("mjpeg.encoder.setup_share", "share"),
    ("workloads.traffic.handlers", "count"),
    *((f"{name}.self_share", "share") for name in _SHARE_LAYERS),
    ("tracing.sim_s", "s"),
    ("tracing.unattributed_share", "share"),
    ("tracing.overhead", "ratio"),
)

MIN_UNTRACED = 3


def host_fingerprint() -> dict:
    """What ran the benchmark: CPU count and model, Python and numpy."""
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text(encoding="utf-8").strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over every program source file: identifies the code even
    in a checkout without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def import_time(workload: str) -> tuple:
    """(CPU, wall-clock) seconds from interpreter start until the
    workload's modules are imported, measured in a fresh interpreter.

    This is the process start-up part of ``setup_s``.  It is sampled
    once per run, beside the run, so that its median is taken over as
    many samples as the rest of the set-up."""
    code = (
        "import sys, time; "
        f"sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
        "from workloads import WORKLOADS; "
        f"WORKLOADS[{workload!r}]().imports(); "
        "print(time.process_time())"
    )
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(proc.stdout.split()[-1]), perf_counter() - t0


def reset_peak_rss() -> bool:
    """Restart the kernel's peak resident-set mark (Linux); False when
    the kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb(since_reset: bool) -> float:
    """Peak resident set in MB: since :func:`reset_peak_rss` when that
    succeeded, else over the whole process."""
    if since_reset:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_once(wl, seed: int, ref: dict, import_s: tuple, recorder=None):
    """One run: phases, output checks and the run record.  ``import_s``
    is a (CPU, wall-clock) import time from :func:`import_time`, the
    start of this run's set-up."""
    from workloads import Phases

    gc.collect()
    ph = Phases(recorder)
    rep = {"traced": recorder is not None}
    try:
        out = wl.run(seed, ph)
    except Exception:  # noqa: BLE001 - a crashed run is a failed run
        rep["errors"] = [traceback.format_exc(limit=8)]
        return rep, ph, None
    msgs = out["msgs"]
    for suffix, clock, imported in (("_cpu", "times", import_s[0]), ("_wallclock", "wall", import_s[1])):
        setup = imported + ph.group("setup", clock)
        sim = ph.group("simulate", clock)
        rep[f"setup_s{suffix}"] = setup
        rep[f"sim_s{suffix}"] = sim
        rep[f"wall_s{suffix}"] = setup + sim + ph.group("report", clock)
        rep[f"msgs_per_s{suffix}"] = msgs / sim if sim > 0 else 0.0
    rep.update(
        phases=dict(ph.times),
        phases_wallclock=dict(ph.wall),
        report_steps=dict(ph.report),
        msgs=msgs,
        makespan_ns=out["makespan_ns"],
        digests=out["digests"],
        import_s_cpu=import_s[0],
        import_s_wallclock=import_s[1],
    )
    rep["errors"] = wl.verify(out, ref)
    return rep, ph, out


def normalize(rep: dict, calibration_s: float) -> None:
    """The gated figures of one run: its CPU times rescaled to the
    reference host speed, measured by calibrations around the run."""
    from calibrate import REFERENCE_S

    rep["calibration_s"] = calibration_s
    if "sim_s_cpu" not in rep:
        return  # the run crashed
    scale = REFERENCE_S / calibration_s
    for name in ("setup_s", "sim_s", "wall_s"):
        rep[name] = rep[f"{name}_cpu"] * scale
    rep["msgs_per_s"] = rep["msgs"] / rep["sim_s"] if rep["sim_s"] > 0 else 0.0


def traced_run(wl, seed: int, ref: dict, import_s: tuple, untraced_wall: float):
    """One run with every layer wrapped (``import_s`` as in
    :func:`run_once`); returns (record, layer metrics, span columns)."""
    import numpy as np

    from layers import LAYERS, install, layer_metrics
    from spans import Recorder, self_times
    from workloads import PHASE_GROUP

    rec = Recorder(LAYERS)
    inst = install(rec)
    try:
        rep, ph, out = run_once(wl, seed, ref, import_s, rec)
    finally:
        inst.undo()
    if out is None:
        return rep, None, None
    cols = rec.columns()
    n_layers = len(rec.layer_names)
    phase_self: dict = {}
    phase_wall: dict = {}
    accounted = True
    for name, first, end in ph.ranges:
        group = PHASE_GROUP[name]
        parent = cols["parent"][first:end].astype(np.int64)
        parent = np.where(parent >= 0, parent - first, -1)
        own = self_times(cols["layer"][first:end], cols["start"][first:end],
                         cols["end"][first:end], parent, n_layers)
        root_ns = int(cols["end"][first] - cols["start"][first])
        accounted &= abs(own.sum() - root_ns) <= 1
        bucket = phase_self.setdefault(group, {})
        for i, ns in enumerate(own):
            bucket[rec.layer_names[i]] = bucket.get(rec.layer_names[i], 0.0) + ns / 1e9
        phase_wall[group] = phase_wall.get(group, 0.0) + root_ns / 1e9
    if not accounted:
        rep["errors"].append("layer self times do not add up to the traced phases")
    counts = dict(rec.counts)
    counts["metrics.windows"] = out.get("windows", 0)
    metrics = layer_metrics(phase_self, phase_wall, counts, inst, out["msgs"], ph.report)
    metrics["tracing.overhead"] = rep["wall_s_cpu"] / untraced_wall if untraced_wall else 0.0
    rep["layers"] = metrics
    rep["counts"] = counts
    cols["layer_names"] = np.array(rec.layer_names)
    cols["phases"] = np.array([json.dumps(ph.ranges)])
    return rep, metrics, cols


def print_layers(metrics: dict) -> None:
    """The per-layer table of one traced run."""
    print("per-layer (traced run; counts cover the whole run, times the simulation phase):")
    for key in sorted(metrics):
        print(f"  {key:<34} {metrics[key]:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from calibrate import calibrate
    from stats import describe, summarize
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    wl.imports()
    own_import_s = (process_time(), perf_counter() - PROCESS_T0)

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "experiment_label": label,
        "report_dir": os.path.relpath(RECORDS, ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "host": host_fingerprint(),
        "own_import_s": own_import_s[0],
        "own_import_s_wallclock": own_import_s[1],
    }
    t = perf_counter()
    ref = wl.prepare(args.seed)
    record["prepare_s"] = perf_counter() - t
    record["reference"] = {k: v for k, v in ref.items() if k != "frames"}
    # The peak resident set covers the timed runs, not the reference
    # runs that prepare() just made.
    gc.collect()
    rss_reset = reset_peak_rss()
    record["peak_rss_source"] = "VmHWM after prepare" if rss_reset else "ru_maxrss"

    runs = []
    start = perf_counter()
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    calibration = calibrate()
    while True:
        rep, _, _ = run_once(wl, args.seed, ref, import_time(args.workload))
        after = calibrate()
        normalize(rep, (calibration + after) / 2)
        calibration = after
        runs.append(rep)
        if perf_counter() - start >= untraced_budget and len(runs) >= MIN_UNTRACED:
            break
    untraced = [r for r in runs if not r["errors"]]

    layer_runs = []
    spans = None
    if args.trace:
        base = statistics.median(r["wall_s_cpu"] for r in untraced) if untraced else 0.0
        while True:
            rep, metrics, cols = traced_run(wl, args.seed, ref, import_time(args.workload), base)
            runs.append(rep)
            if metrics is not None and not rep["errors"]:
                layer_runs.append(metrics)
                spans = cols
            if perf_counter() - start >= args.seconds:
                break

    failed = sum(1 for r in runs if r["errors"])
    for i, r in enumerate(runs):
        for err in r["errors"]:
            print(f"run {i} FAILED: {err}")
    metrics = {}
    if args.trace:
        for name, unit in PER_LAYER:
            values = [m[name] for m in layer_runs]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        if layer_runs:
            print_layers(layer_runs[-1])
    else:
        summaries = {}
        for name, unit, higher in END_TO_END:
            if name == "peak_rss_mb":
                summaries[name] = {"n": 1, "median": peak_rss_mb(rss_reset)}
            elif untraced:
                summaries[name] = summarize([r[name] for r in untraced], higher)
            if name in summaries:
                metrics[name] = {"value": summaries[name]["median"], "unit": unit}
                print(describe(name, unit, summaries[name]))
            for twin in (f"{name}_cpu", f"{name}_wallclock"):
                if untraced and twin in untraced[0]:
                    summaries[twin] = summarize([r[twin] for r in untraced], higher)
                    print(describe(twin, unit, summaries[twin]))
        record["summary"] = summaries
    correct = failed == 0 and len(metrics) == (len(PER_LAYER) if args.trace else len(END_TO_END))
    record.update(runs=runs, attempted=len(runs), failed=failed, correct=correct, metrics=metrics)

    RECORDS.mkdir(exist_ok=True)
    (RECORDS / f"{label}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans is not None:
        import numpy as np

        np.savez(RECORDS / f"{label}.spans.npz", **spans)
    print(f"record: {os.path.relpath(RECORDS / (label + '.json'), ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # Every workload runs on one thread: idle BLAS helper threads would
    # otherwise spin on the second CPU and bill it to the process clock.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.exit(main())
