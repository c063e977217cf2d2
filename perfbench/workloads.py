"""The four benchmark workloads, their phases and their output checks.

Every workload runs through the program's public API only.  One run is
split into timed phases -- ``synthesize`` (input generation), ``build``
(assembly), ``deploy`` (runtime deploy plus telemetry/tracing set-up),
``simulate`` (``start()`` to ``wait()``, or the ``ShardedSimulation.run``
call inside ``run_traffic``)
and ``report`` (``collect()``, telemetry collection, trace merge,
digests, ``stop()``).  Output checks run after the phases and are not
timed.

The checks do not trust the simulator:

- decoded frames are compared pixel for pixel with
  :func:`repro.mjpeg.decoder.decode_image` applied to the same seeded
  stream (frame 0 only primes the decoder and is skipped);
- per-component send/receive counts must equal the Table-2 closed form
  ``18 (n - 1)`` split over the IDCTs, and the delivered message count
  must be ``36 (n - 1)``;
- ``traffic`` deliveries must equal ``requests (2 + 2 fanout)`` with the
  request count derived from the configuration alone;
- shard-count invariance: the ``traffic`` trace digest and the
  ``mjpeg_observed`` metrics and merged-trace digests of every timed run
  must equal a 1-shard run of the same input made before the timed runs.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Dict, List, Optional

#: Phase -> phase group (``setup_s`` sums the ``setup`` group).
PHASE_GROUP = {
    "synthesize": "setup",
    "build": "setup",
    "deploy": "setup",
    "simulate": "simulate",
    "report": "report",
}

#: MJPEG frame geometry and quality, as ``repro run`` uses them.
HEIGHT = WIDTH = 96
QUALITY = 75
BATCHES_PER_IMAGE = 18


class Phases:
    """Host time per phase of one run, plus named report sub-steps.

    Each phase is timed on two clocks: ``times`` holds the process CPU
    time (``time.process_time``), ``wall`` the wall clock.  With a span
    recorder each phase is also a root span, so layer self times can be
    split by phase afterwards.
    """

    def __init__(self, recorder=None) -> None:
        self.times: Dict[str, float] = {}
        self.wall: Dict[str, float] = {}
        self.report: Dict[str, float] = {}
        self.rec = recorder
        #: (phase, first span index, end span index) per phase, traced only.
        self.ranges: List[tuple] = []
        self._current: Optional[tuple] = None

    def begin(self, name: str) -> None:
        rec = self.rec
        first = 0
        if rec is not None:
            first = len(rec.layer)
            rec.open(0)  # the phase's root span: time no layer covers
        self._current = (name, first, process_time(), perf_counter())

    def end(self) -> None:
        cpu, wall = process_time(), perf_counter()
        name, first, cpu0, wall0 = self._current
        self.times[name] = self.times.get(name, 0.0) + cpu - cpu0
        self.wall[name] = self.wall.get(name, 0.0) + wall - wall0
        if self.rec is not None:
            self.rec.close()
            self.ranges.append((name, first, len(self.rec.layer)))
        self._current = None

    @contextmanager
    def __call__(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    @contextmanager
    def around(self, owner, attr: str, inner: str, after: str):
        """While the block runs, a call of ``owner.attr`` ends the current
        phase, runs as phase ``inner`` and continues as phase ``after``
        -- phase boundaries inside one program call."""
        orig = owner.__dict__[attr]

        def split(*args, **kwargs):
            self.end()
            self.begin(inner)
            try:
                return orig(*args, **kwargs)
            finally:
                self.end()
                self.begin(after)

        setattr(owner, attr, split)
        try:
            yield
        finally:
            setattr(owner, attr, orig)

    @contextmanager
    def step(self, name: str):
        """Time one report sub-step (inside the ``report`` phase)."""
        t0 = process_time()
        try:
            yield
        finally:
            self.report[name] = self.report.get(name, 0.0) + process_time() - t0

    def group(self, group: str, clock: str = "times") -> float:
        times = getattr(self, clock)
        return sum(t for name, t in times.items() if PHASE_GROUP[name] == group)


def table2_expected(n_images: int, n_idct: int, merged_io: bool) -> Dict[str, tuple]:
    """Closed-form (sends, receives) per functional component.

    ``merged_io`` is the STi7200 deployment, whose Fetch-Reorder both
    sends every batch and receives it back."""
    total = BATCHES_PER_IMAGE * (n_images - 1)
    per_idct = total // n_idct
    counts = {f"IDCT_{i}": (per_idct, per_idct) for i in range(1, n_idct + 1)}
    if merged_io:
        counts["Fetch-Reorder"] = (total, total)
    else:
        counts["Fetch"] = (total, 0)
        counts["Reorder"] = (0, total)
    return counts


def check_table2(reports: Dict, expected: Dict[str, tuple]) -> List[str]:
    """Errors where observed counts differ from the closed form."""
    errors = []
    for name, (sends, receives) in expected.items():
        app = reports.get((name, "application"))
        if app is None:
            errors.append(f"no application report for {name}")
            continue
        got = (app["sends"], app["receives"])
        if got != (sends, receives):
            errors.append(f"{name}: (sends, receives) {got} != closed form {(sends, receives)}")
    return errors


def check_frames(frames: Dict, reference: Dict) -> List[str]:
    """Errors where decoded frames differ from the reference decode."""
    import numpy as np

    if sorted(frames) != sorted(reference):
        missing = sorted(set(reference) - set(frames))[:5]
        extra = sorted(set(frames) - set(reference))[:5]
        return [f"frame indices differ: missing {missing}, unexpected {extra}"]
    bad = [i for i in sorted(reference) if not np.array_equal(frames[i], reference[i])]
    if bad:
        return [f"{len(bad)} frame(s) differ from the reference decode, first {bad[:5]}"]
    return []


class Mjpeg:
    """Shared MJPEG machinery: stream synthesis, the run, reference and
    checks.  Subclasses set the assembly function and runtime in
    :meth:`imports`."""

    name = ""
    n_idct = 3
    merged_io = False
    n_images = 192
    #: Fetch stage from stored coefficients instead of the Huffman walk.
    stored_coefficients = True
    #: The component whose ``frames`` hold the decoded output.
    sink = "Reorder"

    def __init__(self, n_images: Optional[int] = None) -> None:
        if n_images is not None:
            self.n_images = n_images

    def imports(self) -> None:
        from repro.mjpeg import generate_stream
        from repro.mjpeg.components import frames_digest
        from repro.mjpeg.decoder import decode_image

        self.generate_stream = generate_stream
        self.frames_digest = frames_digest
        self.decode_image = decode_image

    def synthesize(self, seed: int):
        return self.generate_stream(self.n_images, HEIGHT, WIDTH, quality=QUALITY, seed=seed)

    def prepare(self, seed: int) -> Dict:
        """The reference decode of the seeded stream (untimed)."""
        stream = self.synthesize(seed)
        frames = {
            rec.index: self.decode_image(rec.frame.payload, HEIGHT, WIDTH, QUALITY)
            for rec in stream
            if rec.index > 0
        }
        return {"frames": frames, "msgs": 2 * BATCHES_PER_IMAGE * (self.n_images - 1)}

    def run(self, seed: int, ph: Phases) -> Dict:
        with ph("synthesize"):
            stream = self.synthesize(seed)
        with ph("build"):
            app = self.build(
                stream, use_stored_coefficients=self.stored_coefficients, keep_frames=True
            )
        with ph("deploy"):
            rt = self.runtime()
            rt.deploy(app)
        with ph("simulate"):
            rt.start()
            rt.wait()
        with ph("report"):
            with ph.step("collect"):
                reports = rt.collect()
            frames = app.components[self.sink].frames
            with ph.step("digests"):
                digests = {"frames": self.frames_digest(frames)}
            with ph.step("stop"):
                rt.stop()
        return {
            "frames": frames,
            "reports": reports,
            "msgs": self.messages(reports),
            "makespan_ns": rt.makespan_ns,
            "digests": digests,
        }

    def messages(self, reports: Dict) -> int:
        """Data messages received by the functional components."""
        return sum(
            data["receives"] for (_name, level), data in reports.items() if level == "application"
        )

    def verify(self, out: Dict, ref: Dict) -> List[str]:
        errors = check_frames(out["frames"], ref["frames"])
        errors += check_table2(
            out["reports"], table2_expected(self.n_images, self.n_idct, self.merged_io)
        )
        if out["msgs"] != ref["msgs"]:
            errors.append(f"{out['msgs']} messages delivered, closed form {ref['msgs']}")
        return errors


class MjpegSmp(Mjpeg):
    """Figure-3 pipeline on the 16-core SMP with the real Huffman walk."""

    name = "mjpeg_smp"
    stored_coefficients = False

    def imports(self) -> None:
        super().imports()
        from repro.mjpeg.components import build_smp_assembly
        from repro.runtime import SmpSimRuntime

        self.build = build_smp_assembly
        self.runtime = SmpSimRuntime


class MjpegObserved(Mjpeg):
    """The same pipeline on the 2-shard runtime with telemetry and
    tracing on, set up like ``repro run --metrics``."""

    name = "mjpeg_observed"
    n_shards = 2

    def imports(self) -> None:
        super().imports()
        from repro.metrics import collect_telemetry, enable_telemetry, metrics_digest
        from repro.mjpeg.components import build_smp_assembly
        from repro.runtime import ShardedSmpSimRuntime
        from repro.trace import enable_sharded_tracing, merge_buffers

        self.build = build_smp_assembly
        self.runtime = ShardedSmpSimRuntime
        self.enable_telemetry = enable_telemetry
        self.collect_telemetry = collect_telemetry
        self.metrics_digest = metrics_digest
        self.enable_sharded_tracing = enable_sharded_tracing
        self.merge_buffers = merge_buffers

    def run(self, seed: int, ph: Phases, n_shards: Optional[int] = None) -> Dict:
        with ph("synthesize"):
            stream = self.synthesize(seed)
        with ph("build"):
            app = self.build(stream, use_stored_coefficients=True, keep_frames=True)
            # Pinned placement: the shard partitioner may not move
            # components, so the metrics stream is shard-count invariant.
            for i, comp in enumerate(app.components.values()):
                comp.placement.setdefault("core", i)
        with ph("deploy"):
            rt = self.runtime(n_shards or self.n_shards)
            rt.deploy(app)
            buffers = self.enable_sharded_tracing(rt)
            self.enable_telemetry(rt)
        with ph("simulate"):
            rt.start()
            rt.wait()
        with ph("report"):
            with ph.step("collect"):
                reports = rt.collect()
            with ph.step("collect_telemetry"):
                registry = self.collect_telemetry(rt)
            with ph.step("merge_buffers"):
                merged = self.merge_buffers(buffers)
            frames = app.components["Reorder"].frames
            with ph.step("digests"):
                digests = {
                    "frames": self.frames_digest(frames),
                    "metrics": self.metrics_digest(registry),
                }
            with ph.step("stop"):
                rt.stop()
        # The program has no trace digest: the benchmark's own, untimed.
        digests["trace"] = hashlib.sha256(repr(merged.rows()).encode()).hexdigest()
        return {
            "frames": frames,
            "reports": reports,
            "msgs": self.messages(reports),
            "makespan_ns": rt.makespan_ns,
            "digests": digests,
            "windows": len(registry.windows),
        }

    def prepare(self, seed: int) -> Dict:
        ref = super().prepare(seed)
        one = self.run(seed, Phases(), n_shards=1)
        ref["metrics_digest_1shard"] = one["digests"]["metrics"]
        ref["trace_digest_1shard"] = one["digests"]["trace"]
        return ref

    def verify(self, out: Dict, ref: Dict) -> List[str]:
        errors = super().verify(out, ref)
        if out["digests"]["metrics"] != ref["metrics_digest_1shard"]:
            errors.append(
                f"metrics digest at {self.n_shards} shards differs from 1 shard"
            )
        if out["digests"]["trace"] != ref["trace_digest_1shard"]:
            errors.append(f"trace digest at {self.n_shards} shards differs from 1 shard")
        return errors


class MjpegSti7200(Mjpeg):
    """Fetch-Reorder + 2 IDCT on the STi7200 (OS21 + EMBX), stored
    coefficients, as ``demo-sti7200`` runs it."""

    name = "mjpeg_sti7200"
    n_idct = 2
    merged_io = True
    sink = "Fetch-Reorder"

    def imports(self) -> None:
        super().imports()
        from repro.mjpeg.components import build_sti7200_assembly
        from repro.runtime import Sti7200SimRuntime

        self.build = build_sti7200_assembly
        self.runtime = Sti7200SimRuntime


def traffic_requests(config) -> int:
    """Requests of a traffic run, from its configuration alone: every
    session issues one request per tick, heavy sessions ``heavy_factor``."""
    sessions = config.n_sessions or max(4, config.n_components // 4)
    heavy = int(sessions * config.heavy_share)
    per_tick = heavy * config.heavy_factor + (sessions - heavy)
    return config.ticks * per_tick


class Traffic:
    """The 10k-component fan-in/fan-out service graph at 2 shards."""

    name = "traffic"
    n_components = 10_000
    n_shards = 2

    def __init__(self, n_components: Optional[int] = None) -> None:
        if n_components is not None:
            self.n_components = n_components

    def imports(self) -> None:
        from repro.sim.shard import ShardedSimulation
        from repro.workloads import TrafficConfig, build_traffic_graph, run_traffic

        self.sim_type = ShardedSimulation
        self.config_type = TrafficConfig
        self.build_graph = build_traffic_graph
        self.run_traffic = run_traffic

    def config(self, seed: int):
        return self.config_type(n_components=self.n_components, seed=seed)

    def prepare(self, seed: int) -> Dict:
        config = self.config(seed)
        requests = traffic_requests(config)
        one = self.run_traffic(config, 1)
        return {
            "requests": requests,
            "msgs": requests * (2 + 2 * config.fanout),
            "digest_1shard": one["digest"],
        }

    def run(self, seed: int, ph: Phases) -> Dict:
        with ph("synthesize"):
            config = self.config(seed)
            graph = self.build_graph(config)
        # run_traffic partitions and injects before its simulation loop
        # and digests after it: those parts are deploy and report.
        with ph("deploy"):
            with ph.around(self.sim_type, "run", "simulate", "report"):
                result = self.run_traffic(config, self.n_shards, graph=graph)
        return {
            "msgs": result["events"],
            "requests": result["requests"],
            "makespan_ns": result["makespan_ns"],
            "digests": {"trace": result["digest"]},
        }

    def verify(self, out: Dict, ref: Dict) -> List[str]:
        errors = []
        if out["requests"] != ref["requests"]:
            errors.append(f"{out['requests']} requests, configuration gives {ref['requests']}")
        if out["msgs"] != ref["msgs"]:
            errors.append(f"{out['msgs']} deliveries, closed form {ref['msgs']}")
        if out["digests"]["trace"] != ref["digest_1shard"]:
            errors.append(f"trace digest at {self.n_shards} shards differs from 1 shard")
        return errors


WORKLOADS = {
    cls.name: cls for cls in (MjpegSmp, MjpegObserved, MjpegSti7200, Traffic)
}
