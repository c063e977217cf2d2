"""Which program functions belong to which layer, and the layer metrics.

:func:`install` wraps the public entry points of every layer listed in
:data:`ENTRY_POINTS` (class attributes and module functions, including
the names other modules imported them under) with the span recorders of
:mod:`spans`, and undoes it afterwards.  Kernel callbacks and staged
envelope deliveries are wrapped at scheduling time with the layer of the
module that defined the callable, so the code a callback runs is charged
to its own layer, not to the kernel loop that called it.

No file of the program changes: everything here is applied from outside,
for one traced run, and removed again.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Optional, Tuple

from spans import Recorder, traced_call, traced_generator

#: Span layers, in report order.
LAYERS = (
    "sim.kernel",
    "sim.executor",
    "sim.mailbox",
    "sim.shard",
    "hw",
    "oslinux",
    "os21",
    "embx",
    "core",
    "runtime",
    "core.observation",
    "metrics",
    "trace",
    "mjpeg.huffman",
    "mjpeg.idct",
    "mjpeg.blocks",
    "mjpeg.components",
    "mjpeg.encoder",
    "workloads.traffic",
)

#: Module prefix -> layer, for callables handed to the kernel or staged
#: in an envelope.  Longest prefix wins.
MODULE_LAYERS = {
    "repro.sim.kernel": "sim.kernel",
    "repro.sim.executor": "sim.executor",
    "repro.sim.process": "sim.executor",
    "repro.sim.resources": "sim.executor",
    "repro.sim.events": "sim.executor",
    "repro.sim.mailbox": "sim.mailbox",
    "repro.sim.shard": "sim.shard",
    "repro.hw": "hw",
    "repro.oslinux": "oslinux",
    "repro.os21": "os21",
    "repro.embx": "embx",
    "repro.core": "core",
    "repro.core.observation": "core.observation",
    "repro.core.observer": "core.observation",
    "repro.runtime": "runtime",
    "repro.metrics": "metrics",
    "repro.trace": "trace",
    "repro.mjpeg": "mjpeg.components",
    "repro.workloads": "workloads.traffic",
}


#: (layer, "module:Qualified.name", kind, counter, units).  ``kind`` is
#: ``call`` or ``gen`` (generator function: one span per resume) or
#: ``cb<i>`` (a call whose argument ``i`` after ``self`` is a callable
#: run later: a kernel callback or an envelope's delivery).  ``counter`` is the key counted per call (``units`` gives
#: the amount when one call does several units of work).
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[str], Optional[Callable]], ...] = (
    ("sim.kernel", "repro.sim.kernel:Kernel.run", "call", None, None),
    ("sim.kernel", "repro.sim.kernel:Kernel.step", "call", None, None),
    ("sim.kernel", "repro.sim.kernel:Kernel.peek", "call", None, None),
    ("sim.kernel", "repro.sim.kernel:Kernel.idle_advance", "call", None, None),
    ("sim.kernel", "repro.sim.kernel:Kernel.schedule", "cb1", "sim.kernel.scheduled", None),
    ("sim.kernel", "repro.sim.kernel:Kernel.schedule_at", "cb1", "sim.kernel.scheduled", None),
    ("sim.kernel", "repro.sim.kernel:Kernel.schedule_timer", "cb1", "sim.kernel.scheduled", None),
    ("sim.kernel", "repro.sim.kernel:Kernel.call_soon", "cb0", "sim.kernel.scheduled", None),
    ("sim.kernel", "repro.sim.kernel:EventHandle.cancel", "call", "sim.kernel.cancels", None),
    ("sim.executor", "repro.sim.executor:ExecEngine.spawn", "call", None, None),
    ("sim.executor", "repro.sim.resources:Channel.put", "call", None, None),
    ("sim.executor", "repro.sim.resources:Channel.put_front", "call", None, None),
    ("sim.executor", "repro.sim.resources:Channel.try_get", "call", None, None),
    ("sim.executor", "repro.sim.resources:Channel.get", "gen", None, None),
    ("sim.executor", "repro.sim.resources:Channel.get_with_deadline", "gen", None, None),
    ("sim.mailbox", "repro.sim.mailbox:Envelope.__init__", "cb5", "sim.mailbox.envelopes", None),
    ("sim.mailbox", "repro.sim.mailbox:Staging.push", "call", None, None),
    ("sim.mailbox", "repro.sim.mailbox:Staging.push_many", "call", None, None),
    ("sim.mailbox", "repro.sim.mailbox:Staging.release_batched", "call", None, None),
    ("sim.mailbox", "repro.sim.mailbox:Staging.release_below", "call", None, None),
    ("sim.mailbox", "repro.sim.mailbox:Staging.min_recv_time", "call", None, None),
    ("sim.mailbox", "repro.sim.mailbox:Mailbox.post", "call", None, None),
    ("sim.mailbox", "repro.sim.mailbox:Mailbox.drain", "call", None, None),
    ("sim.shard", "repro.sim.shard:ShardedSimulation.run", "call", None, None),
    ("sim.shard", "repro.sim.shard:Shard.stage", "call", None, None),
    ("sim.shard", "repro.sim.shard:Shard.post", "call", "sim.mailbox.cross_shard", None),
    ("sim.shard", "repro.sim.shard:Shard.drain_inbox", "call", None, None),
    ("sim.shard", "repro.sim.shard:Shard.eot", "call", None, None),
    ("hw", "repro.hw.cpu:CpuModel.cost_ns", "call", "hw.cost_calls", None),
    ("hw", "repro.hw.platform:Platform.copy_factor", "call", None, None),
    ("hw", "repro.hw.platform:Platform.cache_of_core", "call", None, None),
    ("hw", "repro.hw.platform:Platform.link_latency_ns", "call", None, None),
    ("hw", "repro.hw.platform:Platform.node_of_core", "call", None, None),
    ("hw", "repro.hw.cache:CacheSim.access_range", "call", None, None),
    ("hw", "repro.hw.memory:MemoryRegion.alloc", "call", None, None),
    ("hw", "repro.hw.memory:MemoryRegion.free", "call", None, None),
    ("oslinux", "repro.oslinux.system:LinuxSystem.spawn_process", "call", "oslinux.calls", None),
    ("oslinux", "repro.oslinux.system:LinuxSystem.node_region", "call", "oslinux.calls", None),
    ("oslinux", "repro.oslinux.system:LinuxSystem.gettimeofday_us", "call", "oslinux.calls", None),
    ("oslinux", "repro.oslinux.system:LinuxSystem.now_ns", "call", "oslinux.calls", None),
    ("oslinux", "repro.oslinux.system:LinuxSystem.shutdown", "call", "oslinux.calls", None),
    ("oslinux", "repro.oslinux.system:LinuxProcess.malloc", "call", "oslinux.calls", None),
    ("oslinux", "repro.oslinux.system:LinuxProcess.mfree", "call", "oslinux.calls", None),
    ("oslinux", "repro.oslinux.system:LinuxProcess.pthread_create", "call", "oslinux.calls", None),
    ("oslinux", "repro.oslinux.system:PThread.attr_getstacksize", "call", "oslinux.calls", None),
    ("os21", "repro.os21.system:OS21System.create_partition", "call", "os21.calls", None),
    ("os21", "repro.os21.system:OS21System.local_region_of_cpu", "call", "os21.calls", None),
    ("os21", "repro.os21.system:OS21System.task_create", "call", "os21.calls", None),
    ("os21", "repro.os21.system:OS21System.task_time_us", "call", "os21.calls", None),
    ("os21", "repro.os21.system:OS21System.time_now_us", "call", "os21.calls", None),
    ("os21", "repro.os21.system:OS21System.shutdown", "call", "os21.calls", None),
    ("os21", "repro.os21.system:Partition.alloc", "call", "os21.calls", None),
    ("os21", "repro.os21.system:Partition.free", "call", "os21.calls", None),
    ("embx", "repro.embx.transport:EmbxTransport.send", "gen", "embx.sends", None),
    ("embx", "repro.embx.transport:EmbxTransport.receive", "gen", "embx.receives", None),
    ("embx", "repro.embx.transport:EmbxTransport.create_object", "call", None, None),
    ("core", "repro.core.context:ComponentContext.send", "gen", "core.ops", None),
    ("core", "repro.core.context:ComponentContext.receive", "gen", "core.ops", None),
    ("core", "repro.core.context:ComponentContext.deposit", "gen", "core.ops", None),
    ("core", "repro.core.context:ComponentContext.try_receive", "call", "core.ops", None),
    ("core", "repro.core.messages:Message.__init__", "call", "core.messages", None),
    ("core", "repro.core.messages:payload_nbytes", "call", "core.nbytes_calls", None),
    ("runtime", "repro.runtime.simulated:SimContext._transfer", "gen", "runtime.transfers", None),
    ("runtime", "repro.runtime.simulated:SimContext._receive_from", "gen", None, None),
    ("runtime", "repro.runtime.simulated:SimContext.compute", "gen", None, None),
    ("runtime", "repro.runtime.simulated:SimRuntime.collect", "call", None, None),
    ("runtime", "repro.runtime.simulated:ShardedSmpSimRuntime.collect", "call", None, None),
    ("runtime", "repro.runtime.simulated:SimRuntime.stop", "call", None, None),
    ("runtime", "repro.runtime.simulated:ShardedSmpSimRuntime.stop", "call", None, None),
    ("runtime", "repro.runtime.simulated:SimRuntime.deploy", "call", None, None),
    ("core.observation", "repro.core.observation:ObservationProbe.record_send", "call", "core.observation.records", None),
    ("core.observation", "repro.core.observation:ObservationProbe.record_receive", "call", "core.observation.records", None),
    ("core.observation", "repro.core.observation:ObservationProbe.record_deposit", "call", "core.observation.records", None),
    ("core.observation", "repro.core.observation:ObservationProbe.report", "call", None, None),
    ("core.observation", "repro.core.observation:observation_service_behavior", "gen", None, None),
    ("core.observation", "repro.core.observer:ObserverComponent.collect", "gen", None, None),
    ("metrics", "repro.metrics.telemetry:MetricsRegistry.advance", "call", None, None),
    ("metrics", "repro.metrics.telemetry:MetricsRegistry.finish", "call", None, None),
    ("metrics", "repro.metrics.telemetry:enable_telemetry", "call", None, None),
    ("metrics", "repro.metrics.telemetry:collect_telemetry", "call", None, None),
    ("metrics", "repro.metrics.export:metrics_digest", "call", None, None),
    ("trace", "repro.trace.tracer:Tracer.emit", "call", "trace.events", None),
    ("trace", "repro.trace.tracer:TracingContext.send", "gen", None, None),
    ("trace", "repro.trace.tracer:TracingContext.receive", "gen", None, None),
    ("trace", "repro.trace.tracer:TracingContext.deposit", "gen", None, None),
    ("trace", "repro.trace.tracer:TracingContext.compute", "gen", None, None),
    ("trace", "repro.trace.tracer:enable_sharded_tracing", "call", None, None),
    ("trace", "repro.trace.tracer:merge_buffers", "call", None, None),
    ("mjpeg.huffman", "repro.mjpeg.decoder:decode_frame_coefficients", "call",
     "mjpeg.huffman.blocks", lambda payload, n_blocks, quality: n_blocks),
    ("mjpeg.idct", "repro.mjpeg.decoder:idct_stage", "call",
     "mjpeg.idct.blocks", lambda coefs: coefs.shape[0]),
    ("mjpeg.blocks", "repro.mjpeg.decoder:coefficients_from_qzz", "call", None, None),
    ("mjpeg.blocks", "repro.mjpeg.decoder:split_blocks", "call", None, None),
    ("mjpeg.blocks", "repro.mjpeg.decoder:assemble_image", "call", None, None),
    ("mjpeg.components", "repro.mjpeg.components:FetchComponent.behavior", "gen", None, None),
    ("mjpeg.components", "repro.mjpeg.components:IdctComponent.behavior", "gen", None, None),
    ("mjpeg.components", "repro.mjpeg.components:ReorderComponent.behavior", "gen", None, None),
    ("mjpeg.components", "repro.mjpeg.components:FetchReorderComponent.behavior", "gen", None, None),
    ("mjpeg.encoder", "repro.mjpeg.stream:generate_stream", "call", None, None),
    ("mjpeg.encoder", "repro.mjpeg.encoder:encode_image", "call", "mjpeg.encoder.frames", None),
    ("workloads.traffic", "repro.workloads.traffic:build_traffic_graph", "call", None, None),
)

#: Classes whose instances the layer metrics read counters from.
REGISTERED = {
    "kernels": "repro.sim.kernel:Kernel",
    "engines": "repro.sim.executor:ExecEngine",
    "stagings": "repro.sim.mailbox:Staging",
    "sims": "repro.sim.shard:ShardedSimulation",
}


def _resolve(target: str):
    module_name, _, qual = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qual.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr


class Installation:
    """The applied wrappers; :meth:`undo` restores every original."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.instances: Dict[str, List] = {key: [] for key in REGISTERED}
        self._undo: List[Tuple[object, str, object]] = []
        self._cb_layer: Dict[object, Optional[int]] = {}

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        """Put every original back (in reverse order of patching)."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- callbacks ------------------------------------------------------------

    def layer_of_callable(self, cb) -> Optional[int]:
        """The layer id of the module defining ``cb`` (None: unknown or
        already wrapped)."""
        fn = getattr(cb, "__func__", cb)
        key = getattr(fn, "__code__", None)
        if key in self._cb_layer:
            return self._cb_layer[key]
        module = getattr(fn, "__module__", None) or ""
        best = None
        for prefix, layer in MODULE_LAYERS.items():
            if (module == prefix or module.startswith(prefix + ".")) and (
                best is None or len(prefix) > len(best[0])
            ):
                best = (prefix, layer)
        layer = self.rec.layer_id[best[1]] if best else None
        if key is not None:
            self._cb_layer[key] = layer
        return layer

    def wrap_callable(self, cb):
        """``cb`` charged to its own layer when called."""
        layer = self.layer_of_callable(cb)
        if layer is None:
            return cb
        return traced_call(self.rec, layer, cb, f"calls.{self.rec.layer_names[layer]}")

    # -- patching -------------------------------------------------------------

    def _deferred(self, fn, layer: int, index: int, key: str):
        """A call handing over a callable to run later (argument ``index``
        after ``self``): the callable is charged to its own layer."""
        rec = self.rec
        counts = rec.counts
        wrap = self.wrap_callable

        def call(self_, *args):
            counts[key] = counts.get(key, 0) + 1
            args = args[:index] + (wrap(args[index]),) + args[index + 1:]
            if not rec.open(layer):
                return fn(self_, *args)
            try:
                return fn(self_, *args)
            finally:
                rec.close()

        return call

    def _register(self, key: str, cls) -> None:
        init = cls.__dict__["__init__"]
        bucket = self.instances[key]

        def __init__(self_, *args, **kwargs):
            init(self_, *args, **kwargs)
            bucket.append(self_)

        self._set(cls, "__init__", __init__)

    def _shard_window(self, fn, layer: int):
        """``Shard.run_until``, also counting windows that did no work."""
        rec = self.rec
        counts = rec.counts

        def run_until(self_, bound):
            before = (self_.kernel.events_executed, self_.staging.released)
            opened = rec.open(layer)
            try:
                return fn(self_, bound)
            finally:
                if opened:
                    rec.close()
                counts["sim.shard.windows"] = counts.get("sim.shard.windows", 0) + 1
                if (self_.kernel.events_executed, self_.staging.released) != before:
                    counts["sim.shard.useful_windows"] = (
                        counts.get("sim.shard.useful_windows", 0) + 1
                    )

        return run_until

    def _wrap_everywhere(self, module, attr: str, new) -> None:
        """Replace a module function and every ``repro`` module's
        imported reference to it."""
        old = module.__dict__[attr]
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._set(mod, key, new)

    def apply(self) -> None:
        rec = self.rec
        for key, target in REGISTERED.items():
            owner, attr = _resolve(target)
            self._register(key, getattr(owner, attr))
        for layer_name, target, kind, counter, units in ENTRY_POINTS:
            layer = rec.layer_id[layer_name]
            owner, attr = _resolve(target)
            fn = owner.__dict__[attr]
            key = counter or f"calls.{target}"
            if kind.startswith("cb"):
                new = self._deferred(fn, layer, int(kind[2:]), key)
            elif kind == "gen":
                new = traced_generator(rec, layer, fn, key)
            else:
                new = traced_call(rec, layer, fn, key, units)
            if isinstance(owner, type):
                self._set(owner, attr, new)
            else:
                self._wrap_everywhere(owner, attr, new)
        owner, attr = _resolve("repro.sim.shard:Shard.run_until")
        self._set(owner, attr, self._shard_window(owner.__dict__[attr], rec.layer_id["sim.shard"]))
        probe, _ = _resolve("repro.core.observation:ObservationProbe.record_send")
        for attr in ("record_send", "record_receive"):
            self._set(probe, attr, self._telemetry_counter(probe.__dict__[attr]))

    def _telemetry_counter(self, fn):
        """Count the probe records that also feed the telemetry plane
        (its per-message work is inlined into the probe)."""
        counts = self.rec.counts

        def record(self_, *args, **kwargs):
            if self_.telemetry is not None:
                counts["metrics.records"] = counts.get("metrics.records", 0) + 1
            return fn(self_, *args, **kwargs)

        return record


def install(rec: Recorder) -> Installation:
    """Wrap every entry point; call ``.undo()`` on the result to remove."""
    inst = Installation(rec)
    try:
        inst.apply()
    except BaseException:
        inst.undo()
        raise
    return inst


def _ns_per(self_s: float, n: float) -> float:
    return self_s * 1e9 / n if n else 0.0


def layer_metrics(
    phase_self: Dict[str, Dict[str, float]],
    phase_wall: Dict[str, float],
    counts: Dict[str, int],
    inst: Installation,
    msgs: int,
    report_s: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``phase_self[phase][layer]`` is self time in seconds (the root's
    self time under ``(unattributed)``), ``phase_wall`` each phase's
    traced duration, ``counts`` the recorder counters and ``msgs`` the
    run's delivered message count.  ``report_s`` holds the inclusive
    report-phase call times (``runtime.collect_s`` and friends).
    """
    sim = phase_self["simulate"]
    sim_s = phase_wall["simulate"]
    c = counts.get
    out: Dict[str, float] = {}

    def layer(name: str, units: Dict[str, float], per: Tuple[str, float] = None) -> None:
        self_s = sim.get(name, 0.0)
        for key, value in units.items():
            out[f"{name}.{key}"] = value
        out[f"{name}.self_s"] = self_s
        out[f"{name}.self_share"] = self_s / sim_s if sim_s else 0.0
        per_name, per_n = per or ("ns_per_msg", msgs)
        out[f"{name}.{per_name}"] = _ns_per(self_s, per_n)

    kernels = inst.instances["kernels"]
    events = sum(k.events_executed for k in kernels)
    scheduled = c("sim.kernel.scheduled", 0)
    layer(
        "sim.kernel",
        {"events": events, "cancel_ratio": c("sim.kernel.cancels", 0) / scheduled if scheduled else 0.0},
        ("ns_per_event", events),
    )
    slices = sum(t.context_switches for e in inst.instances["engines"] for t in e.threads)
    layer("sim.executor", {"slices": slices})
    stagings = inst.instances["stagings"]
    released = sum(s.released for s in stagings)
    batches = sum(s.batches for s in stagings)
    envelopes = c("sim.mailbox.envelopes", 0)
    layer(
        "sim.mailbox",
        {
            "envelopes": envelopes,
            "cross_shard": c("sim.mailbox.cross_shard", 0),
            "batch_factor": released / batches if batches else 0.0,
        },
        ("ns_per_envelope", envelopes),
    )
    windows = c("sim.shard.windows", 0)
    layer(
        "sim.shard",
        {
            "sweeps": sum(s.sweeps for s in inst.instances["sims"]),
            "useful_sweep_ratio": c("sim.shard.useful_windows", 0) / windows if windows else 0.0,
        },
    )
    cost_calls = c("hw.cost_calls", 0)
    layer("hw", {"cost_calls": cost_calls}, ("ns_per_call", cost_calls))
    layer("oslinux", {"calls": c("oslinux.calls", 0)})
    layer("os21", {"calls": c("os21.calls", 0)})
    layer("embx", {"sends": c("embx.sends", 0), "receives": c("embx.receives", 0)})
    layer("core", {"ops": c("core.ops", 0), "nbytes_calls": c("core.nbytes_calls", 0)})
    layer("runtime", {"transfers": c("runtime.transfers", 0)})
    out["runtime.collect_s"] = report_s.get("collect", 0.0)
    records = c("core.observation.records", 0)
    layer("core.observation", {"records": records}, ("ns_per_record", records))
    layer("metrics", {"records": c("metrics.records", 0), "windows": c("metrics.windows", 0)})
    out["metrics.collect_s"] = report_s.get("collect_telemetry", 0.0)
    trace_events = c("trace.events", 0)
    layer("trace", {"events": trace_events}, ("ns_per_event", trace_events))
    out["trace.merge_s"] = report_s.get("merge_buffers", 0.0)
    huff = c("mjpeg.huffman.blocks", 0)
    idct = c("mjpeg.idct.blocks", 0)
    layer("mjpeg.huffman", {"blocks": huff}, ("ns_per_block", huff))
    layer("mjpeg.idct", {"blocks": idct}, ("ns_per_block", idct))
    layer("mjpeg.blocks", {})
    mjpeg_s = sum(sim.get(n, 0.0) for n in ("mjpeg.huffman", "mjpeg.idct", "mjpeg.blocks"))
    out["mjpeg.self_s"] = mjpeg_s
    out["mjpeg.self_share"] = mjpeg_s / sim_s if sim_s else 0.0
    layer("mjpeg.components", {})
    setup = phase_self.get("setup", {})
    setup_s = phase_wall.get("setup", 0.0)
    out["mjpeg.encoder.frames"] = c("mjpeg.encoder.frames", 0)
    out["mjpeg.encoder.self_s"] = setup.get("mjpeg.encoder", 0.0)
    out["mjpeg.encoder.setup_share"] = setup.get("mjpeg.encoder", 0.0) / setup_s if setup_s else 0.0
    layer("workloads.traffic", {"handlers": c("calls.workloads.traffic", 0)})
    out["tracing.sim_s"] = sim_s
    out["tracing.unattributed_share"] = sim.get("(unattributed)", 0.0) / sim_s if sim_s else 0.0
    return out
