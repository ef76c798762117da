"""Per-layer timers for the traced run, installed from outside ``src/``.

:class:`Instrument` wraps the public entry points of each layer in a
timer that opens a ``trace.span`` of the layer's name and records the
call into :data:`repro.telemetry.metrics` as two histograms:
``e2e.self.<layer>`` (exclusive time: the call minus the timed calls
nested inside it) and ``e2e.incl.<layer>`` (inclusive time).  Exclusive
times partition the wall time of one thread, so their sum never exceeds
it and the uncovered remainder is the work no listed layer claims.

Forked pool workers inherit the wrappers; while tracing is on the
executor ships each shard's metrics snapshot home, so worker-side layer
time lands in the supervisor's registry.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

#: layers a user waits on in every workload; BENCHMARK.json lists these
COMMON_LAYERS = (
    "netlist.setup",
    "netlist.reference",
    "netlist.faulty",
    "faults.injector",
    "faults.draw",
    "faults.classify",
)

#: layers only some workloads exercise; reported beside the common ones
#: (printed and written to the ledger) whenever the workload called them
OTHER_LAYERS = (
    "countermeasures.build",
    "attacks.sifa",
    "netlist.lint",
    "certify.enumerate",
    "certify.sample",
    "certify.scenario",
    "faults.checkpoint_write",
    "faults.checkpoint_read",
    "service.request_key",
    "service.store_get",
    "service.store_put",
)


def _design_run_layer(design, sim, *args, **kwargs) -> str:
    """``ProtectedDesign.run`` is the clean reference or the faulty run."""
    from repro.telemetry import metrics

    metrics.inc("e2e.lanes", sim.batch)
    return "netlist.faulty" if sim.faults is not None else "netlist.reference"


#: (module, attribute, layer); ``Class.method`` attributes are patched on
#: the class, plain functions in every ``repro``/``benchmarks`` module that
#: imported them by name.  ``certify.design`` and ``faults.executor`` are
#: containers: their exclusive time is the certificate assembly and the
#: sweep's bookkeeping respectively.  The kernel compile is not wrapped:
#: inside an operation it is a cached lookup in ``Simulator.__init__``
#: (or the first simulator of a new circuit), so it counts as
#: ``netlist.setup``; set-up processes time it as ``setup.compile_s``.
TARGETS = (
    ("repro.countermeasures.three_in_one", "build_three_in_one", "countermeasures.build"),
    ("repro.countermeasures.duplication", "build_naive_duplication", "countermeasures.build"),
    ("repro.netlist.simulator", "Simulator.__init__", "netlist.setup"),
    ("repro.countermeasures.base", "ProtectedDesign.run", _design_run_layer),
    ("repro.faults.injector", "FaultInjector.__init__", "faults.injector"),
    ("repro.rng", "random_bits", "faults.draw"),
    ("repro.faults.classification", "classify", "faults.classify"),
    ("repro.attacks.sifa", "ineffective_distribution", "attacks.sifa"),
    ("repro.netlist.analysis", "lint_countermeasure", "netlist.lint"),
    ("repro.certify.space", "enumerate_fault_space", "certify.enumerate"),
    ("repro.certify.space", "FaultSpace.sample", "certify.sample"),
    ("repro.certify.space", "FaultSpace.scenario", "certify.scenario"),
    ("repro.certify.certifier", "certify_design", "certify.design"),
    ("repro.faults.executor", "run_sharded", "faults.executor"),
    ("repro.faults.checkpoint", "CheckpointStore.write_shard", "faults.checkpoint_write"),
    ("repro.faults.checkpoint", "CheckpointStore.read_shard", "faults.checkpoint_read"),
    ("repro.faults.checkpoint", "CheckpointStore.load", "faults.checkpoint_read"),
    ("repro.service.protocol", "request_key", "service.request_key"),
    ("repro.service.store", "ResultStore.get", "service.store_get"),
    ("repro.service.store", "ResultStore.put", "service.store_put"),
)


class Instrument:
    """Install the layer timers with :meth:`install`, undo with :meth:`remove`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, layer, fn):
        from repro.telemetry import metrics, trace

        local = self._local

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)  # time spent in timed calls nested in this one
            t0 = time.perf_counter()
            try:
                with trace.span(name):
                    return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                metrics.observe(f"e2e.self.{name}", elapsed - nested)
                metrics.observe(f"e2e.incl.{name}", elapsed)

        return timed

    def install(self) -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name.split(".")[0] in ("repro", "benchmarks") and mod is not None
        ]
        for module_name, attr, layer in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._timed(layer, vars(cls)[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._timed(layer, original)
            for module in modules + [owner]:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, obj, name: str, value) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def remove(self) -> None:
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)


def shard_span_seconds(trace_path: Path) -> float:
    """Σ duration of the ``executor.shard`` spans in a trace file."""
    total = 0.0
    if not trace_path.exists():
        return total
    with open(trace_path, encoding="utf-8") as fh:
        for line in fh:
            if '"executor.shard"' not in line:
                continue
            record = json.loads(line)
            if record.get("type") == "span" and record.get("name") == "executor.shard":
                total += record["dur_s"]
    return total


def layer_metrics(
    snapshot: dict, *, wall_s: float, jobs: int, shard_s: float
) -> tuple[dict, dict]:
    """Derive ``(common, other)`` layer metrics from a registry snapshot.

    ``wall_s`` is the traced operations' wall time and ``jobs`` the worker
    processes they ran on; every ``*_share`` is busy time over
    ``jobs × wall_s``.  ``shard_s`` is the Σ of ``executor.shard`` spans.
    Each dict maps a metric name to ``{"value", "unit"}``.
    """
    hists = snapshot.get("histograms", {})

    def busy(layer: str, kind: str = "self") -> tuple[float, int]:
        doc = hists.get(f"e2e.{kind}.{layer}") or {}
        return float(doc.get("total", 0.0)), int(doc.get("count", 0))

    capacity = jobs * wall_s
    common: dict[str, dict] = {}
    other: dict[str, dict] = {}
    attributed = 0.0

    def put(out: dict, layer: str, seconds: float) -> None:
        nonlocal attributed
        attributed += seconds
        out[f"{layer}_s"] = {"value": seconds, "unit": "s"}
        out[f"{layer}_share"] = {"value": seconds / capacity, "unit": "fraction"}

    for layer in COMMON_LAYERS:
        seconds, calls = busy(layer)
        put(common, layer, seconds)
        if layer.startswith("netlist."):
            common[f"{layer}_calls"] = {"value": calls, "unit": "count"}
    setups = common["netlist.setup_calls"]["value"]
    lanes = snapshot.get("counters", {}).get("e2e.lanes", 0)
    common["netlist.lanes_per_setup"] = {
        "value": lanes / setups if setups else 0.0, "unit": "lanes",
    }

    for layer in OTHER_LAYERS:
        seconds, calls = busy(layer)
        if calls:
            put(other, layer, seconds)
    write_s, writes = busy("faults.checkpoint_write")
    if writes:
        other["faults.checkpoint_writes"] = {"value": writes, "unit": "count"}
    assemble, certifies = busy("certify.design")
    if certifies:
        # certify_design's exclusive time: its wall minus lint, enumerate,
        # sample and the sweep (and anything else timed inside it)
        put(other, "certify.assemble", assemble)
    sweep, sweeps = busy("faults.executor", "incl")
    if sweeps:
        # Executor overhead: worker capacity during the sweeps that no
        # shard used — bookkeeping, IPC and idle workers — except the
        # checkpoint writes the supervisor makes between shards.
        put(other, "faults.executor_overhead",
            max(0.0, jobs * sweep - shard_s - write_s))
        other["faults.shard_busy_s"] = {"value": shard_s, "unit": "s"}
        other["faults.parallel_efficiency"] = {
            "value": shard_s / (jobs * sweep), "unit": "fraction",
        }
    common["unattributed_share"] = {
        "value": 1.0 - attributed / capacity, "unit": "fraction",
    }
    return common, other

