"""Span tracing for the benchmark's traced run.

The tracer wraps the public calls into each layer of the package — from
here, not from inside ``src/`` — and records one span per call: layer
name, start, end, parent span and the operation (one run, or one spec of
a grid) the call belongs to.  Spans live in memory as three flat arrays
and are written out when the workload ends.

Wrappers are installed before any engine or pool is built, so engines
that cache bound methods at construction cache the wrapped ones, and
pool workers forked afterwards inherit them.  A worker ships the spans
of each run back to the parent on the run's result object; the parent
takes them off again before the result is stamped into a record.

A target that no longer exists (a class renamed or deleted by a later
refactor) is skipped and listed in :attr:`Tracer.missing`; it records
nothing instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from array import array
from pathlib import Path

#: (layer, module, attribute path).  ``*`` in the class position matches
#: every class of the module that defines the method itself; a trailing
#: ``*`` in the method position matches every method with that prefix.
TARGETS = (
    ("scenarios.build_config", "repro.scenarios.scenario", "Scenario.build_config"),
    ("orchestration.specs", "repro.orchestration.study", "Study.specs"),
    ("simulation.run", "repro.simulation.runner", "run_simulation"),
    ("simulation.construct", "repro.simulation.system", "StreamingSystem.__init__"),
    ("simulation.construct", "repro.simulation.arrayengine", "ArrayEngine.__init__"),
    ("simulation.dispatch", "repro.simulation.system", "StreamingSystem.run"),
    ("simulation.dispatch", "repro.simulation.arrayengine", "ArrayEngine.run"),
    ("network.lookup", "repro.network.lookup", "DirectoryLookup.candidates"),
    ("network.lookup", "repro.network.lookup", "ChordLookup.candidates"),
    ("network.transport", "repro.network.transport", "Transport.send"),
    ("network.transport", "repro.network.transport", "Transport.round_trip"),
    ("simulation.probes", "repro.simulation.probes", "MetricsPipeline.on_*"),
    ("simulation.probes", "repro.simulation.probes", "MetricsPipeline.sample_*"),
    ("simulation.probes", "repro.simulation.probes", "MetricsPipeline.to_dict"),
    ("simulation.lifecycle", "repro.simulation.lifecycle", "*.next_departure"),
    ("simulation.lifecycle", "repro.simulation.lifecycle", "*.next_return"),
    ("orchestration.batch", "repro.orchestration.batch", "run_batch"),
    ("orchestration.record", "repro.orchestration.study", "RunRecord.from_result"),
    ("orchestration.store_put", "repro.orchestration.store", "ResultStore.put"),
    ("orchestration.store_get", "repro.orchestration.store", "ResultStore.get"),
    ("orchestration.export", "repro.orchestration.study", "ResultSet.to_json"),
    ("analysis.render", "repro.analysis.report", "figure4_report"),
    ("analysis.render", "repro.analysis.report", "figure5_report"),
    ("analysis.render", "repro.analysis.report", "table1_report"),
)

#: layers whose spans are timed by hand rather than by a wrapper
MANUAL_LAYERS = ("repro.import",)

#: the attribute a pool worker hangs its spans on before the result is
#: pickled back to the parent
SHIP_ATTR = "_perfbench_spans"

_PARENT_SHIFT = 24
_OP_SHIFT = 8
_OP_MASK = 0xFFFF
_LAYER_MASK = 0xFF


def _spec_hash(config: object) -> str:
    """The spec hash of a run's config, or "" if the API is gone."""
    try:
        from repro.orchestration.runspec import RunSpec

        return RunSpec(config=config).spec_hash
    except (ImportError, TypeError, AttributeError):
        return ""


def _resident_mib() -> float:
    """Current resident set size of this process, in MiB (Linux)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            resident_pages = int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.layers: list[str] = list(
            dict.fromkeys(MANUAL_LAYERS + tuple(layer for layer, _, _ in TARGETS))
        )
        self._layer_ids = {name: index for index, name in enumerate(self.layers)}
        self.start = array("d")
        self.end = array("d")
        #: (parent + 1) << 24 | op << 8 | layer
        self.meta = array("q")
        self.stack: list[int] = []
        self.ops: list[str] = [""]
        self._op_ids: dict[str, int] = {"": 0}
        self.current_op = 0
        self.cycle = ""
        #: per-call measurements that are not durations (bytes, RSS, hits)
        self.samples: dict[str, list[float]] = {}
        self.missing: list[str] = []
        #: while set, wrapped calls run untraced (the benchmark's own checks)
        self.paused = False
        self.pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def op_id(self, label: str) -> int:
        """The id of an operation label, allocating it on first use."""
        index = self._op_ids.get(label)
        if index is None:
            index = self._op_ids[label] = len(self.ops)
            self.ops.append(label)
        return index

    def begin_cycle(self, label: str) -> None:
        """Attribute spans opened from now on to the cycle ``label``."""
        self.cycle = label
        self.current_op = self.op_id(label)

    def spec_op(self, spec_hash: str) -> int:
        """The operation id of one spec (or run) within the current cycle."""
        return self.op_id(f"{self.cycle}/{spec_hash[:16]}")

    def sample(self, name: str, value: float) -> None:
        """Record one non-duration measurement."""
        self.samples.setdefault(name, []).append(float(value))

    @contextlib.contextmanager
    def pause(self):
        """Leave the calls made inside the block out of the trace."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def record(self, layer: str, start: float, end: float) -> None:
        """Record a span timed by hand (no wrapper), under the open span."""
        self.meta.append(
            ((self.stack[-1] + 1 if self.stack else 0) << _PARENT_SHIFT)
            | (self.current_op << _OP_SHIFT)
            | self._layer_ids[layer]
        )
        self.start.append(start)
        self.end.append(end)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn):
        """``fn`` recording one span per call, plus the layer's hooks.

        A call made inside a call of the same layer (``send`` inside
        ``round_trip``) is part of it and gets no span of its own.
        """
        start, end, meta, stack = self.start, self.end, self.meta, self.stack
        clock = time.perf_counter
        layer_id = self._layer_ids[layer]
        hooks = _HOOKS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused or (stack and meta[stack[-1]] & _LAYER_MASK == layer_id):
                return fn(*args, **kwargs)
            outer_op = tracer.current_op
            context = hooks.before(tracer, args) if hooks else None
            index = len(start)
            meta.append(
                ((stack[-1] + 1 if stack else 0) << _PARENT_SHIFT)
                | (tracer.current_op << _OP_SHIFT)
                | layer_id
            )
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
                tracer.current_op = outer_op
            if hooks:
                hooks.after(tracer, args, result, context)
            return result

        return traced

    def install(self, layers: tuple[str, ...] | None = None) -> None:
        """Wrap every target (or those of ``layers``) that still exists."""
        for layer, module_name, path in TARGETS:
            if layers is not None and layer not in layers:
                continue
            found = self._install_target(layer, module_name, path)
            if not found:
                self.missing.append(f"{module_name}:{path}")

    def _install_target(self, layer: str, module_name: str, path: str) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." not in path:
            original = getattr(module, path, None)
            if not callable(original):
                return False
            self._rebind_everywhere(original, self._wrap(layer, original))
            return True
        class_name, method = path.split(".", 1)
        if class_name == "*":
            classes = [
                value for value in vars(module).values()
                if isinstance(value, type) and value.__module__ == module_name
            ]
        else:
            owner = getattr(module, class_name, None)
            classes = [owner] if isinstance(owner, type) else []
        found = False
        for owner in classes:
            for name, raw in list(vars(owner).items()):
                if method.endswith("*"):
                    if not name.startswith(method[:-1]):
                        continue
                elif name != method:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__))
                elif callable(raw):
                    wrapped = self._wrap(layer, raw)
                else:
                    continue
                self._patches.append((owner, name, raw))
                setattr(owner, name, wrapped)
                found = True
        return found

    def _rebind_everywhere(self, original, wrapped) -> None:
        """Replace a function in every ``repro`` module that bound it."""
        for module_name in sorted(sys.modules):
            module = sys.modules[module_name]
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # shipping spans from pool workers
    # ------------------------------------------------------------------
    def take(self, base: int) -> dict:
        """Remove and return the spans from index ``base`` on."""
        payload = {
            "base": base,
            "start": self.start[base:],
            "end": self.end[base:],
            "meta": self.meta[base:],
            "ops": list(self.ops),
            "samples": self.samples,
        }
        del self.start[base:]
        del self.end[base:]
        del self.meta[base:]
        self.samples = {}
        return payload

    def absorb(self, payload: dict) -> None:
        """Merge spans taken in a worker; parents below ``base`` are ours.

        A worker is forked with a copy of this tracer, so a parent index
        below the payload's ``base`` names a span of this process (the
        batch call the pool ran under); indices from ``base`` on are
        renumbered to follow this tracer's own spans.
        """
        import numpy as np

        base = payload["base"]
        offset = len(self.start)
        meta = np.frombuffer(payload["meta"], dtype=np.int64)
        parent = (meta >> _PARENT_SHIFT) - 1
        parent = np.where(parent >= base, parent - base + offset, parent)
        remap = np.array(
            [self.op_id(label) for label in payload["ops"]], dtype=np.int64
        )
        op = remap[(meta >> _OP_SHIFT) & _OP_MASK]
        merged = ((parent + 1) << _PARENT_SHIFT) | (op << _OP_SHIFT) | (
            meta & _LAYER_MASK
        )
        self.meta.frombytes(merged.astype(np.int64).tobytes())
        self.start.extend(payload["start"])
        self.end.extend(payload["end"])
        for name, values in payload["samples"].items():
            self.samples.setdefault(name, []).extend(values)

    def absorb_setup(self, label: str, spans: list[list]) -> None:
        """Merge the spans a set-up probe printed as JSON."""
        offset = len(self.start)
        op = self.op_id(label)
        for layer, start, end, parent in spans:
            self.meta.append(
                ((parent + offset + 1 if parent >= 0 else 0) << _PARENT_SHIFT)
                | (op << _OP_SHIFT)
                | self._layer_ids[layer]
            )
            self.start.append(start)
            self.end.append(end)

    def spans_json(self) -> list[list]:
        """Every span as ``[layer, start, end, parent]`` (set-up probes)."""
        return [
            [
                self.layers[meta & _LAYER_MASK],
                start,
                end,
                (meta >> _PARENT_SHIFT) - 1,
            ]
            for start, end, meta in zip(self.start, self.end, self.meta)
        ]

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def columns(self) -> dict:
        """The spans as numpy columns, with duration and self time."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        meta = np.frombuffer(self.meta, dtype=np.int64)
        duration = end - start
        parent = (meta >> _PARENT_SHIFT) - 1
        layer = meta & _LAYER_MASK
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(meta)
        )
        return {
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - covered,
            "parent": parent,
            "layer": layer,
            "op": (meta >> _OP_SHIFT) & _OP_MASK,
        }

    def layer_stats(self) -> dict[str, dict]:
        """Per layer: calls, their durations, total and self seconds."""
        cols = self.columns()
        stats = {}
        for layer_id, name in enumerate(self.layers):
            in_layer = cols["layer"] == layer_id
            durations = cols["duration"][in_layer]
            stats[name] = {
                "calls": len(durations),
                "durations": durations,
                "total_s": float(durations.sum()),
                "self_s": float(cols["self"][in_layer].sum()),
            }
        return stats

    def write(self, path: Path) -> Path:
        """Write every span (compressed numpy columns plus label tables)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.columns()
        np.savez_compressed(
            path,
            start=cols["start"],
            end=cols["end"],
            parent=cols["parent"],
            layer=cols["layer"].astype(np.uint8),
            op=cols["op"].astype(np.uint16),
            layers=np.array(json.dumps(self.layers)),
            ops=np.array(json.dumps(self.ops)),
        )
        return path


# ----------------------------------------------------------------------
# per-layer hooks: which operation a call belongs to, and what it measured
# ----------------------------------------------------------------------
class _Hooks:
    """Default hooks: the call belongs to the caller's operation."""

    def before(self, tracer: Tracer, args: tuple) -> object:
        return None

    def after(self, tracer, args, result, context) -> None:
        return None


class _RunHooks(_Hooks):
    """``run_simulation``: one operation per run; workers ship spans back."""

    def before(self, tracer, args):
        if os.getpid() != tracer.pid:
            # a forked worker starts with a copy of the parent's samples
            tracer.samples = {}
        if args:
            tracer.current_op = tracer.spec_op(_spec_hash(args[0]))
        return len(tracer.start)

    def after(self, tracer, args, result, context):
        if os.getpid() == tracer.pid:
            return
        try:
            setattr(result, SHIP_ATTR, tracer.take(context))
        except AttributeError:
            # a result type that takes no attributes: its spans are dropped
            tracer.take(context)


class _ConstructHooks(_Hooks):
    """Engine construction: resident memory grown while building it."""

    def before(self, tracer, args):
        return _resident_mib()

    def after(self, tracer, args, result, context):
        tracer.sample("construct_rss_mb", _resident_mib() - context)


class _RecordHooks(_Hooks):
    """``RunRecord.from_result(spec, result)``: take shipped worker spans."""

    def before(self, tracer, args):
        if len(args) < 2:
            return None
        spec, result = args[-2], args[-1]
        tracer.current_op = tracer.spec_op(getattr(spec, "spec_hash", ""))
        payload = getattr(result, "__dict__", {}).pop(SHIP_ATTR, None)
        if payload is not None:
            tracer.absorb(payload)


class _PutHooks(_Hooks):
    """``ResultStore.put(record)``: bytes written."""

    def before(self, tracer, args):
        tracer.current_op = tracer.spec_op(getattr(args[-1], "spec_hash", ""))

    def after(self, tracer, args, result, context):
        try:
            tracer.sample("store_put_bytes", Path(result).stat().st_size)
        except (OSError, TypeError):
            pass


class _GetHooks(_Hooks):
    """``ResultStore.get(spec_hash)``: hit or miss."""

    def before(self, tracer, args):
        tracer.current_op = tracer.spec_op(str(args[-1]))

    def after(self, tracer, args, result, context):
        tracer.sample("store_get_hit", 1.0 if result is not None else 0.0)


class _ExportHooks(_Hooks):
    """``ResultSet.to_json``: bytes of JSON produced."""

    def after(self, tracer, args, result, context):
        tracer.sample("export_bytes", len(result.encode("utf-8")))


_HOOKS: dict[str, _Hooks] = {
    "simulation.run": _RunHooks(),
    "simulation.construct": _ConstructHooks(),
    "orchestration.record": _RecordHooks(),
    "orchestration.store_put": _PutHooks(),
    "orchestration.store_get": _GetHooks(),
    "orchestration.export": _ExportHooks(),
}


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
#: candidate tail percentiles, highest last
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least 10 samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if count * (100.0 - q) >= 1000.0 - 1e-6:
            best = q
    return best


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if len(sorted_values) == 0:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])
