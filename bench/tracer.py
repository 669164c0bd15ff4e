"""In-memory spans and counters around qmlab's layer modules, for traced runs.

``Tracer.install()`` wraps, wherever qmlab has bound them, every public
module-level function of each layer module and ``HamiltonianFlow.evaluate``,
plus numpy.fft's entry points and ``warnings.warn``; ``uninstall()`` puts the
originals back.  The library itself is not edited: the wrappers live here.

A span is (id, layer, name, start, end, parent id, pass id).  Counters are
keyed by pass id.  FFT and warning counters go to the innermost open layer
span.  Time spent in the tracer's own hooks (hashing FFT inputs and
trajectory arguments) is booked on the span it ran in and left out of self
time, so self times stay comparable with untraced work.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("grid", "symbols", "quasimodes", "wavelets", "propagator",
          "estimates", "config", "reporting")
FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# per-layer metrics: name -> (unit, better, computed from array sizes)
PER_LAYER_METRICS = {
    "grid.self_s": ("s", "lower", False),
    "grid.calls": ("count", "lower", False),
    "grid.fft_calls": ("count", "lower", False),
    "grid.fft_points": ("count", "lower", True),
    "grid.fft_unique_ratio": ("ratio", "higher", False),
    "quasimodes.self_s": ("s", "lower", False),
    "quasimodes.build_calls": ("count", "lower", False),
    "quasimodes.defect_calls": ("count", "lower", False),
    "quasimodes.warnings": ("count", "lower", False),
    "symbols.self_s": ("s", "lower", False),
    "symbols.quantize_calls": ("count", "lower", False),
    "symbols.contact_calls": ("count", "lower", False),
    "symbols.contact_inconclusive": ("count", "lower", False),
    "wavelets.self_s": ("s", "lower", False),
    "wavelets.scales": ("count", "lower", False),
    "wavelets.scales_per_s": ("1/s", "higher", False),
    "wavelets.fft_calls": ("count", "lower", False),
    "wavelets.fft_points": ("count", "lower", True),
    "wavelets.fft_unique_ratio": ("ratio", "higher", False),
    "propagator.self_s": ("s", "lower", False),
    "propagator.integrate_calls": ("count", "lower", False),
    "propagator.evaluate_calls": ("count", "lower", False),
    "propagator.traj_steps": ("count", "lower", True),
    "propagator.traj_steps_per_s": ("1/s", "higher", False),
    "propagator.unique_traj_ratio": ("ratio", "higher", False),
    "propagator.phase_builds": ("count", "lower", False),
    "estimates.self_s": ("s", "lower", False),
    "estimates.kernel_samples": ("count", "lower", False),
    "estimates.fits": ("count", "lower", False),
    "estimates.sweep_refusals": ("count", "lower", False),
    "config.self_s": ("s", "lower", False),
    "config.runs": ("count", "lower", False),
    "config.stages": ("count", "lower", True),
    "reporting.self_s": ("s", "lower", False),
    "reporting.bytes": ("B", "lower", False),
    "tracer.overhead": ("ratio", "lower", False),
}


class Span:
    __slots__ = ("sid", "layer", "name", "start", "end", "parent", "pass_id", "hook_s")

    def __init__(self, sid, layer, name, start, end=None, parent=None, pass_id=0, hook_s=0.0):
        self.sid, self.layer, self.name = sid, layer, name
        self.start, self.end, self.parent = start, end, parent
        self.pass_id, self.hook_s = pass_id, hook_s

    def as_list(self):
        return [self.sid, self.layer, self.name, self.start, self.end, self.parent,
                self.pass_id, self.hook_s]


def self_times(spans) -> dict:
    """Span id -> duration minus the part covered by child spans and hook time."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, reach, s.start), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.sid] = (s.end - s.start) - covered - s.hook_s
    return out


def _digest(*parts) -> bytes:
    h = hashlib.sha1()
    for p in parts:
        if isinstance(p, np.ndarray):
            a = np.ascontiguousarray(p)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.view(np.uint8).reshape(-1))
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.digest()


def _flow_steps(x1_max, dt):
    """RK4 steps integrate_flow takes for (x1_max, dt), by its own rounding rule."""
    if dt is None:
        dt = min(1e-3, x1_max / 100.0)
    return max(1, int(np.ceil((x1_max / dt) * (1.0 - 1e-12))))


class Tracer:
    """Spans, counters and distinct-input sets for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.pass_id = 0
        self.counts: Counter = Counter()        # (pass_id, metric) -> number
        self.seen: dict = defaultdict(set)      # (pass_id, metric) -> digests
        self._patches: list = []

    # -- recording --------------------------------------------------------

    def layer(self) -> str:
        return self.stack[-1].layer if self.stack else "bench"

    def count(self, metric: str, n=1) -> None:
        self.counts[(self.pass_id, metric)] += n

    def note_input(self, metric: str, digest: bytes) -> None:
        self.seen[(self.pass_id, metric)].add(digest)

    def _book_hook(self, t0: float) -> None:
        if self.stack:
            self.stack[-1].hook_s += time.perf_counter() - t0

    def _wrap(self, layer: str, name: str, fn, hook=None):
        tracer = self
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(len(tracer.spans), layer, name, time.perf_counter(),
                        parent=None if parent is None else parent.sid,
                        pass_id=tracer.pass_id)
            tracer.spans.append(span)
            tracer.stack.append(span)
            tracer.count(f"{layer}.calls")
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                t0 = time.perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
                tracer._book_hook(t0)
            return result

        return wrapper

    def _fft_hook(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            t0 = time.perf_counter()
            arr = np.asarray(a)
            layer = tracer.layer()
            tracer.count(f"{layer}.fft_calls")
            tracer.count(f"{layer}.fft_points", int(arr.size))
            tracer.note_input(f"{layer}.fft", _digest(name, args, sorted(kwargs.items()), arr))
            tracer._book_hook(t0)
            return fn(a, *args, **kwargs)

        return wrapper

    def _warn_hook(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(message, category=None, stacklevel=1, **kwargs):
            tracer.count(f"{tracer.layer()}.warnings")
            return fn(message, category, stacklevel + 1, **kwargs)

        return wrapper

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"qmlab.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(layer, name, obj, _HOOKS.get(f"{layer}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "qmlab" and not modname.startswith("qmlab."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patch(mod, attr, wrappers[id(val)])
        from qmlab.propagator import HamiltonianFlow
        self._patch(HamiltonianFlow, "evaluate",
                    self._wrap("propagator", "HamiltonianFlow.evaluate",
                               HamiltonianFlow.evaluate, _evaluate_hook))
        for name in FFT_ENTRY_POINTS:
            self._patch(np.fft, name, self._fft_hook(name, getattr(np.fft, name)))
        self._patch(warnings, "warn", self._warn_hook(warnings.warn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reading ----------------------------------------------------------

    def pass_metrics(self, pass_id: int) -> dict:
        """Per-layer metric values of one traced pass (tracer.overhead excluded)."""
        spans = [s for s in self.spans if s.pass_id == pass_id]
        own = self_times(spans)
        self_s = Counter()
        for s in spans:
            self_s[s.layer] += own[s.sid]
        c = {m: n for (p, m), n in self.counts.items() if p == pass_id}

        def distinct_ratio(calls_metric, seen_metric):
            calls = c.get(calls_metric, 0)
            return len(self.seen.get((pass_id, seen_metric), ())) / calls if calls else 1.0

        def rate(num, layer):
            return c.get(num, 0) / self_s[layer] if self_s[layer] > 0 else 0.0

        out = {}
        for metric in PER_LAYER_METRICS:
            layer, _, what = metric.partition(".")
            if what == "self_s":
                out[metric] = float(self_s[layer])
            elif what == "fft_unique_ratio":
                out[metric] = distinct_ratio(f"{layer}.fft_calls", f"{layer}.fft")
            elif metric == "propagator.unique_traj_ratio":
                out[metric] = distinct_ratio("propagator.evaluate_calls", "propagator.traj")
            elif metric == "wavelets.scales_per_s":
                out[metric] = rate("wavelets.scales", "wavelets")
            elif metric == "propagator.traj_steps_per_s":
                out[metric] = rate("propagator.traj_steps", "propagator")
            elif layer != "tracer":
                out[metric] = float(c.get(metric, 0))
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"header": header,
                       "span_fields": ["id", "layer", "name", "start", "end", "parent",
                                       "pass", "hook_s"],
                       "spans": [s.as_list() for s in self.spans],
                       "counts": [[p, m, n] for (p, m), n in sorted(self.counts.items())]},
                      fh)


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}


# ---------------------------------------------------------------------------
# counter hooks: (tracer, bound arguments, result) -> None, run after the call
# ---------------------------------------------------------------------------

def _nested_in(tracer, names) -> bool:
    """True when an enclosing open span is one of the given layer.name spans."""
    return any(f"{s.layer}.{s.name}" in names for s in tracer.stack)


_WAVELET_SCALE_ENTRIES = {"wavelets.cwt_forward", "wavelets.cwt_roundtrip_error",
                          "wavelets.coefficient_norm_table"}


def _scales(tracer, args, result):
    if not _nested_in(tracer, _WAVELET_SCALE_ENTRIES):
        tracer.count("wavelets.scales", len(np.atleast_1d(args["a_grid"])))


def _integrate(tracer, args, result):
    n_traj = np.asarray(args["y_init"]).size * np.asarray(args["xi_init"]).size
    tracer.count("propagator.integrate_calls")
    tracer.count("propagator.traj_steps", n_traj * _flow_steps(args["x1_max"], args["dt"]))


def _evaluate_hook(tracer, args, result):
    flow = args["self"]
    y0, xi0 = np.broadcast_arrays(np.asarray(args["y0"], dtype=float),
                                  np.asarray(args["xi0"], dtype=float))
    x1 = float(args["x1"])
    tracer.count("propagator.evaluate_calls")
    tracer.count("propagator.traj_steps", y0.size * max(1, int(round(x1 / flow.dt))))
    tracer.note_input("propagator.traj", _digest(id(flow.graph), flow.dt, x1, y0, xi0))


def _phase_build(tracer, args, result):
    if not _nested_in(tracer, {"propagator.build_phase"}):
        tracer.count("propagator.phase_builds")


def _contact(tracer, args, result):
    tracer.count("symbols.contact_calls")
    tracer.count("symbols.contact_inconclusive", int(bool(result.inconclusive)))


def _sweep(tracer, args, result):
    tracer.count("estimates.sweep_refusals", sum(1 for row in result if row.error))


def _config_run(tracer, args, result):
    cfg = args["cfg"]
    tracer.count("config.runs")
    tracer.count("config.stages", len(cfg.stages) * sum(1 for row in result.rows if not row.error))


def _rendered(tracer, args, result):
    tracer.count("reporting.bytes", len(result.encode()))


def _counter(metric):
    return lambda tracer, args, result: tracer.count(metric)


_HOOKS = {
    "quasimodes.build_t_alpha": _counter("quasimodes.build_calls"),
    "quasimodes.build_flat_quasimode": _counter("quasimodes.build_calls"),
    "quasimodes.build_graph_adapted_quasimode": _counter("quasimodes.build_calls"),
    "quasimodes.defect": _counter("quasimodes.defect_calls"),
    "quasimodes.joint_defect": _counter("quasimodes.defect_calls"),
    "symbols.apply_left_quantization": _counter("symbols.quantize_calls"),
    "symbols.contact_order": _contact,
    "wavelets.cwt_forward": _scales,
    "wavelets.cwt_roundtrip_error": _scales,
    "wavelets.coefficient_norm_table": _scales,
    "propagator.integrate_flow": _integrate,
    "propagator.build_phase": _phase_build,
    "propagator.analytic_phase_table": _phase_build,
    "estimates.kernel_sample": _counter("estimates.kernel_samples"),
    "estimates.fit_power_law": _counter("estimates.fits"),
    "estimates.run_sweep": _sweep,
    "config.run": _config_run,
    "reporting.measurements_csv": _rendered,
    "reporting.report_markdown": _rendered,
    "reporting.defect_csv": _rendered,
}
