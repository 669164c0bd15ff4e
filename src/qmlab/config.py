"""Experiment configuration: parsing, validation, stage pipeline, assertions.

Config files are line-based: ``[section]`` headers, ``key = value`` pairs and
``#`` comments.  Sections are ``[experiment]``, ``[grid]``, any number of
``[stage <kind>]`` in pipeline order, and ``[assert <name>]`` blocks.  All
parse errors are collected with their line numbers and reported together.

Value syntax: numbers (including ``2^-6`` dyadics and ``inf``), whitespace
separated lists, booleans, and symbol expressions like
``contact_circle(k=2, c=1.0)`` (identifier plus parenthesized key=value
list).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import estimates, quasimodes, symbols, wavelets
from .grid import GridSpec, lp_norms
from .propagator import conjugated_symbol, quasimode_pushforward
from .symbols import contact_order, graph_catalog

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "StageSpec",
    "AssertionSpec",
    "parse_config",
    "parse_symbol_expr",
    "parse_graph_expr",
    "run",
    "RunReport",
]


class ConfigError(ValueError):
    """One or more configuration errors; message lists all of them."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


# ---------------------------------------------------------------------------
# symbol / graph expressions
# ---------------------------------------------------------------------------

_EXPR_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$")


def _integer(key: str, value: float) -> int:
    """An integer parameter; a fractional value is refused, never truncated."""
    if isinstance(value, (bool, str)) or not float(value).is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(key: str, value: float) -> float:
    """A real parameter (inf included); a boolean or a word is refused, never coerced."""
    if isinstance(value, (bool, str)) or math.isnan(value):
        raise ValueError(f"{key} must be a real number, got {value!r}")
    return float(value)


def _boolean(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


_SYMBOL_FACTORIES = {
    "circle_minus_one": lambda: symbols.circle_minus_one(),
    "contact_circle": lambda k, c: symbols.contact_perturbed_circle(_integer("k", k), float(c)),
    "flat_contact": lambda k, c: symbols.flat_contact(_integer("k", k), float(c)),
    "xi1": lambda: symbols.xi1_symbol(),
    "xi2_power": lambda m: symbols.xi2_power_symbol(_integer("m", m)),
}


def _parse_call(text: str):
    m = _EXPR_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse expression {text!r}")
    name, arglist = m.group(1), m.group(2)
    kwargs = {}
    if arglist is not None and arglist.strip():
        for part in arglist.split(","):
            if "=" not in part:
                raise ValueError(f"expected key=value in {text!r}, got {part.strip()!r}")
            key, val = part.split("=", 1)
            kwargs[key.strip()] = float(val.strip())
    return name, kwargs


def parse_symbol_expr(text: str) -> symbols.SymbolSpec:
    """Symbol from `name(key=value, ...)` notation."""
    name, kwargs = _parse_call(text)
    if name not in _SYMBOL_FACTORIES:
        raise ValueError(f"unknown symbol {name!r}; have {sorted(_SYMBOL_FACTORIES)}")
    return _SYMBOL_FACTORIES[name](**kwargs)


def _closed_form(text: str) -> float:
    """`-delta(p=8, k=1)`: estimates.delta_p_k in exact rationals (integer or inf p), as a float."""
    sign, body = (-1, text[1:]) if text.startswith("-") else (1, text)
    name, kw = _parse_call(body)
    if name != "delta" or sorted(kw) != ["k", "p"]:
        raise ValueError(f"unknown closed form {text!r}; have delta(p=..., k=...)")
    p = kw["p"] if kw["p"] == math.inf else _integer("p", kw["p"])
    return float(sign * estimates.delta_p_k(p, _integer("k", kw["k"])))


def parse_graph_expr(text: str) -> symbols.GraphFn:
    """Graph generator from the same notation (catalog names)."""
    name, kwargs = _parse_call(text)
    kwargs = {k: (_integer(k, v) if k == "k" else v) for k, v in kwargs.items()}
    return graph_catalog(name, **kwargs)


# ---------------------------------------------------------------------------
# config model
# ---------------------------------------------------------------------------

STAGE_KINDS = {
    # kind: (consumes_field, produces_field)
    "construct": (False, True),
    "flat_quasimode": (False, True),
    "propagate": (True, True),
    "norms": (True, False),
    "defect": (True, False),
    "cwt_norms": (True, False),
    "kernel": (False, False),
    "egorov": (False, False),
}


@dataclass
class StageSpec:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class AssertionSpec:
    name: str
    kind: str  # slope | slope_min | value_max | ratio_spread | flag_all
    params: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    name: str
    h_list: list[float]
    stages: list[StageSpec]
    assertions: list[AssertionSpec]
    grid: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = "results"
    source_text: str = ""


_EXPERIMENT_KEYS = {"name", "h_list", "seed", "out_dir"}
_GRID_KEYS = {"half_width", "coverage", "n_max", "points_per_axis"}
# stage keys, each with the check its value (every element of a list alike) passes
# at parse time; only the _STAGE_LIST_KEYS take a whitespace-separated list
_STAGE_KEYS = {
    "construct": {"alpha": _real, "normalization": None, "smoothed_edges": _boolean},
    "flat_quasimode": {"k": _integer, "sigma1_factor": _real, "sigma2_factor": _real},
    "propagate": {"graph": None},
    "norms": {"p": _real},
    "defect": {"symbol": None, "symbol2": None, "powers": _integer},
    "cwt_norms": {"k": _integer, "a_min_pow": _real, "a_max": _real, "per_decade": _integer,
                  "reference_a": _real},
    "kernel": {"graph": None, "k": _integer, "j_list": _integer, "a_list": None},
    "egorov": {"k_list": _integer, "x1_list": _real, "tilt": _real},
}
_STAGE_LIST_KEYS = {"p", "j_list", "a_list", "k_list", "x1_list", "powers"}
_ASSERT_KEYS = {
    "slope": {"quantity", "p", "k", "alpha", "expected", "tol"},
    "slope_min": {"quantity", "p", "k", "alpha", "expected", "tol"},
    "value_max": {"quantity", "limit"},
    "value_min": {"quantity", "limit"},
    "ratio_spread": {"quantity", "limit"},
    "flag_all": {"quantity"},
}


def _parse_scalar(tok: str):
    tok = tok.strip()
    if tok.lower() in ("inf", "infinity"):
        return math.inf
    if tok.lower() in ("true", "false"):
        return tok.lower() == "true"
    m = re.match(r"^2\^(-?\d+)$", tok)
    if m:
        return 2.0 ** int(m.group(1))
    try:
        if re.match(r"^-?\d+$", tok):
            return int(tok)
        return float(tok)
    except ValueError:
        return tok  # raw string (symbol expressions, names)


def _parse_value(raw: str):
    raw = raw.strip()
    if "(" in raw:  # symbol expression, keep whole
        return raw
    parts = raw.split()
    if len(parts) > 1:
        return [_parse_scalar(p) for p in parts]
    return _parse_scalar(raw)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    errors: list[str] = []
    section = None  # ("experiment"|"grid"|"stage"|"assert", payload, header, keys seen)
    experiment: dict = {}
    grid: dict = {}
    experiment_keys: set = set()  # shared by repeated [experiment] headers
    grid_keys: set = set()
    stages: list[StageSpec] = []
    assertions: list[AssertionSpec] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                errors.append(f"line {lineno}: unterminated section header")
                section = None
                continue
            header = stripped[1:-1].strip()
            if header == "experiment":
                section = ("experiment", experiment, header, experiment_keys)
            elif header == "grid":
                section = ("grid", grid, header, grid_keys)
            elif header.startswith("stage"):
                kind = header[len("stage"):].strip()
                if kind not in STAGE_KINDS:
                    errors.append(f"line {lineno}: unknown stage kind {kind!r}")
                    section = None
                    continue
                stage = StageSpec(kind)
                stages.append(stage)
                section = ("stage", stage, header, set())
            elif header.startswith("assert"):
                name = header[len("assert"):].strip() or f"assert_{len(assertions)}"
                spec = AssertionSpec(name, kind="")
                assertions.append(spec)
                section = ("assert", spec, header, set())
            else:
                errors.append(f"line {lineno}: unknown section {header!r}")
                section = None
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected key = value, got {stripped!r}")
            continue
        key, raw = (s.strip() for s in stripped.split("=", 1))
        value = _parse_value(raw)
        if section is None:
            errors.append(f"line {lineno}: key {key!r} outside any section")
            continue
        where, payload, title, seen = section
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r} in [{title}]")
            continue
        seen.add(key)
        if where == "experiment":
            if key not in _EXPERIMENT_KEYS:
                errors.append(f"line {lineno}: unknown experiment key {key!r}")
            else:
                experiment[key] = value
        elif where == "grid":
            if key not in _GRID_KEYS:
                errors.append(f"line {lineno}: unknown grid key {key!r}")
            else:
                grid[key] = value
        elif where == "stage":
            if key == "kind":
                errors.append(f"line {lineno}: stage kind is set in the header")
            elif key not in _STAGE_KEYS[payload.kind]:
                errors.append(f"line {lineno}: unknown key {key!r} for stage {payload.kind}")
            elif isinstance(value, list) and key not in _STAGE_LIST_KEYS:
                errors.append(f"line {lineno}: {key} takes one value, got {raw!r}")
            elif check := _STAGE_KEYS[payload.kind][key]:
                try:
                    payload.params[key] = ([check(key, v) for v in value]
                                           if isinstance(value, list) else check(key, value))
                except ValueError as exc:
                    errors.append(f"line {lineno}: {exc}")
            else:
                payload.params[key] = value
        elif where == "assert":
            if key == "kind":
                if value not in _ASSERT_KEYS:
                    errors.append(f"line {lineno}: unknown assertion kind {value!r}")
                else:
                    payload.kind = value
            elif key == "expected" and isinstance(value, str):
                try:
                    payload.params[key] = _closed_form(value)
                except ValueError as exc:
                    errors.append(f"line {lineno}: {exc}")
            else:
                payload.params[key] = value

    if not stages:
        errors.append("no pipeline: at least one [stage ...] section is required")

    h_list = experiment.get("h_list", [])
    if not isinstance(h_list, list):
        h_list = [h_list]
    if bad := [h for h in h_list if isinstance(h, (bool, str))]:
        errors.append(f"experiment.h_list: tokens that are not numbers: {bad}")
    h_list = [float(h) for h in h_list if not isinstance(h, (bool, str))]
    if not h_list and any(STAGE_KINDS[s.kind][0] or STAGE_KINDS[s.kind][1] for s in stages):
        errors.append("experiment.h_list must contain at least one h in (0, 1]")
    for h in h_list:
        if not (0 < h <= 1):
            errors.append(f"h = {h} outside (0, 1]")

    has_field = False
    for i, s in enumerate(stages):
        consumes, produces = STAGE_KINDS[s.kind]
        if consumes and not has_field:
            errors.append(f"stage {i + 1} ({s.kind}) needs a field but no earlier stage produces one")
        if produces:
            has_field = True
    for spec in assertions:
        if not spec.kind:
            errors.append(f"assertion {spec.name!r} is missing its kind")
        elif unknown := set(spec.params) - _ASSERT_KEYS.get(spec.kind, set()):
            errors.append(f"assertion {spec.name!r}: unknown keys {sorted(unknown)}")

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        name=str(experiment.get("name", "experiment")),
        h_list=h_list,
        stages=stages,
        assertions=assertions,
        grid=grid,
        seed=int(experiment.get("seed", 0)),
        out_dir=str(experiment.get("out_dir", "results")),
        source_text=text,
    )


# ---------------------------------------------------------------------------
# pipeline execution
# ---------------------------------------------------------------------------

def _grid_for(cfg: ExperimentConfig, h: float) -> GridSpec:
    g = cfg.grid
    if "points_per_axis" in g:
        return GridSpec(float(g.get("half_width", 5.0)), int(g["points_per_axis"]), h)
    return quasimodes.grid_for_t_alpha(
        h,
        half_width=float(g.get("half_width", 5.0)),
        coverage=float(g.get("coverage", 1.25)),
        n_max=int(g.get("n_max", 2048)),
    )


def _as_list(v):
    return v if isinstance(v, list) else [v]


def _run_stages(cfg: ExperimentConfig, h: float) -> dict:
    """Execute the pipeline at one h; keys are (quantity, p, k, j, alpha)."""
    rows: dict = {}
    fld = None
    alpha = None
    for stage in cfg.stages:
        p = stage.params
        # parse_config has typed every parameter (_STAGE_KEYS)
        if stage.kind == "construct":
            alpha = p.get("alpha", 0.5)
            spec = quasimodes.TAlphaSpec(h=h, alpha=alpha,
                                         normalization=str(p.get("normalization", "unit_l2")),
                                         smoothed_edges=p.get("smoothed_edges", False))
            fld = quasimodes.build_t_alpha(spec, _grid_for(cfg, h))
        elif stage.kind == "flat_quasimode":
            fld = quasimodes.build_flat_quasimode(
                _grid_for(cfg, h), p["k"], sigma1_factor=p.get("sigma1_factor", 3.0),
                sigma2_factor=p.get("sigma2_factor", 0.5))
        elif stage.kind == "propagate":
            fld = quasimode_pushforward(parse_graph_expr(str(p.get("graph", "circle"))), fld)
        elif stage.kind == "norms":
            pvs = _as_list(p.get("p", [2.0]))
            for pv, val in zip(pvs, lp_norms(fld, pvs)):
                rows[("lp_norm", pv, None, None, alpha)] = val
        elif stage.kind == "defect":
            p1 = parse_symbol_expr(str(p["symbol"]))
            p2 = parse_symbol_expr(str(p["symbol2"])) if "symbol2" in p else None
            powers = _as_list(p.get("powers", [1, 0]))
            pairs = [(powers[i], powers[i + 1]) for i in range(0, len(powers), 2)]
            for m1, m2 in pairs:
                if p2 is None:
                    rep = quasimodes.defect(p1, fld, max(m1, 1))
                else:
                    rep = quasimodes.joint_defect(p1, p2, fld, m1, m2)
                rows[(f"defect_m{m1}_{m2}", None, None, None, alpha)] = rep.defect
                rows[(f"defect_ratio_m{m1}_{m2}", None, None, None, alpha)] = rep.ratio_to_power
        elif stage.kind == "cwt_norms":
            k = p["k"]
            part = wavelets.make_partition(h, k)
            a_grid = wavelets.default_scale_grid(h ** p.get("a_min_pow", 0.6), p.get("a_max", 4.0),
                                                 per_decade=p.get("per_decade", 24))
            tab = wavelets.coefficient_norm_table(fld, wavelets.default_wavelet(), a_grid, part)
            a = tab["a"]
            iref = int(np.argmin(np.abs(a - p.get("reference_a", 1.0))))
            c_ref = tab["bands"][iref, 0] / a[iref] ** 1.5
            worst = 0.0
            for i, ai in enumerate(a):
                for j in range(part.J + 1):
                    shape = min(ai, 1.0) ** 1.5 * 2.0 ** (-j)
                    ratio = tab["bands"][i, j] / (c_ref * shape)
                    worst = max(worst, ratio)
                    rows[(f"cwt_norm(a={ai:.6g})", None, k, j, None)] = tab["bands"][i, j]
            rows[("cwt_reference_c", None, k, 0, None)] = c_ref
            rows[("cwt_worst_ratio", None, k, None, None)] = worst
            sel = (a >= h ** 0.6 * 0.999) & (a <= h ** 0.1 * 1.001)
            if np.count_nonzero(sel) >= 3:
                fit = estimates.fit_power_law(
                    list(zip(a[sel], tab["bands"][sel, 0])), quantity="small_a")
                rows[("cwt_small_a_slope", None, k, 0, None)] = fit.slope
        elif stage.kind == "kernel":
            k = p.get("k", 1)
            graph = parse_graph_expr(str(p.get("graph", "parabola")))
            part = wavelets.make_partition(h, k)
            j_list = _as_list(p.get("j_list", [0, 2, 4]))
            a_list = []
            for tok in _as_list(p.get("a_list", ["h^0.3", 0.5])):
                if isinstance(tok, str) and tok.startswith("h^"):
                    a_list.append(h ** float(tok[2:]))
                else:
                    a_list.append(float(tok))
            samples = estimates.default_kernel_samples(graph, wavelets.default_wavelet(), part,
                                                      j_list, a_list)
            for s in samples:
                rows[(f"kernel_sup(a={s.a:.6g},t={s.t:.6g},{s.regime})",
                      None, k, s.j, None)] = s.sup_abs
            rep = estimates.kernel_bound_check(samples)
            for regime, c in sorted(rep.constants.items()):
                rows[(f"kernel_C_{regime}", None, k, None, None)] = c
            rows[("kernel_pass", None, k, None, None)] = 1.0 if rep.passed else 0.0
        elif stage.kind == "egorov":
            a_g = symbols.graph_tilted_circle(p.get("tilt", 0.1))
            for k in _as_list(p.get("k_list", [1, 2])):
                q_g = symbols.graph_sum(a_g, symbols.graph_monomial(k, 1.0))
                for x1 in _as_list(p.get("x1_list", [0.1, 0.3])):
                    a_t, q_t = conjugated_symbol(a_g, q_g, x1, 1e-3)
                    # a is autonomous, so conserved along its own flow: the
                    # base point's label a~(0, 0) is a(x1, 0, 0), with no flow
                    xi0 = (float(a_g.value(x1, 0.0, 0.0)), 0.0)
                    rep = contact_order(a_t, q_t, xi0, max_order=k + 2, x=(x1, 0.0))
                    measured = -1.0 if rep.order == math.inf else float(rep.order)
                    rows[(f"contact_order(x1={x1:g})", None, k, None, None)] = measured
                    rows[(f"contact_match(x1={x1:g})", None, k, None, None)] = (
                        1.0 if rep.order == k and not rep.inconclusive else 0.0)
        else:  # pragma: no cover - guarded by parse validation
            raise ValueError(f"unhandled stage {stage.kind}")
    return rows


def build_pipeline(cfg: ExperimentConfig):
    """Callable h -> measurement dict, for estimates.run_sweep."""
    return lambda h: _run_stages(cfg, h)


# ---------------------------------------------------------------------------
# assertions and the run report
# ---------------------------------------------------------------------------

@dataclass
class AssertionResult:
    name: str
    kind: str
    measured: float
    expected: float | None
    tol: float | None
    passed: bool
    detail: str = ""


@dataclass
class RunReport:
    config: ExperimentConfig
    rows: list  # estimates.SweepRow
    assertions: list[AssertionResult]
    timings: dict

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


_SLOTS = {"p": 1, "k": 2, "alpha": 4}  # assertion selector -> measurement key slot


def _collect(rows, quantity: str, select: dict):
    """(h, value) pairs for a quantity (exact match) across successful rows, at
    the p, k and alpha that ``select`` names.

    A slot it does not name must carry a single value: pairs from several p, k
    or alpha would be fitted as one power law, so that is refused.
    """
    out, found = [], {slot: set() for slot in _SLOTS}
    for row in rows:
        if row.error:
            continue
        for key, val in row.measurements.items():
            if key[0] == quantity and all(key[i] is not None and float(key[i]) == float(select[s])
                                          for s, i in _SLOTS.items() if s in select):
                out.append((row.h, val))
                for s, i in _SLOTS.items():
                    found[s].add(key[i])
    for s, vals in found.items():
        if s not in select and len(vals) > 1:
            listed = ", ".join("none" if v is None else f"{v:g}"
                               for v in sorted(vals, key=lambda v: -math.inf if v is None else v))
            raise ConfigError([f"{quantity} is measured at {s} = {listed}; "
                               f"the assertion must name one {s}"])
    return out


def _collect_all(rows, prefix: str):
    vals = []
    for row in rows:
        if row.error:
            continue
        for key, val in row.measurements.items():
            if key[0] == prefix or key[0].startswith(prefix):
                vals.append(val)
    return vals


def evaluate_assertions(cfg: ExperimentConfig, rows) -> list[AssertionResult]:
    results = []
    for spec in cfg.assertions:
        kind, p = spec.kind, spec.params
        try:
            if kind in ("slope", "slope_min"):
                data = _collect(rows, str(p["quantity"]), {s: p[s] for s in _SLOTS if s in p})
                fit = estimates.fit_power_law(data, quantity=str(p["quantity"]))
                expected = float(p["expected"])
                tol = float(p.get("tol", 0.05))
                if kind == "slope":
                    ok = abs(fit.slope - expected) <= tol
                else:
                    ok = fit.slope >= expected - tol
                results.append(AssertionResult(spec.name, kind, fit.slope, expected, tol, ok,
                                               f"residual={fit.residual:.3g}"))
            elif kind == "value_max":
                vals = _collect_all(rows, str(p["quantity"]))
                limit = float(p["limit"])
                measured = max(vals)
                results.append(AssertionResult(spec.name, kind, measured, limit, None,
                                               measured <= limit, f"n={len(vals)}"))
            elif kind == "value_min":
                vals = _collect_all(rows, str(p["quantity"]))
                limit = float(p["limit"])
                measured = min(vals)
                results.append(AssertionResult(spec.name, kind, measured, limit, None,
                                               measured >= limit, f"n={len(vals)}"))
            elif kind == "ratio_spread":
                vals = _collect_all(rows, str(p["quantity"]))
                limit = float(p["limit"])
                measured = max(vals) / min(vals)
                results.append(AssertionResult(spec.name, kind, measured, limit, None,
                                               measured <= limit, f"n={len(vals)}"))
            elif kind == "flag_all":
                vals = _collect_all(rows, str(p["quantity"]))
                ok = bool(vals) and all(v == 1.0 for v in vals)
                results.append(AssertionResult(spec.name, kind,
                                               float(min(vals)) if vals else 0.0,
                                               1.0, None, ok, f"n={len(vals)}"))
            else:
                results.append(AssertionResult(spec.name, kind, math.nan, None, None, False,
                                               "unknown assertion kind"))
        except ConfigError:
            raise
        except Exception as exc:
            results.append(AssertionResult(spec.name, kind, math.nan, None, None, False,
                                           f"{type(exc).__name__}: {exc}"))
    return results


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute the sweep and evaluate every assertion."""
    import time

    t0 = time.perf_counter()
    rows = estimates.run_sweep(build_pipeline(cfg), cfg.h_list)
    t1 = time.perf_counter()
    assertions = evaluate_assertions(cfg, rows)
    t2 = time.perf_counter()
    return RunReport(cfg, rows, assertions,
                     {"sweep_s": t1 - t0, "assertions_s": t2 - t1})
