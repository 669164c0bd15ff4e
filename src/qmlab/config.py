"""Experiment configuration: parsing, validation, stage pipeline, assertions.

Config files are line-based: ``[section]`` headers, ``key = value`` pairs and
``#`` comments.  Sections are ``[experiment]``, ``[grid]``, any number of
``[stage <kind>]`` in pipeline order, and ``[assert <name>]`` blocks.  All
parse errors are collected with their line numbers and reported together.

A stage kind is declared once, by the signature of its function in
``STAGE_KINDS`` (section "stages" below), which parsing and the runner read.

Value syntax: numbers (including ``2^-6`` dyadics and ``inf``), whitespace
separated lists, booleans, and symbol expressions like
``contact_circle(k=2, c=1.0)`` (identifier plus parenthesized key=value
list).
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import estimates, quasimodes, symbols, wavelets
from .grid import Field2D, GridSpec, lp_norms
from .propagator import conjugated_symbols, quasimode_pushforward
from .symbols import contact_order, graph_catalog

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "StageSpec",
    "AssertionSpec",
    "AssertionResult",
    "parse_config",
    "parse_symbol_expr",
    "parse_graph_expr",
    "evaluate_assertions",
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
# stages
# ---------------------------------------------------------------------------

@dataclass
class _Context:
    """What the stages share at one h: the [grid] section, the current field and
    the alpha it was built at, and the rows keyed (quantity, p, k, j, alpha)."""

    h: float
    grid: dict
    fld: Field2D | None = None
    alpha: float | None = None
    rows: dict = field(default_factory=dict)


def _grid_for(grid: dict, h: float) -> GridSpec:
    if "points_per_axis" in grid:
        return GridSpec(grid.get("half_width", 5.0), grid["points_per_axis"], h)
    return quasimodes.grid_for_t_alpha(h, **grid)


def _construct(ctx: _Context, alpha: float = 0.5, normalization: str = "unit_l2",
               smoothed_edges: bool = False):
    ctx.alpha = alpha
    spec = quasimodes.TAlphaSpec(h=ctx.h, alpha=alpha, normalization=normalization,
                                 smoothed_edges=smoothed_edges)
    ctx.fld = quasimodes.build_t_alpha(spec, _grid_for(ctx.grid, ctx.h))


def _flat_quasimode(ctx: _Context, k: int, sigma1_factor: float = 3.0,
                    sigma2_factor: float = 0.5):
    ctx.fld = quasimodes.build_flat_quasimode(_grid_for(ctx.grid, ctx.h), k,
                                              sigma1_factor=sigma1_factor,
                                              sigma2_factor=sigma2_factor)


def _propagate(ctx: _Context, graph: str = "circle"):
    ctx.fld = quasimode_pushforward(parse_graph_expr(graph), ctx.fld)


def _norms(ctx: _Context, p: float = (2.0,)):
    for pv, val in zip(p, lp_norms(ctx.fld, p)):
        ctx.rows[("lp_norm", pv, None, None, ctx.alpha)] = val


def _defect_pairs(powers: list, joint: bool) -> list[tuple[int, int]]:
    """(M1, M2) pairs of a flat list of powers; a lone symbol takes only (M >= 1, 0)."""
    if len(powers) % 2:
        raise ValueError(f"powers takes (M1, M2) pairs, got {list(powers)}")
    pairs = list(zip(powers[::2], powers[1::2]))
    if not joint and (bad := [pair for pair in pairs if pair[0] < 1 or pair[1] != 0]):
        raise ValueError(f"without symbol2 each pair of powers is (M >= 1, 0), got {bad}")
    return pairs


def _defect_reports(fld: Field2D, symbol: str, symbol2: str | None, powers: list) -> list:
    """fld's defect under each pair of powers: of p1^M1, or of p1^M1 p2^M2 given symbol2."""
    p1 = parse_symbol_expr(symbol)
    p2 = parse_symbol_expr(symbol2) if symbol2 is not None else None
    return [quasimodes.defect(p1, fld, m1) if p2 is None
            else quasimodes.joint_defect(p1, p2, fld, m1, m2)
            for m1, m2 in _defect_pairs(powers, p2 is not None)]


def _defect(ctx: _Context, symbol: str, symbol2: str = None, powers: int = (1, 0)):
    for rep in _defect_reports(ctx.fld, symbol, symbol2, powers):
        m1, m2 = rep.powers
        ctx.rows[(f"defect_m{m1}_{m2}", None, None, None, ctx.alpha)] = rep.defect
        ctx.rows[(f"defect_ratio_m{m1}_{m2}", None, None, None, ctx.alpha)] = rep.ratio_to_power


def _norm_table(fld: Field2D, k: int, a_min_pow: float, a_max: float, per_decade: int):
    """fld's dyadic partition and its coefficient-norm table on scales h^a_min_pow .. a_max."""
    h = fld.grid.h
    part = wavelets.make_partition(h, k)
    a_grid = wavelets.default_scale_grid(h ** a_min_pow, a_max, per_decade=per_decade)
    return part, wavelets.coefficient_norm_table(fld, wavelets.default_wavelet(), a_grid, part)


def _cwt_norms(ctx: _Context, k: int, a_min_pow: float = 0.6, a_max: float = 4.0,
               per_decade: int = 24, reference_a: float = 1.0):
    h, rows = ctx.h, ctx.rows
    part, tab = _norm_table(ctx.fld, k, a_min_pow, a_max, per_decade)
    a = tab["a"]
    iref = int(np.argmin(np.abs(a - reference_a)))
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
        fit = estimates.fit_power_law(list(zip(a[sel], tab["bands"][sel, 0])))
        rows[("cwt_small_a_slope", None, k, 0, None)] = fit.slope


def _scale(h: float, tok: str) -> float:
    """A window scale written as a number or as ``h^pow``."""
    return h ** float(tok[2:]) if tok.startswith("h^") else float(tok)


def _kernel(ctx: _Context, graph: str = "parabola", k: int = 1, j_list: int = (0, 2, 4),
            a_list: str = ("h^0.3", "0.5")):
    rows = ctx.rows
    part = wavelets.make_partition(ctx.h, k)
    samples = estimates.default_kernel_samples(parse_graph_expr(graph), wavelets.default_wavelet(),
                                              part, j_list, [_scale(ctx.h, tok) for tok in a_list])
    for s in samples:
        rows[(f"kernel_sup(a={s.a:.6g},t={s.t:.6g},{s.regime})",
              None, k, s.j, None)] = s.sup_abs
    rep = estimates.kernel_bound_check(samples)
    for regime, c in sorted(rep.constants.items()):
        rows[(f"kernel_C_{regime}", None, k, None, None)] = c
    rows[("kernel_pass", None, k, None, None)] = 1.0 if rep.passed else 0.0


def _egorov(ctx: _Context, tilt: float = 0.1, k_list: int = (1, 2),
            x1_list: float = (0.1, 0.3)):
    """Contact order of the pulled-back graphs of a and q_k = a + xi2^(k+1) at each x1.

    One :func:`conjugated_symbols` pulls a and every q_k back, and every check
    runs with max_order = max(k_list) + 2, so all of them tabulate one stencil
    and the flow is marched once.  The check stops at the first nonzero
    derivative, so an order found within k + 2 reads as it would with
    max_order = k + 2; where k's contact is lost, a higher order may be
    reported instead of -1 (contact_match is 0 either way).
    """
    rows = ctx.rows
    a_g = symbols.graph_tilted_circle(tilt)
    pulled = conjugated_symbols(
        a_g, [symbols.graph_sum(a_g, symbols.graph_monomial(k, 1.0)) for k in k_list],
        x1_list, 1e-3)
    for i, k in enumerate(k_list, start=1):
        for x1 in x1_list:
            a_t, q_t = pulled[x1][0], pulled[x1][i]
            # a is autonomous, so conserved along its own flow: the
            # base point's label a~(0, 0) is a(x1, 0, 0), with no flow
            xi0 = (float(a_g.value(x1, 0.0, 0.0)), 0.0)
            rep = contact_order(a_t, q_t, xi0, max_order=max(k_list) + 2, x=(x1, 0.0))
            measured = -1.0 if rep.order == math.inf else float(rep.order)
            rows[(f"contact_order(x1={x1:g})", None, k, None, None)] = measured
            rows[(f"contact_match(x1={x1:g})", None, k, None, None)] = (
                1.0 if rep.order == k and not rep.inconclusive else 0.0)


STAGE_KINDS = {
    # kind: (function, consumes_field, produces_field).  The function's parameters
    # after ctx are the stage's keys: no default means required, a tuple default
    # marks a list key, and the annotation names each value's check (_CHECKS).
    "construct": (_construct, False, True),
    "flat_quasimode": (_flat_quasimode, False, True),
    "propagate": (_propagate, True, True),
    "norms": (_norms, True, False),
    "defect": (_defect, True, False),
    "cwt_norms": (_cwt_norms, True, False),
    "kernel": (_kernel, False, False),
    "egorov": (_egorov, False, False),
}
_KEYS = {kind: dict(list(inspect.signature(fn).parameters.items())[1:])
         for kind, (fn, _, _) in STAGE_KINDS.items()}
# a value's parse-time check, by the annotation of its key (a name or expression stays text)
_CHECKS = {"float": _real, "int": _integer, "bool": _boolean, "str": lambda key, v: str(v)}


def _arguments(kind: str, params: dict) -> dict:
    """A stage's keyword arguments: params over its function's defaults (a missing
    required key stays missing), with every list key's value as a list."""
    out = {}
    for name, key in _KEYS[kind].items():
        value = params.get(name, key.default)
        if isinstance(key.default, tuple):
            value = list(value) if isinstance(value, (list, tuple)) else [value]
        if value is not key.empty:
            out[name] = value
    return out


def _run_stages(cfg: ExperimentConfig, h: float) -> dict:
    """Execute the pipeline at one h; keys are (quantity, p, k, j, alpha)."""
    ctx = _Context(h, cfg.grid)
    for stage in cfg.stages:
        fn, consumes, produces = STAGE_KINDS[stage.kind]
        if produces and not consumes:
            ctx.fld = None  # let the old field go before the new one is built
        fn(ctx, **_arguments(stage.kind, stage.params))
    return ctx.rows


# ---------------------------------------------------------------------------
# config model
# ---------------------------------------------------------------------------

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
    out_dir: str = "results"
    source_text: str = ""


_EXPERIMENT_KEYS = {"name", "h_list", "out_dir"}
_GRID_KEYS = {"half_width": _real, "coverage": _real, "n_max": _integer,
              "points_per_axis": _integer}
_ASSERT_KEYS = {
    "slope": {"quantity", "p", "k", "alpha", "expected", "tol"},
    "slope_min": {"quantity", "p", "k", "alpha", "expected", "tol"},
    "value_max": {"quantity", "limit"},
    "value_min": {"quantity", "limit"},
    "ratio_spread": {"quantity", "limit"},
    "flag_all": {"quantity"},
}
_ASSERT_OPTIONAL = {"p", "k", "alpha", "tol"}
# an assertion key's parse-time check; expected is a closed form or a number
_ASSERT_CHECKS = {"quantity": _CHECKS["str"], "p": _real, "k": _integer, "alpha": _real,
                  "tol": _real, "limit": _real, "expected": lambda key, v: (
                      _closed_form(v) if isinstance(v, str) else _real(key, v))}


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


def _typed(key: str, value, raw: str, check, many: bool = False):
    """value through check, each element of a list alike; a list only where many."""
    if not isinstance(value, list):
        return check(key, value)
    if not many:
        raise ValueError(f"{key} takes one value, got {raw!r}")
    return [check(key, v) for v in value]


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
        try:
            if where == "experiment":
                if key not in _EXPERIMENT_KEYS:
                    raise ValueError(f"unknown experiment key {key!r}")
                experiment[key] = value
            elif where == "grid":
                if key not in _GRID_KEYS:
                    raise ValueError(f"unknown grid key {key!r}")
                grid[key] = _typed(key, value, raw, _GRID_KEYS[key])
            elif where == "stage":
                keys = _KEYS[payload.kind]
                if key not in keys:
                    raise ValueError("stage kind is set in the header" if key == "kind"
                                     else f"unknown key {key!r} for stage {payload.kind}")
                payload.params[key] = _typed(key, value, raw, _CHECKS[keys[key].annotation],
                                             many=isinstance(keys[key].default, tuple))
            elif key == "kind":  # of an [assert] section
                if isinstance(value, list) or value not in _ASSERT_KEYS:
                    raise ValueError(f"unknown assertion kind {raw!r}")
                payload.kind = value
            elif key in _ASSERT_CHECKS:
                payload.params[key] = _typed(key, value, raw, _ASSERT_CHECKS[key])
            else:
                payload.params[key] = value  # refused below as unknown for its kind
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")

    if not stages:
        errors.append("no pipeline: at least one [stage ...] section is required")
    if "points_per_axis" in grid:
        errors += [f"[grid] points_per_axis fixes N and cannot be combined with {key}"
                   for key in ("n_max", "coverage") if key in grid]

    h_list = experiment.get("h_list", [])
    h_list = h_list if isinstance(h_list, list) else [h_list]
    if bad := [h for h in h_list if isinstance(h, (bool, str))]:
        errors.append(f"experiment.h_list: tokens that are not numbers: {bad}")
    h_list = [float(h) for h in h_list if not isinstance(h, (bool, str))]
    if not h_list and any(STAGE_KINDS[s.kind][1] or STAGE_KINDS[s.kind][2] for s in stages):
        errors.append("experiment.h_list must contain at least one h in (0, 1]")
    for h in h_list:
        if not (0 < h <= 1):
            errors.append(f"h = {h} outside (0, 1]")

    has_field = False
    for i, s in enumerate(stages):
        _, consumes, produces = STAGE_KINDS[s.kind]
        if consumes and not has_field:
            errors.append(f"stage {i + 1} ({s.kind}) needs a field but no earlier stage produces one")
        if produces:
            has_field = True
        for name, key in _KEYS[s.kind].items():
            if key.default is key.empty and name not in s.params:
                errors.append(f"stage {i + 1} ({s.kind}) is missing its required key {name!r}")
        if s.kind == "defect":
            args = _arguments(s.kind, s.params)
            try:
                _defect_pairs(args["powers"], args["symbol2"] is not None)
            except ValueError as exc:
                errors.append(f"stage {i + 1} (defect): {exc}")
    for spec in assertions:
        if not spec.kind:
            errors.append(f"assertion {spec.name!r} is missing its kind")
        elif unknown := set(spec.params) - _ASSERT_KEYS[spec.kind]:
            errors.append(f"assertion {spec.name!r}: unknown keys {sorted(unknown)}")
        elif missing := _ASSERT_KEYS[spec.kind] - _ASSERT_OPTIONAL - set(spec.params):
            errors.append(f"assertion {spec.name!r} is missing its required keys {sorted(missing)}")

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(str(experiment.get("name", "experiment")), h_list, stages, assertions,
                            grid, out_dir=str(experiment.get("out_dir", "results")),
                            source_text=text)


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
    return [val for row in rows if not row.error
            for key, val in row.measurements.items() if key[0].startswith(prefix)]


def evaluate_assertions(cfg: ExperimentConfig, rows) -> list[AssertionResult]:
    results = []
    for spec in cfg.assertions:
        kind, p = spec.kind, spec.params
        try:
            if kind in ("slope", "slope_min"):
                data = _collect(rows, p["quantity"], {s: p[s] for s in _SLOTS if s in p})
                fit = estimates.fit_power_law(data)
                expected, tol = p["expected"], p.get("tol", 0.05)
                ok = (abs(fit.slope - expected) <= tol if kind == "slope"
                      else fit.slope >= expected - tol)
                results.append(AssertionResult(spec.name, kind, fit.slope, expected, tol, ok,
                                               f"residual={fit.residual:.3g}"))
            elif kind in ("value_max", "value_min", "ratio_spread"):
                vals = _collect_all(rows, p["quantity"])
                limit = p["limit"]
                measured = (max(vals) if kind == "value_max" else min(vals) if kind == "value_min"
                            else max(vals) / min(vals))
                ok = measured >= limit if kind == "value_min" else measured <= limit
                results.append(AssertionResult(spec.name, kind, measured, limit, None, ok,
                                               f"n={len(vals)}"))
            elif kind == "flag_all":
                vals = _collect_all(rows, p["quantity"])
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
    rows = estimates.run_sweep(lambda h: _run_stages(cfg, h), cfg.h_list)
    t1 = time.perf_counter()
    assertions = evaluate_assertions(cfg, rows)
    t2 = time.perf_counter()
    return RunReport(cfg, rows, assertions,
                     {"sweep_s": t1 - t0, "assertions_s": t2 - t1})
