"""The benchmark's workloads: seeded inputs, the experiments one pass runs, and their checks.

Every workload is a closed loop with one client: one process runs its
experiments one after another, each starting when the previous one has
returned.  Seed 0 gives the shipped inputs verbatim.  Other seeds pick, per
perturbable value, one entry of a fixed menu; every entry keeps grid sizes and
the numbers of scales, trajectories and RK4 steps unchanged, and every entry
has reference values recorded in ``reference.json``.

- ``report_suite``: ``config.run`` plus CSV/markdown rendering and file output
  on the five light shipped configs and two generated joint-defect configs
  (``circle_minus_one`` against ``contact_circle(k, c)``, powers 1 1, k = 1, 2,
  h = 2^-5 .. 2^-9).  The everyday ``qml report`` traffic; h-scaled FFTs at N up
  to 2048, a little wavelet work, no flow integration.
- ``roundtrip``: the CWT analysis + synthesis round trip (N = 1024, 134
  scales) and the W*W identity with transport-corrected phase tables at
  h = 2^-6 (257 x 128 trajectories, 300 RK4 steps).  Wavelet synthesis and the
  propagator on large batched arrays.
- ``egorov``: the ``egorov_contact`` config.  Scalar flow re-integration driven
  by the Richardson stencils of ``contact_order``: many calls on tiny arrays.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qmlab import cli, config, propagator, reporting, symbols, wavelets
from qmlab.grid import Field2D, GridSpec

WORKLOADS = ("report_suite", "roundtrip", "egorov")
REPORT_CONFIGS = ("sogge_baseline", "thm1_k1", "thm1_k2", "cwt_decay", "kernel_k1")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# A value may leave its recorded reference by REFERENCE_RTOL of itself plus
# REFERENCE_ATOL of the largest reference value of its experiment: loose
# enough for a reordered floating-point sum and for structural zeros at
# rounding level, tight enough for any change of method or discretization.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12
ROUNDTRIP_LIMIT = 1e-3  # acceptance 4b

# Perturbation menus; entry 0 is the shipped input.
MENUS = {
    "report_suite": {"c": (1.0, 1.7, 0.7, 1.3)},
    "roundtrip": {"omega": (6.0, 5.3, 5.6, 6.5), "freq": (0.3, 0.2, 0.25, 0.4)},
    "egorov": {"tilt_x1": ((0.1, "0.1 0.3"), (0.13, "0.15 0.25"),
                           (0.07, "0.12 0.28"), (0.085, "0.18 0.22"))},
}


def choose_inputs(workload: str, seed: int) -> dict:
    """Menu entry per perturbable value: all entries 0 for seed 0."""
    menus = MENUS[workload]
    if seed == 0:
        return {name: choices[0] for name, choices in menus.items()}
    rng = random.Random(seed)
    return {name: choices[rng.randrange(len(choices))] for name, choices in menus.items()}


@dataclass
class Outcome:
    values: dict   # value key -> float, compared with the reference
    problems: list  # verdicts the program itself reached against its claims
    csv: str       # rendered result, compared across the passes of one run


@dataclass
class Experiment:
    key: str                        # names the experiment and its input variant
    execute: Callable[[], object]   # the timed call into the library
    judge: Callable[[object], Outcome]


# ---------------------------------------------------------------------------
# config experiments
# ---------------------------------------------------------------------------

def _fmt_key(h, key) -> str:
    return "|".join(str(part) for part in (repr(h),) + tuple(key))


def _config_outcome(report, csv_text: str) -> Outcome:
    values, problems = {}, []
    for row in report.rows:
        if row.error:
            problems.append(f"h = {row.h!r} refused: {row.error}")
            continue
        for key, value in row.measurements.items():
            values[_fmt_key(row.h, key)] = float(value)
    for a in report.assertions:
        if not a.passed:
            problems.append(f"assertion {a.name} failed: measured {a.measured!r} "
                            f"expected {a.expected!r} ({a.detail})")
    return Outcome(values, problems, csv_text)


def config_experiment(key: str, text: str, out_dir: str | None = None) -> Experiment:
    """``config.run`` on a config text; with out_dir, also renders and writes the report.

    Without out_dir the values themselves stand in for the CSV when passes
    are compared, so checking calls no library code.
    """
    cfg = config.parse_config(text)
    if out_dir is None:
        def judge_in_memory(report):
            out = _config_outcome(report, "")
            out.csv = repr(sorted(out.values.items()))
            return out

        return Experiment(key, lambda: config.run(cfg), judge_in_memory)

    def execute():
        report = config.run(cfg)
        csv_path, _ = reporting.write_report(report, out_dir)
        return report, csv_path

    def judge(raw):
        with open(raw[1]) as fh:
            return _config_outcome(raw[0], fh.read())

    return Experiment(key, execute, judge)


def defect_config_text(k: int, c: float) -> str:
    return f"""# Joint defect of the circle and its kth-order-contact perturbation on T_alpha.
[experiment]
name = joint_defect_k{k}
h_list = 2^-5 2^-6 2^-7 2^-8 2^-9

[stage construct]
alpha = {1.0 / (k + 1)!r}

[stage defect]
symbol = circle_minus_one
symbol2 = contact_circle(k={k}, c={c!r})
powers = 1 1

[assert bounded_ratio]
kind = ratio_spread
quantity = defect_ratio_m1_1
limit = 3.0
"""


def egorov_config_text(tilt: float, x1_list: str) -> str:
    text = cli.load_shipped_config("egorov_contact")
    shipped = MENUS["egorov"]["tilt_x1"][0]
    if (tilt, x1_list) == shipped:
        return text
    for old, new in ((f"tilt = {shipped[0]!r}", f"tilt = {tilt!r}"),
                     (f"x1_list = {shipped[1]}", f"x1_list = {x1_list}")):
        if text.count(old) != 1:
            raise ValueError(f"shipped egorov_contact config has no unique line {old!r}")
        text = text.replace(old, new)
    return text


# ---------------------------------------------------------------------------
# roundtrip experiments
# ---------------------------------------------------------------------------

def cwt_roundtrip_experiment(omega: float) -> Experiment:
    """Acceptance 4b: analysis + synthesis of a modulated Gaussian at N = 1024."""
    g = GridSpec(3.0, 1024, 0.05)
    x1, x2 = g.x_mesh()
    v = Field2D(g, np.exp(1j * omega * x1) * np.exp(-x1 ** 2 / (2 * 0.7 ** 2))
                * np.exp(-x2 ** 2 / (2 * 0.5 ** 2)))
    # the scale grid of the shipped omega = 6 case, whatever omega is
    a_grid = wavelets.default_scale_grid(1.0 / 72.0, 8.0)

    def judge(err):
        problems = [] if err <= ROUNDTRIP_LIMIT else [
            f"round-trip error {err!r} > {ROUNDTRIP_LIMIT}"]
        return Outcome({"roundtrip_error": err}, problems, repr(err))

    return Experiment(f"cwt_roundtrip[omega={omega!r}]",
                      # a fresh wavelet per pass, so that no pass reuses the
                      # admissibility constant cached on the previous one
                      lambda: wavelets.cwt_roundtrip_error(v, wavelets.default_wavelet(), a_grid,
                                                           b_max_step=1.0 / 40.0),
                      judge)


def w_star_w_experiment(freq: float) -> Experiment:
    """Acceptance 7a at h = 2^-6: W*W g = g with transport-corrected phase tables."""
    h, half_width, x1 = 2.0 ** -6, 4.0, 0.3
    g = GridSpec(half_width, 128, h)
    graph = symbols.graph_tilted_circle(0.5)
    y = np.linspace(-half_width, half_width, 257)
    x = g.x_coords
    gv = np.exp(-x ** 2 / (2 * 0.4 ** 2)) * np.exp(1j * freq * x / h)

    def execute():
        fl = propagator.integrate_flow(graph, y, g.xi_coords, x1, dt=1e-3, save_at=[x1])
        tab = propagator.build_phase(fl, g, transport_correction=True, y_out=x)
        wg = propagator.apply_w(tab, gv, x1, g)
        return wg, propagator.apply_w_star(tab, wg, x1, g)

    def judge(raw):
        # The W*W error sits at rounding level, so it is held to h and not to
        # its reference.  The overlap <W g, g> / |g|^2 depends on the phase
        # table's discretization, and is what the reference pins.
        wg, back = raw
        err = float(np.linalg.norm(back - gv) / np.linalg.norm(gv))
        overlap = complex(np.vdot(gv, wg) / np.vdot(gv, gv))
        problems = [] if err <= h else [f"W*W error {err!r} > h = {h!r}"]
        values = {"w_overlap_re": overlap.real, "w_overlap_im": overlap.imag}
        return Outcome(values, problems, f"{overlap!r},{err!r}")

    return Experiment(f"w_star_w[freq={freq!r}]", execute, judge)


# ---------------------------------------------------------------------------
# building a workload
# ---------------------------------------------------------------------------

def build(workload: str, inputs: dict, out_dir: str) -> list[Experiment]:
    """The experiments of one pass, with their inputs generated and configs parsed."""
    if workload == "report_suite":
        exps = [config_experiment(name, cli.load_shipped_config(name), out_dir)
                for name in REPORT_CONFIGS]
        c = inputs["c"]
        exps += [config_experiment(f"joint_defect_k{k}[c={c!r}]", defect_config_text(k, c),
                                   out_dir) for k in (1, 2)]
        return exps
    if workload == "roundtrip":
        return [cwt_roundtrip_experiment(inputs["omega"]), w_star_w_experiment(inputs["freq"])]
    if workload == "egorov":
        tilt, x1_list = inputs["tilt_x1"]
        return [config_experiment(f"egorov_contact[tilt={tilt!r},x1={x1_list}]",
                                  egorov_config_text(tilt, x1_list))]
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


def all_variants(workload: str, out_dir: str) -> list[Experiment]:
    """One experiment per distinct key over every menu entry (for recording references)."""
    menus = MENUS[workload]
    n = len(next(iter(menus.values())))
    by_key = {}
    for i in range(n):
        for exp in build(workload, {name: choices[i] for name, choices in menus.items()}, out_dir):
            by_key.setdefault(exp.key, exp)
    return list(by_key.values())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reference_problems(values: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return ["no reference values recorded for this experiment"]
    problems = []
    if missing := sorted(ref.keys() - values.keys()):
        problems.append(f"{len(missing)} reference values not produced, e.g. {missing[0]}")
    if extra := sorted(values.keys() - ref.keys()):
        problems.append(f"{len(extra)} values without reference, e.g. {extra[0]}")
    scale = max((abs(r) for r in ref.values() if math.isfinite(r)), default=0.0)
    for k in sorted(ref.keys() & values.keys()):
        v, r = values[k], ref[k]
        if v == r or (math.isfinite(r) and abs(v - r) <= REFERENCE_RTOL * abs(r)
                      + REFERENCE_ATOL * scale):
            continue
        problems.append(f"{k}: {v!r} differs from reference {r!r}")
    return problems


@dataclass
class PassResult:
    wall_s: float
    times: dict     # experiment key -> seconds in the library
    failures: dict  # experiment key -> problems, for failed experiments only
    csv: dict       # experiment key -> rendered result


def run_pass(experiments: list[Experiment], reference: dict, first: PassResult | None) -> PassResult:
    """Run every experiment once, closed loop; only the library calls are timed."""
    import time
    import warnings

    times, failures, csvs = {}, {}, {}
    for exp in experiments:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            try:
                raw, raised = exp.execute(), None
            except Exception as exc:  # a refusal fails this experiment, not the run
                raw, raised = None, f"raised {type(exc).__name__}: {exc}"
            times[exp.key] = time.perf_counter() - t0
        if raised:
            failures[exp.key] = [raised]
            continue
        out = exp.judge(raw)
        problems = out.problems + reference_problems(out.values, reference.get(exp.key))
        if first is not None and exp.key in first.csv and first.csv[exp.key] != out.csv:
            problems.append("rendered result differs from the first pass of this run")
        csvs[exp.key] = out.csv
        if problems:
            failures[exp.key] = problems
    return PassResult(sum(times.values()), times, failures, csvs)
