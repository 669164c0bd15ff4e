"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Tolerances are pinned here, not calibrated: slope fits +-0.05 over >= 4
dyadic steps of h, transform identities at 1e-10, reconstruction at 1e-3,
coefficient-norm envelopes at twice the reference constant, kernel constants
within factor 2 per regime, propagator defects at C * h with fitted decay
order >= 0.9 (machine-zero defects count as vacuously decayed), second-order
eikonal convergence at fitted order >= 1.9, and byte-identical measurement
CSVs across reruns.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import partition_sum, random_field, t_alpha_lower_exponent
from qmlab import estimates, wavelets
from qmlab.cli import load_shipped_config, shipped_config_names
from qmlab.config import parse_config, run as run_config
from qmlab.grid import Field2D, GridSpec, lp_norm, semiclassical_fft
from qmlab.propagator import (
    apply_w,
    apply_w_star,
    build_phase,
    conjugated_symbols,
    eikonal_residual,
    integrate_flow,
)
from qmlab.quasimodes import (
    TAlphaSpec,
    build_flat_quasimode,
    build_t_alpha,
    grid_for_t_alpha,
    joint_defect,
)
from qmlab.reporting import measurements_csv
from qmlab.symbols import (
    circle_minus_one,
    contact_order,
    contact_perturbed_circle,
    graph_monomial,
    graph_parabola,
    graph_sum,
    graph_tilted_circle,
)

H_SWEEP = [2.0 ** -e for e in range(5, 10)]  # 2^-5 .. 2^-9
W = wavelets.default_wavelet()

_FIELD_CACHE: dict = {}


def t_field(h: float, alpha: float) -> Field2D:
    key = (h, alpha)
    if key not in _FIELD_CACHE:
        grid = grid_for_t_alpha(h, n_max=2048)
        assert grid.points_per_axis <= 2048
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _FIELD_CACHE[key] = build_t_alpha(TAlphaSpec(h=h, alpha=alpha), grid)
    return _FIELD_CACHE[key]


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def fitted_slope(hs, values) -> float:
    return float(np.polyfit(np.log(hs), np.log(values), 1)[0])


class TestCriterion1:
    def test_exponent_algebra(self):
        t0 = time.perf_counter()
        ok = True
        for k in range(1, 6):
            ok &= estimates.delta_p_k(Fraction(6), k) == Fraction(1, 6)
        ok &= estimates.sogge_delta(Fraction(6)) == Fraction(1, 6)
        ok &= all(estimates.mu_p_j(Fraction(6), j) == 0 for j in range(6))
        for p in (Fraction(6), 7, 8, 12, math.inf):
            for k in range(1, 6):
                ok &= t_alpha_lower_exponent(p, k) == estimates.delta_p_k(p, k)
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 1.0
        report("1 exponent algebra", bool(ok),
               f"rational branch continuity and sharpness exact, {elapsed * 1e3:.1f} ms")


class TestCriterion2:
    def test_sup_norm_scaling(self):
        details = []
        ok = True
        for alpha in (0.5, 1.0 / 3.0):
            vals = [lp_norm(t_field(h, alpha), np.inf) for h in H_SWEEP]
            slope = fitted_slope(H_SWEEP, vals)
            expected = -(0.5 - alpha / 2.0)
            ok &= abs(slope - expected) <= 0.05
            details.append(f"alpha={alpha:.3f}: {slope:+.4f} vs {expected:+.4f}")
        report("2a sup-norm slopes", ok, "; ".join(details))

    def test_lp_saturation(self):
        details = []
        ok = True
        for k, p in ((1, 8.0), (1, np.inf), (2, 8.0), (2, np.inf)):
            alpha = 1.0 / (k + 1)
            vals = [lp_norm(t_field(h, alpha), p) for h in H_SWEEP]
            slope = fitted_slope(H_SWEEP, vals)
            expected = -float(estimates.delta_p_k(p if np.isfinite(p) else math.inf, k))
            ok &= abs(slope - expected) <= 0.05
            details.append(f"(k={k},p={p:g}): {slope:+.4f} vs {expected:+.4f}")
        report("2b saturating L^p slopes", ok, "; ".join(details))


class TestCriterion3:
    def test_joint_defect_stability(self):
        details = []
        ok = True
        for k in (1, 2):
            alpha = 1.0 / (k + 1)
            p1 = circle_minus_one()
            p2 = contact_perturbed_circle(k, 1.0)
            for m1, m2 in ((1, 0), (0, 1), (1, 1), (2, 0)):
                ratios = [joint_defect(p1, p2, t_field(h, alpha), m1, m2).ratio_to_power
                          for h in H_SWEEP]
                spread = max(ratios) / min(ratios)
                ok &= spread <= 3.0
                details.append(f"k={k} M=({m1},{m2}): x{spread:.2f}")
        report("3 joint-defect ratios", ok, "; ".join(details))


class TestCriterion4:
    def test_plancherel(self):
        worst = 0.0
        for n in (64, 128, 256):
            g = GridSpec(8.0, n, 0.125)
            u = random_field(g, n)
            worst = max(worst, abs(semiclassical_fft(u).l2_norm() - u.l2_norm()) / u.l2_norm())
        report("4a semiclassical Plancherel", worst <= 1e-10, f"max rel dev {worst:.2e}")

    def test_cwt_roundtrip(self):
        g = GridSpec(3.0, 1024, 0.05)
        x1, x2 = g.x_mesh()
        omega = 6.0
        v = Field2D(g, np.exp(1j * omega * x1) * np.exp(-x1 ** 2 / (2 * 0.7 ** 2))
                    * np.exp(-x2 ** 2 / (2 * 0.5 ** 2)))
        a_grid = wavelets.default_scale_grid(1.0 / (12.0 * omega), 8.0)
        err = wavelets.cwt_roundtrip_error(v, W, a_grid, b_max_step=1.0 / 40.0)
        report("4b CWT round-trip", err <= 1e-3, f"rel L2 error {err:.2e}")

    def test_dyadic_partition(self):
        worst = 0.0
        xi = np.linspace(-1.0, 1.0, 4001)
        for h in [2.0 ** -e for e in range(4, 9)]:
            for k in (1, 2):
                part = wavelets.make_partition(h, k)
                worst = max(worst, float(np.max(np.abs(partition_sum(part, xi) - 1.0))))
        report("4c dyadic partition", worst <= 1e-10, f"max |sum - 1| = {worst:.2e}")


class TestCriterion5:
    def test_coefficient_envelopes(self):
        h = 2.0 ** -6
        details = []
        ok = True
        for k in (1, 2):
            g = GridSpec(8.0, 512, h)
            v = build_flat_quasimode(g, k)
            part = wavelets.make_partition(h, k)
            a_grid = wavelets.default_scale_grid(h ** 0.6, 4.0)
            tab = wavelets.coefficient_norm_table(v, W, a_grid, part)
            a, bands = tab["a"], tab["bands"]
            iref = int(np.argmin(np.abs(a - 1.0)))
            c_ref = bands[iref, 0] / a[iref] ** 1.5
            worst = 0.0
            for i, ai in enumerate(a):
                for j in range(part.J + 1):
                    shape = min(ai, 1.0) ** 1.5 * 2.0 ** (-j)  # a <= 1 vs a in [1, 4]
                    worst = max(worst, bands[i, j] / (c_ref * shape))
            ok &= worst <= 2.0
            details.append(f"k={k}: C={c_ref:.3f}, worst ratio {worst:.3f}")
        report("5 coefficient-norm envelopes", ok, "; ".join(details))


class TestCriterion6:
    def test_kernel_regimes(self):
        samples = []
        for h in (2.0 ** -6, 2.0 ** -8):
            part = wavelets.make_partition(h, 1)
            samples += estimates.default_kernel_samples(
                graph_parabola(1.0), W, part, j_list=(0, 2, 4), a_list=(h ** 0.3, 0.5))
        rep = estimates.kernel_bound_check(samples)
        detail = ", ".join(
            f"{r}: C={rep.constants[r]:.3f} in [{rep.min_ratio[r]:.3f}, {rep.max_ratio[r]:.3f}]"
            for r in sorted(rep.constants))
        report("6 kernel regime constants", rep.passed, detail)


class TestCriterion7:
    def test_w_star_w_identity(self):
        gtc = graph_tilted_circle(0.5)
        hs = [2.0 ** -e for e in range(4, 9)]
        errs = []
        L = 4.0
        for h in hs:
            n = 64
            while np.pi * h * n / (2 * L) < 0.55:
                n *= 2
            g = GridSpec(L, n, h)
            fl = integrate_flow(gtc, np.linspace(-L, L, 257), g.xi_coords, 0.3,
                                dt=1e-3, save_at=[0.3])
            tab = build_phase(fl, g, transport_correction=True, y_out=g.x_coords)
            x = g.x_coords
            gv = np.exp(-x ** 2 / (2 * 0.4 ** 2)) * np.exp(1j * 0.3 * x / h)
            back = apply_w_star(tab, apply_w(tab, gv, 0.3, g), 0.3, g)
            errs.append(float(np.sqrt(np.sum(np.abs(back - gv) ** 2)
                                      / np.sum(np.abs(gv) ** 2))))
        bound_ok = all(e <= h for e, h in zip(errs, hs))  # C = 1 pinned
        if max(errs) < 1e-10:
            order_ok, order = True, math.inf  # below measurement floor everywhere
        else:
            order = fitted_slope(hs, np.maximum(errs, 1e-16))
            order_ok = order >= 0.9
        report("7a W*W identity", bound_ok and order_ok,
               f"errors {['%.1e' % e for e in errs]}, fitted order {order:.2f}")

    def test_eikonal_convergence(self):
        gtc = graph_tilted_circle()
        g = GridSpec(8.0, 256, 0.05)

        def residual(ny, ds):
            yv = np.linspace(-2, 2, ny)
            xiv = np.linspace(-0.8, 0.8, 33)
            sv = np.arange(0.2 - 2 * ds, 0.2 + 2.0001 * ds, ds)
            fl = integrate_flow(gtc, yv, xiv, sv[-1], dt=2.5e-4, save_at=sv)
            return eikonal_residual(build_phase(fl, g))

        r1, r2 = residual(129, 4e-3), residual(257, 2e-3)
        order = math.log2(r1 / r2)
        report("7b eikonal second-order convergence", order >= 1.9,
               f"residuals {r1:.2e} -> {r2:.2e}, order {order:.2f}")

    def test_egorov_contact_preservation(self):
        a_g = graph_tilted_circle(0.1)
        details = []
        ok = True
        for k in (1, 2):
            q_g = graph_sum(a_g, graph_monomial(k, 1.0))
            for x1 in (0.1, 0.3):
                a_t, q_t = conjugated_symbols(a_g, [q_g], [x1], 1e-3)[x1]
                xi0 = (float(a_g.value(x1, 0.0, 0.0)), 0.0)
                rep = contact_order(a_t, q_t, xi0, max_order=k + 2, x=(x1, 0.0))
                ok &= rep.order == k and not rep.inconclusive
                details.append(f"k={k} x1={x1}: {rep.order}")
        report("7c Egorov contact preservation", ok, "; ".join(details))


class TestCriterion8:
    @pytest.mark.parametrize("name", sorted(["sogge_baseline", "thm1_k1", "thm1_k2",
                                             "cwt_decay", "kernel_k1", "egorov_contact"]))
    def test_shipped_config_determinism(self, name):
        cfg = parse_config(load_shipped_config(name))
        csvs = []
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = run_config(cfg)
            assert rep.passed, f"{name} assertions failed"
            csvs.append(measurements_csv(rep).encode())
        identical = csvs[0] == csvs[1]
        report(f"8 determinism [{name}]", identical,
               f"{len(csvs[0])} CSV bytes identical across reruns")

    def test_catalog_is_complete(self):
        assert set(shipped_config_names()) == {
            "sogge_baseline", "thm1_k1", "thm1_k2", "cwt_decay", "kernel_k1",
            "egorov_contact"}
