"""Exponent algebra, power-law fits, sweeps and kernel envelope checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import t_alpha_lower_exponent
from qmlab.symbols import GraphFn, graph_parabola, graph_shear
from qmlab.wavelets import default_wavelet, make_partition
from qmlab.estimates import (
    KernelSample,
    _regime_bound,
    _window_autocorrelation,
    default_kernel_samples,
    delta_p_k,
    fit_power_law,
    kernel_bound_check,
    kernel_sample,
    mu_p_j,
    run_sweep,
    sogge_delta,
)

W = default_wavelet()


class TestExponents:
    def test_branch_continuity_exact(self):
        for k in range(1, 6):
            assert delta_p_k(Fraction(6), k) == Fraction(1, 6)
        assert sogge_delta(Fraction(6)) == Fraction(1, 6)
        for j in range(0, 5):
            assert mu_p_j(Fraction(6), j) == 0

    def test_point_values(self):
        assert delta_p_k(math.inf, 1) == Fraction(1, 4)
        assert delta_p_k(Fraction(2), 3) == 0
        assert sogge_delta(math.inf) == Fraction(1, 2)
        assert mu_p_j(math.inf, 3) == Fraction(3, 2)
        assert mu_p_j(4, 7) == 0
        assert t_alpha_lower_exponent(math.inf, 1) == Fraction(1, 4)
        assert t_alpha_lower_exponent(Fraction(6), 2) == Fraction(1, 6)

    def test_sharpness_identity_exact(self):
        for p in (Fraction(6), 7, 8, 12, math.inf):
            for k in range(1, 6):
                assert t_alpha_lower_exponent(p, k) == delta_p_k(p, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            delta_p_k(1.5, 1)
        with pytest.raises(ValueError):
            sogge_delta(1)
        with pytest.raises(ValueError):
            t_alpha_lower_exponent(4, 1)
        with pytest.raises(ValueError):
            delta_p_k(8, 0)
        with pytest.raises(ValueError):
            mu_p_j(8, -1)

    def test_improves_on_single_operator_envelope(self):
        for p in (6, 8, 12, 100, math.inf):
            for k in range(1, 6):
                assert delta_p_k(p, k) <= sogge_delta(p)

    def test_monotone_in_k_above_six(self):
        for p in (7, 8, 12, math.inf):
            vals = [delta_p_k(p, k) for k in range(1, 8)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        # equality at p = 6 exactly
        vals6 = {delta_p_k(Fraction(6), k) for k in range(1, 8)}
        assert vals6 == {Fraction(1, 6)}

    def test_large_k_limit(self):
        assert abs(float(delta_p_k(8, 10 ** 6)) - (0.5 - 2.0 / 8.0)) <= 1e-5


class TestFits:
    def test_exact_power_law(self):
        rows = [(h, h ** -0.25) for h in (0.1, 0.05, 0.025, 0.0125)]
        fit = fit_power_law(rows)
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_prefactor_recovered(self):
        rows = [(h, 7.0 * h ** (-1.0 / 6.0)) for h in (0.2, 0.1, 0.05)]
        fit = fit_power_law(rows)
        assert fit.slope == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.1, 1.0), (0.05, 2.0)])
        with pytest.raises(ValueError):
            fit_power_law([(0.1, 1.0), (0.05, -2.0), (0.025, 1.0)])


class TestSweep:
    def test_empty(self):
        assert run_sweep(lambda h: {"x": h}, []) == []

    def test_refusal_recorded_and_continues(self):
        def pipeline(h):
            if h < 0.05:
                raise ValueError("too small")
            return {"v": h}

        rows = run_sweep(pipeline, [0.1, 0.01, 0.2])
        assert rows[0].error is None and rows[2].error is None
        assert rows[1].error and "too small" in rows[1].error

    def test_deterministic_repeat(self):
        pipeline = lambda h: {"v": math.sin(1.0 / h)}
        a = run_sweep(pipeline, [0.1, 0.05])
        b = run_sweep(pipeline, [0.1, 0.05])
        assert a == b

    def test_sup_norm_sweep_monotone(self):
        import warnings

        from qmlab.grid import lp_norm
        from qmlab.quasimodes import TAlphaSpec, build_t_alpha, grid_for_t_alpha

        def pipeline(h):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                u = build_t_alpha(TAlphaSpec(h=h, alpha=0.5), grid_for_t_alpha(h))
            return {"sup": lp_norm(u, np.inf)}

        hs = [2.0 ** -e for e in range(5, 10)]
        rows = run_sweep(pipeline, hs)
        assert len(rows) == 5 and all(r.error is None for r in rows)
        sups = [r.measurements["sup"] for r in rows]
        assert all(b > a for a, b in zip(sups, sups[1:]))  # grows as h shrinks


class TestKernel:
    def setup_method(self):
        self.h = 2.0 ** -6
        self.part = make_partition(self.h, 1)
        self.graph = graph_parabola(1.0)

    def test_x_dependent_graph_refused(self):
        with pytest.raises(ValueError, match="graph 'shear' depends on x"):
            kernel_sample(graph_shear(), W, self.part, 1, 0.3, 0.1)

    def test_disjoint_windows_zero(self):
        s = kernel_sample(self.graph, W, self.part, 1, 0.3, 0.7)
        assert s.sup_abs == 0.0

    def test_offsets_in_one_array_per_band_interval(self, monkeypatch):
        sizes = []
        original = GraphFn.value

        def counting(graph, x1, x2, xi2):
            sizes.append(np.size(xi2))
            return original(graph, x1, x2, xi2)

        monkeypatch.setattr(GraphFn, "value", counting)
        s = kernel_sample(self.graph, W, self.part, 2, 0.5, 0.3)
        assert s.sup_abs > 0.0
        assert len(sizes) == 2 * (3 + 1)  # per band interval: three slope probes, one phase array
        # a point budget of one offset per block sums the same terms
        n_q, calls = max(sizes), len(sizes)
        assert kernel_sample(self.graph, W, self.part, 2, 0.5, 0.3,
                             max_quad_points=n_q).sup_abs == s.sup_abs
        assert len(sizes) - calls > 2 * (3 + 1)

    def test_regime_classification(self):
        thr = 2.0 ** -4 * self.h ** 0.0  # k=1, j=2
        s = kernel_sample(self.graph, W, self.part, 2, 0.5, thr / 2)
        assert s.regime == "small_sep"
        s = kernel_sample(self.graph, W, self.part, 2, 0.5, 2 * thr)
        assert s.regime == "large_sep"

    def test_non_oscillatory_bound_at_zero_separation(self):
        # |K_0(0)| <= (2 pi h)^{-1} a F(0) * band measure, by integrand modulus
        a = 0.4
        s = kernel_sample(self.graph, W, self.part, 0, a, 0.0)
        f0 = _window_autocorrelation(W, 0.0)
        band = self.part.scale
        xi = np.linspace(-1.25 * band, 1.25 * band, 4001)
        chi2_mass = float(np.trapezoid(self.part.band_multiplier(xi, 0) ** 2, xi))
        oracle = a * f0 * chi2_mass / (2 * np.pi * self.h)
        assert s.sup_abs <= oracle * (1 + 1e-5)  # oracle quadrature tolerance
        assert s.sup_abs >= 0.9 * oracle  # attained near zero offset

    def test_stationary_phase_regime_constant(self):
        # C fit at one reference sample and verified across eight others;
        # t/a away from zeros of the window autocorrelation
        samples = []
        for a in (0.3, 0.4, 0.5):
            for frac in (0.6, 0.75):
                t = frac * a
                if t > 2.0 ** -4:
                    samples.append(kernel_sample(self.graph, W, self.part, 2, a, t))
        for a in (0.3, 0.4, 0.5):
            samples.append(kernel_sample(self.graph, W, self.part, 4, a, 0.6 * a))
        assert len(samples) >= 9
        ratios = [s.sup_abs / (s.a * s.h ** -0.5 * s.t ** -0.5) for s in samples]
        c_ref = ratios[0]
        assert all(c_ref / 2 <= r <= 2 * c_ref for r in ratios)

    def test_bound_check_synthetic_pass(self):
        synth = [KernelSample(j, 0.5, 0.01, _regime_bound(KernelSample(j, 0.5, 0.01, 1.0, self.h, 1)),
                              self.h, 1) for j in (0, 1, 2)]
        synth.append(KernelSample(1, 0.5, 0.4, _regime_bound(KernelSample(1, 0.5, 0.4, 1.0, self.h, 1)),
                                  self.h, 1))
        assert [s.regime for s in synth] == ["small_sep"] * 3 + ["large_sep"]
        rep = kernel_bound_check(synth)
        assert rep.passed
        assert rep.constants["small_sep"] == pytest.approx(1.0)
        assert rep.constants["large_sep"] == pytest.approx(1.0)

    def test_adversarial_sample_fails(self):
        samples = default_kernel_samples(self.graph, W, self.part,
                                         j_list=(0, 2), a_list=(0.5,))
        bad_bound = _regime_bound(KernelSample(2, 0.5, 0.01, 1.0, self.h, 1))
        samples.append(KernelSample(2, 0.5, 0.01, 10.0 * bad_bound, self.h, 1))
        assert not kernel_bound_check(samples).passed

    def test_missing_regime_inconclusive(self):
        samples = [kernel_sample(self.graph, W, self.part, 0, 0.4, 0.0)]
        rep = kernel_bound_check(samples)
        assert rep.inconclusive and not rep.passed

    def test_default_sample_set_passes(self):
        samples = []
        for h in (2.0 ** -6, 2.0 ** -8):
            part = make_partition(h, 1)
            samples += default_kernel_samples(graph_parabola(1.0), W, part,
                                              j_list=(0, 2, 4), a_list=(h ** 0.3, 0.5))
        regimes = {s.regime for s in samples}
        assert regimes == {"small_sep", "large_sep"}
        assert kernel_bound_check(samples).passed
