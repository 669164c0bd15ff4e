"""Model quasimode construction and defect measurement contracts."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import plane_wave, xi_mesh
from qmlab import grid as grid_module
from qmlab.config import parse_config, run
from qmlab.grid import (
    Field2D,
    GridError,
    GridSpec,
    SpectralField2D,
    lp_norm,
    semiclassical_fft,
    semiclassical_ifft,
    smoothstep,
)
from qmlab.quasimodes import (
    TAlphaSpec,
    UnderResolvedError,
    build_flat_quasimode,
    build_graph_adapted_quasimode,
    build_t_alpha,
    defect,
    grid_for_t_alpha,
    joint_defect,
    localization_check,
    t_alpha_indicator,
)
from qmlab.symbols import (
    apply_left_quantization,
    circle_minus_one,
    contact_perturbed_circle,
    graph_circle,
    graph_symbol,
    graph_tilted_circle,
    multiplier_symbol,
    xi1_symbol,
    xi2_power_symbol,
)

H_SWEEP = [2.0 ** -e for e in range(5, 9)]


def build(h, alpha, **kw):
    grid = grid_for_t_alpha(h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_t_alpha(TAlphaSpec(h=h, alpha=alpha, **kw), grid), grid


class TestConstruction:
    def test_unit_l2_exact(self):
        u, _ = build(2.0 ** -5, 0.5)
        assert u.l2_norm() == pytest.approx(1.0, abs=1e-13)

    def test_spectrum_support_exact(self):
        h = 2.0 ** -5
        grid = grid_for_t_alpha(h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chi = t_alpha_indicator(
                TAlphaSpec(h=h, alpha=0.5, normalization="analytic_prefactor"), grid)
        xi1, xi2 = xi_mesh(grid)
        rr = np.hypot(xi1, xi2)
        ang = np.abs(np.arctan2(xi2, xi1))
        outside = ~((np.abs(rr - 1.0) < h) & (ang < h ** 0.5))
        assert np.all(chi.values[outside] == 0.0)
        # the indicator times the prefactor h^(-1/2-alpha)
        assert np.all(np.isin(chi.values[~outside], [h ** -1.0]))

    def test_analytic_prefactor_norm(self):
        # discrete l2 tracks the closed form 2 h^{-alpha/2} of the raw prefactor
        h = 2.0 ** -6
        u, _ = build(h, 0.5, normalization="analytic_prefactor")
        assert u.l2_norm() == pytest.approx(2.0 * h ** -0.25, rel=0.05)

    def test_under_resolved_rejection(self):
        h = 2.0 ** -5
        with pytest.raises(UnderResolvedError):
            # dxi = pi h L=1... choose grid with dxi > h
            build_t_alpha(TAlphaSpec(h=h, alpha=0.5), GridSpec(2.0, 64, h))

    def test_too_few_lattice_points_rejected(self):
        # alpha = 1: lattice count in the polar rectangle ~ 4 L^2/pi^2 < 8 at L = 3.2
        h = 0.1
        grid = GridSpec(3.2, 128, h)
        with pytest.raises(UnderResolvedError, match="lattice points"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                build_t_alpha(TAlphaSpec(h=h, alpha=1.0), grid)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            TAlphaSpec(h=0.1, alpha=1.5)
        with pytest.raises(ValueError):
            TAlphaSpec(h=0.1, alpha=0.5, omega0=(2.0, 0.0))
        with pytest.raises(ValueError):
            TAlphaSpec(h=0.1, alpha=0.5, normalization="bogus")

    def test_smoothed_edges_option(self):
        h = 2.0 ** -5
        u_raw, _ = build(h, 0.5)
        u_smooth, _ = build(h, 0.5, smoothed_edges=True)
        assert u_smooth.l2_norm() == pytest.approx(1.0, abs=1e-13)
        # mollification changes the field but not the scale of its sup
        r = lp_norm(u_smooth, np.inf) / lp_norm(u_raw, np.inf)
        assert 0.5 < r < 2.0

    def test_sup_scaling_slope(self):
        for alpha in (0.5, 1.0 / 3.0):
            vals = [lp_norm(build(h, alpha)[0], np.inf) for h in H_SWEEP]
            slope = np.polyfit(np.log(H_SWEEP), np.log(vals), 1)[0]
            assert slope == pytest.approx(-(0.5 - alpha / 2.0), abs=0.05)


class TestDefects:
    def test_exact_plane_wave_null(self):
        # lattice frequency with |xi| = 1 exactly: xi1 = pi h m / L
        m, h = 32, 0.05
        L = math.pi * h * m
        g = GridSpec(L, 128, h)
        u = plane_wave(g, (1.0, 0.0))
        rep = defect(circle_minus_one(), u, 1)
        assert rep.defect <= 1e-12

    def test_defect_bounded_by_support_max(self):
        for h in H_SWEEP[:2]:
            grid = grid_for_t_alpha(h)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                spec = TAlphaSpec(h=h, alpha=0.5)
                chi = t_alpha_indicator(spec, grid)
                u = build_t_alpha(spec, grid)
            xi1, xi2 = xi_mesh(grid)
            pvals = xi1 ** 2 + xi2 ** 2 - 1.0
            support_max = np.max(np.abs(pvals[chi.values != 0]))
            rep = defect(circle_minus_one(), u, 1)
            assert rep.defect <= support_max * (1 + 1e-12)
            assert rep.defect <= 3.0 * h
            rep2 = defect(circle_minus_one(), u, 2)
            assert rep2.defect <= support_max ** 2 * (1 + 1e-12)

    def test_zero_field_rejected(self):
        g = GridSpec(5.0, 32, 0.25)
        from qmlab.grid import Field2D

        with pytest.raises(ValueError):
            defect(circle_minus_one(), Field2D(g, np.zeros((32, 32), complex)), 1)
        with pytest.raises(ValueError):
            defect(circle_minus_one(), plane_wave(g, (1.0, 0.0)), 0)

    def test_joint_identity_powers(self):
        u, _ = build(2.0 ** -5, 0.5)
        rep = joint_defect(circle_minus_one(), contact_perturbed_circle(1, 1.0), u, 0, 0)
        assert rep.defect == pytest.approx(1.0, rel=1e-12)

    def test_joint_commuted_order(self):
        u, _ = build(2.0 ** -5, 0.5)
        p1, p2 = circle_minus_one(), contact_perturbed_circle(1, 1.0)
        d12 = joint_defect(p1, p2, u, 1, 1).defect
        d21 = joint_defect(p2, p1, u, 1, 1).defect
        assert d12 == pytest.approx(d21, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_joint_ratio_bounded_across_sweep(self, k):
        p1, p2 = circle_minus_one(), contact_perturbed_circle(k, 1.0)
        ratios = []
        for h in H_SWEEP:
            u, _ = build(h, 1.0 / (k + 1))
            ratios.append(joint_defect(p1, p2, u, 1, 1).ratio_to_power)
        assert max(ratios) / min(ratios) <= 3.0

    def test_lemma_multiplier_combination(self):
        # binomial-weighted product bound for multiplier pencils
        u, _ = build(2.0 ** -5, 0.5)
        p1, p2 = circle_minus_one(), contact_perturbed_circle(1, 1.0)
        e1 = multiplier_symbol(lambda a, b: np.cos(a) * np.exp(1j * b), "e1")
        e2 = multiplier_symbol(lambda a, b: 1.0 / (1.0 + b ** 2) + 0.0 * a, "e2")

        def combo(xi1v, xi2v):
            return (p1.value(0, 0, xi1v, xi2v) * e1.value(0, 0, xi1v, xi2v)
                    + p2.value(0, 0, xi1v, xi2v) * e2.value(0, 0, xi1v, xi2v))

        pencil = multiplier_symbol(lambda a, b: combo(a, b), "pencil")
        for M in (1, 2, 3):
            lhs = defect(pencil, u, M).defect
            rhs = sum(math.comb(M, m) * joint_defect(p1, p2, u, m, M - m).defect
                      for m in range(M + 1))
            assert lhs <= rhs * (1 + 1e-12)

    def test_tilted_joint_defect_on_t_alpha(self):
        # Op(xi1 - sqrt(1 - xi2^2) - 0.1 x2 xi2^2) after |hD|^2 - 1 at N = 512: the
        # circle multiplier minus 0.1 x2 (hD_x2)^2 by plain FFT differentiation
        h = 2.0 ** -7
        u, g = build(h, 0.5)
        assert g.points_per_axis == 512
        rep = joint_defect(graph_symbol(graph_tilted_circle(0.1)), circle_minus_one(), u, 1, 1)
        kf = 2 * np.pi * np.fft.fftfreq(g.points_per_axis, d=g.dx)
        v = apply_left_quantization(circle_minus_one(), u)
        hd2sq = g.h ** 2 * np.fft.ifft(kf[None, :] ** 2 * np.fft.fft(v.values, axis=1), axis=1)
        _, x2 = g.x_mesh()
        w = apply_left_quantization(graph_symbol(graph_circle()), v).values - 0.1 * x2 * hd2sq
        expected = np.sqrt(np.sum(np.abs(w) ** 2)) * g.dx / u.l2_norm()
        assert rep.defect == pytest.approx(expected, rel=1e-10)
        assert rep.ratio_to_power <= 2.0

    @pytest.mark.parametrize("k,p", [(1, 4.0), (1, 6.0)])
    def test_lower_bound_slope_low_p(self, k, p):
        vals = [lp_norm(build(h, 0.5)[0], p) for h in H_SWEEP]
        slope = np.polyfit(np.log(H_SWEEP), np.log(vals), 1)[0]
        assert slope >= -(0.25 - 1.0 / (2 * p)) - 0.05


class TestLocalization:
    def test_compact_bump_in_x(self):
        g = GridSpec(8.0, 128, 0.125)
        x1, x2 = g.x_mesh()
        bump = np.where(np.hypot(x1, x2) < 1.0, np.exp(1j * x1 / g.h), 0.0)
        from qmlab.grid import Field2D

        assert localization_check(Field2D(g, bump), 2.0, side="x") <= 1e-10

    def test_t_alpha_frequency_radius(self):
        u, grid = build(2.0 ** -5, 0.5)
        # the constructed spectrum is exactly zero outside the rectangle ...
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chi = t_alpha_indicator(TAlphaSpec(h=grid.h, alpha=0.5), grid)
        xi1, xi2 = xi_mesh(grid)
        assert np.all(chi.values[np.hypot(xi1, xi2) > 1.5] == 0.0)
        # ... and the measured fraction is read off that carried spectrum
        assert localization_check(u, 1.5, side="xi") <= 1e-30

    def test_gaussian_tails(self):
        g = GridSpec(8.0, 256, 1.0 / 32.0)
        x1, x2 = g.x_mesh()
        from qmlab.grid import Field2D

        u = Field2D(g, np.exp(-(x1 ** 2 + x2 ** 2) / (2 * g.h)))
        # closed-form tail of the radial Gaussian: exp(-r^2/h)
        assert localization_check(u, 6.0 * math.sqrt(g.h)) <= 1e-6

    def test_side_validation(self):
        u, _ = build(2.0 ** -5, 0.5)
        with pytest.raises(ValueError):
            localization_check(u, 1.0, side="bogus")


class TestAdaptedQuasimodes:
    def test_flat_quasimode_defects(self):
        h = 2.0 ** -6
        g = GridSpec(8.0, 512, h)
        v = build_flat_quasimode(g, 1)
        assert v.l2_norm() == pytest.approx(1.0, abs=1e-12)
        d1 = defect(xi1_symbol(), v, 1)
        from qmlab.symbols import xi2_power_symbol

        d2 = defect(xi2_power_symbol(2), v, 1)
        assert d1.ratio_to_power <= 4.0
        assert d2.ratio_to_power <= 1.0

    def test_graph_adapted_quasimode(self):
        h = 2.0 ** -6
        g = GridSpec(8.0, 512, h)
        u = build_graph_adapted_quasimode(g, graph_circle(), 1)
        # spectrum hugs the circle graph: O(h) quasimode of the factored symbol
        from qmlab.symbols import custom_symbol

        factored = custom_symbol(
            lambda x1, x2, xi1, xi2: np.asarray(xi1) - np.sqrt(np.maximum(1 - np.asarray(xi2) ** 2, 1e-12)),
            label="graph_branch")
        rep = defect(factored, u, 1)
        assert rep.ratio_to_power <= 3.0
        assert localization_check(u, 4.0, side="x") <= 1e-6


def full_mesh_indicator(spec: TAlphaSpec, grid: GridSpec) -> np.ndarray:
    """The polar rectangle evaluated on every lattice point (no bounding box)."""
    h, arc = spec.h, spec.h ** spec.alpha
    xi1, xi2 = xi_mesh(grid)
    rr = np.hypot(xi1, xi2)
    theta0 = math.atan2(spec.omega0[1], spec.omega0[0])
    ang = np.abs(np.angle(np.exp(1j * (np.arctan2(xi2, xi1) - theta0))))
    if spec.smoothed_edges:
        w = h / 8.0
        vals = smoothstep((h - np.abs(rr - 1.0)) / w) * smoothstep((arc - ang) / w)
    else:
        vals = (np.abs(rr - 1.0) < h) & (ang < arc)
    return vals.astype(np.complex128)


ACCEPTANCE3_POWERS = ((1, 0), (0, 1), (1, 1), (2, 0))


def defect_case(name):
    """(quasimode carrying its spectrum, p1, p2) at N <= 256."""
    if name.startswith("t_alpha"):
        k = int(name[-1])
        u, _ = build(2.0 ** -6, 1.0 / (k + 1))
        return u, circle_minus_one(), contact_perturbed_circle(k, 1.0)
    g = GridSpec(8.0, 256, 2.0 ** -5)
    if name.startswith("flat"):
        k = int(name[-1])
        return build_flat_quasimode(g, k), xi1_symbol(), xi2_power_symbol(k + 1)
    if name == "tilted":  # x-dependent: a synthesis weighted by x2
        u, _ = build(2.0 ** -6, 0.5)
        return u, graph_symbol(graph_tilted_circle(0.1)), circle_minus_one()
    u = build_graph_adapted_quasimode(g, graph_circle(), 1)
    return u, graph_symbol(graph_circle()), circle_minus_one()


@pytest.fixture
def syntheses(monkeypatch):
    calls = []
    real = grid_module._synthesize

    def counting(spec):
        calls.append(spec.grid.h)
        return real(spec)

    monkeypatch.setattr(grid_module, "_synthesize", counting)
    return calls


class TestSpectralSupport:
    @pytest.mark.parametrize("case", ["t_alpha_k1", "t_alpha_k2", "flat_k1", "flat_k2",
                                      "graph_adapted", "tilted"])
    def test_support_defect_matches_fft_path(self, case):
        u, p1, p2 = defect_case(case)
        assert u.spectrum is not None
        stripped = Field2D(u.grid, u.values)  # no spectrum: the FFT path
        for m1, m2 in ACCEPTANCE3_POWERS:
            fast = joint_defect(p1, p2, u, m1, m2).defect
            slow = joint_defect(p1, p2, stripped, m1, m2).defect
            assert fast == pytest.approx(slow, rel=1e-12), (m1, m2)
        for M in (1, 2):
            assert defect(p2, u, M).defect == pytest.approx(
                defect(p2, stripped, M).defect, rel=1e-12)

    @pytest.mark.parametrize("smoothed", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, 0.01, 1.0 / 3.0, 1.0])
    # (0, 1), (-1, 0) and (-0.6, -0.8) put the annulus on both sides of xi1 = 0
    @pytest.mark.parametrize("omega0", [(1.0, 0.0), (0.6, 0.8), (0.0, 1.0), (-1.0, 0.0),
                                        (-0.6, -0.8)])
    def test_indicator_bitwise_equal_to_full_mesh(self, omega0, alpha, smoothed):
        # L = 13 is the resolved grid: 8.3 radial lattice lines across the annulus
        for half_width, h in ((5.0, 2.0 ** -5), (5.0, 2.0 ** -7), (13.0, 2.0 ** -5)):
            grid = grid_for_t_alpha(h, half_width=half_width)
            oracle = full_mesh_indicator(
                TAlphaSpec(h=h, alpha=alpha, omega0=omega0, smoothed_edges=smoothed), grid)
            for normalization in ("analytic_prefactor", "unit_l2"):
                spec = TAlphaSpec(h=h, alpha=alpha, omega0=omega0, smoothed_edges=smoothed,
                                  normalization=normalization)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    if np.count_nonzero(oracle) < 8:
                        with pytest.raises(UnderResolvedError):
                            t_alpha_indicator(spec, grid)
                        continue
                    chi = t_alpha_indicator(spec, grid)
                # unit_l2 sums the squares over the box, in the box's order
                (o1, o2), shape = chi.box[1], chi.box[0].shape
                box = oracle[o1:o1 + shape[0], o2:o2 + shape[1]]
                assert np.count_nonzero(box) == np.count_nonzero(oracle)
                scale = (1.0 / (np.sqrt(np.sum(box.real ** 2)) * grid.dxi)
                         if normalization == "unit_l2" else h ** (-0.5 - alpha))
                assert np.array_equal(chi.values, oracle * scale)

    def test_indicator_allocates_its_block_once(self):
        # the parent's box-wide meshes peaked at 3.69 block sizes here, the annulus chunks
        # at 1.51: the complex block plus the squares of its real part for unit_l2
        h = 2.0 ** -9
        grid = grid_for_t_alpha(h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tracemalloc.start()
            try:
                chi = t_alpha_indicator(TAlphaSpec(h=h, alpha=0.01), grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        block = chi.box[0]
        assert block.shape == (343, 1325)
        assert peak <= 2.0 * block.nbytes, peak / block.nbytes

    def test_builders_normalize_the_carried_spectrum(self):
        h, alpha = 2.0 ** -5, 0.5
        u, grid = build(h, alpha)
        spec = TAlphaSpec(h=h, alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            normed = t_alpha_indicator(spec, grid)
        chi = full_mesh_indicator(spec, grid)
        np.testing.assert_array_equal(u.spectrum.values, normed.values)
        np.testing.assert_allclose(u.spectrum.values, chi / SpectralField2D(grid, chi).l2_norm(),
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(u.spectrum.l2_norm(), 1.0, rtol=1e-12)
        np.testing.assert_allclose(semiclassical_fft(u).values, u.spectrum.values, atol=1e-12)
        a, _ = build(h, alpha, normalization="analytic_prefactor")
        np.testing.assert_array_equal(a.spectrum.values, chi * h ** (-0.5 - alpha))
        flat = build_flat_quasimode(GridSpec(8.0, 128, 2.0 ** -4), 1)
        np.testing.assert_allclose(flat.spectrum.l2_norm(), 1.0, rtol=1e-12)
        np.testing.assert_allclose(flat.l2_norm(), 1.0, rtol=1e-12)
        np.testing.assert_allclose(semiclassical_fft(flat).values, flat.spectrum.values,
                                   atol=1e-12)
        raw = semiclassical_ifft(u.spectrum)
        assert raw.spectrum is u.spectrum
        assert Field2D(u.grid, u.values).spectrum is None

    def test_every_consumer_reads_the_carried_spectrum(self, syntheses, monkeypatch):
        u, _ = build(2.0 ** -5, 0.5)
        assert semiclassical_fft(u) is u.spectrum
        p1, p2 = circle_minus_one(), contact_perturbed_circle(1, 1.0)
        defect(p1, u, 2)
        joint_defect(p1, p2, u, 1, 1)
        assert localization_check(u, 1.5, side="xi") == 0.0
        assert u.samples_pending and syntheses == []
        transforms = []
        real = np.fft.fft2

        def counting(*args, **kwargs):
            transforms.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft2", counting)
        joint_defect(graph_symbol(graph_tilted_circle(0.1)), p1, u, 1, 1)
        assert transforms == [] and u.samples_pending


JOINT_DEFECT_K1 = """# Joint defect of the circle and its kth-order-contact perturbation on T_alpha.
[experiment]
name = joint_defect_k1
h_list = 2^-5 2^-6 2^-7 2^-8 2^-9

[stage construct]
alpha = 0.5

[stage defect]
symbol = circle_minus_one
symbol2 = contact_circle(k=1, c=1.0)
powers = 1 1

[assert bounded_ratio]
kind = ratio_spread
quantity = defect_ratio_m1_1
limit = 3.0
"""


class TestLazySynthesis:
    def test_samples_synthesized_on_first_read_only(self, syntheses):
        u, _ = build(2.0 ** -5, 0.5)
        assert "values" not in u.__dict__ and syntheses == []
        joint_defect(circle_minus_one(), contact_perturbed_circle(1, 1.0), u, 1, 1)
        assert syntheses == []
        first = u.values
        assert u.values is first and not first.flags.writeable
        assert syntheses == [2.0 ** -5]

    def test_synthesized_samples_are_checked(self):
        g = GridSpec(4.0, 32, 0.25)
        vals = np.zeros((32, 32), complex)
        vals[3, 5] = 1e308  # finite, but its synthesis overflows
        u = semiclassical_ifft(SpectralField2D(g, vals))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(GridError, match="non-finite"):
            u.values
        with pytest.raises(GridError, match="samples or a spectrum"):
            Field2D(g)
        with pytest.raises(GridError, match="samples or a spectrum"):
            Field2D(g, u.spectrum.values, u.spectrum)

    def test_joint_defect_config_never_synthesizes(self, syntheses):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run(parse_config(JOINT_DEFECT_K1))
        assert report.passed and all(row.error is None for row in report.rows)
        assert syntheses == []

    def test_norms_config_never_materializes(self, syntheses, monkeypatch):
        passes = []
        real = grid_module._column_blocks

        def counting(spec, m1, m2):
            passes.append((spec.grid.h, spec.grid.n, m1, m2))
            return real(spec, m1, m2)

        monkeypatch.setattr(grid_module, "_column_blocks", counting)
        text = JOINT_DEFECT_K1.split("[stage defect]")[0].replace(
            "2^-5 2^-6 2^-7 2^-8 2^-9", "2^-5 2^-6 2^-7") + "[stage norms]\np = 2 6 inf\n"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run(parse_config(text))
        assert all(row.error is None for row in report.rows)
        assert syntheses == []
        # p = 2 and 6 each on their alias-free lattice, p = inf in closed form: no
        # synthesis on the N lattice
        assert [h for h, *_ in passes] == [2.0 ** -5] * 2 + [2.0 ** -6] * 2 + [2.0 ** -7] * 2
        assert all(m1 < n and m2 < n for _, n, m1, m2 in passes)
