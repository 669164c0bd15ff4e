"""Grid, field and transform contracts."""

import math
import re
import struct
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import dense_lp_norm, random_field, restrict_norm, xi_mesh
from qmlab import grid as grid_module
from qmlab.grid import (
    MAGIC_FIELD,
    Field2D,
    GridSpec,
    GridError,
    SpectralField2D,
    isfft1d,
    lp_norm,
    lp_norms,
    read_field,
    semiclassical_fft,
    semiclassical_ifft,
    sfft1d,
    write_field,
)
from qmlab.quasimodes import TAlphaSpec, build_t_alpha, grid_for_t_alpha
from qmlab.symbols import apply_left_quantization, xi1_symbol


def direct_transform_oracle(u: Field2D):
    """O(N^4) quadrature of the defining transform, no FFT machinery shared."""
    g = u.grid
    x = g.x_coords
    xi = g.xi_coords
    e1 = np.exp(-1j * np.outer(xi, x) / g.h)  # (xi, x)
    out = e1 @ u.values @ e1.T
    return out * g.dx ** 2 / (2 * np.pi * g.h)


def dense_synthesis_oracle(spec: SpectralField2D) -> np.ndarray:
    """The inverse transform as one dense ifft2 over all N^2 lattice points."""
    g = spec.grid
    m = np.arange(-g.n // 2, g.n // 2)
    ph = np.where(m % 2 == 0, 1.0, -1.0)
    coef = g.dx ** 2 / (2.0 * np.pi * g.h)
    return np.fft.ifft2(np.fft.ifftshift(spec.values / (coef * ph[:, None] * ph[None, :])))


class TestGridSpec:
    def test_validation_collects_problems(self):
        with pytest.raises(GridError):
            GridSpec(8.0, 17, 0.1)  # odd
        with pytest.raises(GridError):
            GridSpec(8.0, 8, 0.1)  # too small
        with pytest.raises(GridError):
            GridSpec(-1.0, 64, 0.1)
        with pytest.raises(GridError):
            GridSpec(8.0, 64, 1.5)
        with pytest.raises(GridError):
            GridSpec(8.0, 64, 0.0)

    def test_unit_band_flag(self):
        wide = GridSpec(2.0, 64, 0.5)  # xi_max = pi*0.5*64/4 = 8pi
        assert wide.resolves_unit_band
        narrow = GridSpec(8.0, 64, 0.01)
        assert not narrow.resolves_unit_band
        spec = semiclassical_fft(random_field(narrow, 0))
        assert spec.warnings  # warning attached, not fatal
        assert SpectralField2D(wide, np.zeros((64, 64))).warnings == ()
        # one text, from the grid, whatever route made the spectrum
        h = 2.0 ** -7
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the annulus's radial-resolution warning
            u = build_t_alpha(TAlphaSpec(h=h, alpha=0.5), grid_for_t_alpha(h))
        routes = (u.spectrum,  # the carried T_alpha box
                  semiclassical_fft(Field2D(u.grid, u.values)),  # the transform of its samples
                  apply_left_quantization(xi1_symbol(), u).spectrum)  # a quantized box
        assert [s.warnings for s in routes] == [
            ("frequency lattice [-1.257, 1.257) does not cover [-2, 2]^2",)] * 3

    def test_lattice_identity(self):
        g = GridSpec(5.0, 128, 0.25)
        # dx * dxi * N = 2 pi h makes the pair exactly unitary
        assert g.dx * g.dxi * g.points_per_axis == pytest.approx(2 * np.pi * g.h, rel=1e-14)


class TestTransform:
    def test_zero_field(self):
        g = GridSpec(8.0, 32, 0.25)
        spec = semiclassical_fft(Field2D(g, np.zeros((32, 32), complex)))
        assert np.all(spec.values == 0)

    def test_plane_wave_spike_against_direct_dft(self):
        g = GridSpec(8.0, 32, 0.25)
        xi = g.xi_coords
        i0, j0 = 20, 10
        x1, x2 = g.x_mesh()
        u = Field2D(g, np.exp(1j * (x1 * xi[i0] + x2 * xi[j0]) / g.h))
        spec = semiclassical_fft(u)
        oracle = direct_transform_oracle(u)
        np.testing.assert_allclose(spec.values, oracle, atol=1e-10)
        expected_peak = (2 * g.half_width) ** 2 / (2 * np.pi * g.h)
        assert spec.values[i0, j0] == pytest.approx(expected_peak, rel=1e-12)
        off = spec.values.copy()
        off[i0, j0] = 0.0
        assert np.abs(off).max() < 1e-9 * expected_peak

    def test_random_field_matches_direct_dft(self):
        g = GridSpec(4.0, 32, 0.5)
        u = random_field(g, 3)
        np.testing.assert_allclose(semiclassical_fft(u).values,
                                   direct_transform_oracle(u), atol=1e-11)

    def test_gaussian_pair_closed_form(self):
        g = GridSpec(8.0, 256, 1.0 / 32.0)
        x1, x2 = g.x_mesh()
        u = Field2D(g, np.exp(-(x1 ** 2 + x2 ** 2) / (2 * g.h)))
        spec = semiclassical_fft(u)
        xi1, xi2 = xi_mesh(g)
        exact = np.exp(-(xi1 ** 2 + xi2 ** 2) / (2 * g.h))
        err = np.sqrt(np.sum(np.abs(spec.values - exact) ** 2) / np.sum(np.abs(exact) ** 2))
        assert err <= 1e-6

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_plancherel(self, n):
        g = GridSpec(8.0, n, 0.125)
        u = random_field(g, n)
        spec = semiclassical_fft(u)
        assert abs(spec.l2_norm() - u.l2_norm()) / u.l2_norm() <= 1e-10

    def test_roundtrip(self):
        g = GridSpec(8.0, 64, 0.125)
        u = random_field(g, 7)
        back = semiclassical_ifft(semiclassical_fft(u))
        err = np.sqrt(np.sum(np.abs(back.values - u.values) ** 2)) / np.sqrt(
            np.sum(np.abs(u.values) ** 2))
        assert err <= 1e-12

    def test_linearity(self):
        g = GridSpec(8.0, 32, 0.25)
        u, v = random_field(g, 1), random_field(g, 2)
        lhs = semiclassical_fft(Field2D(g, 2.0 * u.values - 1j * v.values)).values
        rhs = 2.0 * semiclassical_fft(u).values - 1j * semiclassical_fft(v).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_spike_to_plane_wave(self):
        g = GridSpec(8.0, 32, 0.25)
        vals = np.zeros((32, 32), complex)
        vals[18, 14] = 1.0
        from qmlab.grid import SpectralField2D

        field = semiclassical_ifft(SpectralField2D(g, vals))
        # direct summation oracle: single term of the inverse quadrature
        x1, x2 = g.x_mesh()
        xi = g.xi_coords
        oracle = (np.exp(1j * (x1 * xi[18] + x2 * xi[14]) / g.h)
                  * g.dxi ** 2 / (2 * np.pi * g.h))
        np.testing.assert_allclose(field.values, oracle, atol=1e-13)

    @pytest.mark.parametrize("case", ["t_alpha_k1", "t_alpha_k2", "t_alpha_k1_tilted",
                                      "t_alpha_k2_tilted", "dense", "zero", "edge_rows"])
    def test_row_pruned_synthesis_bitwise_equals_dense(self, case):
        h = 2.0 ** -6
        if case.startswith("t_alpha"):
            k = int(case[len("t_alpha_k")])
            omega0 = (0.6, 0.8) if case.endswith("tilted") else (1.0, 0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                spec = build_t_alpha(TAlphaSpec(h=h, alpha=1.0 / (k + 1), omega0=omega0),
                                     grid_for_t_alpha(h)).spectrum
        else:
            g = GridSpec(5.0, 128, h)
            vals = np.zeros((128, 128), complex)
            if case == "dense":
                vals = random_field(g, 3).values
            elif case == "edge_rows":  # rows the shift wraps to the middle and to N/2 - 1
                vals[0, 5:9] = [1.0, -2.0j, 0.5, 3.0 + 1.0j]
                vals[127, ::7] = 1.0 - 0.25j
            spec = SpectralField2D(g, vals)
        u = semiclassical_ifft(spec)
        assert u.spectrum is spec
        assert np.array_equal(u.values, dense_synthesis_oracle(spec))

    def test_nonfinite_rejected(self):
        g = GridSpec(8.0, 32, 0.25)
        bad = np.zeros((32, 32), complex)
        bad[0, 0] = np.nan
        with pytest.raises(GridError):
            Field2D(g, bad)

    def test_1d_transforms(self):
        g = GridSpec(8.0, 64, 0.125)
        arr = np.random.default_rng(0).standard_normal((5, 64)) * (1 + 0.5j)
        spec = sfft1d(arr, g, axis=1)
        np.testing.assert_allclose(isfft1d(spec, g, axis=1), arr, atol=1e-13)
        lhs = np.sum(np.abs(spec) ** 2) * g.dxi
        rhs = np.sum(np.abs(arr) ** 2) * g.dx
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestNorms:
    def test_constant_field(self):
        g = GridSpec(1.0, 16, 0.5)
        u = Field2D(g, np.ones((16, 16), complex))
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(u, p) == pytest.approx(4.0 ** (1.0 / p), rel=1e-12)
        assert lp_norm(u, np.inf) == 1.0

    def test_zero_field(self):
        g = GridSpec(1.0, 16, 0.5)
        u = Field2D(g, np.zeros((16, 16), complex))
        assert all(lp_norm(u, p) == 0.0 for p in (1, 2, np.inf))

    def test_p_below_one_rejected(self):
        g = GridSpec(1.0, 16, 0.5)
        with pytest.raises(ValueError):
            lp_norm(Field2D(g, np.ones((16, 16), complex)), 0.5)

    def test_hoelder(self):
        g = GridSpec(2.0, 32, 0.5)
        u = random_field(g, 11)
        # direct evaluation of both sides
        lhs = lp_norm(u, 2) ** 2
        rhs = lp_norm(u, np.inf) * lp_norm(u, 1)
        assert lhs <= rhs * (1 + 1e-12)

    def test_restrict_full_box(self):
        g = GridSpec(2.0, 32, 0.5)
        u = random_field(g, 4)
        full = restrict_norm(u, (-2.0, 2.0, -2.0, 2.0))
        assert full == pytest.approx(u.l2_norm(), rel=1e-14)

    def test_restrict_empty(self):
        g = GridSpec(2.0, 32, 0.5)
        u = random_field(g, 4)
        with pytest.warns(UserWarning):
            assert restrict_norm(u, (0.01, 0.01, -1.0, 1.0)) == 0.0

    def test_restrict_half_box_even_field(self):
        g = GridSpec(2.0, 32, 0.5)
        rng = np.random.default_rng(5)
        half = rng.standard_normal((16, 32))
        half[0] = 0.0  # x1 = 0 row would otherwise sit in one half only
        vals = np.zeros((32, 32), complex)
        vals[16:, :] = half
        vals[1:17, :] = half[::-1, :]  # even about x1 = 0 on the half-open grid
        u = Field2D(g, vals)
        # direct summation oracle over the sample set
        x = g.x_coords
        mask = (x >= -2.0) & (x < 0.0)
        oracle = np.sqrt(np.sum(np.abs(vals[mask, :]) ** 2)) * g.dx
        left = restrict_norm(u, (-2.0, 0.0, -2.0, 2.0))
        assert left == pytest.approx(oracle, rel=1e-14)
        assert left ** 2 == pytest.approx(u.l2_norm() ** 2 / 2.0, rel=1e-10)

    def test_restrict_nesting_monotone(self):
        g = GridSpec(2.0, 32, 0.5)
        u = random_field(g, 9)
        inner = restrict_norm(u, (-0.5, 0.5, -0.5, 0.5))
        outer = restrict_norm(u, (-1.5, 1.5, -1.0, 1.0))
        assert inner <= outer

    def test_restrict_outside_box_rejected(self):
        g = GridSpec(2.0, 32, 0.5)
        u = random_field(g, 4)
        with pytest.raises(ValueError):
            restrict_norm(u, (-3.0, 0.0, -1.0, 1.0))


STREAM_PS = [1, 2, 6, 8, np.inf]


def stream_case_spectrum(case: str, n: int) -> SpectralField2D:
    """T_alpha (case "alpha,sharp|smooth"), a dense random spectrum, or one whose
    only nonzero rows are 0 and N - 1, at N points per axis."""
    if case in ("dense", "edge_rows"):
        g = GridSpec(5.0, n, 0.1)
        rng = np.random.default_rng(n)
        vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if case == "edge_rows":
            vals[1:-1] = 0.0
        return SpectralField2D(g, vals)
    alpha, edges = case.split(",")
    h = 2.0 ** -{32: 3, 256: 6, 1024: 8}[n]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        u = build_t_alpha(TAlphaSpec(h=h, alpha=float(Fraction(alpha)),
                                     smoothed_edges=edges == "smooth"), grid_for_t_alpha(h))
    assert u.grid.n == n
    return u.spectrum


class TestStreamedNorms:
    @pytest.mark.parametrize("n", [32, 256, 1024])
    @pytest.mark.parametrize("case", [f"{a},{mode}" for a in ("0.01", "1/3", "1/2")
                                      for mode in ("sharp", "smooth")] + ["dense", "edge_rows"])
    def test_streamed_matches_dense_oracle(self, case, n):
        spec = stream_case_spectrum(case, n)
        u = semiclassical_ifft(spec)
        got = lp_norms(u, STREAM_PS)
        assert u.samples_pending
        want = [dense_lp_norm(semiclassical_ifft(spec), p) for p in STREAM_PS]
        assert got[:-1] == pytest.approx(want[:-1], rel=1e-14, abs=0.0)
        if case in ("dense", "edge_rows"):  # complex: the max streams on the N lattice
            assert got[-1] == want[-1]
        else:  # non-negative: the max is the closed form u(0)
            assert got[-1] == pytest.approx(want[-1], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("read", [True, False])
    def test_existing_samples_bitwise_unchanged(self, read):
        u = (semiclassical_ifft(stream_case_spectrum("1/2,sharp", 256)) if read
             else random_field(GridSpec(5.0, 256, 0.1), 2))
        u.values
        assert not u.samples_pending
        assert lp_norms(u, STREAM_PS) == [dense_lp_norm(u, p) for p in STREAM_PS]
        assert [lp_norm(u, p) for p in STREAM_PS] == [dense_lp_norm(u, p) for p in STREAM_PS]

    def test_overflowing_spectrum_refused(self):
        g = GridSpec(4.0, 32, 0.25)
        vals = np.zeros((32, 32), complex)
        vals[3, 5] = 1e308  # finite, but its synthesis overflows
        u = semiclassical_ifft(SpectralField2D(g, vals))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(GridError, match="non-finite"):
            lp_norms(u, [2, np.inf])
        assert u.samples_pending

    @pytest.mark.parametrize("p", [float("nan"), 0.5, 2 + 0j, "2", None, True])
    def test_bad_p_refused_before_synthesis(self, p):
        u = semiclassical_ifft(stream_case_spectrum("1/2,sharp", 32))
        for call in (lambda: lp_norm(u, p), lambda: lp_norms(u, [2, np.inf, p])):
            with pytest.raises(ValueError, match="got " + re.escape(repr(p))):
                call()
        assert u.samples_pending


def lattice_norm(spec: SpectralField2D, p: int, m1: int, m2: int) -> float:
    """(N/m1)(N/m2) times the Riemann sum of |u|^p on the m1 x m2 lattice, to the 1/p."""
    n = spec.grid.n
    total = sum(np.sum(np.abs(blk) ** p) for blk in grid_module._column_blocks(spec, m1, m2))
    return float((total * spec.grid.dx ** 2 * (n / m1) * (n / m2)) ** (1.0 / p))


def alias_bound(spec: SpectralField2D, p: int) -> tuple[int, int]:
    """M_i = (p/2)(b_i - 1) + 1, the fewest points on which |u|^p does not alias; N
    where that is not fewer, since the N-lattice sum then aliases itself."""
    return tuple(min(p // 2 * (b - 1) + 1, spec.grid.n) for b in spec.box[0].shape)


def random_block_spectrum(seed: int) -> SpectralField2D:
    """A random complex block at a random origin of a 64- or 256-point lattice."""
    rng = np.random.default_rng(seed)
    n = (64, 256)[seed % 2]
    b1, b2 = rng.integers(1, 13), rng.integers(1, 41)
    block = rng.standard_normal((b1, b2)) + 1j * rng.standard_normal((b1, b2))
    origin = (int(rng.integers(0, n - b1 + 1)), int(rng.integers(0, n - b2 + 1)))
    return SpectralField2D(GridSpec(5.0, n, 0.1), block=block, origin=origin)


EVEN_PS = [2, 4, 6, 8, 10]


class TestBoxedNormRules:
    @pytest.mark.parametrize("n", [32, 256])
    @pytest.mark.parametrize("case", [f"{a},{mode}" for a in ("0.01", "1/3", "1/2")
                                      for mode in ("sharp", "smooth")] + ["dense", "edge_rows"])
    def test_even_p_alias_free_at_the_bound(self, case, n):
        spec = stream_case_spectrum(case, n)
        for p in EVEN_PS:
            want = dense_lp_norm(semiclassical_ifft(spec), p)
            assert lattice_norm(spec, p, *alias_bound(spec, p)) == pytest.approx(
                want, rel=1e-14, abs=0.0), p

    @pytest.mark.parametrize("seed", range(8))
    def test_random_blocks_alias_free(self, seed):
        spec = random_block_spectrum(seed)
        u = semiclassical_ifft(spec)
        want = [dense_lp_norm(semiclassical_ifft(spec), p) for p in EVEN_PS]
        got = [lattice_norm(spec, p, *alias_bound(spec, p)) for p in EVEN_PS]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        assert lp_norms(u, EVEN_PS) == pytest.approx(want, rel=1e-14, abs=0.0)
        assert u.samples_pending

    @pytest.mark.parametrize("p", [4, 6, 8, 10])
    def test_bound_is_tight(self, p):
        # two equal spikes d apart: |u|^p carries C(p, k) at frequencies (k - p/2) d, so one
        # point short of the bound the two outermost fold onto the mean, C(p, p/2)
        d = 7
        block = np.zeros((1, d + 1), complex)
        block[0, [0, d]] = 1.0
        spec = SpectralField2D(GridSpec(5.0, 64, 0.1), block=block, origin=(30, 20))
        m1, m2 = alias_bound(spec, p)
        exact = lattice_norm(spec, p, m1, m2)
        assert exact == pytest.approx(dense_lp_norm(semiclassical_ifft(spec), p), rel=1e-14)
        short = lattice_norm(spec, p, m1, m2 - 1)
        assert abs(short ** p / exact ** p - 1.0) == pytest.approx(2.0 / math.comb(p, p // 2),
                                                                   rel=1e-9)
        if p == 4:  # the sum of |u|^4 is off by a third
            assert abs(short ** p / exact ** p - 1.0) > 0.1

    @pytest.mark.parametrize("normalization", ["unit_l2", "analytic_prefactor"])
    @pytest.mark.parametrize("alpha, smoothed", [(0.01, False), (1.0 / 3.0, True), (0.5, False)])
    def test_sup_closed_form(self, alpha, smoothed, normalization):
        h = 2.0 ** -6
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u = build_t_alpha(TAlphaSpec(h=h, alpha=alpha, smoothed_edges=smoothed,
                                         normalization=normalization), grid_for_t_alpha(h))
        g = u.grid
        want = math.fsum(u.spectrum.box[0].real.ravel()) * g.dxi ** 2 / (2.0 * np.pi * g.h)
        assert lp_norm(u, np.inf) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert u.samples_pending

    @pytest.mark.parametrize("signed_zero", [False, True])
    def test_sup_of_non_negative_box_is_u0_exactly(self, signed_zero, monkeypatch):
        # -0.0 is not negative: the box still reads u(0), with nothing synthesized
        spec = stream_case_spectrum("1/3,sharp", 256)
        g, (block, origin) = spec.grid, spec.box
        if signed_zero:
            block = block.copy()
            block[tuple(np.argwhere(block == 0)[0])] = -0.0
            spec = SpectralField2D(g, block=block, origin=origin)
        monkeypatch.setattr(grid_module, "_column_blocks", None)
        assert lp_norms(semiclassical_ifft(spec), [np.inf]) == [
            float(np.sum(block.real) * (g.dxi ** 2 / (2.0 * np.pi * g.h)))]

    # 1 + 1e-200j: an imaginary part below the rounding of the modulus, |S| == Re S
    @pytest.mark.parametrize("entry", [-1.0, 1j, 1 + 1e-200j, -5e-324])
    def test_signed_or_complex_block_streams(self, entry, monkeypatch):
        spec = stream_case_spectrum("1/2,sharp", 256)
        block, origin = spec.box
        block = block.copy()
        i, j = np.argwhere(block)[len(np.argwhere(block)) // 2]
        block[i, j] *= entry
        spec = SpectralField2D(spec.grid, block=block, origin=origin)
        want = dense_lp_norm(semiclassical_ifft(spec), np.inf)
        passes = []
        real = grid_module._column_blocks

        def counting(spec, m1, m2):
            passes.append((m1, m2))
            return real(spec, m1, m2)

        monkeypatch.setattr(grid_module, "_column_blocks", counting)
        u = semiclassical_ifft(spec)
        assert lp_norms(u, [np.inf]) == [want]
        assert passes == [(256, 256)]
        assert u.samples_pending

    @pytest.mark.parametrize("p, entry", [(np.inf, 1e308), (np.inf, 1e308j), (8, 1e200),
                                          (3, 1e200)])
    def test_overflow_refused_on_every_rule(self, p, entry):
        # closed form (the sum of the block overflows), the stream's max, the
        # alias-free power sum and the N-lattice power sum
        g = GridSpec(4.0, 32, 0.25)
        u = semiclassical_ifft(SpectralField2D(g, block=[[entry, 0.0, entry]], origin=(3, 5)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(GridError, match="non-finite"):
            lp_norms(u, [p])
        assert u.samples_pending

    def test_norms_do_not_depend_on_n(self, monkeypatch):
        # N = 32768: the N^2 spectrum alone would take 16 GiB
        lattices = []
        real = grid_module._column_blocks

        def recording(spec, m1, m2):
            lattices.append((m1, m2))
            return real(spec, m1, m2)

        h = 2.0 ** -13
        grid = grid_for_t_alpha(h, n_max=2 ** 15)
        assert grid.n == 2 ** 15
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            monkeypatch.setattr(grid_module, "_column_blocks", recording)
            tracemalloc.start()
            t0 = time.perf_counter()
            try:
                u = build_t_alpha(TAlphaSpec(h=h, alpha=1.0 / 3.0), grid)
                got = lp_norms(u, [6, 8, np.inf])
                seconds = time.perf_counter() - t0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert u.samples_pending
        assert peak <= 128 * 2 ** 20, peak
        assert seconds <= 2.0, seconds
        assert len(lattices) == 2 and all(max(m) < grid.n for m in lattices)
        for p, val, (m1, m2) in zip((6, 8), got, lattices):
            assert val == pytest.approx(lattice_norm(u.spectrum, p, 2 * m1, 2 * m2),
                                        rel=1e-13, abs=0.0)
        block = u.spectrum.box[0]
        assert got[2] == pytest.approx(math.fsum(block.real.ravel()) * grid.dxi ** 2
                                       / (2.0 * np.pi * h), rel=1e-15, abs=0.0)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g = GridSpec(5.0, 32, 0.2)
        u = random_field(g, 12)
        path = tmp_path / "field.qmf"
        write_field(u, path)
        back = read_field(path)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, u.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.qmf"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(GridError):
            read_field(path)

    @pytest.mark.parametrize("n", [-4, 17, 0])
    def test_bad_header_n_refused_before_payload(self, tmp_path, n):
        path = tmp_path / "bad_n.qmf"
        path.write_bytes(MAGIC_FIELD + struct.pack("<qdd", n, 5.0, 0.2) + b"\0" * 64)
        with pytest.raises(GridError, match="points_per_axis"):
            read_field(path)

    def test_truncated_header_refused(self, tmp_path):
        path = tmp_path / "short.qmf"
        path.write_bytes(MAGIC_FIELD + struct.pack("<q", 32))
        with pytest.raises(GridError, match="header"):
            read_field(path)

    def test_trailing_bytes_refused(self, tmp_path):
        g = GridSpec(5.0, 32, 0.2)
        path = tmp_path / "long.qmf"
        write_field(random_field(g, 3), path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(GridError, match="trailing"):
            read_field(path)

