"""Wavelet layer: admissibility, transform identities, dyadic cutoffs."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qmlab.grid import Field2D, GridSpec, sfft1d
from qmlab.wavelets import (
    CwtCoefficients,
    UnderResolvedScaleError,
    WaveletSpec,
    admissibility_constant,
    coefficient_norm,
    coefficient_norm_table,
    cwt_forward,
    cwt_inverse,
    cwt_roundtrip_error,
    default_scale_grid,
    default_wavelet,
    dyadic_project,
    make_partition,
    partition_sum,
    spectral_coefficients,
)

W = default_wavelet()


class TestWaveletSpec:
    def test_zero_mean_and_antiderivative(self):
        mean, _ = quad(lambda t: float(np.real(W.f(t))), -1, 1, limit=200)
        assert abs(mean) <= 1e-12
        t = np.linspace(-0.999, 0.999, 501)
        g = W.antiderivative
        dg = (np.asarray(g(t + 1e-6)) - np.asarray(g(t - 1e-6))) / 2e-6
        np.testing.assert_allclose(dg, -1j * W.f(t), atol=1e-7)
        assert abs(complex(g(1.0))) == 0.0 and abs(complex(g(-1.0))) == 0.0

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ValueError):
            WaveletSpec(
                f=lambda t: np.where(np.abs(np.asarray(t)) <= 1.0, 1.0 - np.asarray(t) ** 2, 0.0),
                antiderivative=lambda t: 0.0 * np.asarray(t),
            )

    def test_admissibility_refinement(self):
        c1 = admissibility_constant(W)
        c2 = admissibility_constant(W, n_samples=1 << 19, pad=1024.0)
        assert c1 > 0
        assert abs(c1 - c2) / c2 <= 1e-6

    @pytest.mark.parametrize("s", [0.5, 0.25])
    def test_admissibility_scaling_law(self, s):
        # substitution in the defining integral: the L^2-normalized mother
        # f(t/s)/sqrt(s) scales the constant by s; the L^1-normalized one
        # f(t/s)/s leaves it exactly invariant
        c = admissibility_constant(W)
        l2_scaled = WaveletSpec(
            f=lambda t: W.f(np.asarray(t) / s) / math.sqrt(s),
            antiderivative=lambda t: s / math.sqrt(s) * np.asarray(W.antiderivative(np.asarray(t) / s)),
            support=s,
        )
        assert admissibility_constant(l2_scaled) == pytest.approx(s * c, rel=1e-6)
        l1_scaled = WaveletSpec(
            f=lambda t: W.f(np.asarray(t) / s) / s,
            antiderivative=lambda t: np.asarray(W.antiderivative(np.asarray(t) / s)),
            support=s,
        )
        assert admissibility_constant(l1_scaled) == pytest.approx(c, rel=1e-6)


def packet(grid, omega=3.0, width=0.8, x2_width=0.5):
    x1, x2 = grid.x_mesh()
    vals = (np.exp(1j * omega * x1) * np.exp(-x1 ** 2 / (2 * width ** 2))
            * np.exp(-x2 ** 2 / (2 * x2_width ** 2)))
    return Field2D(grid, vals)


class TestForward:
    def test_constant_killed_exactly(self):
        g = GridSpec(4.0, 128, 0.1)
        v = packet(g)
        vc = Field2D(g, v.values + 0.37)
        a_grid = np.array([0.3, 0.7])
        x1 = cwt_forward(v, W, a_grid)
        x2 = cwt_forward(vc, W, a_grid)
        assert max(np.max(np.abs(p - q)) for p, q in zip(x1.values, x2.values)) <= 1e-13

    def test_pure_constant_gives_zero(self):
        # the support-local re-centering kills constants to rounding noise
        g = GridSpec(4.0, 128, 0.1)
        v = Field2D(g, np.full((128, 128), 1.3 + 0.2j))
        x = cwt_forward(v, W, np.array([0.3, 0.7]))
        assert max(np.max(np.abs(p)) for p in x.values) <= 1e-14

    def test_matched_window_inner_product(self):
        g = GridSpec(4.0, 256, 0.1)
        a0 = 0.5
        x = g.x_coords
        b0 = float(x[96])  # on the translation lattice of stride
        col = np.exp(-g.x_coords ** 2)
        v = Field2D(g, (np.real(W.f((x - b0) / a0)) / math.sqrt(a0))[:, None] * col[None, :])
        X = cwt_forward(v, W, np.array([a0, 1.0]))
        i = list(X.b_grids[0]).index(b0) if b0 in X.b_grids[0] else int(
            np.argmin(np.abs(X.b_grids[0] - b0)))
        # direct inner-product oracle at (a0, b0)
        rows = np.real(W.f((x - X.b_grids[0][i]) / a0))
        rows = rows - rows[np.abs((x - X.b_grids[0][i]) / a0) <= 1].mean() * (
            np.abs((x - X.b_grids[0][i]) / a0) <= 1)
        oracle = g.dx / math.sqrt(a0) * rows @ v.values
        np.testing.assert_allclose(X.values[0][i], oracle, atol=1e-13)
        # quadrature approximates ||f||^2 * column = column (unit-norm window)
        np.testing.assert_allclose(X.values[0][i], col, rtol=2e-3, atol=1e-6)

    def test_disjoint_support_exact_zero(self):
        g = GridSpec(4.0, 128, 0.1)
        x1, x2 = g.x_mesh()
        v = Field2D(g, np.where(np.abs(x1 + 2.0) < 0.5, 1.0 + 0j, 0.0))
        X = cwt_forward(v, W, np.array([0.3, 0.4]))
        for i, a in enumerate(X.a_grid):
            far = np.abs(X.b_grids[i] + 2.0) > 0.5 + a + 0.05
            assert np.all(X.values[i][far] == 0.0)

    def test_under_resolved_scale_refused(self):
        g = GridSpec(4.0, 64, 0.1)
        with pytest.raises(UnderResolvedScaleError):
            cwt_forward(packet(g), W, np.array([0.2, 2 * g.dx]))

    def test_fft_matches_direct_on_interior(self):
        g = GridSpec(4.0, 256, 0.1)
        vv = packet(g, width=0.5).values.copy()
        x1, _ = g.x_mesh()
        vv[np.abs(x1) > 2.5] = 0.0  # exactly compact: no wrap-around in the box
        v = Field2D(g, vv)
        a_grid = default_scale_grid(0.15, 1.0, per_decade=8)
        xd = cwt_forward(v, W, a_grid, method="direct")
        xf = cwt_forward(v, W, a_grid, method="fft")
        # identical wherever the window stays inside the box (the two paths
        # treat box-crossing windows differently: truncation vs wrap-around)
        err = 0.0
        for a, b, p, q in zip(a_grid, xd.b_grids, xd.values, xf.values):
            interior = np.abs(b) <= g.half_width - a - g.dx
            err = max(err, float(np.max(np.abs((p - q)[interior]))))
        assert err <= 1e-12


class TestInverse:
    def test_zero_coefficients(self):
        g = GridSpec(4.0, 128, 0.1)
        X = cwt_forward(Field2D(g, np.zeros((128, 128), complex)), W, np.array([0.3, 0.6]))
        assert np.all(cwt_inverse(X, W).values == 0.0)

    def test_linearity(self):
        g = GridSpec(4.0, 128, 0.1)
        a_grid = default_scale_grid(0.2, 1.0, per_decade=8)
        x1 = cwt_forward(packet(g, omega=3.0), W, a_grid)
        x2 = cwt_forward(packet(g, omega=5.0), W, a_grid)
        lhs = cwt_inverse(x1 + x2, W).values
        rhs = cwt_inverse(x1, W).values + cwt_inverse(x2, W).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_streamed_equals_materialized(self):
        g = GridSpec(4.0, 128, 0.1)
        a_grid = default_scale_grid(0.2, 2.0, per_decade=12)
        v = packet(g)
        X = cwt_forward(v, W, a_grid, method="fft")
        back = cwt_inverse(X, W)
        err_mat = float(np.sqrt(np.sum(np.abs(back.values - v.values) ** 2)
                                / np.sum(np.abs(v.values) ** 2)))
        err_str = cwt_roundtrip_error(v, W, a_grid)
        assert err_mat == pytest.approx(err_str, abs=1e-14)

    def test_refinement_improves_roundtrip(self):
        errs = []
        for n in (256, 512):
            g = GridSpec(3.0, n, 0.1)
            v = packet(g, omega=6.0, width=0.6)
            a_grid = default_scale_grid(0.05, 8.0, per_decade=24)
            errs.append(cwt_roundtrip_error(v, W, a_grid, b_max_step=1.0 / 30.0))
        assert errs[1] < errs[0]


class TestSpectral:
    def test_zero(self):
        g = GridSpec(4.0, 128, 0.1)
        X = cwt_forward(Field2D(g, np.zeros((128, 128), complex)), W, np.array([0.3, 0.6]))
        assert all(np.all(v == 0) for v in spectral_coefficients(X).values)

    def test_per_slice_plancherel(self):
        g = GridSpec(4.0, 128, 0.1)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        X = cwt_forward(Field2D(g, vals), W, np.array([0.3, 0.6]))
        S = spectral_coefficients(X)
        for xv, sv in zip(X.values, S.values):
            a = np.sum(np.abs(xv) ** 2) * g.dx
            b = np.sum(np.abs(sv) ** 2) * g.dxi
            assert abs(a - b) / a <= 1e-10

    def test_plane_wave_column_spike(self):
        g = GridSpec(4.0, 128, 0.1)
        x1, x2 = g.x_mesh()
        m0 = 80
        v = Field2D(g, np.exp(-x1 ** 2) * np.exp(1j * g.xi_coords[m0] * x2 / g.h))
        S = spectral_coefficients(cwt_forward(v, W, np.array([0.5, 1.0])))
        for sv in S.values:
            power = np.sum(np.abs(sv) ** 2, axis=0)
            assert power[m0] >= 0.999 * power.sum()
            # direct 1-D DFT oracle on one translation row
            row = cwt_forward(v, W, np.array([0.5, 1.0])).values[0][3]
            oracle = (g.dx / np.sqrt(2 * np.pi * g.h)
                      * np.sum(row * np.exp(-1j * g.x_coords * g.xi_coords[m0] / g.h)))
            assert sv[3, m0] == pytest.approx(oracle, rel=1e-10)
            break


class TestPartition:
    @pytest.mark.parametrize("h", [2.0 ** -e for e in range(4, 9)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_sums_to_one_on_band(self, h, k):
        part = make_partition(h, k)
        assert 1.0 <= 2.0 ** part.J * h ** (1.0 / (k + 1)) < 2.0
        xi = np.linspace(-1.0, 1.0, 4001)
        assert np.max(np.abs(partition_sum(part, xi) - 1.0)) <= 1e-10

    def test_band_supports(self):
        part = make_partition(2.0 ** -6, 1)
        s = part.scale
        # chi0 supported in [-2, 2] scaled units, chi in [1/2, 3/2]
        t = np.linspace(-4, 4, 1001)
        assert np.all(part.chi0(t)[np.abs(t) > 2.0] == 0.0)
        u = np.linspace(0, 3, 1001)
        chi = part.chi(u)
        assert np.all(chi[(u < 0.5) | (u > 1.5)] == 0.0)

    def test_spike_touches_few_bands(self):
        h, k = 2.0 ** -6, 1
        part = make_partition(h, k)
        j0 = 2
        xi_spike = 2.0 ** j0 * part.scale
        active = [j for j in range(part.J + 1)
                  if abs(part.band_multiplier(np.array([xi_spike]), j)[0]) > 0]
        assert set(active) <= {j0 - 1, j0, j0 + 1}
        assert j0 in active

    def test_projection_partition_identity(self):
        g = GridSpec(8.0, 256, 2.0 ** -6)
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((256, 256)) * (1 + 1j)
        X = spectral_coefficients(cwt_forward(Field2D(g, vals), W, np.array([0.5, 1.0])))
        part = make_partition(g.h, 1)
        total = None
        for j in range(part.J + 1):
            pj = dyadic_project(X, part, j)
            total = pj.values if total is None else tuple(a + b for a, b in zip(total, pj.values))
        band = np.abs(g.xi_coords) <= 1.0
        for t, x in zip(total, X.values):
            assert np.max(np.abs((t - x)[:, band])) <= 1e-10 * max(1.0, np.max(np.abs(x)))

    def test_band_index_range(self):
        g = GridSpec(8.0, 256, 2.0 ** -6)
        X = spectral_coefficients(cwt_forward(packet(g), W, np.array([0.5, 1.0])))
        part = make_partition(g.h, 1)
        with pytest.raises(ValueError):
            dyadic_project(X, part, part.J + 1)
        with pytest.raises(ValueError):
            dyadic_project(X, part, -1)

    def test_projection_needs_spectral_domain(self):
        g = GridSpec(8.0, 256, 2.0 ** -6)
        X = cwt_forward(packet(g), W, np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            dyadic_project(X, make_partition(g.h, 1), 0)


class TestCoefficientNorms:
    def test_zero(self):
        g = GridSpec(4.0, 128, 0.1)
        X = cwt_forward(Field2D(g, np.zeros((128, 128), complex)), W, np.array([0.3, 0.6]))
        assert coefficient_norm(X, 0.3) == 0.0

    def test_monotone_under_projection(self):
        g = GridSpec(8.0, 256, 2.0 ** -6)
        X = spectral_coefficients(cwt_forward(packet(g), W, np.array([0.5, 1.0])))
        part = make_partition(g.h, 1)
        for j in range(part.J + 1):
            assert coefficient_norm(dyadic_project(X, part, j), 0.5) <= coefficient_norm(X, 0.5) * (1 + 1e-12)

    def test_nearest_scale_warns(self):
        g = GridSpec(4.0, 128, 0.1)
        X = cwt_forward(packet(g), W, np.array([0.3, 0.6]))
        with pytest.warns(UserWarning):
            coefficient_norm(X, 0.31)

    def test_table_matches_explicit_path(self):
        g = GridSpec(8.0, 256, 2.0 ** -6)
        from qmlab.quasimodes import build_flat_quasimode

        v = build_flat_quasimode(g, 1)
        part = make_partition(g.h, 1)
        a_grid = np.array([0.5, 1.0, 2.0])
        tab = coefficient_norm_table(v, W, a_grid, part)
        X = spectral_coefficients(cwt_forward(v, W, a_grid, method="fft"))
        for i, a in enumerate(a_grid):
            assert tab["total"][i] == pytest.approx(coefficient_norm(X, a), rel=1e-12)
            for j in range(part.J + 1):
                assert tab["bands"][i, j] == pytest.approx(
                    coefficient_norm(dyadic_project(X, part, j), a), rel=1e-10, abs=1e-15)


# ---------------------------------------------------------------------------
# oracle: the per-scale time-domain loop (one full-length inverse FFT per
# scale, then decimation; zero-stuffing and a forward/inverse FFT pair per
# scale for the synthesis)
# ---------------------------------------------------------------------------

def _oracle_khat(w, g, a, recenter):
    m_max = int(math.floor(a * w.support / g.dx))
    m = np.arange(-m_max, m_max + 1)
    k = np.asarray(np.real(w.f(m * g.dx / a)), dtype=float)
    if recenter:
        k = k - k.sum() / len(k)
    return np.fft.fft(np.bincount(m % g.n, weights=k, minlength=g.n))


def _oracle_stride(g, a, b_max_step=None):
    target = a / 4.0 if b_max_step is None else min(a / 4.0, b_max_step)
    return max(1, int(target / g.dx))


def _oracle_slice(vhat, w, g, a, stride):
    full = np.fft.ifft(vhat * np.conj(_oracle_khat(w, g, a, True))[:, None], axis=0)
    return (g.dx / math.sqrt(a)) * full[::stride]


def _oracle_synthesis_add(out, slice_vals, w, g, a, stride, factor):
    stuffed = np.zeros((g.n, slice_vals.shape[1]), dtype=np.complex128)
    stuffed[::stride] = slice_vals
    khat = _oracle_khat(w, g, a, False)
    out += factor * np.fft.ifft(np.fft.fft(stuffed, axis=0) * khat[:, None], axis=0)


def _oracle_roundtrip(v, w, a_grid, b_max_step=None):
    """Synthesis of the analysis, scale by scale; returns the field and the slices."""
    g = v.grid
    c_eff = admissibility_constant(w) / 2.0
    wa = np.empty_like(a_grid)
    wa[0] = (a_grid[1] - a_grid[0]) / 2.0
    wa[-1] = (a_grid[-1] - a_grid[-2]) / 2.0
    wa[1:-1] = (a_grid[2:] - a_grid[:-2]) / 2.0
    vhat = np.fft.fft(v.values, axis=0)
    out = np.zeros_like(v.values)
    slices = []
    for i, a in enumerate(a_grid):
        stride = _oracle_stride(g, a, b_max_step)
        slices.append(_oracle_slice(vhat, w, g, a, stride))
        _oracle_synthesis_add(out, slices[-1], w, g, a, stride,
                              wa[i] * stride * g.dx * a ** -2.5 / c_eff)
    return out, slices


def _asymmetric_wavelet():
    # f = d/dt [(1 - t^2)^4 (1 + t/2)]: zero mean, but not odd, so its samples
    # do not sum to zero and the analysis re-centering matters
    def f(t):
        t = np.asarray(t, dtype=float)
        u = 1.0 - t * t
        return np.where(np.abs(t) <= 1.0, -8.0 * t * u ** 3 * (1.0 + 0.5 * t) + 0.5 * u ** 4, 0.0)

    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t) <= 1.0, -1j * (1.0 - t * t) ** 4 * (1.0 + 0.5 * t), 0.0)

    return WaveletSpec(f=f, antiderivative=g, label="asymmetric")


@pytest.mark.parametrize("w", [W, _asymmetric_wavelet()], ids=["odd", "asymmetric"])
class TestSpectralEngineOracle:
    # dx = 1/8 and a / 4 per translation step: strides 1..6 on N = 64, so both
    # the alias fold (s | N) and the ifft/fft fallback (s = 3, 5, 6) are used
    g = GridSpec(4.0, 64, 0.1)
    a_grid = default_scale_grid(0.3, 3.2, per_decade=12)

    def field(self):
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        return Field2D(self.g, packet(self.g).values + 0.05 * noise)

    def test_grid_mixes_dividing_and_other_strides(self, w):
        strides = {_oracle_stride(self.g, a) for a in self.a_grid}
        assert {s for s in strides if 64 % s == 0} >= {1, 2, 4}
        assert {s for s in strides if 64 % s} >= {3, 5}

    def test_roundtrip_error(self, w):
        v = self.field()
        out, _ = _oracle_roundtrip(v, w, self.a_grid)
        oracle = float(np.linalg.norm(out - v.values) / np.linalg.norm(v.values))
        assert abs(cwt_roundtrip_error(v, w, self.a_grid) - oracle) <= 1e-12 * oracle

    def test_roundtrip_error_with_step_cap(self, w):
        g = GridSpec(3.0, 96, 0.05)
        v = packet(g, omega=6.0, width=0.7)
        a_grid = default_scale_grid(0.2, 4.0, per_decade=12)
        out, _ = _oracle_roundtrip(v, w, a_grid, b_max_step=0.2)
        oracle = float(np.linalg.norm(out - v.values) / np.linalg.norm(v.values))
        err = cwt_roundtrip_error(v, w, a_grid, b_max_step=0.2)
        assert abs(err - oracle) <= 1e-12 * oracle

    def test_fft_forward_and_inverse(self, w):
        v = self.field()
        out, slices = _oracle_roundtrip(v, w, self.a_grid)
        X = cwt_forward(v, w, self.a_grid, method="fft")
        for got, want in zip(X.values, slices):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        back = cwt_inverse(X, w).values
        assert np.linalg.norm(back - out) <= 1e-12 * np.linalg.norm(out)

    def test_norm_table(self, w):
        v = self.field()
        part = make_partition(self.g.h, 1)
        mults = np.stack([part.band_multiplier(self.g.xi_coords, j) for j in range(part.J + 1)])
        _, slices = _oracle_roundtrip(v, w, self.a_grid)
        tab = coefficient_norm_table(v, w, self.a_grid, part)
        scale = max(np.max(tab["total"]), np.max(tab["bands"]))
        for i, a in enumerate(self.a_grid):
            spec = sfft1d(slices[i], self.g, axis=1)
            db = _oracle_stride(self.g, a) * self.g.dx
            total = np.sqrt(np.sum(np.abs(spec) ** 2) * db * self.g.dxi)
            power = np.sum(np.abs(spec) ** 2, axis=0)
            assert abs(tab["total"][i] - total) <= 1e-12 * scale
            for j in range(part.J + 1):
                band = np.sqrt(np.sum(power * mults[j] ** 2) * db * self.g.dxi)
                assert abs(tab["bands"][i, j] - band) <= 1e-12 * scale
