"""Wavelet layer: admissibility, transform identities, dyadic cutoffs."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import partition_sum
from qmlab import wavelets
from qmlab.grid import (
    _BLOCK,
    Field2D,
    GridSpec,
    SpectralField2D,
    semiclassical_fft,
    semiclassical_ifft,
    sfft1d,
)
from qmlab.wavelets import (
    UnderResolvedScaleError,
    WaveletSpec,
    admissibility_constant,
    coefficient_norm_table,
    cwt_roundtrip_error,
    default_scale_grid,
    default_wavelet,
    make_partition,
)
from qmlab.wavelets import (_analysis_spectra, _stuffed_spectrum, _synthesis_weights,
                             _walk_slabs, _window_samples)

W = default_wavelet()


class TestWaveletSpec:
    def test_zero_mean(self):
        # 8 Gauss-Legendre nodes integrate the degree-7 polynomial exactly
        t8, w8 = np.polynomial.legendre.leggauss(8)
        assert abs(np.dot(w8, W.f(t8))) <= 1e-12

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ValueError):
            WaveletSpec(
                f=lambda t: np.where(np.abs(np.asarray(t)) <= 1.0, 1.0 - np.asarray(t) ** 2, 0.0),
            )

    def test_mean_rule_scales_with_support(self):
        # Int_{-1/2}^{1/2} (1 - 4t^2)^4 dt = (1/2) 256/315: the rule reads it on the
        # support, so the window minus its average (the box has length 1) is accepted
        bump = lambda t: (1.0 - 4.0 * np.asarray(t) ** 2) ** 4
        with pytest.raises(ValueError, match=f"got {128.0 / 315.0:.3e}"):
            WaveletSpec(f=bump, support=0.5)
        WaveletSpec(f=lambda t: bump(t) - 128.0 / 315.0, support=0.5)

    def test_mean_offset_rejected(self):
        # Int 1e-9 (1 - t^2) = 1.33e-9, above the 1e-12 threshold
        with pytest.raises(ValueError, match="zero mean, got 1.333e-09"):
            WaveletSpec(f=lambda t: W.f(t) + 1e-9 * (1.0 - np.asarray(t) ** 2))

    def test_complex_window_refused(self):
        # the engine reads real window samples, so an imaginary part is refused
        def chirp(t):
            return W.f(t) * np.exp(0.5j * np.asarray(t))

        with pytest.raises(ValueError, match="window .*chirp must be real-valued"):
            WaveletSpec(f=chirp)
        WaveletSpec(f=lambda t: W.f(t) + 0j)  # complex dtype, zero imaginary part

    def test_asymmetric_wavelet_accepted(self):
        # zero mean though not odd: only the rule's accuracy makes it pass
        _asymmetric_wavelet()

    def test_admissibility_refinement(self):
        c1 = admissibility_constant(W)
        c2 = admissibility_constant(W, n_samples=1 << 19, pad=1024.0)
        assert c1 > 0
        assert abs(c1 - c2) / c2 <= 1e-6

    def test_admissibility_reads_f_on_its_support_only(self):
        # the samples outside the support are zero by the WaveletSpec contract,
        # so skipping them leaves C_f bitwise equal to the full-lattice value
        widest = []

        def f(t):
            widest.append(float(np.max(np.abs(t))))
            return W.f(t)

        w = WaveletSpec(f=f)
        widest.clear()  # the zero-mean check of the constructor
        assert admissibility_constant(w) == _full_lattice_admissibility(W)
        assert 0.99 <= max(widest) <= w.support

    @pytest.mark.parametrize("s", [0.5, 0.25])
    def test_admissibility_scaling_law(self, s):
        # substitution in the defining integral: the L^2-normalized mother
        # f(t/s)/sqrt(s) scales the constant by s; the L^1-normalized one
        # f(t/s)/s leaves it exactly invariant
        c = admissibility_constant(W)
        l2_scaled = WaveletSpec(
            f=lambda t: W.f(np.asarray(t) / s) / math.sqrt(s),
            support=s,
        )
        assert admissibility_constant(l2_scaled) == pytest.approx(s * c, rel=1e-6)
        l1_scaled = WaveletSpec(
            f=lambda t: W.f(np.asarray(t) / s) / s,
            support=s,
        )
        assert admissibility_constant(l1_scaled) == pytest.approx(c, rel=1e-6)


def _full_lattice_admissibility(w, n_samples=1 << 18, pad=512.0):
    """admissibility_constant's quadrature with f evaluated at every sample."""
    T = pad * w.support
    dt = 2.0 * T / n_samples
    m = np.arange(-n_samples // 2, n_samples // 2)
    fs = np.asarray(w.f(-T + dt * np.arange(n_samples)), dtype=np.complex128)
    fhat = dt * np.where(m % 2 == 0, 1.0, -1.0) * np.fft.fftshift(np.fft.fft(fs))
    xi = np.pi * m / T
    pos = xi > 0
    half = np.concatenate(([0.0], np.abs(fhat[pos]) ** 2 / xi[pos]))
    return 2.0 * float(np.trapezoid(half, np.concatenate(([0.0], xi[pos]))))


def packet(grid, omega=3.0, width=0.8, x2_width=0.5):
    x1, x2 = grid.x_mesh()
    vals = (np.exp(1j * omega * x1) * np.exp(-x1 ** 2 / (2 * width ** 2))
            * np.exp(-x2 ** 2 / (2 * x2_width ** 2)))
    return Field2D(grid, vals)


def norms(v, a_grid, w=W):
    return coefficient_norm_table(v, w, a_grid, make_partition(v.grid.h, 1))


def _riemann_slices(v, w, a):
    """The defining Riemann sum at every b of the stride lattice: the window
    cut to its support inside the box and re-centered there."""
    g = v.grid
    x = g.x_coords
    rows = []
    for b in x[::_oracle_stride(g, a)]:
        t = (x - b) / a
        supp = np.abs(t) <= w.support
        r = np.real(w.f(t))
        rows.append(np.where(supp, r - r[supp].mean(), 0.0))
    return g.dx / math.sqrt(a) * np.array(rows) @ v.values


def _oracle_norms(slices, g, a_grid, part):
    """Per-scale total and per-band L^2_{b, xi2} norms of explicit slices."""
    mults2 = np.stack([part.band_multiplier(g.xi_coords, j) ** 2 for j in range(part.J + 1)])
    total, bands = [], []
    for a, sl in zip(a_grid, slices):
        power = np.sum(np.abs(sfft1d(sl, g, axis=1)) ** 2, axis=0)
        power *= _oracle_stride(g, a) * g.dx * g.dxi
        total.append(np.sqrt(power.sum()))
        bands.append(np.sqrt(mults2 @ power))
    return np.array(total), np.array(bands)


def _assert_table_equals(tab, total, bands, rtol):
    # relative to the largest norm of the table: band norms far below it
    # carry only that norm's absolute rounding
    scale = np.max(total)
    assert np.max(np.abs(tab["total"] - total)) <= rtol * scale
    assert np.max(np.abs(tab["bands"] - bands)) <= rtol * scale


class TestForward:
    # the analysis as the norm table reads it
    def test_constant_killed_exactly(self):
        g = GridSpec(4.0, 128, 0.1)
        v = packet(g)
        _, x2 = g.x_mesh()
        vc = Field2D(g, v.values + 0.37 + 0.2 * np.cos(x2))  # constant in x1
        a_grid = np.array([0.3, 0.7])
        for w in (W, _asymmetric_wavelet()):  # the odd window's samples sum to 0 anyway
            t, tc = norms(v, a_grid, w), norms(vc, a_grid, w)
            _assert_table_equals(tc, t["total"], t["bands"], 1e-14)

    def test_pure_constant_gives_zero(self):
        # the support-local re-centering kills constants to rounding noise
        g = GridSpec(4.0, 128, 0.1)
        v = Field2D(g, np.full((128, 128), 1.3 + 0.2j))
        for w in (W, _asymmetric_wavelet()):
            assert np.max(norms(v, np.array([0.3, 0.7]), w)["total"]) <= 1e-15 * v.l2_norm()

    def test_matched_window_inner_product(self):
        g = GridSpec(4.0, 256, 0.1)
        a0 = 0.5
        x = g.x_coords
        b0 = float(x[96])  # on the translation lattice of stride 4
        col = np.exp(-g.x_coords ** 2)
        v = Field2D(g, (np.real(W.f((x - b0) / a0)) / math.sqrt(a0))[:, None] * col[None, :])
        a_grid = np.array([a0, 1.0])
        slices = [_riemann_slices(v, W, a) for a in a_grid]
        # quadrature approximates ||f||^2 * column = column (unit-norm window)
        np.testing.assert_allclose(slices[0][96 // 4], col, rtol=2e-3, atol=1e-6)
        # the field is compact inside the box, so no window wraps around onto it
        part = make_partition(g.h, 1)
        tab = coefficient_norm_table(v, W, a_grid, part)
        _assert_table_equals(tab, *_oracle_norms(slices, g, a_grid, part), 1e-15)

    def test_under_resolved_scale_refused(self):
        g = GridSpec(4.0, 64, 0.1)
        for a_grid in (np.array([0.2, 2 * g.dx]), np.array([0.2, g.dx])):
            with pytest.raises(UnderResolvedScaleError):
                norms(packet(g), a_grid)
            with pytest.raises(UnderResolvedScaleError):
                cwt_roundtrip_error(packet(g), W, a_grid)

    def test_fft_matches_direct_on_interior(self):
        g = GridSpec(4.0, 256, 0.1)
        vv = packet(g, width=0.5).values.copy()
        x1, _ = g.x_mesh()
        vv[np.abs(x1) > 2.5] = 0.0  # exactly compact: no window of a <= 1 wraps onto it
        v = Field2D(g, vv)
        a_grid = default_scale_grid(0.15, 1.0, per_decade=8)  # strides 1..8
        part = make_partition(g.h, 1)
        slices = [_riemann_slices(v, W, a) for a in a_grid]
        tab = coefficient_norm_table(v, W, a_grid, part)
        _assert_table_equals(tab, *_oracle_norms(slices, g, a_grid, part), 1e-13)


class TestInverse:
    def test_streamed_equals_materialized(self):
        g = GridSpec(4.0, 128, 0.1)
        a_grid = default_scale_grid(0.2, 2.0, per_decade=12)
        v = packet(g)
        back, _ = _oracle_roundtrip(v, W, a_grid)  # scale by scale, materialized
        err_mat = float(np.sqrt(np.sum(np.abs(back - v.values) ** 2)
                                / np.sum(np.abs(v.values) ** 2)))
        err_str = cwt_roundtrip_error(v, W, a_grid)
        assert err_mat == pytest.approx(err_str, abs=1e-14)

    def test_zero_field_refused(self):
        # the relative error of the zero field is 0/0
        g = GridSpec(4.0, 64, 0.1)
        with pytest.raises(ValueError, match="zero field is undefined"):
            cwt_roundtrip_error(Field2D(g, np.zeros((64, 64), complex)), W, np.array([0.3, 0.6]))

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
        # a zero carried spectrum: exact zeros, and the samples stay unread
        g = GridSpec(4.0, 128, 0.1)
        v = semiclassical_ifft(SpectralField2D(g, np.zeros((128, 128), complex)))
        tab = norms(v, np.array([0.3, 0.6]))
        assert np.all(tab["total"] == 0.0) and np.all(tab["bands"] == 0.0)
        assert v.samples_pending

    def test_per_slice_plancherel(self):
        # the table sums over xi2; the same norm over x2 of the oracle slices
        g = GridSpec(4.0, 128, 0.1)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        a_grid = np.array([0.3, 0.6])
        tab = norms(Field2D(g, vals), a_grid)
        vhat = np.fft.fft(vals, axis=0)
        for i, a in enumerate(a_grid):
            s = _oracle_stride(g, a)
            x2_norm = np.sqrt(np.sum(np.abs(_oracle_slice(vhat, W, g, a, s)) ** 2) * s * g.dx * g.dx)
            assert abs(tab["total"][i] - x2_norm) <= 1e-13 * x2_norm

    def test_plane_wave_column_spike(self):
        # one xi2 column carries all the power, so each band norm is the total
        # times that band's cutoff at the spike
        g = GridSpec(4.0, 128, 0.1)
        x1, x2 = g.x_mesh()
        m0 = 73  # xi2 = 0.707, in the overlap of bands 1 and 2
        v = Field2D(g, np.exp(-x1 ** 2) * np.exp(1j * g.xi_coords[m0] * x2 / g.h))
        part = make_partition(g.h, 1)
        tab = coefficient_norm_table(v, W, np.array([0.5, 1.0]), part)
        cut = np.array([part.band_multiplier(g.xi_coords[m0], j) for j in range(part.J + 1)])
        assert np.count_nonzero((cut > 0) & (cut < 1)) == 2
        for total, bands in zip(tab["total"], tab["bands"]):
            assert np.max(np.abs(bands - total * np.abs(cut))) <= 1e-13 * total


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
        # band 0 (the envelope) supported in [-2, 2] scaled units, chi in [1/2, 3/2]
        t = np.linspace(-4, 4, 1001)
        assert np.all(part.envelope(t)[np.abs(t) > 2.0] == 0.0)
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

    def test_band_index_range(self):
        # negative bands are refused; bands beyond J are allowed (kernel probes)
        part = make_partition(2.0 ** -6, 1)
        xi = np.linspace(-1.0, 1.0, 9)
        with pytest.raises(ValueError):
            part.band_multiplier(xi, -1)
        assert part.band_multiplier(xi, part.J + 1).shape == xi.shape


class TestCoefficientNorms:
    def test_sampled_field_holds_one_square_array(self):
        # the samples' x2 FFT is the one N^2 complex array; shift and scale go per slab
        g = GridSpec(8.0, 1024, 2.0 ** -6)
        from qmlab.quasimodes import build_flat_quasimode

        v = Field2D(g, build_flat_quasimode(g, 1).values)
        a_grid = default_scale_grid(g.h ** 0.6, 4.0, per_decade=24)  # cwt_decay's 42 scales
        part = make_partition(g.h, 1)
        coefficient_norm_table(v, W, a_grid, part)  # FFT plans and caches
        tracemalloc.start()
        try:
            coefficient_norm_table(v, W, a_grid, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 1024 ** 2 * 16

    def test_zero(self):
        g = GridSpec(4.0, 128, 0.1)
        tab = norms(Field2D(g, np.zeros((128, 128), complex)), np.array([0.3, 0.6]))
        assert np.all(tab["total"] == 0.0) and np.all(tab["bands"] == 0.0)

    def test_monotone_under_projection(self):
        g = GridSpec(8.0, 256, 2.0 ** -6)
        tab = norms(packet(g), np.array([0.5, 1.0]))
        assert np.all(tab["bands"] <= tab["total"][:, None] * (1 + 1e-12))

    def test_table_matches_explicit_path(self):
        # the closed-form rescale of a carried spectrum against the samples
        g = GridSpec(8.0, 256, 2.0 ** -6)
        from qmlab.quasimodes import build_flat_quasimode

        v = build_flat_quasimode(g, 1)
        part = make_partition(g.h, 1)
        a_grid = np.array([0.5, 1.0, 2.0])
        tab = coefficient_norm_table(v, W, a_grid, part)
        assert v.samples_pending  # the table read the spectrum
        ref = coefficient_norm_table(Field2D(g, v.values), W, a_grid, part)
        for i in range(len(a_grid)):
            assert tab["total"][i] == pytest.approx(ref["total"][i], rel=1e-12)
            for j in range(part.J + 1):
                assert tab["bands"][i, j] == pytest.approx(ref["bands"][i, j], rel=1e-12, abs=1e-15)

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

    return WaveletSpec(f=f)


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
        # the engine's analysis (window spectra, alias fold or ifft/fft pair)
        # gives the oracle's slices, and its synthesis (khat of the raw
        # samples, trapezoid weights) of those slices gives the oracle's field
        v = self.field()
        out, slices = _oracle_roundtrip(v, w, self.a_grid)
        n = self.g.n
        strides = np.array([_oracle_stride(self.g, a) for a in self.a_grid])
        an = _analysis_spectra(w, self.g, self.a_grid)
        syn = np.fft.fft(_window_samples(w, self.g, self.a_grid, centered=False))
        syn *= _synthesis_weights(w, self.a_grid, strides * self.g.dx)[:, None]
        vhat = np.fft.fft(v.values.T)  # the engine's slab layout: x1 on the last axis
        back = np.zeros_like(vhat)
        for i, (s, want) in enumerate(zip(strides, slices)):
            z = _stuffed_spectrum(vhat * an[i], s)
            if n % s == 0:
                got, z = np.fft.ifft(z).T, np.tile(z, (1, s))
            else:
                got = np.fft.ifft(z)[:, ::s].T
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            back += z * syn[i]
        back = np.fft.ifft(back).T
        assert np.linalg.norm(back - out) <= 1e-12 * np.linalg.norm(out)

    def test_norm_table(self, w):
        v = self.field()
        part = make_partition(self.g.h, 1)
        _, slices = _oracle_roundtrip(v, w, self.a_grid)
        tab = coefficient_norm_table(v, w, self.a_grid, part)
        _assert_table_equals(tab, *_oracle_norms(slices, self.g, self.a_grid, part), 1e-12)


@pytest.mark.parametrize("n", [80, 48], ids=["partial_last_slab", "one_narrow_slab"])
class TestSlabEdges:
    # N = 80 ends on a slab of 16 columns; N = 48 is one slab narrower than
    # _BLOCK.  Both mix the alias fold (s | N) and the ifft/fft pair: strides
    # 1..7 and 9 at dx = 0.075 (3, 6, 7, 9 do not divide 80), 1..5 at dx = 0.125
    a_grid = default_scale_grid(0.3, 2.8, per_decade=12)

    def field(self, n):
        g = GridSpec(3.0, n, 0.1)
        rng = np.random.default_rng(7)
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return Field2D(g, packet(g).values + 0.05 * noise)

    def test_block_layout(self, n):
        strides = {_oracle_stride(self.field(n).grid, a) for a in self.a_grid}
        assert n % _BLOCK if n > _BLOCK else n < _BLOCK
        assert any(n % s for s in strides) and any(n % s == 0 for s in strides if s > 1)

    def test_roundtrip_error(self, n):
        v = self.field(n)
        out, _ = _oracle_roundtrip(v, W, self.a_grid)
        oracle = float(np.linalg.norm(out - v.values) / np.linalg.norm(v.values))
        assert abs(cwt_roundtrip_error(v, W, self.a_grid) - oracle) <= 1e-12 * oracle

    def test_norm_table_pending_and_sampled(self, n):
        sampled = self.field(n)
        g = sampled.grid
        part = make_partition(g.h, 1)
        pending = semiclassical_ifft(semiclassical_fft(sampled))
        tab = coefficient_norm_table(pending, W, self.a_grid, part)
        assert pending.samples_pending  # the table read the carried spectrum
        _, slices = _oracle_roundtrip(sampled, W, self.a_grid)
        want = _oracle_norms(slices, g, self.a_grid, part)
        _assert_table_equals(tab, *want, 1e-12)
        _assert_table_equals(coefficient_norm_table(sampled, W, self.a_grid, part), *want, 1e-12)


def test_roundtrip_holds_no_square_array():
    # three (_BLOCK, N) slabs and the (n_a, N) window spectra: at N = 1024 a
    # quarter of one N^2 complex array (at N = 512 three slabs alone are 3/8)
    g = GridSpec(3.0, 1024, 0.05)
    v = packet(g, omega=6.0, width=0.7)
    a_grid = default_scale_grid(0.05, 0.5, per_decade=8)  # strides 2, 3 and 4
    assert {_oracle_stride(g, a, 1.0 / 40.0) for a in a_grid} == {2, 3, 4}
    cwt_roundtrip_error(v, W, a_grid, b_max_step=1.0 / 40.0)  # FFT plans and caches
    tracemalloc.start()
    try:
        cwt_roundtrip_error(v, W, a_grid, b_max_step=1.0 / 40.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 ** 2 * 16 / 4


@pytest.mark.parametrize("n", [48, 80, 512])
def test_results_do_not_depend_on_worker_count(n, monkeypatch):
    # slabs of at most 64, 32, 21 and 16 columns; every row's arithmetic is the same, so the
    # table and the error are bitwise equal (4 shares, more than the cores, under a
    # short switch interval: a lost or misplaced slab would change them)
    a_grid = TestSlabEdges.a_grid
    sampled = TestSlabEdges().field(n)
    pending = semiclassical_ifft(semiclassical_fft(sampled))
    part = make_partition(sampled.grid.h, 1)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(wavelets, "_worker_count", lambda: workers)
            tabs = [coefficient_norm_table(u, W, a_grid, part) for u in (pending, sampled)]
            got.append((tabs, cwt_roundtrip_error(sampled, W, a_grid)))
    finally:
        sys.setswitchinterval(interval)
    assert pending.samples_pending
    (want, err), rest = got[0], got[1:]
    for tabs, e in rest:
        for tab, ref in zip(tabs, want):
            assert np.array_equal(tab["total"], ref["total"])
            assert np.array_equal(tab["bands"], ref["bands"])
        assert e == err


@pytest.mark.parametrize("failing, walked", [(64, [0, 32, 96, 160, 224]),
                                              (96, [0, 32, 64, 128, 192])],
                         ids=["caller", "helper"])
def test_slab_failure_reaches_caller(failing, walked, monkeypatch):
    # two shares of 32-column slabs: the caller walks c0 = 0, 64, ..., the helper
    # c0 = 32, 96, ...; the share that does not fail runs to its end
    monkeypatch.setattr(wavelets, "_worker_count", lambda: 2)
    done = []

    def work(c0, slab):
        if c0 == failing:
            raise RuntimeError(f"slab at column {c0}")
        done.append(c0)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"slab at column {failing}"):
        _walk_slabs(np.zeros((8, 256), complex), 0, work)
    assert threading.active_count() == before
    assert sorted(done) == walked


def test_roundtrip_error_does_not_depend_on_blas_threads():
    # acceptance 4b's field: the error's sums are NumPy's own row sums, not a BLAS
    # dot product, whose partial sums follow its thread count
    code = (
        "import numpy as np\n"
        "from qmlab.grid import Field2D, GridSpec\n"
        "from qmlab.wavelets import cwt_roundtrip_error, default_scale_grid, default_wavelet\n"
        "g = GridSpec(3.0, 1024, 0.05)\n"
        "x1, x2 = g.x_mesh()\n"
        "v = Field2D(g, np.exp(6j * x1 - x1 ** 2 / (2 * 0.7 ** 2) - x2 ** 2 / (2 * 0.5 ** 2)))\n"
        "a_grid = default_scale_grid(1.0 / 72.0, 8.0)\n"
        "print(repr(cwt_roundtrip_error(v, default_wavelet(), a_grid, b_max_step=1.0 / 40.0)))\n"
    )
    src = os.path.dirname(os.path.dirname(wavelets.__file__))
    out = [subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src,
                                          "OPENBLAS_NUM_THREADS": threads}).stdout
           for threads in ("1", "2")]
    assert out[0] == out[1]
