"""Continuous wavelet transform in x1 and dyadic frequency cutoffs in xi2.

Analysis / synthesis follow the usual Calderon pair with scale measure
da db / a^2 and normalized windows:

    X(a, b, x2) = a^{-1/2} Int f((y1 - b)/a) v(y1, x2) dy1
    v(x1, x2)   = (1/C) Int a^{-5/2} X(a, b, x2) f((x1 - b)/a) da db

over positive scales only, so the effective reproducing constant is half of
the two-sided admissibility integral C_f = Int |fhat|^2/|xi| dxi.

The mother wavelet is the odd polynomial bump c * t (1 - t^2)^3 on [-1, 1]
(zero mean by oddness, C^2, closed-form antiderivative).  Sampled analysis
windows are re-centered to discrete zero mean over their own support, so a
field constant in x1 is annihilated up to rounding.

Translation grids are lattice-aligned subsets of the x1 samples with spacing
<= a/4 per scale; scale grids are log-spaced at 48 points per decade.
There is one engine, on the x1 spectrum of the periodic box (equal to the
direct Riemann sum of the analysis integral wherever no window wraps around
the box): analysis multiplies by conj(khat) of the re-centered window,
synthesis by khat of the raw samples f(m dx / a), and decimating by the
stride s then zero-stuffing folds the s aliases, (1/s) sum_r Y[(k mod M) + rM]
with M = N/s, when s | N; other strides take one ifft/fft pair.  The
pipeline reads it through :func:`cwt_roundtrip_error` (synthesis after
analysis) and :func:`coefficient_norm_table` (per-scale, per-band norms).
Both walk transposed (_BLOCK, N) slabs of x2 (or xi2) columns, every FFT on
the contiguous x1 axis, in O(_BLOCK N) memory beside the (n_a, N) window spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .grid import _BLOCK, Field2D, GridSpec, _alternating_signs, sfft1d, smoothstep

__all__ = [
    "WaveletSpec",
    "DyadicPartition",
    "default_wavelet",
    "admissibility_constant",
    "default_scale_grid",
    "cwt_roundtrip_error",
    "make_partition",
    "partition_sum",
    "coefficient_norm_table",
    "UnderResolvedScaleError",
]


class UnderResolvedScaleError(ValueError):
    """Requested scale is below the grid resolution (a <= 2 dx)."""


# ---------------------------------------------------------------------------
# mother wavelet
# ---------------------------------------------------------------------------

_POLY_NORM = math.sqrt(45045.0 / 2048.0)  # makes ||t (1-t^2)^3||_2 = 1 on [-1, 1]


@dataclass(frozen=True, eq=False)
class WaveletSpec:
    """Compactly supported zero-mean window on [-support, support].

    ``antiderivative`` g satisfies g' = -i f pointwise with g(+-support) = 0,
    so f can be traded for a derivative under the pairing when bounds need it.
    """

    f: callable
    antiderivative: callable
    label: str = "wavelet"
    support: float = 1.0

    def __post_init__(self):
        mean_re, _ = quad(lambda t: float(np.real(self.f(t))), -self.support, self.support, limit=200)
        mean_im, _ = quad(lambda t: float(np.imag(self.f(t))), -self.support, self.support, limit=200)
        if abs(complex(mean_re, mean_im)) > 1e-12:
            raise ValueError(f"wavelet must have zero mean, got {complex(mean_re, mean_im):.3e}")
        for t in (-self.support, self.support):
            if abs(complex(self.antiderivative(t))) > 1e-12:
                raise ValueError("antiderivative must vanish at the support endpoints")


def default_wavelet() -> WaveletSpec:
    """f(t) = c t (1 - t^2)^3 with c chosen so ||f||_2 = 1."""

    def f(t):
        t = np.asarray(t, dtype=float)
        w = 1.0 - t * t
        return np.where(np.abs(t) <= 1.0, _POLY_NORM * t * w ** 3, 0.0)

    def g(t):
        t = np.asarray(t, dtype=float)
        w = 1.0 - t * t
        return np.where(np.abs(t) <= 1.0, 1j * _POLY_NORM * w ** 4 / 8.0, 0.0)

    return WaveletSpec(f=f, antiderivative=g, label="odd_poly_bump")


def admissibility_constant(w: WaveletSpec, n_samples: int = 1 << 18,
                           pad: float = 512.0) -> float:
    """Two-sided admissibility integral Int_R |fhat(xi)|^2 / |xi| dxi.

    fhat comes from an FFT of the zero-padded samples; zero mean makes the
    integrand O(xi) at the origin, and integrating over the half line (value
    0 pinned at xi = 0) avoids the |xi| kink.  Relative accuracy ~1e-7 at
    the defaults, checked against refinement in the tests.  Cached per
    wavelet instance.
    """
    cache = getattr(w, "_admissibility_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(w, "_admissibility_cache", cache)
    key = (n_samples, pad)
    if key in cache:
        return cache[key]
    T = pad * w.support
    dt = 2.0 * T / n_samples
    t = -T + dt * np.arange(n_samples)
    fs = np.zeros(n_samples, dtype=np.complex128)
    inside = np.abs(t) <= w.support  # f vanishes outside its support
    fs[inside] = w.f(t[inside])
    m = np.arange(-n_samples // 2, n_samples // 2)
    ph = np.where(m % 2 == 0, 1.0, -1.0)
    fhat = dt * ph * np.fft.fftshift(np.fft.fft(fs))
    xi = np.pi * m / T
    pos = xi > 0
    half = np.concatenate(([0.0], np.abs(fhat[pos]) ** 2 / xi[pos]))
    grid_xi = np.concatenate(([0.0], xi[pos]))
    c = 2.0 * float(np.trapezoid(half, grid_xi))
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"admissibility constant must be finite and positive, got {c}")
    cache[key] = c
    return c


# ---------------------------------------------------------------------------
# grids and the spectral engine
# ---------------------------------------------------------------------------

def default_scale_grid(a_min: float, a_max: float, per_decade: int = 48) -> np.ndarray:
    """Log-spaced scales with fixed per-decade density, endpoints included."""
    if not (0 < a_min < a_max):
        raise ValueError("need 0 < a_min < a_max")
    n = max(2, int(math.ceil(per_decade * math.log10(a_max / a_min))) + 1)
    return np.geomspace(a_min, a_max, n)


def _b_stride(grid: GridSpec, a: float, b_max_step: float | None) -> int:
    target = a / 4.0 if b_max_step is None else min(a / 4.0, b_max_step)
    return max(1, int(target / grid.dx))


def _check_scales(grid: GridSpec, a_grid: np.ndarray) -> np.ndarray:
    a_grid = np.asarray(a_grid, dtype=float)
    if np.any(a_grid <= 2.0 * grid.dx):
        bad = float(a_grid[a_grid <= 2.0 * grid.dx][0])
        raise UnderResolvedScaleError(
            f"scale a = {bad:.4g} <= 2 dx = {2 * grid.dx:.4g}; refine the grid")
    return a_grid


def _window_spectra(w: WaveletSpec, grid: GridSpec, a_grid: np.ndarray) -> tuple:
    """Analysis (dx / sqrt(a)) conj(khat) of the window samples re-centered to
    exact zero discrete mean, and synthesis khat of the raw samples f(m dx / a),
    m = -M..M with M = floor(a support / dx); (n_a, N) each."""
    n = grid.points_per_axis
    raw = np.empty((len(a_grid), n))
    centered = np.empty_like(raw)
    for i, a in enumerate(a_grid):
        m_max = int(math.floor(a * w.support / grid.dx))
        m = np.arange(-m_max, m_max + 1)
        k = np.asarray(np.real(w.f(m * grid.dx / a)), dtype=float)
        raw[i] = np.bincount(m % n, weights=k, minlength=n)
        centered[i] = np.bincount(m % n, weights=k - k.sum() / len(k), minlength=n)
    an = np.conj(np.fft.fft(centered, axis=1)) * (grid.dx / np.sqrt(a_grid))[:, None]
    return an, np.fft.fft(raw, axis=1)


def _synthesis_weights(w: WaveletSpec, a_grid: np.ndarray, db: np.ndarray) -> np.ndarray:
    """a^{-5/2} da db / (C_f / 2) per scale, with trapezoid da."""
    da = np.gradient(a_grid)  # central differences: the trapezoid weights once
    da[[0, -1]] /= 2.0        # the end intervals are halved
    return da * db * a_grid ** -2.5 / (admissibility_constant(w) / 2.0)


def _slabs(src: np.ndarray):
    """The columns of ``src`` as transposed (_BLOCK, N) slabs in one buffer, tile by tile."""
    buf = np.empty((min(_BLOCK, src.shape[1]), len(src)), dtype=np.complex128)
    for c0 in range(0, src.shape[1], _BLOCK):
        slab = buf[:min(_BLOCK, src.shape[1] - c0)]
        for r0 in range(0, len(src), _BLOCK):
            slab[:, r0:r0 + _BLOCK] = src[r0:r0 + _BLOCK, c0:c0 + _BLOCK].T
        yield c0, slab


def _stuffed_spectrum(y: np.ndarray, stride: int) -> np.ndarray:
    """x1 spectrum (last axis) of ifft(y) decimated by ``stride``, zero-stuffed back:
    for s | N the alias fold (1/s) sum_r y[..., q + rM], M = N/s (the M-point spectrum
    of the slice, repeated s times), else one ifft/fft pair, in y."""
    n = y.shape[-1]
    if n % stride == 0:
        return y.reshape(*y.shape[:-1], stride, n // stride).sum(axis=-2) * (1.0 / stride)
    np.fft.ifft(y, out=y)
    for r in range(1, stride):
        y[..., r::stride] = 0.0
    return np.fft.fft(y, out=y)


def cwt_roundtrip_error(v: Field2D, w: WaveletSpec, a_grid: np.ndarray,
                        b_max_step: float | None = None) -> float:
    """Relative L^2 error of synthesis-after-analysis, summed in the x1 spectrum.

    Synthesis of the analysis slices (trapezoid da, per-scale uniform db, weight
    a^{-5/2} / (C_f / 2)) slab by slab, in three slabs of memory; ``b_max_step``
    caps the translation step below a/4.  A stride s | N joins the largest stride
    S | N it divides, M = N/S: out[q + r'M] += sum_r T[r', r, q] vhat[q + rM] with
    T = sum_a syn_a[q + r'M] an_a[q + rM] / s over r' = r mod S/s, one table built
    once; the other strides take one ifft/fft pair per slab each.
    """
    g = v.grid
    n = g.points_per_axis
    a_grid = _check_scales(g, a_grid)
    if not v.values.any():
        raise ValueError("CWT round-trip error of the zero field is undefined")
    strides = np.array([_b_stride(g, a, b_max_step) for a in a_grid])
    an, syn = _window_spectra(w, g, a_grid)
    syn *= _synthesis_weights(w, a_grid, strides * g.dx)[:, None]
    fold, tables = np.unique(strides[n % strides == 0]), {}
    for s in fold:
        big = fold[fold % s == 0].max()
        same = np.subtract.outer(np.arange(big), np.arange(big)) % (big // s) == 0
        pair = (c[strides == s].reshape(-1, big, n // big) for c in (syn, an))
        tables[big] = tables.get(big, 0.0) + same[..., None] * np.einsum("iam,ibm->abm", *pair) / s
    out, buf = np.empty((2, min(_BLOCK, n), n), dtype=np.complex128)
    err2 = norm2 = 0.0
    for _, x in _slabs(v.values):
        np.fft.fft(x, out=x)
        o, y = out[:len(x)], buf[:len(x)]
        o[...] = 0.0
        for t in tables.values():
            o += np.einsum("abm,kbm->kam", t, x.reshape(len(x), len(t), -1),
                           out=y.reshape(len(x), len(t), -1)).reshape(x.shape)
        for i in np.flatnonzero(n % strides):
            z = _stuffed_spectrum(np.multiply(x, an[i], out=y), strides[i])
            o += np.multiply(z, syn[i], out=z)
        o -= x
        err2 += np.vdot(o, o).real
        norm2 += np.vdot(x, x).real
    return float(np.sqrt(err2 / norm2))


# ---------------------------------------------------------------------------
# dyadic partition in xi2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicPartition:
    """Smooth dyadic cutoffs at the contact frequency scale h^(1/(k+1)).

    chi0 is supported in [-5/4, 5/4] (inside the required [-2, 2]) and chi in
    [1/2, 5/4] (inside [1/2, 3/2]); the telescoping construction
    chi(s) = Phi(s) - Phi(2s) makes the partition identity exact in floating
    point on |xi2| <= 1.
    """

    h: float
    k: int
    J: int
    transition_width: float = 0.25

    def __post_init__(self):
        lam = 2.0 ** self.J * self.h ** (1.0 / (self.k + 1))
        if not (1.0 <= lam < 2.0):
            raise ValueError(f"2^J h^(1/(k+1)) = {lam} outside [1, 2)")

    @property
    def scale(self) -> float:
        return self.h ** (1.0 / (self.k + 1))

    def envelope(self, t) -> np.ndarray:
        """Phi: 1 on |t| <= 1, 0 beyond 1 + width."""
        u = np.abs(np.asarray(t, dtype=float))
        return 1.0 - smoothstep((u - 1.0) / self.transition_width)

    def chi0(self, t) -> np.ndarray:
        return self.envelope(t)

    def chi(self, s) -> np.ndarray:
        return self.envelope(s) - self.envelope(2.0 * np.asarray(s, dtype=float))

    def band_multiplier(self, xi2: np.ndarray, j: int) -> np.ndarray:
        """Cutoff of band j; j may exceed J here (kernel probes beyond the
        partition cap), while the norm table uses bands 0..J."""
        if j < 0:
            raise ValueError(f"band index must be >= 0, got {j}")
        t = np.asarray(xi2, dtype=float) / self.scale
        if j == 0:
            return self.chi0(t)
        return self.chi(np.abs(t) / 2.0 ** j)


def make_partition(h: float, k: int) -> DyadicPartition:
    J = int(math.ceil(-math.log2(h) / (k + 1) - 1e-9))
    return DyadicPartition(h=h, k=k, J=J)


def partition_sum(part: DyadicPartition, xi2: np.ndarray) -> np.ndarray:
    """chi0 + sum_j chi over the bands; equals 1 on |xi2| <= 1."""
    total = part.band_multiplier(xi2, 0)
    for j in range(1, part.J + 1):
        total = total + part.band_multiplier(xi2, j)
    return total


# ---------------------------------------------------------------------------
# coefficient norms
# ---------------------------------------------------------------------------

def coefficient_norm_table(v: Field2D, w: WaveletSpec, a_grid: np.ndarray,
                           part: DyadicPartition) -> dict:
    """Per-scale, per-band L^2_{b, xi2} norms, one scale of one slab at a time.

    Slabs of the x1 spectrum of xi2 columns: a rescaled slice of the carried spectrum
    while the samples are pending (O(_BLOCK N) memory), else the x1 transform of a
    slice of the samples' x2 transform (one N^2 array).  The power over b of each
    (scale, xi2) is Parseval's sum over the folded spectrum for s | N, else the sum
    over the b lattice of one inverse transform.  Returns 'total' (n_a,) and 'bands'
    (n_a, J + 1)."""
    g = v.grid
    n = g.points_per_axis
    a_grid = _check_scales(g, a_grid)
    mults2 = np.stack([part.band_multiplier(g.xi_coords, j) ** 2 for j in range(part.J + 1)])
    an = _window_spectra(w, g, a_grid)[0]
    rescale = np.fft.ifftshift(np.sqrt(2.0 * np.pi * g.h) / g.dx / _alternating_signs(n))
    strides = np.array([_b_stride(g, a, None) for a in a_grid])
    power = np.empty((len(a_grid), n))  # over b, per (scale, xi2)
    for c0, x in _slabs(v.spectrum.values if v.samples_pending else sfft1d(v.values, g, axis=1)):
        if v.samples_pending:
            x[...] = np.fft.ifftshift(x, axes=1) * rescale
        else:
            np.fft.fft(x, out=x)
        y = np.empty_like(x)
        for i, s in enumerate(strides):
            z = np.multiply(x, an[i], out=y)
            z = np.fft.ifft(z, out=z)[:, ::s].copy() if n % s else _stuffed_spectrum(z, s)
            power[i, c0:c0 + len(x)] = np.einsum("ij,ij->i", z.view(np.float64), z.view(np.float64))
    # Parseval over a fold of M = N/s points divides by M
    power *= (np.where(n % strides, 1.0, strides / n) * strides * g.dx * g.dxi)[:, None]
    bands = np.sqrt(np.sum(power[:, None, :] * mults2, axis=-1))
    return {"a": a_grid, "total": np.sqrt(power.sum(axis=1)), "bands": bands, "J": part.J}
