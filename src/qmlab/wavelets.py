"""Continuous wavelet transform in x1 and dyadic frequency cutoffs in xi2.

Analysis / synthesis follow the usual Calderon pair with scale measure
da db / a^2 and normalized windows:

    X(a, b, x2) = a^{-1/2} Int f((y1 - b)/a) v(y1, x2) dy1
    v(x1, x2)   = (1/C) Int a^{-5/2} X(a, b, x2) f((x1 - b)/a) da db

over positive scales only, so the effective reproducing constant is half of
the two-sided admissibility integral C_f = Int |fhat|^2/|xi| dxi.

The mother wavelet is the odd polynomial bump c * t (1 - t^2)^3 on [-1, 1]
(zero mean by oddness, C^2).  A window's mean,
read by a fixed 640-point rule (10 Gauss-Legendre nodes on each of 64 panels
of [-1, 1] times the support, exact per panel to degree 19), must not exceed
1e-12.  Sampled analysis windows are re-centered to discrete zero mean over
their support, so a field constant in x1 is annihilated up to rounding.

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
Both walk transposed (_BLOCK // W, N) slabs of x2 (or xi2) columns on W threads (one
per usable CPU, at most 4), every FFT on the contiguous x1 axis, in O(_BLOCK N) memory
beside the (n_a, N) window spectra; no result depends on W (each row is summed alone).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .grid import _BLOCK, Field2D, GridSpec, _alternating_signs, smoothstep

__all__ = [
    "WaveletSpec",
    "DyadicPartition",
    "default_wavelet",
    "admissibility_constant",
    "default_scale_grid",
    "cwt_roundtrip_error",
    "make_partition",
    "coefficient_norm_table",
    "UnderResolvedScaleError",
]


class UnderResolvedScaleError(ValueError):
    """Requested scale is below the grid resolution (a <= 2 dx)."""


# ---------------------------------------------------------------------------
# mother wavelet
# ---------------------------------------------------------------------------

_POLY_NORM = math.sqrt(45045.0 / 2048.0)  # makes ||t (1-t^2)^3||_2 = 1 on [-1, 1]

# the zero-mean rule: 10 Gauss-Legendre nodes on each of 64 panels of [-1, 1]
_GL_T, _GL_W = np.polynomial.legendre.leggauss(10)
_MEAN_NODES = (np.linspace(-1.0, 1.0, 129)[1::2, None] + _GL_T / 64.0).ravel()
_MEAN_WEIGHTS = np.tile(_GL_W / 64.0, 64)


@dataclass(frozen=True, eq=False)
class WaveletSpec:
    """Compactly supported zero-mean window on [-support, support].

    ``f`` must accept arrays and be real; its mean, read by the 640-point Gauss-Legendre
    rule (exact on each of its 64 panels to degree 19), must not exceed 1e-12.
    """

    f: callable
    support: float = 1.0

    def __post_init__(self):
        if np.any(np.imag(values := self.f(self.support * _MEAN_NODES))):
            raise ValueError(f"wavelet window {getattr(self.f, '__qualname__', self.f)} must be "
                             "real-valued: the engine reads real samples")
        mean = self.support * float(np.dot(_MEAN_WEIGHTS, np.real(values)))
        if abs(mean) > 1e-12:
            raise ValueError(f"wavelet must have zero mean, got {mean:.3e}")


def default_wavelet() -> WaveletSpec:
    """f(t) = c t (1 - t^2)^3 with c chosen so ||f||_2 = 1."""

    def f(t):
        t = np.asarray(t, dtype=float)
        w = 1.0 - t * t
        return np.where(np.abs(t) <= 1.0, _POLY_NORM * t * w ** 3, 0.0)

    return WaveletSpec(f=f)


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
    fs = np.zeros(n_samples)
    inside = np.abs(t) <= w.support  # f vanishes outside its support
    fs[inside] = np.real(w.f(t[inside]))
    xi = np.pi * np.arange(1, n_samples // 2) / T  # xi > 0; |.| drops the sign (-1)^m of t_0 = -T
    half = np.concatenate(([0.0], np.abs(dt * np.fft.rfft(fs)[1:n_samples // 2]) ** 2 / xi))
    c = 2.0 * float(np.trapezoid(half, np.concatenate(([0.0], xi))))
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


def _window_samples(w: WaveletSpec, grid: GridSpec, a_grid: np.ndarray,
                    centered: bool) -> np.ndarray:
    """Window samples f(m dx / a), m = -M..M with M = floor(a support / dx), on the x1
    lattice, (n_a, N); ``centered`` re-centers each scale to exact zero discrete mean."""
    n = grid.points_per_axis
    out = np.empty((len(a_grid), n))
    for row, a in zip(out, a_grid):
        m = np.arange(-(m_max := int(math.floor(a * w.support / grid.dx))), m_max + 1)
        k = np.asarray(np.real(w.f(m * grid.dx / a)), dtype=float)
        row[...] = np.bincount(m % n, weights=k - k.sum() / len(k) if centered else k, minlength=n)
    return out


def _analysis_spectra(w: WaveletSpec, grid: GridSpec, a_grid: np.ndarray) -> np.ndarray:
    """(dx / sqrt(a)) conj(khat) of the re-centered window samples, (n_a, N)."""
    an = np.fft.fft(_window_samples(w, grid, a_grid, centered=True), axis=1)
    return np.conj(an) * (grid.dx / np.sqrt(a_grid))[:, None]


def _synthesis_weights(w: WaveletSpec, a_grid: np.ndarray, db: np.ndarray) -> np.ndarray:
    """a^{-5/2} da db / (C_f / 2) per scale, with trapezoid da."""
    da = np.gradient(a_grid)  # central differences: the trapezoid weights once
    da[[0, -1]] /= 2.0        # the end intervals are halved
    return da * db * a_grid ** -2.5 / (admissibility_constant(w) / 2.0)


def _worker_count() -> int:
    """CPUs this process may use, at most _BLOCK // 16 (slabs of 16 columns or more)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, _BLOCK // 16))


def _walk_slabs(src: np.ndarray, n_scratch: int, work) -> list:
    """``work(c0, slab, *scratch)`` on the transposed (_BLOCK // W, N) slabs of ``src``'s columns,
    W = :func:`_worker_count`: slabs 0, W, 2W, ... here, the rest on W - 1 helper threads, each
    share in 1 + ``n_scratch`` buffers allocated here.  Results in column order, or a failure."""
    n_rows, n_cols = src.shape
    width = min(_BLOCK // (workers := _worker_count()), n_cols)
    starts = range(0, n_cols, width)
    shares = min(workers, len(starts))
    bufs = np.empty((shares, 1 + n_scratch, width, n_rows), dtype=np.complex128)
    results, failures = [None] * len(starts), []

    def share(k):
        try:
            for j in range(k, len(starts), shares):
                slab, *scratch = bufs[k, :, :min(width, n_cols - starts[j])]
                for r0 in range(0, n_rows, _BLOCK):
                    slab[:, r0:r0 + _BLOCK] = src[r0:r0 + _BLOCK, starts[j]:starts[j] + width].T
                results[j] = work(starts[j], slab, *scratch)
        except BaseException as exc:  # raised below, in this thread, once all shares stop
            failures.append(exc)

    helpers = [threading.Thread(target=share, args=(k,)) for k in range(1, shares)]
    for t in helpers:
        t.start()
    share(0)
    for t in helpers:
        t.join()
    if failures:
        raise failures[0]
    return results


def _stuffed_spectrum(y: np.ndarray, stride: int) -> np.ndarray:
    """x1 spectrum (last axis) of ifft(y) decimated by ``stride``, zero-stuffed back:
    for s | N the alias fold (1/s) sum_r y[..., q + rM], M = N/s (the M-point spectrum
    of the slice, repeated s times; y itself for s = 1), else one ifft/fft pair, in y."""
    n = y.shape[-1]
    if stride == 1:
        return y
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
    a^{-5/2} / (C_f / 2)) slab by slab, three slabs per thread; ``b_max_step``
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
    an = _analysis_spectra(w, g, a_grid)
    syn = np.fft.fft(_window_samples(w, g, a_grid, centered=False), axis=1)
    syn *= _synthesis_weights(w, a_grid, strides * g.dx)[:, None]
    fold, tables = np.unique(strides[n % strides == 0]), {}
    for s in fold:
        big = fold[fold % s == 0].max()
        same = np.subtract.outer(np.arange(big), np.arange(big)) % (big // s) == 0
        pair = (c[strides == s].reshape(-1, big, n // big) for c in (syn, an))
        tables[big] = tables.get(big, 0.0) + same[..., None] * np.einsum("iam,ibm->abm", *pair) / s

    def slab(_, x, o, y):
        np.fft.fft(x, out=x)
        o[...] = 0.0
        for t in tables.values():
            o += np.einsum("abm,kbm->kam", t, x.reshape(len(x), len(t), -1),
                           out=y.reshape(len(x), len(t), -1)).reshape(x.shape)
        for i in np.flatnonzero(n % strides):
            z = _stuffed_spectrum(np.multiply(x, an[i], out=y), strides[i])
            o += np.multiply(z, syn[i], out=z)
        o -= x
        return [np.einsum("ij,ij->i", z.view(np.float64), z.view(np.float64)) for z in (o, x)]

    err2, norm2 = (np.concatenate(rows).sum() for rows in zip(*_walk_slabs(v.values, 2, slab)))
    return float(np.sqrt(err2 / norm2))


# ---------------------------------------------------------------------------
# dyadic partition in xi2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicPartition:
    """Smooth dyadic cutoffs at the contact frequency scale h^(1/(k+1)).

    Band 0 is the envelope Phi, supported in [-5/4, 5/4] (inside the required
    [-2, 2]), and chi in [1/2, 5/4] (inside [1/2, 3/2]); the telescoping
    construction chi(s) = Phi(s) - Phi(2s) makes the partition identity exact
    in floating point on |xi2| <= 1.
    """

    h: float
    k: int
    J: int
    transition_width = 0.25  # of Phi's edge; unannotated, so not a field

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

    def chi(self, s) -> np.ndarray:
        return self.envelope(s) - self.envelope(2.0 * np.asarray(s, dtype=float))

    def band_multiplier(self, xi2: np.ndarray, j: int) -> np.ndarray:
        """Cutoff of band j; j may exceed J here (kernel probes beyond the
        partition cap), while the norm table uses bands 0..J."""
        if j < 0:
            raise ValueError(f"band index must be >= 0, got {j}")
        t = np.asarray(xi2, dtype=float) / self.scale
        if j == 0:
            return self.envelope(t)
        return self.chi(np.abs(t) / 2.0 ** j)


def make_partition(h: float, k: int) -> DyadicPartition:
    J = int(math.ceil(-math.log2(h) / (k + 1) - 1e-9))
    return DyadicPartition(h=h, k=k, J=J)


# ---------------------------------------------------------------------------
# coefficient norms
# ---------------------------------------------------------------------------

def coefficient_norm_table(v: Field2D, w: WaveletSpec, a_grid: np.ndarray,
                           part: DyadicPartition) -> dict:
    """Per-scale, per-band L^2_{b, xi2} norms, one scale of one slab at a time.

    Slabs of the x1 spectrum of xi2 columns: a rescaled slice of the carried spectrum
    while the samples are pending (O(_BLOCK N) memory), else the x1 transform of a
    scaled slice of the samples' unshifted x2 FFT (one N^2 array).  The power over
    b of each (scale, xi2) is Parseval's sum over the folded spectrum for s | N,
    else the sum over the b lattice of one inverse transform.  Returns 'total'
    (n_a,) and 'bands' (n_a, J + 1)."""
    g = v.grid
    n = g.points_per_axis
    a_grid = _check_scales(g, a_grid)
    mults2 = np.stack([part.band_multiplier(g.xi_coords, j) ** 2 for j in range(part.J + 1)])
    an = _analysis_spectra(w, g, a_grid)
    rescale = np.fft.ifftshift(np.sqrt(2.0 * np.pi * g.h) / g.dx / _alternating_signs(n))
    strides = np.array([_b_stride(g, a, None) for a in a_grid])
    power = np.empty((len(a_grid), n))  # over b, per (scale, xi2)
    pending = v.samples_pending

    def slab(c0, x, y):
        cols = (np.arange(c0, c0 + len(x)) + (0 if pending else n // 2)) % n
        if pending:
            x[...] = np.fft.ifftshift(x, axes=1) * rescale
        else:  # sfft1d's scale and shift (cols), per slab; its signs leave the power as is
            x *= g.dx / np.sqrt(2.0 * np.pi * g.h)
            np.fft.fft(x, out=x)
        for i, s in enumerate(strides):
            z = np.multiply(x, an[i], out=y)
            z = np.fft.ifft(z, out=z)[:, ::s].copy() if n % s else _stuffed_spectrum(z, s)
            power[i, cols] = np.einsum("ij,ij->i", z.view(np.float64), z.view(np.float64))

    _walk_slabs(v.spectrum.values if pending else np.fft.fft(v.values, axis=1), 1, slab)
    # Parseval over a fold of M = N/s points divides by M
    power *= (np.where(n % strides, 1.0, strides / n) * strides * g.dx * g.dxi)[:, None]
    bands = np.sqrt(np.sum(power[:, None, :] * mults2, axis=-1))
    return {"a": a_grid, "total": np.sqrt(power.sum(axis=1)), "bands": bands, "J": part.J}
