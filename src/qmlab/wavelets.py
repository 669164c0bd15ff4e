"""Continuous wavelet transform in x1 and dyadic frequency cutoffs in xi2.

Analysis / synthesis follow the usual Calderon pair with scale measure
da db / a^2 and normalized windows:

    X(a, b, x2) = a^{-1/2} Int f((y1 - b)/a) v(y1, x2) dy1
    v(x1, x2)   = (1/C) Int a^{-5/2} X(a, b, x2) f((x1 - b)/a) da db

over positive scales only, so the effective reproducing constant is half of
the two-sided admissibility integral C_f = Int |fhat|^2/|xi| dxi.

The mother wavelet is the odd polynomial bump c * t (1 - t^2)^3 on [-1, 1]
(zero mean by oddness, C^2, closed-form antiderivative).  Sampled analysis
windows are re-centered to exact discrete zero mean over their own support,
so adding a constant-in-x1 field changes nothing and disjoint supports still
give exactly zero coefficients.

Translation grids are lattice-aligned subsets of the x1 samples with spacing
<= a/4 per scale; scale grids are log-spaced at 48 points per decade.
``cwt_forward`` defaults to the direct Riemann sum (exact support sparsity,
for the structural-zero contracts).  Everything else works on the x1
spectrum of the periodic box, equal to the direct sum away from window
wrap-around: analysis multiplies by conj(khat) of the re-centered window,
synthesis by khat of the raw samples f(m dx / a), and decimating by the
stride s then zero-stuffing folds the s aliases, (1/s) sum_r Y[(k mod M) + rM]
with M = N/s, when s | N; other strides take one ifft/fft pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .grid import Field2D, GridSpec, _alternating_signs, sfft1d, smoothstep

__all__ = [
    "WaveletSpec",
    "CwtCoefficients",
    "DyadicPartition",
    "default_wavelet",
    "admissibility_constant",
    "default_scale_grid",
    "cwt_forward",
    "cwt_inverse",
    "cwt_roundtrip_error",
    "spectral_coefficients",
    "make_partition",
    "dyadic_project",
    "partition_sum",
    "coefficient_norm",
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
    fs = np.asarray(w.f(t), dtype=np.complex128)
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
# coefficient container and grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CwtCoefficients:
    """Per-scale translation slices X(a_i, b, x2) (or their xi2 spectra)."""

    grid: GridSpec
    a_grid: np.ndarray
    b_grids: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]  # each (len(b_grids[i]), N)
    domain: str = "x2"  # or "xi2"
    dyadic_band: int | None = None

    def __post_init__(self):
        if len(self.b_grids) != len(self.a_grid) or len(self.values) != len(self.a_grid):
            raise ValueError("per-scale arrays must match the scale grid length")
        n = self.grid.points_per_axis
        for b, v in zip(self.b_grids, self.values):
            if v.shape != (len(b), n):
                raise ValueError(f"slice shape {v.shape} != ({len(b)}, {n})")
            if not np.all(np.isfinite(v.view(np.float64))):
                raise ValueError("coefficients contain non-finite entries")
        if self.domain not in ("x2", "xi2"):
            raise ValueError(f"domain must be 'x2' or 'xi2', got {self.domain!r}")

    def scale_index(self, a: float) -> int:
        i = int(np.argmin(np.abs(self.a_grid - a)))
        if abs(self.a_grid[i] - a) > 1e-12 * max(1.0, abs(a)):
            warnings.warn(f"scale {a} not on the grid; using nearest {self.a_grid[i]}",
                          stacklevel=3)
        return i

    def __add__(self, other: "CwtCoefficients") -> "CwtCoefficients":
        if (self.domain != other.domain or len(self.a_grid) != len(other.a_grid)
                or not np.allclose(self.a_grid, other.a_grid)):
            raise ValueError("coefficient grids are incompatible")
        vals = tuple(v1 + v2 for v1, v2 in zip(self.values, other.values))
        return CwtCoefficients(self.grid, self.a_grid, self.b_grids, vals,
                               self.domain, self.dyadic_band)


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


def _forward_slice_direct(v: Field2D, w: WaveletSpec, a: float, stride: int) -> np.ndarray:
    g = v.grid
    x = g.x_coords
    b = x[::stride]
    arg = (x[None, :] - b[:, None]) / a
    rows = np.asarray(np.real(w.f(arg)), dtype=float)
    supp = np.abs(arg) <= w.support
    cnt = supp.sum(axis=1)
    sums = np.where(supp, rows, 0.0).sum(axis=1)
    corr = np.divide(sums, cnt, out=np.zeros_like(sums), where=cnt > 0)
    rows = np.where(supp, rows - corr[:, None], 0.0)
    return (g.dx / math.sqrt(a)) * (rows @ v.values)


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


def _stuffed_spectrum(y: np.ndarray, stride: int) -> np.ndarray:
    """x1 spectrum of ifft(y) decimated by ``stride`` and zero-stuffed back to N rows.

    For s | N, the alias fold (1/s) sum_r y[q + rM], M = N/s: the M-point
    spectrum of the slice, repeated s times.  Else one ifft/fft pair, in y.
    """
    n = y.shape[0]
    if n % stride == 0:
        return y.reshape(stride, n // stride, -1).sum(axis=0) / stride
    np.fft.ifft(y, axis=0, out=y)
    y[np.arange(n) % stride != 0] = 0.0
    return np.fft.fft(y, axis=0, out=y)


def cwt_forward(v: Field2D, w: WaveletSpec, a_grid: np.ndarray,
                b_max_step: float | None = None, method: str = "direct") -> CwtCoefficients:
    """Transform in the x1 variable for every scale on the grid.

    Each slice is the Riemann sum of the defining integral on the lattice-
    aligned translation grid; scales at or below twice the grid spacing are
    refused.  method="fft" computes the same correlation on the periodic box
    from the x1 spectrum.
    """
    if method not in ("direct", "fft"):
        raise ValueError(f"unknown method {method!r}")
    g = v.grid
    a_grid = _check_scales(g, a_grid)
    if method == "fft":
        an = _window_spectra(w, g, a_grid)[0]
        vhat = np.fft.fft(v.values, axis=0)
    b_grids, values = [], []
    for i, a in enumerate(a_grid):
        stride = _b_stride(g, a, b_max_step)
        if method == "direct":
            values.append(_forward_slice_direct(v, w, a, stride))
        else:
            full = np.fft.ifft(_stuffed_spectrum(vhat * an[i][:, None], stride), axis=0)
            values.append(full if g.points_per_axis % stride == 0 else full[::stride].copy())
        b_grids.append(g.x_coords[::stride])
    return CwtCoefficients(g, a_grid, tuple(b_grids), tuple(values), "x2")


def cwt_inverse(X: CwtCoefficients, w: WaveletSpec) -> Field2D:
    """Synthesis over positive scales with weight a^{-5/2} / (C_f / 2).

    The scale integral uses trapezoid weights on the stored grid, the
    translation integral the per-scale uniform spacing.  Coverage of the
    input's active scales is the caller's responsibility; the round-trip
    error is measurable via :func:`cwt_roundtrip_error`, never hidden.
    """
    if X.domain != "x2":
        raise ValueError("synthesis needs position-domain coefficients")
    if len(X.a_grid) < 2:
        raise ValueError("need at least two scales for the synthesis integral")
    g = X.grid
    n = g.points_per_axis
    strides = np.array([max(1, int(round((b[1] - b[0]) / g.dx))) for b in X.b_grids])
    syn = _window_spectra(w, g, X.a_grid)[1]
    syn *= _synthesis_weights(w, X.a_grid, strides * g.dx)[:, None]
    out_hat = np.zeros((n, n), dtype=np.complex128)
    for i, (stride, vals) in enumerate(zip(strides, X.values)):
        z = vals  # for s | N its M-point spectrum is already the fold
        if n % stride:
            z = np.zeros_like(out_hat)
            z[::stride] = vals
        z = np.fft.fft(z, axis=0)
        out_hat.reshape(-1, len(z), n)[:] += syn[i].reshape(-1, len(z), 1) * z
    return Field2D(g, np.fft.ifft(out_hat, axis=0, out=out_hat))


def cwt_roundtrip_error(v: Field2D, w: WaveletSpec, a_grid: np.ndarray,
                        b_max_step: float | None = None) -> float:
    """Relative L^2 error of synthesis-after-analysis, summed in the x1 spectrum.

    Same quadrature as cwt_inverse(cwt_forward(v, ..., method="fft")) in O(N^2)
    memory.  Scales sharing a stride s | N add out[q + r'M] += sum_r T[r', r, q]
    vhat[q + rM] with one (s, s, M) table T = (1/s) sum_a syn_a[q + r'M] an_a[q + rM],
    so the N^2 work is done once per stride; the others take one ifft/fft pair each.
    """
    g = v.grid
    n = g.points_per_axis
    a_grid = _check_scales(g, a_grid)
    strides = np.array([_b_stride(g, a, b_max_step) for a in a_grid])
    an, syn = _window_spectra(w, g, a_grid)
    syn *= _synthesis_weights(w, a_grid, strides * g.dx)[:, None]
    vhat = np.fft.fft(v.values, axis=0)
    out = np.zeros_like(vhat)
    buf = np.empty_like(vhat)
    for s in np.unique(strides):
        idx = np.flatnonzero(strides == s)
        if n % s:
            for i in idx:
                z = _stuffed_spectrum(np.multiply(vhat, an[i][:, None], out=buf), s)
                out += np.multiply(z, syn[i][:, None], out=z)
            continue
        m = n // s
        table = np.einsum("iam,ibm->abm", syn[idx].reshape(-1, s, m),
                          an[idx].reshape(-1, s, m)) / s
        for blk, row in zip(out.reshape(s, m, n), table):
            for t, part in zip(row, vhat.reshape(s, m, n)):
                blk += np.multiply(t[:, None], part, out=buf[:m])
    np.fft.ifft(out, axis=0, out=out)
    out -= v.values
    return float(np.sqrt(np.vdot(out, out).real / np.vdot(v.values, v.values).real))


def spectral_coefficients(X: CwtCoefficients) -> CwtCoefficients:
    """1-D h-scaled transform of every slice in the x2 slot."""
    if X.domain != "x2":
        return X
    vals = tuple(sfft1d(v, X.grid, axis=1) for v in X.values)
    return CwtCoefficients(X.grid, X.a_grid, X.b_grids, vals, "xi2", X.dyadic_band)


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
        partition cap), while projection enforces membership."""
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


def dyadic_project(X: CwtCoefficients, part: DyadicPartition, j: int) -> CwtCoefficients:
    """Restrict spectral coefficients to the j-th dyadic band."""
    if X.domain != "xi2":
        raise ValueError("dyadic projection needs spectral coefficients")
    if not 0 <= j <= part.J:
        raise ValueError(f"band index {j} outside the partition range [0, {part.J}]")
    mult = part.band_multiplier(X.grid.xi_coords, j)
    vals = tuple(v * mult[None, :] for v in X.values)
    return CwtCoefficients(X.grid, X.a_grid, X.b_grids, vals, "xi2", j)


# ---------------------------------------------------------------------------
# coefficient norms
# ---------------------------------------------------------------------------

def coefficient_norm(X: CwtCoefficients, fixed_a: float) -> float:
    """L^2_{b, x2-or-xi2} norm of the slice at one scale."""
    i = X.scale_index(fixed_a)
    b = X.b_grids[i]
    db = b[1] - b[0] if len(b) > 1 else 1.0
    dcol = X.grid.dxi if X.domain == "xi2" else X.grid.dx
    return float(np.sqrt(np.sum(np.abs(X.values[i]) ** 2) * db * dcol))


def coefficient_norm_table(v: Field2D, w: WaveletSpec, a_grid: np.ndarray,
                           part: DyadicPartition, b_max_step: float | None = None) -> dict:
    """Per-scale, per-band L^2_{b, xi2} norms, one scale in memory at a time.

    One 2-D transform up front (a rescaled carried spectrum while the samples
    are pending); the power over b of each (scale, xi2) is Parseval's sum over the
    folded spectrum for s | N, else the sum over the b lattice of one inverse
    transform.  Returns 'total' (n_a,) and 'bands' (n_a, J + 1).
    """
    g = v.grid
    a_grid = _check_scales(g, a_grid)
    mults2 = np.stack([part.band_multiplier(g.xi_coords, j) ** 2 for j in range(part.J + 1)])
    an = _window_spectra(w, g, a_grid)[0]
    if v.samples_pending:
        ph = _alternating_signs(g.points_per_axis)[:, None]
        spec = np.sqrt(2.0 * np.pi * g.h) / g.dx * np.fft.ifftshift(v.spectrum.values / ph, axes=0)
    else:
        spec = sfft1d(np.fft.fft(v.values, axis=0), g, axis=1)
    buf = np.empty_like(spec)
    strides = np.array([_b_stride(g, a, b_max_step) for a in a_grid])
    power = np.empty((len(a_grid), g.points_per_axis))  # over b, per (scale, xi2)
    for i, stride in enumerate(strides):
        y = np.multiply(spec, an[i][:, None], out=buf)
        if g.points_per_axis % stride:
            z = np.fft.ifft(y, axis=0, out=y)[::stride]
            power[i] = np.sum(z.real ** 2 + z.imag ** 2, axis=0)
        else:
            z = _stuffed_spectrum(y, stride)
            power[i] = np.sum(z.real ** 2 + z.imag ** 2, axis=0) / len(z)
    power *= (strides * g.dx * g.dxi)[:, None]
    bands = np.sqrt(np.sum(power[:, None, :] * mults2, axis=-1))
    return {"a": a_grid, "total": np.sqrt(power.sum(axis=1)), "bands": bands, "J": part.J}
