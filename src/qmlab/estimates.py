"""Closed-form growth exponents, kernel-bound sampling, sweeps and fits.

The exponent functions return exact Fractions whenever the inputs are exact
(int, Fraction, or infinity), so branch continuity and the sharpness
identity can be asserted in rational arithmetic; a float p gives floats.  The convention is the
positive one: norms grow like h^(-exponent), and a fitted log-log slope of a
quantity against h is compared with -exponent.

Kernel sampling evaluates the two-regime envelope of the composed-window
kernel at separation t = x1 - z1:

    |K_j| <= C * a 2^j h^(-1 + 1/(k+1))        t <= 2^(-2j) h^(1 - 2/(k+1))
    |K_j| <= C * a h^(-1/2) t^(-1/2)           t >= 2^(-2j) h^(1 - 2/(k+1))

by oversampled oscillatory quadrature (>= 8 points per h-period), taking the
sup over transverse offsets that bracket the stationary point of the phase
difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .symbols import GraphFn
from .wavelets import DyadicPartition, WaveletSpec

__all__ = [
    "ExponentFit",
    "KernelSample",
    "KernelCheckReport",
    "QuadratureError",
    "delta_p_k",
    "sogge_delta",
    "mu_p_j",
    "fit_power_law",
    "run_sweep",
    "SweepRow",
    "kernel_sample",
    "default_kernel_samples",
    "kernel_bound_check",
]


class QuadratureError(RuntimeError):
    """Oscillatory quadrature would be under-resolved."""


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def _inverse_p(p):
    """1/p, keeping exact arithmetic for int/Fraction/infinite p."""
    if p == math.inf:
        return Fraction(0)
    if isinstance(p, (int, Fraction)) and not isinstance(p, bool):
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
        return Fraction(1, 1) / Fraction(p)
    p = float(p)
    if not p >= 2:
        raise ValueError(f"p must be >= 2, got {p}")
    return 1.0 / p


def delta_p_k(p, k: int):
    """Growth exponent for a kth-order-contact joint quasimode.

    (1/2 - 2/p) - (1/2 - 3/p)/(k+1) for p >= 6, and the p <= 6 envelope
    1/4 - 1/(2p) independent of k; both branches meet at 1/6 when p = 6.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ip = _inverse_p(p)
    if ip <= Fraction(1, 6):
        return (Fraction(1, 2) - 2 * ip) - Fraction(1, k + 1) * (Fraction(1, 2) - 3 * ip)
    return Fraction(1, 4) - ip / 2


def sogge_delta(p):
    """Spectral-cluster growth exponent: 1/2 - 2/p above p = 6, 1/4 - 1/(2p) below."""
    ip = _inverse_p(p)
    if ip <= Fraction(1, 6):
        return Fraction(1, 2) - 2 * ip
    return Fraction(1, 4) - ip / 2


def mu_p_j(p, j: int):
    """Dyadic-band growth factor exponent: j (1/2 - 3/p) for p >= 6, else 0."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    ip = _inverse_p(p)
    if ip <= Fraction(1, 6):
        return j * (Fraction(1, 2) - 3 * ip)
    return 0 * ip


# ---------------------------------------------------------------------------
# power-law fits and sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    """Least-squares line through (log h, log value)."""

    slope: float
    intercept: float
    residual: float  # max |log deviation|


def fit_power_law(rows) -> ExponentFit:
    """Fit value ~ C * h^slope from (h, value) pairs; >= 3 positive rows, finite slope."""
    rows = list(rows)
    if len(rows) < 3:
        raise ValueError(f"need >= 3 rows for a power-law fit, got {len(rows)}")
    h = np.array([r[0] for r in rows], dtype=float)
    v = np.array([r[1] for r in rows], dtype=float)
    if np.any(v <= 0) or np.any(h <= 0):
        raise ValueError("power-law fit needs positive h and values")
    lh, lv = np.log(h), np.log(v)
    slope, intercept = np.polyfit(lh, lv, 1)
    if not np.isfinite(slope):
        raise ValueError("power-law fit needs a finite slope")
    residual = float(np.max(np.abs(lv - (slope * lh + intercept))))
    return ExponentFit(float(slope), float(intercept), residual)


@dataclass(frozen=True)
class SweepRow:
    h: float
    measurements: dict = field(default_factory=dict)
    error: str | None = None


def run_sweep(pipeline, h_list) -> list[SweepRow]:
    """Run a measurement pipeline per h; a refusal records the reason and
    the sweep continues."""
    rows = []
    for h in h_list:
        try:
            rows.append(SweepRow(float(h), dict(pipeline(float(h)))))
        except Exception as exc:  # refusals are per-h, not fatal
            rows.append(SweepRow(float(h), {}, f"{type(exc).__name__}: {exc}"))
    return rows


# ---------------------------------------------------------------------------
# kernel samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSample:
    """Sup over transverse offsets of the band kernel; the regime follows from (t, j, h, k)."""

    j: int
    a: float
    t: float
    sup_abs: float
    h: float
    k: int

    def __post_init__(self):
        if not np.isfinite(self.sup_abs) or self.sup_abs < 0:
            raise ValueError("kernel sample must be finite and >= 0")

    @property
    def regime(self) -> str:
        return "small_sep" if self.t <= _regime_threshold(self.j, self.h, self.k) else "large_sep"


def _regime_threshold(j: int, h: float, k: int) -> float:
    return 2.0 ** (-2 * j) * h ** (1.0 - 2.0 / (k + 1))


def _window_autocorrelation(w: WaveletSpec, tau: float) -> float:
    """Int f(u) f(u + tau) du by a 4096-node trapezoid on the common support."""
    cached = getattr(w, "_autocorr_samples", None)
    if cached is None:
        u = np.linspace(-w.support, w.support, 1 << 12)
        cached = (u, np.asarray(np.real(w.f(u)), dtype=float))
        object.__setattr__(w, "_autocorr_samples", cached)
    u, fu = cached
    shifted = np.asarray(np.real(w.f(u + tau)), dtype=float)
    return float(np.trapezoid(fu * shifted, u))


def _phi_difference(graph: GraphFn, t: float, delta: float, xi: np.ndarray) -> np.ndarray:
    """phi(t/2, delta/2, xi) - phi(-t/2, -delta/2, xi) for phi = y xi - x1 a(xi)."""
    return delta * xi - t * np.asarray(graph.value(0.0, 0.0, xi), dtype=float)


def _band_intervals(part: DyadicPartition, j: int) -> list[tuple[float, float]]:
    s = part.scale
    top = 1.0 + part.transition_width
    if j == 0:
        return [(-top * s, top * s)]
    lo, hi = 0.5 * 2.0 ** j * s, top * 2.0 ** j * s
    return [(-hi, -lo), (lo, hi)]


def kernel_sample(graph: GraphFn, w: WaveletSpec, part: DyadicPartition, j: int, a: float,
                  t: float, oversample: int = 8,
                  max_quad_points: int = 4_000_000) -> KernelSample:
    """Evaluate sup over (x2, z2) of |K_j| at window scale a and separation t.

    The translation integral factors into the window autocorrelation
    a * corr(t/a); the frequency integral runs over the band of the j-th
    cutoff with at least ``oversample`` quadrature points per h-period of the
    phase difference, and the transverse offsets track the stationary point
    t * a'(xi) through the band.  The generator must be x-independent.
    """
    if graph.x_dependent:
        raise ValueError(f"graph {graph.name!r} depends on x; kernel samples need a(xi) alone")
    h, k = part.h, part.k
    if t < 0:
        raise ValueError("separation t must be >= 0")
    if t > 2.0 * a * w.support:
        return KernelSample(j, a, t, 0.0, h, k)
    corr = a * _window_autocorrelation(w, t / a)
    intervals = _band_intervals(part, j)
    # transverse offsets: 0 and the stationary point delta = t a'(xi) at every probe point
    probe = np.concatenate([np.linspace(lo, hi, 65) for lo, hi in intervals])
    a_xi = graph.jet(0.0, 0.0, probe)[1]  # None: structurally zero
    dphi = np.broadcast_to(np.asarray(0.0 if a_xi is None else a_xi, dtype=float), probe.shape)
    deltas = np.unique(np.concatenate([[0.0], t * dphi]))
    total = np.zeros(len(deltas), dtype=np.complex128)
    for lo, hi in intervals:
        width = hi - lo
        xi_probe = np.linspace(lo, hi, 129)
        slope_max = 0.0
        for d in (deltas.min(), deltas.max(), 0.0):
            diff = _phi_difference(graph, t, d, xi_probe)
            slope_max = max(slope_max, float(np.max(np.abs(np.gradient(diff, xi_probe)))))
        n_q = int(math.ceil(oversample * max(slope_max, 1e-12) * width / (2 * np.pi * h))) + 64
        if n_q > max_quad_points:
            raise QuadratureError(
                f"kernel quadrature needs {n_q} points (> {max_quad_points}); "
                "the period check fails at this resolution")
        xi_q = np.linspace(lo, hi, n_q)
        dxi = xi_q[1] - xi_q[0]
        chi2 = np.asarray(part.band_multiplier(xi_q, j), dtype=float) ** 2
        # every offset in one (offset, xi) array, in row blocks of at most max_quad_points
        rows = max(1, max_quad_points // n_q)
        for s in range(0, len(deltas), rows):
            phase = _phi_difference(graph, t, deltas[s:s + rows, None], xi_q)
            total[s:s + rows] += np.sum(np.exp(1j * phase / h) * chi2, axis=1) * dxi
    sup = float(np.max(np.abs(total))) * abs(corr) / (2.0 * np.pi * h)
    return KernelSample(j, a, t, sup, h, k)


def default_kernel_samples(graph: GraphFn, w: WaveletSpec, part: DyadicPartition,
                           j_list=(0, 2, 4), a_list=(0.5,)) -> list[KernelSample]:
    """Sample set spanning both regimes with stable window-overlap factors.

    Small-separation samples keep t well below both the regime threshold and
    the window scale (so the autocorrelation factor stays near its peak);
    large-separation ones fix t/a = 0.6 whenever that lands above the
    threshold, keeping the overlap factor common across j and a.
    """
    h, k = part.h, part.k
    samples = []
    for j in j_list:
        thr = _regime_threshold(j, h, k)
        for a in a_list:
            t_smalls = {0.0, min(0.1 * a, 0.5 * thr)}
            for t in sorted(t_smalls):
                samples.append(kernel_sample(graph, w, part, j, a, t))
            t_large = 0.6 * a
            if t_large > thr:
                samples.append(kernel_sample(graph, w, part, j, a, t_large))
    return samples


@dataclass(frozen=True)
class KernelCheckReport:
    """Fitted constants per regime and the factor-2 verdict."""

    constants: dict       # least-squares (geometric mean) C per regime
    max_ratio: dict       # largest sample/bound ratio per regime
    min_ratio: dict
    passed: bool
    inconclusive: bool


def _regime_bound(sample: KernelSample) -> float:
    if sample.regime == "small_sep":
        return sample.a * 2.0 ** sample.j * sample.h ** (-1.0 + 1.0 / (sample.k + 1))
    return sample.a * sample.h ** -0.5 * sample.t ** -0.5


def kernel_bound_check(samples: list[KernelSample], factor: float = 2.0) -> KernelCheckReport:
    """Fit one constant per regime (least squares in log space) and pass iff
    every sample sits within ``factor`` of C times its regime bound.

    Structural zeros (windows that miss each other) are skipped; an empty
    regime makes the check inconclusive, not passed.
    """
    groups: dict[str, list[float]] = {"small_sep": [], "large_sep": []}
    for s in samples:
        if s.sup_abs > 0.0:
            groups[s.regime].append(s.sup_abs / _regime_bound(s))
    constants, hi, lo = {}, {}, {}
    passed = True
    inconclusive = False
    for regime, ratios in groups.items():
        if not ratios:
            inconclusive = True
            continue
        c = float(np.exp(np.mean(np.log(ratios))))
        constants[regime] = c
        hi[regime] = max(ratios)
        lo[regime] = min(ratios)
        if hi[regime] > factor * c or lo[regime] < c / factor:
            passed = False
    if inconclusive:
        passed = False
    return KernelCheckReport(constants, hi, lo, passed, inconclusive)
