"""Model quasimodes and defect measurements.

The workhorse family is built by inverse-transforming the indicator of a
polar rectangle {|r - 1| < h, |angle - angle0| < h^alpha} on the frequency
lattice: an approximate null field of |xi|^2 - 1 whose angular spread is
tuned by alpha.  Defect reports measure ||p1^M1 p2^M2 u||_2 / ||u||_2 and
compare against the expected h^(M1+M2) decay.

Every quasimode built here is defined by its spectrum u^: the builders
normalize u^ and synthesize the field from it on the first read of its
samples.  The polar rectangle's u^ is one complex block on the sector's
bounding box, allocated once and evaluated only on the annulus.  Defects and
the xi side of the localization check read the box of the spectrum
``semiclassical_fft`` returns.  Each power of a defect is one
``apply_left_quantization``; for x-independent symbols the defect is then
||m u^|| / ||u^|| with m = p2^M2 p1^M1 (discrete Plancherel), and nothing is
synthesized.

Grids are chosen per h so the lattice covers the unit circle with ~25%
margin while the annulus of width 2h keeps at least two radial lattice
lines (L = 5, N <= 2048 over h >= 2^-9; the lattice then does not reach
the full band [-2,2]^2 at small h, which is recorded as a warning on the
spectrum, not an error -- the quasimode support itself is always covered).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (
    Field2D,
    GridSpec,
    SpectralField2D,
    semiclassical_fft,
    semiclassical_ifft,
    smoothstep,
)
from .symbols import GraphFn, SymbolSpec, apply_left_quantization, graph_flat

__all__ = [
    "TAlphaSpec",
    "DefectReport",
    "UnderResolvedError",
    "grid_for_t_alpha",
    "t_alpha_indicator",
    "build_t_alpha",
    "defect",
    "joint_defect",
    "localization_check",
    "build_flat_quasimode",
    "build_graph_adapted_quasimode",
]


class UnderResolvedError(ValueError):
    """Grid cannot resolve the requested construction."""


@dataclass(frozen=True)
class TAlphaSpec:
    """Parameters of the polar-rectangle quasimode family.

    alpha in [0, 1] sets the angular spread h^alpha; for use against a
    contact-order-k partner the caller should keep alpha >= 1/(k+1).
    """

    h: float
    alpha: float
    omega0: tuple[float, float] = (1.0, 0.0)
    normalization: str = "unit_l2"  # or "analytic_prefactor"
    smoothed_edges: bool = False

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (0.0 < self.h <= 1.0):
            raise ValueError(f"h must lie in (0, 1], got {self.h}")
        if self.normalization not in ("unit_l2", "analytic_prefactor"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        w = math.hypot(*self.omega0)
        if abs(w - 1.0) > 1e-12:
            raise ValueError("omega0 must be a unit vector")


def grid_for_t_alpha(h: float, half_width: float = 5.0, coverage: float = 1.25,
                     n_max: int = 2048) -> GridSpec:
    """Smallest power-of-two grid whose lattice reaches coverage * unit circle."""
    n_needed = 2.0 * half_width * coverage / (np.pi * h)
    n = 32
    while n < n_needed:
        n *= 2
    if n > n_max:
        raise UnderResolvedError(
            f"h = {h} needs N = {n} > n_max = {n_max} at L = {half_width}"
        )
    return GridSpec(half_width, n, h)


def t_alpha_indicator(spec: TAlphaSpec, grid: GridSpec) -> SpectralField2D:
    """(Mollified) indicator of the polar rectangle on the lattice, scaled as
    ``spec.normalization`` asks (see :func:`build_t_alpha`)."""
    h, alpha = spec.h, spec.alpha
    if grid.h != h:
        raise ValueError(f"grid.h = {grid.h} differs from spec.h = {h}")
    if grid.dxi > h:
        raise UnderResolvedError(
            f"frequency spacing {grid.dxi:.3e} exceeds the annulus width scale h = {h:.3e}"
        )
    if grid.dxi > h / 4.0:
        warnings.warn(
            f"frequency spacing {grid.dxi:.3e} > h/4; annulus carries only "
            f"{2 * h / grid.dxi:.1f} radial lattice lines",
            stacklevel=2,
        )
    # The sector's coordinate bounding box is spanned by its corners and, at both
    # radii, the axis directions inside its arc.  Both edge modes are exactly 0
    # outside it, so its lattice box, two lines wider, gives the full-mesh values.
    n, xi, arc = grid.n, grid.xi_coords, h ** alpha
    theta0 = math.atan2(spec.omega0[1], spec.omega0[0])
    angles = [theta0 - arc, theta0 + arc] + [q * math.pi / 2 for q in range(4) if abs(
        math.remainder(q * math.pi / 2 - theta0, 2 * math.pi)) <= arc]
    corners = [(r * math.cos(t), r * math.sin(t)) for r in (1.0 - h, 1.0 + h) for t in angles]
    (o1, e1), (o2, e2) = ((max(0, math.floor(min(c) / grid.dxi) - 2 + n // 2),
                           max(0, min(n, math.ceil(max(c) / grid.dxi) + 3 + n // 2)))
                          for c in zip(*corners))
    block = np.zeros((max(e1 - o1, 0), max(e2 - o2, 0)), dtype=np.complex128)
    # Both edge modes are also 0 off the ring |r - 1| < h: each chunk of ~8k box points
    # evaluates only its rows with inner <= |xi1| <= outer, two lines wider, in two bands.
    step = max(1, 2 ** 13 // (len(block) + 1))
    for c0, c1 in ((c, min(c + step, e2)) for c in range(o2, e2, step)):
        a, b = xi[c0], xi[c1 - 1]
        outer = math.sqrt(max((1 + h) ** 2 - (0.0 if a <= 0.0 <= b else min(a * a, b * b)), 0))
        inner = math.sqrt(max((1 - h) ** 2 - max(a * a, b * b), 0))
        for lo, hi in ((-outer, -inner), (inner, outer)):
            r0 = max(o1, math.floor(lo / grid.dxi) - 2 + n // 2)
            r1 = min(e1, math.ceil(hi / grid.dxi) + 3 + n // 2)
            if r0 < r1:  # a band that spans the box is the chunk's full mesh
                xi1, xi2 = np.meshgrid(xi[r0:r1], xi[c0:c1], indexing="ij")
                rr = np.hypot(xi1, xi2)
                ring = np.abs(rr - 1.0) < h
                ang = np.abs(np.angle(np.exp(1j * (np.arctan2(xi2[ring], xi1[ring]) - theta0))))
                block.real[r0 - o1:r1 - o1, c0 - o2:c1 - o2][ring] = (
                    smoothstep((h - np.abs(rr[ring] - 1.0)) / (h / 8.0))
                    * smoothstep((arc - ang) / (h / 8.0)) if spec.smoothed_edges else ang < arc)
    count = int(np.count_nonzero(block))
    if count < 8:
        raise UnderResolvedError(
            f"only {count} lattice points inside the polar rectangle (need >= 8)"
        )
    block.real *= (1.0 / (np.sqrt(np.sum(block.real ** 2)) * grid.dxi)
                   if spec.normalization == "unit_l2" else h ** (-0.5 - alpha))
    return SpectralField2D(grid, block=block, origin=(o1, o2))


def build_t_alpha(spec: TAlphaSpec, grid: GridSpec) -> Field2D:
    """Inverse transform of the polar-rectangle indicator, normalized.

    The spectrum is normalized before the one synthesis, which runs on the
    first read of the samples.  unit_l2 divides by the indicator's discrete
    L^2 norm, the field's by discrete Plancherel; analytic_prefactor keeps
    the closed-form prefactor h^(-3/2-alpha)/(2 pi) of the defining
    oscillatory integral (its L^2 norm is then ~ 2 h^(-alpha/2), not 1; both
    normalizations are available since every scaling claim is slope-based).
    """
    return semiclassical_ifft(t_alpha_indicator(spec, grid))


@dataclass(frozen=True)
class DefectReport:
    """||p1^M1 p2^M2 u|| / ||u|| together with its ratio to h^(M1+M2)."""

    powers: tuple[int, int]
    defect: float
    h: float
    ratio_to_power: float

    def __post_init__(self):
        if not (np.isfinite(self.defect) and self.defect >= 0):
            raise ValueError(f"defect must be finite and >= 0, got {self.defect}")


def _defect_report(powers: tuple[int, int], factors, u: Field2D) -> DefectReport:
    """||p_last^M_last ... p_first^M_first u|| / ||u|| for factors [(p, M), ...].

    Each power is one :func:`apply_left_quantization`; while no factor depends
    on x, both norms are box norms of carried spectra (discrete Plancherel).
    """
    base = u.l2_norm()
    if base == 0.0:
        raise ValueError("defect of the zero field is undefined")
    v = u
    for sym, power in factors:
        for _ in range(power):
            v = apply_left_quantization(sym, v)
    d = v.l2_norm() / base
    h = u.grid.h
    return DefectReport(powers, d, h, d / h ** sum(powers))


def defect(op_sym: SymbolSpec, u: Field2D, M: int = 1) -> DefectReport:
    """Quasimode defect after M applications of p(x, hD)."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    return _defect_report((M, 0), [(op_sym, M)], u)


def joint_defect(p1: SymbolSpec, p2: SymbolSpec, u: Field2D, M1: int, M2: int) -> DefectReport:
    """Defect of the composition p1^M1 o p2^M2 applied to u."""
    if M1 < 0 or M2 < 0:
        raise ValueError("powers must be >= 0")
    return _defect_report((M1, M2), [(p2, M2), (p1, M1)], u)


def localization_check(u: Field2D, radius: float, side: str = "both") -> float:
    """Fraction of L^2 mass outside the radius ball, in x, xi, or the max of both."""
    if radius >= u.grid.half_width and side != "xi":
        raise ValueError("radius must be smaller than the box half width")

    def outside_fraction(values: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> float:
        mask = np.hypot(c1[:, None], c2[None, :]) > radius
        total = np.sum(np.abs(values) ** 2)
        if total == 0.0:
            return 0.0
        return float(np.sum(np.abs(values[mask]) ** 2) / total)

    fx = fxi = 0.0
    if side in ("x", "both"):
        fx = outside_fraction(u.values, u.grid.x_coords, u.grid.x_coords)
    if side in ("xi", "both"):
        block, (o1, o2) = semiclassical_fft(u).box
        xi = u.grid.xi_coords
        fxi = outside_fraction(block, xi[o1:o1 + block.shape[0]], xi[o2:o2 + block.shape[1]])
    if side == "x":
        return fx
    if side == "xi":
        return fxi
    if side != "both":
        raise ValueError(f"side must be 'x', 'xi' or 'both', got {side!r}")
    return max(fx, fxi)


def build_flat_quasimode(grid: GridSpec, k: int, sigma1_factor: float = 3.0,
                         sigma2_factor: float = 0.5) -> Field2D:
    """Gaussian-spectrum strong joint quasimode of hD_x1 and h^(k+1) D_x2^(k+1).

    The graph-adapted quasimode of the flat graph a = 0: the spectrum is
    exp(-xi1^2/(2 s1^2) - xi2^2/(2 s2^2)) with s1 = 3h and s2 = h^(1/(k+1))/2,
    so both defects are O(h) with O(1) constants and the field is
    O(1)-localized in x with Gaussian tails.  The x1 width 3h puts the
    unit-scale window response at its peak, which keeps the per-scale
    coefficient norms within a single constant of the a^{3/2} model across
    the whole scale range.
    """
    return build_graph_adapted_quasimode(grid, graph_flat(), k, sigma1_factor=sigma1_factor,
                                         sigma2_factor=sigma2_factor)


def build_graph_adapted_quasimode(grid: GridSpec, graph_fn: GraphFn, k: int,
                                  sigma1_factor: float = 2.0,
                                  sigma2_factor: float = 0.5) -> Field2D:
    """Gaussian spectrum hugging the graph xi1 = a(xi2): an O(h) quasimode of
    hD_x1 - a(hD_x2) with angular spread ~ h^(1/(k+1)) around xi2 = 0.

    Requires an x-independent graph (its value at x = 0 is used on the lattice).
    """
    h = grid.h
    s1 = sigma1_factor * h
    s2 = sigma2_factor * h ** (1.0 / (k + 1))
    xi1, xi2 = grid.xi_coords[:, None], grid.xi_coords[None, :]
    a_vals = np.asarray(graph_fn.value(0.0, 0.0, xi2), dtype=float)
    vals = np.subtract(xi1, a_vals, out=np.empty((grid.n, grid.n)))  # the Gaussian, in place
    np.negative(np.square(vals, out=vals), out=vals)
    vals /= 2 * s1 ** 2
    vals -= (xi2 ** 2) / (2 * s2 ** 2)
    np.exp(vals, out=vals)
    nrm = float(np.sqrt(np.sum(vals ** 2)) * grid.dxi)
    if nrm == 0.0:
        raise UnderResolvedError("the Gaussian spectrum underflows to zero on the lattice")
    vals *= 1.0 / nrm
    return semiclassical_ifft(SpectralField2D(grid, vals.astype(np.complex128)))
