"""Reference implementations kept beside the tests as oracles for the library,
and the fixtures the tests build their inputs with."""

import math
import warnings
from fractions import Fraction

import numpy as np

from qmlab.grid import Field2D, GridSpec, semiclassical_fft
from qmlab.propagator import _on_mesh


def xi_mesh(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(xi1, xi2) on the full N x N frequency lattice, indexing "ij"."""
    xi = grid.xi_coords
    return np.meshgrid(xi, xi, indexing="ij")


def random_field(grid: GridSpec, seed: int = 0) -> Field2D:
    """Seeded complex Gaussian field; used by tests and property checks."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    return Field2D(grid, vals)


def plane_wave(grid: GridSpec, xi0: tuple[float, float]) -> Field2D:
    """exp(i <x, xi0>/h); exact lattice frequencies give a one-point spectrum."""
    x1, x2 = grid.x_mesh()
    return Field2D(grid, np.exp(1j * (x1 * xi0[0] + x2 * xi0[1]) / grid.h))


def t_alpha_lower_exponent(p, k: int) -> Fraction:
    """Growth exponent (1/2 - 2/p) - (1/2 - 3/p)/(k + 1) of the saturating example
    T_alpha, alpha = 1/(k + 1), for exact p >= 6 (int, Fraction or inf).

    Algebraically identical to delta_p_k on that range: the example shows the
    upper bound is sharp.
    """
    ip = Fraction(0) if p == math.inf else 1 / Fraction(p)
    if not ip <= Fraction(1, 6):
        raise ValueError(f"the lower-bound exponent needs p >= 6, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    half = Fraction(1, 2)
    return half - 2 * ip - Fraction(1, k + 1) * (half - 3 * ip)


def dense_lp_norm(u: Field2D, p: float) -> float:
    """Riemann-sum L^p norm of the whole sample array; max of |u| for p = inf."""
    mod = np.abs(u.values)
    if np.isinf(p):
        return float(mod.max())
    return float((np.sum(mod ** p) * u.grid.dx ** 2) ** (1.0 / p))


def restrict_norm(u: Field2D, rect: tuple[float, float, float, float]) -> float:
    """L^2 norm over an axis-aligned rectangle (x1_min, x1_max, x2_min, x2_max).

    Samples with coordinate in the half-open interval [min, max) are counted,
    so disjoint rectangles partition the squared norm exactly.  An empty
    selection returns 0 with a warning.
    """
    x1_min, x1_max, x2_min, x2_max = rect
    L = u.grid.half_width
    if x1_min < -L or x2_min < -L or x1_max > L + u.grid.dx or x2_max > L + u.grid.dx:
        raise ValueError(f"rectangle {rect} is not contained in the box [-{L}, {L}]^2")
    x = u.grid.x_coords
    sel1 = (x >= x1_min) & (x < x1_max)
    sel2 = (x >= x2_min) & (x < x2_max)
    if not sel1.any() or not sel2.any():
        warnings.warn(f"rectangle {rect} contains no grid samples", stacklevel=2)
        return 0.0
    block = u.values[np.ix_(sel1, sel2)]
    return float(np.sqrt(np.sum(np.abs(block) ** 2)) * u.grid.dx)


def dense_left_quantization(sym, u: Field2D) -> Field2D:
    """p(x, hD) u by the direct O(N^4) quadrature, for any symbol:

        (2 pi h)^{-1} sum_xi e^{i<x,xi>/h} p(x, xi) FT[u](xi) dxi^2

    evaluated one x1 row at a time, p on blocks of 16 x2 samples.
    """
    g = u.grid
    n = g.points_per_axis
    x = g.x_coords
    xi = g.xi_coords
    spec = semiclassical_fft(u).values
    E = np.exp(1j * np.outer(x, xi) / g.h)  # shared by both axes
    scale = g.dxi ** 2 / (2.0 * np.pi * g.h)
    out = np.empty((n, n), dtype=np.complex128)
    for i1 in range(n):
        w = (E[i1, :, None] * spec) * scale  # (n_xi1, n_xi2)
        for j0 in range(0, n, 16):
            j1 = min(j0 + 16, n)
            p_block = np.asarray(
                sym.value(x[i1], x[j0:j1][:, None, None], xi[None, :, None], xi[None, None, :]),
                dtype=np.complex128,
            )
            out[i1, j0:j1] = np.einsum("xmn,mn,xn->x", p_block, w, E[j0:j1])
    return Field2D(g, out)


def flow_positions(flow) -> np.ndarray:
    """y = E y0 + F of a flow's snapshots on its (y0, xi0) mesh, (n_save, ny, nxi)."""
    return _on_mesh(flow.dy_dy0, flow.y_shift, flow.y_init)


def flow_action(flow) -> np.ndarray:
    """S = G y0 + H of a flow's snapshots on its (y0, xi0) mesh, (n_save, ny, nxi)."""
    return _on_mesh(flow.action_slope, flow.action_shift, flow.y_init)


def partition_sum(part, xi2: np.ndarray) -> np.ndarray:
    """chi0 + sum_j chi over the bands 0..J of a dyadic partition; equals 1 on |xi2| <= 1."""
    total = part.band_multiplier(xi2, 0)
    for j in range(1, part.J + 1):
        total = total + part.band_multiplier(xi2, j)
    return total
