"""WKB propagator for the straightening operator W(x1).

W(x1) intertwines hD_{x1} with the graph generator a(x, hD_{x2}):
hD_{x1} W = -W a(x, hD_{x2}).  Its kernel is realized as

    W g(x2)  = (2 pi h)^{-1} Int e^{ i (phi(x1, x2, xi2) - y2 xi2) / h }
               b(x1, x2, xi2) g(y2) dy2 dxi2

with the phase solving the eikonal problem

    d_{x1} phi + a(x1, y2, d_{y2} phi) = 0,   phi(0, y2, xi2) = y2 xi2,

and b = 1 at leading order (optionally corrected by the half-density
Jacobian factor).  For x-independent generators phi = y2 xi2 - x1 a(xi2)
exactly, and W is the unitary multiplier e^{-i x1 a(xi2)/h} that ``apply_w``,
``apply_w_star`` and ``quasimode_pushforward`` apply when handed the
generator itself.  On a ``PhaseTable`` W is the oscillatory quadrature, which
reproduces that multiplier to rounding (regression-tested), and W* is its
exact discrete adjoint, so <W g, u> = <g, W* u> holds at quadrature level.

A ``PhaseTable`` is tabulated by the method of characteristics: Hamiltonian
trajectories (RK4, fixed step) carry the action and the tangent column
(dy/dy0, dxi/dy0), and each saved x1 slice is interpolated back to the
rectangular (y2, xi2) grid by a cubic spline in the launch point.  The march
carries five flat arrays (y, xi, dy/dy0, dxi/dy0, the action), reads the
generator's jet once per stage and runs over the launch mesh in blocks of
``_BLOCK`` trajectories; ``HamiltonianFlow.evaluate`` marches (y, xi) alone.
Caustics (|dy/dy0| < 0.1) shorten the usable horizon rather than being
crossed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .grid import Field2D, GridSpec, isfft1d, sfft1d
from .symbols import GraphBranch, GraphFn, SymbolSpec, custom_symbol

__all__ = [
    "HamiltonianFlow",
    "PhaseTable",
    "CausticError",
    "integrate_flow",
    "build_phase",
    "eikonal_residual",
    "apply_w",
    "apply_w_star",
    "conjugated_symbol",
    "quasimode_pushforward",
]

CAUSTIC_THRESHOLD = 0.1
_BLOCK = 16384  # trajectories marched together, so that a block's state stays in cache


class CausticError(RuntimeError):
    """Requested propagation time lies beyond the caustic-free horizon."""


# ---------------------------------------------------------------------------
# Hamiltonian flow with one tangent column and the action
# ---------------------------------------------------------------------------

def _lin(p, u, q, v):
    """p u + q v, skipping the terms of structurally zero (None) coefficients."""
    if p is None:
        return None if q is None else q * v
    return p * u if q is None else p * u + q * v


def _neg(p):
    return None if p is None else -p


def _flow_rhs(graph: GraphFn, t: float, y, xi, *tangent_action):
    """Time derivatives of (y, xi) or (y, xi, dy, dxi, S); None where structurally zero."""
    a, a_xi, a_y, a_yxi, a_xixi, a_yy = graph.jet(t, y, xi)
    if not tangent_action:
        return a_xi, _neg(a_y)
    dy, dxi, _action = tangent_action
    # tangent system d(dy, dxi)/dt = A (dy, dxi) with A = [[a_yxi, a_xixi], [-a_yy, -a_yxi]]
    return (a_xi, _neg(a_y),
            _lin(a_yxi, dy, a_xixi, dxi), _lin(_neg(a_yy), dy, _neg(a_yxi), dxi),
            -a if a_xi is None else xi * a_xi - a)


def _rk4_march(graph: GraphFn, state, t0: float, dt: float, steps: int):
    """RK4 on the state (y, xi[, dy, dxi, S]); builds new arrays, never writes."""
    for s in range(steps):
        t = t0 + s * dt
        k = [_flow_rhs(graph, t, *state)]
        for h in (dt / 2, dt / 2, dt):
            stage = [x if d is None else x + h * d for x, d in zip(state, k[-1])]
            k.append(_flow_rhs(graph, t + h, *stage))
        state = [x if d1 is None else x + dt / 6 * (d1 + 2 * d2 + 2 * d3 + d4)
                 for x, d1, d2, d3, d4 in zip(state, *k)]
    return state


def _initial_state(y, xi):
    """(y, xi, tangent d/dy0 = (1, 0), S = 0) as five separate arrays."""
    one, zero = np.ones_like, np.zeros_like
    return [y, xi, one(y), zero(y), zero(y)]


def _n_steps(x1_max: float, dt: float) -> int:
    """Steps of a march to x1_max: dt is shortened so that x1_max is a whole number of them."""
    return max(1, int(math.ceil((x1_max / dt) * (1.0 - 1e-12))))


@dataclass(frozen=True)
class HamiltonianFlow:
    """Trajectories of dy/dt = a_xi, dxi/dt = -a_y from a grid of initial data.

    Snapshots at the saved x1 values carry positions, momenta, the tangent
    column (dy/dy0, dxi/dy0), i.e. the image of d/dy0 under the flow, and
    the accumulated action Int (xi a_xi - a) dt.  A flow made from its graph
    and step alone has no snapshots and only evaluates.
    """

    graph: GraphFn
    dt: float
    y_init: np.ndarray | None = None
    xi_init: np.ndarray | None = None
    x1_values: np.ndarray | None = None
    y_of: np.ndarray | None = None      # (n_save, ny, nxi)
    xi_of: np.ndarray | None = None
    dy_dy0: np.ndarray | None = None
    dxi_dy0: np.ndarray | None = None
    action: np.ndarray | None = None
    box_half_width: float | None = None
    exited_box: np.ndarray | None = None
    energy_drift: float = 0.0

    def evaluate(self, y0, xi0, x1: float):
        """Flow arbitrary initial data to time x1 by re-integration of (y, xi) alone."""
        y0b, xi0b = np.broadcast_arrays(np.asarray(y0, dtype=float),
                                        np.asarray(xi0, dtype=float))
        steps = max(1, int(round(abs(x1) / self.dt)))
        y, xi = _rk4_march(self.graph, [y0b, xi0b], 0.0, x1 / steps, steps)
        return y, xi


def integrate_flow(a_graph: GraphFn, y_init: np.ndarray, xi_init: np.ndarray,
                   x1_max: float, dt: float | None = None,
                   save_at: np.ndarray | None = None,
                   box_half_width: float | None = None) -> HamiltonianFlow:
    """RK4 integration of the classical system over the initial-data mesh.

    dt defaults to min(1e-3, x1_max/100) and is rounded so saved times land
    exactly on steps.  The flattened mesh is marched in blocks of ``_BLOCK``
    trajectories.  Trajectories that leave the box are flagged, not clipped;
    the conservation of a along the flow (for autonomous a) is recorded as
    energy_drift.
    """
    if x1_max <= 0:
        raise ValueError("x1_max must be positive")
    y_init = np.asarray(y_init, dtype=float)
    xi_init = np.asarray(xi_init, dtype=float)
    if dt is None:
        dt = min(1e-3, x1_max / 100.0)
    n_steps = _n_steps(x1_max, dt)
    dt = x1_max / n_steps
    if save_at is None:
        save_at = np.array([0.0, x1_max])
    if np.any(np.asarray(save_at, dtype=float) < 0):
        raise ValueError("save_at contains negative times; the flow starts at x1 = 0")
    save_steps = sorted({int(round(t / dt)) for t in np.asarray(save_at, dtype=float)} | {0})
    if save_steps[-1] > n_steps:
        raise ValueError("save_at contains times beyond x1_max")

    mesh = (len(y_init), len(xi_init))
    y = np.repeat(y_init, mesh[1])
    xi = np.tile(xi_init, mesh[0])
    out = np.empty((5, len(save_steps), y.size))  # y, xi, dy/dy0, dxi/dy0, S per snapshot
    for lo in range(0, y.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        state, prev = _initial_state(y[block], xi[block]), 0
        for i, s in enumerate(save_steps):
            state = _rk4_march(a_graph, state, prev * dt, dt, s - prev)
            prev = s
            out[:, i, block] = state
    y_of, xi_of, dy_dy0, dxi_dy0, action = out.reshape((5, len(save_steps)) + mesh)
    times = np.asarray(save_steps) * dt

    a0 = np.asarray(a_graph.value(0.0, y, xi), dtype=float)
    a_end = np.asarray(a_graph.value(times[-1], out[0, -1], out[1, -1]), dtype=float)
    drift = float(np.max(np.abs(a_end - a0)))
    exited = None
    if box_half_width is not None:
        exited = np.abs(y_of[-1]) > box_half_width
        if exited.any():
            warnings.warn(
                f"{int(exited.sum())} trajectories left the box [-{box_half_width}, "
                f"{box_half_width}] by x1 = {times[-1]:.3g}", stacklevel=2)
    return HamiltonianFlow(
        graph=a_graph, dt=dt, y_init=y_init, xi_init=xi_init,
        x1_values=times, y_of=y_of, xi_of=xi_of, dy_dy0=dy_dy0, dxi_dy0=dxi_dy0,
        action=action, box_half_width=box_half_width,
        exited_box=exited, energy_drift=drift,
    )


# ---------------------------------------------------------------------------
# phase tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseTable:
    """Eikonal phase phi(x1, y, xi) and leading amplitude tabulated along characteristics.

    Slices sit at the saved x1 values of a flow, up to the caustic-safe
    horizon x1_max; a flow starts at x1 = 0, so there are none at x1 < 0.
    """

    graph: GraphFn
    h: float
    y_grid: np.ndarray
    xi_grid: np.ndarray
    x1_values: np.ndarray
    phi: np.ndarray                 # (n_x1, ny, nxi)
    amp: np.ndarray | None = None   # half-density correction, None means b = 1
    x1_max: float = math.inf
    caustic_limited: bool = False
    coverage_gaps: int = 0

    def slice_index(self, x1: float) -> int:
        i = int(np.argmin(np.abs(self.x1_values - x1)))
        if abs(self.x1_values[i] - x1) > 1e-9:
            raise ValueError(
                f"x1 = {x1} is not a stored slice (have {np.round(self.x1_values, 6)})")
        return i

    def slice_arrays(self, x1: float):
        """(phi, amp) on the full (y, xi) grid at one stored slice."""
        if abs(x1) > self.x1_max + 1e-12:
            raise CausticError(
                f"x1 = {x1} beyond the caustic-free horizon {self.x1_max:.4g}")
        i = self.slice_index(x1)
        amp = np.ones_like(self.phi[i]) if self.amp is None else self.amp[i]
        return self.phi[i], amp


def build_phase(flow: HamiltonianFlow, grid: GridSpec,
                transport_correction: bool = False,
                y_out: np.ndarray | None = None) -> PhaseTable:
    """Assemble phi on the rectangular (y, xi) grid from characteristics.

    phi(x1, y(t; y0, xi), xi) = y0 xi + action(t; y0, xi); each slice is
    pulled back from the launch points to the output y grid (default: the
    launch grid itself) by a cubic spline.  A slice whose Jacobian dy/dy0
    dips below the caustic threshold truncates the horizon (reported, never
    crossed).  b = 1 unless the half-density correction |dy/dy0|^{-1/2} is
    requested.
    """
    y_grid = flow.y_init if y_out is None else np.asarray(y_out, dtype=float)
    xi_grid = flow.xi_init
    launch = flow.y_init
    n_save = len(flow.x1_values)
    phi = np.empty((n_save, len(y_grid), len(xi_grid)))
    amp = np.empty_like(phi) if transport_correction else None
    horizon = flow.x1_values[-1]
    caustic_limited = False
    gaps = 0
    usable = n_save
    for s in range(n_save):
        dy_dy0 = flow.dy_dy0[s]
        if np.min(dy_dy0) < CAUSTIC_THRESHOLD:
            horizon = flow.x1_values[s - 1] if s > 0 else 0.0
            caustic_limited = True
            usable = s
            warnings.warn(
                f"caustic (|dy/dy0| < {CAUSTIC_THRESHOLD}) at x1 = "
                f"{flow.x1_values[s]:.4g}; horizon shortened to {horizon:.4g}",
                stacklevel=2)
            break
        for m, xiv in enumerate(xi_grid):
            y_t = flow.y_of[s][:, m]
            if np.any(np.diff(y_t) <= 0):
                raise CausticError("trajectory fan folded despite Jacobian check")
            phi_traj = launch * xiv + flow.action[s][:, m]
            spline = CubicSpline(y_t, phi_traj)
            phi[s, :, m] = spline(y_grid)
            gaps += int(np.count_nonzero((y_grid < y_t[0]) | (y_grid > y_t[-1])))
            if transport_correction:
                amp[s, :, m] = np.interp(y_grid, y_t, dy_dy0[:, m]) ** -0.5
    if flow.x1_values[0] == 0.0:
        phi[0] = y_grid[:, None] * xi_grid[None, :]  # exact initial condition
        if transport_correction:
            amp[0] = 1.0
    return PhaseTable(
        graph=flow.graph, h=grid.h, y_grid=y_grid, xi_grid=xi_grid,
        x1_values=flow.x1_values[:usable],
        phi=phi[:usable], amp=None if amp is None else amp[:usable],
        x1_max=float(horizon), caustic_limited=caustic_limited,
        coverage_gaps=gaps,
    )


def eikonal_residual(table: PhaseTable, x1_index: int | None = None) -> float:
    """Max interior residual |d_{x1} phi + a(x1, y, d_y phi)| by centered FD.

    Needs at least three uniformly spaced stored slices.
    """
    t = table.x1_values
    if len(t) < 3:
        raise ValueError("need >= 3 slices for the residual check")
    slices = [table.slice_arrays(x1)[0] for x1 in t]
    phi = np.stack(slices)
    dy = table.y_grid[1] - table.y_grid[0]
    idx = range(1, len(t) - 1) if x1_index is None else [x1_index]
    worst = None
    for s in idx:
        left, right = t[s] - t[s - 1], t[s + 1] - t[s]
        if abs(left - right) > 1e-9 * max(left, right):
            continue  # slice without symmetric neighbors (e.g. next to t = 0)
        dphi_dt = (phi[s + 1] - phi[s - 1]) / (left + right)
        dphi_dy = (phi[s][2:, :] - phi[s][:-2, :]) / (2 * dy)
        y_int = table.y_grid[1:-1]
        a_vals = np.asarray(table.graph.value(t[s], y_int[:, None], dphi_dy), dtype=float)
        res = np.abs(dphi_dt[1:-1, :] + a_vals)
        worst = res.max() if worst is None else max(worst, float(res.max()))
    if worst is None:
        raise ValueError("no slice has symmetric neighbors for the centered difference")
    return float(worst)


# ---------------------------------------------------------------------------
# applying W and its adjoint
# ---------------------------------------------------------------------------

def _w_matrix(table: PhaseTable, x1: float, grid: GridSpec) -> np.ndarray:
    phi, amp = table.slice_arrays(x1)
    if phi.shape != (grid.points_per_axis, grid.points_per_axis):
        raise ValueError("phase table grids do not match the field lattice")
    return np.exp(1j * phi / grid.h) * amp


def _multiplier(graph: GraphFn, x1, grid: GridSpec) -> np.ndarray:
    """W(x1) = e^{-i x1 a(xi)/h} of an x-independent generator; x1 may be a column of rows."""
    if graph.x_dependent:
        raise ValueError(f"graph {graph.name!r} depends on x, so W(x1) is no multiplier; "
                         "pass the PhaseTable of its flow")
    a_vals = np.asarray(graph.value(0.0, 0.0, grid.xi_coords), dtype=float)
    return np.exp(-1j * x1 * a_vals / grid.h)


def apply_w(generator: GraphFn | PhaseTable, g: np.ndarray, x1: float,
            grid: GridSpec) -> np.ndarray:
    """W(x1) applied to a 1-D field on the x2 lattice.

    An x-independent GraphFn gives the exact multiplier e^{-i x1 a(xi)/h}
    at any x1; a PhaseTable evaluates the oscillatory kernel at its stored
    slice x1.  At x1 = 0 both are the identity.
    """
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != (grid.points_per_axis,):
        raise ValueError("apply_w expects a 1-D field on the grid")
    ghat = sfft1d(g, grid)
    if isinstance(generator, GraphFn):
        return isfft1d(_multiplier(generator, x1, grid) * ghat, grid)
    kernel = _w_matrix(generator, x1, grid)  # (n_y=x2_out, n_xi)
    coef = grid.dxi / math.sqrt(2.0 * math.pi * grid.h)
    return coef * (kernel @ ghat)


def apply_w_star(generator: GraphFn | PhaseTable, g: np.ndarray, x1: float,
                 grid: GridSpec) -> np.ndarray:
    """Exact discrete adjoint of :func:`apply_w` with the same generator and x1."""
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != (grid.points_per_axis,):
        raise ValueError("apply_w_star expects a 1-D field on the grid")
    if isinstance(generator, GraphFn):
        return isfft1d(_multiplier(generator, -x1, grid) * sfft1d(g, grid), grid)
    kernel = _w_matrix(generator, x1, grid)
    coef = grid.dx / math.sqrt(2.0 * math.pi * grid.h)
    ghat = coef * (kernel.conj().T @ g)
    return isfft1d(ghat, grid)


# ---------------------------------------------------------------------------
# Egorov pullback and the quasimode pushforward
# ---------------------------------------------------------------------------

def _as_graph_fn(sym) -> GraphFn:
    if isinstance(sym, GraphFn):
        return sym
    raise TypeError("conjugated_symbol needs GraphFn generators "
                    "(use graph_catalog / graph_* factories)")


def _pullback_graph_symbol(fn, label: str) -> SymbolSpec:
    """Wrap a numeric pullback a~(x2, xi2) as the graph symbol xi1 - a~."""

    def value(x1v, x2v, xi1v, xi2v):
        x2b, xi1b, xi2b = np.broadcast_arrays(np.asarray(x2v, dtype=float),
                                              np.asarray(xi1v, dtype=float),
                                              np.asarray(xi2v, dtype=float))
        return xi1b - fn(x2b, xi2b)

    def graph(x, xi0):
        x2f = x[1]
        return GraphBranch(lambda t: fn(x2f, np.asarray(t, dtype=float)), None,
                           label=label)

    return custom_symbol(value, label=label, x_dependent=True, graph=graph)


def conjugated_symbol(a_graph: GraphFn, q_graph: GraphFn, x1: float, dt: float):
    """Pull a and q back along the flow of a at time x1 >= 0.

    Returns (a_tilde, q_tilde) as graph symbols: each evaluates
    s(x1, y(x1; x2, xi2), xi(x1; x2, xi2)) at the frozen conjugation time.
    The flow takes steps of dt, shortened as :func:`integrate_flow` does so
    that x1 is a whole number of them, and a~ and q~ share one flow per
    point set.
    """
    a_graph = _as_graph_fn(a_graph)
    q_graph = _as_graph_fn(q_graph)
    if not (x1 >= 0 and dt > 0):
        raise ValueError(f"conjugation needs x1 >= 0 and dt > 0, got x1 = {x1}, dt = {dt}")
    # at x1 = 0 one step of length zero: the pullback is the identity
    flow = HamiltonianFlow(a_graph, x1 / _n_steps(x1, dt) if x1 > 0 else dt)

    memo = {}  # one entry: flowed endpoints of the latest exact (x2, xi2), shared by a~ and q~

    def pullback(fn):
        def evaluate(x2, xi2):
            x2, xi2 = np.asarray(x2, dtype=float), np.asarray(xi2, dtype=float)
            key = (x2.shape, x2.tobytes(), xi2.shape, xi2.tobytes())
            if memo.get("key") != key:
                memo["key"], memo["yxi"] = key, flow.evaluate(x2, xi2, x1)
            y, xi = memo["yxi"]
            return np.asarray(fn.value(x1, y, xi), dtype=float)
        return evaluate

    return tuple(_pullback_graph_symbol(pullback(g), f"pullback[{g.name}; x1={x1:g}]")
                 for g in (a_graph, q_graph))


def quasimode_pushforward(graph: GraphFn, u: Field2D,
                          localization_tol: float = 1e-6,
                          localization_radius: float | None = None) -> Field2D:
    """v(x1, .) = W(x1) u(x1, .) for every grid row x1.

    Requires an O(1)-localized input (checked) and an x-independent
    generator, whose multiplier is exact for every row; a tabulated phase
    has no slices at the negative rows x1 < 0.
    """
    from .quasimodes import localization_check

    g = u.grid
    phases = _multiplier(graph, g.x_coords[:, None], g)
    if u.l2_norm() == 0.0:
        return Field2D(g, np.zeros_like(u.values))
    radius = localization_radius if localization_radius is not None else g.half_width / 2.0
    frac = localization_check(u, radius, side="x")
    if frac > localization_tol:
        raise ValueError(
            f"input is not localized: {frac:.3e} of its mass lies outside "
            f"radius {radius:g} (tolerance {localization_tol:g})")
    uhat_rows = sfft1d(u.values, g, axis=1)
    return Field2D(g, isfft1d(phases * uhat_rows, g, axis=1))
