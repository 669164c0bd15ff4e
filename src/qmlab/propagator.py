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

A ``PhaseTable`` is written in closed form along characteristics.  A catalog
graph is affine in x2, a = c0(xi2) + x2 c1(xi2), and so are its
characteristics in the launch point y0: xi' = -c1(xi), y = E y0 + F and the
action S = G y0 + H, with b = xi c1' - c1 and

    E' = c1' E,   F' = c0' + c1' F,   G' = E b,   H' = (xi c0' - c0) + F b.

``integrate_flow`` marches (xi, E, F, G, H) by RK4 over the xi2 launch values
alone, which is the march of the whole launch mesh up to rounding (an RK4
step commutes with affine maps of the state).  The phase is
phi(x1, y, xi0) = y xi(x1; xi0) + H - F xi(x1; xi0) at any output y, with
half-density amplitude E^{-1/2} = |dy/dy0|^{-1/2}; caustics (E < 0.1) shorten
the usable horizon.  ``HamiltonianFlow.evaluate`` marches (y, xi) of
arbitrary points with the same RK4 stepper; the Egorov pullback
``conjugated_symbols`` marches each point set it is asked about once, through
all of its conjugation times, and every pulled-back symbol reads that march.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Field2D, GridSpec, isfft1d, sfft1d
from .symbols import GraphFn, graph_symbol

__all__ = [
    "HamiltonianFlow",
    "PhaseTable",
    "CausticError",
    "integrate_flow",
    "build_phase",
    "eikonal_residual",
    "apply_w",
    "apply_w_star",
    "conjugated_symbols",
    "quasimode_pushforward",
]

CAUSTIC_THRESHOLD = 0.1


class CausticError(RuntimeError):
    """Requested propagation time lies beyond the caustic-free horizon."""


# ---------------------------------------------------------------------------
# Hamiltonian flow: (y, xi) of single points, (xi, E, F, G, H) per xi2 column
# ---------------------------------------------------------------------------

def _neg(p):
    return None if p is None else -p


def _mul(p, u):
    return None if p is None else p * u


def _add(p, q):
    """p + q, with None as a structural zero."""
    return q if p is None else p if q is None else p + q


def _point_rhs(graph: GraphFn, t: float, y, xi):
    """Time derivatives (a_xi, -a_y) of (y, xi); None where structurally zero."""
    _a, a_xi, a_y, _a_yxi = graph.jet(t, y, xi)
    return a_xi, _neg(a_y)


def _column_rhs(graph: GraphFn, t: float, xi, e, f, _g, _h):
    """Time derivatives of the column state (xi, E, F, G, H) of an affine graph.

    (c0, c0', c1, c1') is the jet (a, a_xi, a_y, a_yxi) at x2 = 0; a None
    stays a structural zero, so xi and E of an x-independent graph are exact.
    """
    c0, c0p, c1, c1p = graph.jet(t, 0.0, xi)
    b = _add(_mul(c1p, xi), _neg(c1))
    return (_neg(c1), _mul(c1p, e), _add(c0p, _mul(c1p, f)), _mul(b, e),
            _add(-c0 if c0p is None else xi * c0p - c0, _mul(b, f)))


def _rk4_march(rhs, graph: GraphFn, state, t0: float, dt: float, steps: int):
    """RK4 on a list of state arrays with derivatives rhs(graph, t, *state); never writes."""
    for s in range(steps):
        t = t0 + s * dt
        k = [rhs(graph, t, *state)]
        for h in (dt / 2, dt / 2, dt):
            stage = [x if d is None else x + h * d for x, d in zip(state, k[-1])]
            k.append(rhs(graph, t + h, *stage))
        state = [x if d1 is None else x + dt / 6 * (d1 + 2 * d2 + 2 * d3 + d4)
                 for x, d1, d2, d3, d4 in zip(state, *k)]
    return state


def _n_steps(x1_max: float, dt: float) -> int:
    """Steps of a march to x1_max: dt is shortened so that x1_max is a whole number of them."""
    return max(1, int(math.ceil((x1_max / dt) * (1.0 - 1e-12))))


def _on_mesh(slope, shift, y):
    """slope y + shift on the (y, xi2) mesh, from per-column (..., nxi) arrays."""
    return slope[..., None, :] * y[:, None] + shift[..., None, :]


@dataclass(frozen=True)
class HamiltonianFlow:
    """Characteristics of dy/dt = a_xi, dxi/dt = -a_y launched from a (y0, xi0) mesh.

    Snapshots at the saved x1 values are kept per xi2 column, (n_save, nxi):
    the momentum xi, which does not depend on y0, and the coefficients of the
    positions y = E y0 + F (E = dy_dy0) and the action
    S = Int (xi a_xi - a) dt = G y0 + H.  A flow made from its graph and step
    alone only evaluates.
    """

    graph: GraphFn
    dt: float
    y_init: np.ndarray | None = None
    x1_values: np.ndarray | None = None
    xi_of: np.ndarray | None = None          # (n_save, nxi)
    dy_dy0: np.ndarray | None = None         # E
    y_shift: np.ndarray | None = None        # F
    action_slope: np.ndarray | None = None   # G
    action_shift: np.ndarray | None = None   # H
    exited_box: np.ndarray | None = None
    energy_drift: float = 0.0

    def evaluate(self, y0, xi0, x1: float):
        """Flow arbitrary data to time x1 by re-integrating (y, xi), in steps of at most dt."""
        y0b, xi0b = np.broadcast_arrays(np.asarray(y0, dtype=float),
                                        np.asarray(xi0, dtype=float))
        steps = _n_steps(abs(x1), self.dt)
        return tuple(_rk4_march(_point_rhs, self.graph, [y0b, xi0b], 0.0, x1 / steps, steps))


def integrate_flow(a_graph: GraphFn, y_init: np.ndarray, xi_init: np.ndarray,
                   x1_max: float, dt: float | None = None,
                   save_at: np.ndarray | None = None,
                   box_half_width: float | None = None) -> HamiltonianFlow:
    """RK4 integration of the characteristics launched from the (y_init, xi_init) mesh.

    The graph needs a term list (a catalog graph, affine in x2); a hand-built
    GraphFn is refused.  The march runs over the xi2 launch values alone (see
    the module docstring).  dt defaults to min(1e-3, x1_max/100) and is
    shortened so that x1_max is a whole number of steps; every save_at time
    must lie on that step lattice.  Trajectories that leave the box are
    flagged, not clipped; the conservation of a along the flow (for
    autonomous a) is recorded as energy_drift.
    """
    if a_graph.terms is None:
        raise ValueError(f"integrate_flow needs a graph with a term list (affine in x2); "
                         f"{a_graph.name!r} is hand-built")
    if not (x1_max > 0 and math.isfinite(x1_max)):
        raise ValueError(f"x1_max must be positive and finite, got {x1_max}")
    if dt is None:
        dt = min(1e-3, x1_max / 100.0)
    elif not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    y_init, xi_init = np.asarray(y_init, dtype=float), np.asarray(xi_init, dtype=float)
    n_steps = _n_steps(x1_max, dt)
    dt = x1_max / n_steps
    save_at = np.array([0.0, x1_max]) if save_at is None else np.asarray(save_at, dtype=float)
    if np.any(save_at < 0):
        raise ValueError("save_at contains negative times; the flow starts at x1 = 0")
    lattice = np.round(save_at / dt)
    off = ~(np.abs(save_at - lattice * dt) <= 1e-9 * x1_max)
    if off.any():
        raise ValueError(f"save_at times {save_at[off]} are off the step lattice k * {dt:.6g}")
    save_steps = sorted({int(s) for s in lattice} | {0})
    if save_steps[-1] > n_steps:
        raise ValueError("save_at contains times beyond x1_max")

    state, prev = [xi_init, np.ones_like(xi_init)] + [np.zeros_like(xi_init)] * 3, 0
    out = np.empty((5, len(save_steps), xi_init.size))  # xi, E, F, G, H per snapshot
    for i, s in enumerate(save_steps):
        state = _rk4_march(_column_rhs, a_graph, state, prev * dt, dt, s - prev)
        prev = s
        out[:, i] = state
    xi_of, dy_dy0, y_shift, action_slope, action_shift = out
    times = np.asarray(save_steps) * dt

    y_end = _on_mesh(dy_dy0[-1], y_shift[-1], y_init)
    drift = float(np.max(np.abs(a_graph.value(times[-1], y_end, xi_of[-1])
                                - a_graph.value(0.0, y_init[:, None], xi_init))))
    exited = None
    if box_half_width is not None:
        exited = np.abs(y_end) > box_half_width
        if exited.any():
            warnings.warn(
                f"{int(exited.sum())} trajectories left the box [-{box_half_width}, "
                f"{box_half_width}] by x1 = {times[-1]:.3g}", stacklevel=2)
    return HamiltonianFlow(
        graph=a_graph, dt=dt, y_init=y_init, x1_values=times,
        xi_of=xi_of, dy_dy0=dy_dy0, y_shift=y_shift,
        action_slope=action_slope, action_shift=action_shift,
        exited_box=exited, energy_drift=drift,
    )


# ---------------------------------------------------------------------------
# phase tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseTable:
    """Eikonal phase phi(x1, y, xi) and leading amplitude on a rectangular (y, xi) grid.

    Slices sit at the saved x1 values of a flow, up to the caustic-safe
    horizon x1_max; a flow starts at x1 = 0, so there are none at x1 < 0.
    """

    graph: GraphFn
    h: float
    y_grid: np.ndarray
    x1_values: np.ndarray
    phi: np.ndarray                 # (n_x1, ny, nxi)
    amp: np.ndarray | None = None   # half-density correction, None means b = 1
    x1_max: float = math.inf
    caustic_limited: bool = False

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
    """Write phi on the output (y, xi) grid in closed form from a flow's column state.

    Along a characteristic phi = y0 xi0 + S, with y = E y0 + F, S = G y0 + H
    and (xi0 + G) / E the flowed momentum xi(x1; xi0), so
    phi(x1, y, xi0) = y xi(x1; xi0) + H - F xi(x1; xi0) at every output y
    (default: the launch grid), with no interpolation.  A slice whose
    Jacobian E = dy/dy0 dips below the caustic threshold truncates the
    horizon (reported, never crossed).  b = 1 unless the half-density
    correction E^{-1/2} is requested.
    """
    y_grid = flow.y_init if y_out is None else np.asarray(y_out, dtype=float)
    caustic = np.min(flow.dy_dy0, axis=1) < CAUSTIC_THRESHOLD
    usable = int(np.argmax(caustic)) if caustic.any() else len(flow.x1_values)
    horizon = flow.x1_values[usable - 1] if usable > 0 else 0.0
    if caustic.any():
        warnings.warn(
            f"caustic (|dy/dy0| < {CAUSTIC_THRESHOLD}) at x1 = "
            f"{flow.x1_values[usable]:.4g}; horizon shortened to {horizon:.4g}",
            stacklevel=2)
    xi = flow.xi_of[:usable]
    phi = _on_mesh(xi, flow.action_shift[:usable] - flow.y_shift[:usable] * xi, y_grid)
    amp = (np.broadcast_to(flow.dy_dy0[:usable, None, :] ** -0.5, phi.shape)
           if transport_correction else None)
    return PhaseTable(
        graph=flow.graph, h=grid.h, y_grid=y_grid,
        x1_values=flow.x1_values[:usable], phi=phi, amp=amp,
        x1_max=float(horizon), caustic_limited=bool(caustic.any()),
    )


def eikonal_residual(table: PhaseTable) -> float:
    """Max residual |d_{x1} phi + a(x1, y, d_y phi)| by centered FD over every
    interior slice.  Needs at least three uniformly spaced stored slices.
    """
    t = table.x1_values
    if len(t) < 3:
        raise ValueError("need >= 3 slices for the residual check")
    slices = [table.slice_arrays(x1)[0] for x1 in t]
    phi = np.stack(slices)
    dy = table.y_grid[1] - table.y_grid[0]
    worst = None
    for s in range(1, len(t) - 1):
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
    raise TypeError("conjugated_symbols needs GraphFn generators "
                    "(use graph_catalog / graph_* factories)")


def conjugated_symbols(a_graph: GraphFn, q_graphs, x1_list, dt: float) -> dict:
    """Pull a and every q back along the flow of a at each time x1 >= 0.

    Returns {x1: (a~, q~1, q~2, ...)} of graph symbols of hand-built graphs,
    with no term list and no closed-form derivative: each evaluates
    s(x1, y(x1; x2, xi2), xi(x1; x2, xi2)) at its frozen conjugation time,
    whatever x1 it is handed.  They share one memo: a new point set (x2, xi2)
    is marched once from 0 through the sorted distinct times, each segment in
    whole steps of at most dt (shortened as :func:`integrate_flow` does), so a
    lone x1 steps by x1 / ceil(x1 / dt).  Each segment restarts the flow's
    clock, which the autonomous flow of a catalog graph allows; a hand-built a
    is refused.
    """
    a_graph = _as_graph_fn(a_graph)
    q_graphs = [_as_graph_fn(q) for q in q_graphs]
    if a_graph.terms is None:
        raise TypeError(f"conjugation marches the autonomous flow of a catalog graph; "
                        f"{a_graph.name!r} is hand-built")
    for x1 in x1_list:
        if not (x1 >= 0 and dt > 0):
            raise ValueError(f"conjugation needs x1 >= 0 and dt > 0, got x1 = {x1}, dt = {dt}")
    times, memo = sorted(set(x1_list)), {}  # memo: the latest point set's key, (y, xi) per time

    def pullback(fn, x1):
        def jet(_x1, x2, xi2):
            x2, xi2 = np.asarray(x2, dtype=float), np.asarray(xi2, dtype=float)
            key = (x2.shape, x2.tobytes(), xi2.shape, xi2.tobytes())
            if memo.get("key") != key:
                memo["key"], t, yxi = key, 0.0, np.broadcast_arrays(x2, xi2)
                for t_next in times:
                    if t_next > t:
                        seg = t_next - t
                        yxi = HamiltonianFlow(a_graph, seg / _n_steps(seg, dt)).evaluate(*yxi, seg)
                    memo[t_next], t = yxi, t_next
            y, xi = memo[x1]
            return np.asarray(fn.value(x1, y, xi), dtype=float), None, None, None
        return graph_symbol(GraphFn(f"pullback[{fn.name}; x1={x1:g}]", jet, True,
                                    lambda *_: None))

    return {x1: tuple(pullback(g, x1) for g in (a_graph, *q_graphs)) for x1 in x1_list}


def quasimode_pushforward(graph: GraphFn, u: Field2D,
                          localization_tol: float = 1e-6) -> Field2D:
    """v(x1, .) = W(x1) u(x1, .) for every grid row x1.

    Requires an O(1)-localized input (checked: at most ``localization_tol`` of
    its mass beyond radius L/2) and an x-independent generator, whose
    multiplier is exact for every row; a tabulated phase has no slices at the
    negative rows x1 < 0.
    """
    from .quasimodes import localization_check

    g = u.grid
    phases = _multiplier(graph, g.x_coords[:, None], g)
    if u.l2_norm() == 0.0:
        return Field2D(g, np.zeros_like(u.values))
    radius = g.half_width / 2.0
    frac = localization_check(u, radius, side="x")
    if frac > localization_tol:
        raise ValueError(
            f"input is not localized: {frac:.3e} of its mass lies outside "
            f"radius {radius:g} (tolerance {localization_tol:g})")
    uhat_rows = sfft1d(u.values, g, axis=1)
    return Field2D(g, isfft1d(phases * uhat_rows, g, axis=1))
