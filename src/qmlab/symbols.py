"""Symbol families p(x, xi), characteristic-curve contact order, quantization.

A symbol is evaluated on grids via broadcastable callables.  A catalog graph
xi1 = a(x, xi2) is one term list of (j, c, m) = x2^j * c * xi2^m, m = None for
the seam-continued circle; its jet (a and the three partials the Hamiltonian
flow needs, None where structurally zero), its closed-form
xi2-derivatives (contact order is read off exactly) and graph sums all derive
from that list.  When a closed form is not available (Newton branches, flow
pullbacks) the detection falls back to centered finite differences with
Richardson extrapolation; every stencil point is evaluated in one batched
call per graph.

Left quantization p(x, hD) acts as a spectral multiplier for x-independent
symbols and as the direct oscillatory quadrature

    (2 pi h)^{-1} sum_xi e^{i<x,xi>/h} p(x, xi) FT[u](xi) dxi^2

for x-dependent ones (O(N^4), guarded to N <= 128 unless forced).  The two
paths agree exactly when p does not depend on x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .grid import Field2D, SpectralField2D, semiclassical_fft, semiclassical_ifft

__all__ = [
    "GraphFn",
    "GraphBranch",
    "NewtonBranch",
    "graph_circle",
    "graph_parabola",
    "graph_flat",
    "graph_shear",
    "graph_tilted_circle",
    "graph_monomial",
    "graph_sum",
    "SymbolSpec",
    "ContactReport",
    "ContactError",
    "CostGuardError",
    "circle_minus_one",
    "contact_perturbed_circle",
    "flat_contact",
    "graph_symbol",
    "custom_symbol",
    "multiplier_symbol",
    "xi1_symbol",
    "xi2_power_symbol",
    "graph_catalog",
    "contact_order",
    "apply_left_quantization",
]

CIRCLE_SEAM = 0.95  # |xi2| beyond which sqrt(1 - xi2^2) is Taylor-continued


class ContactError(ValueError):
    """Curves do not intersect where a contact order was requested."""


class CostGuardError(RuntimeError):
    """Refused O(N^4) quantization; pass force=True to override."""


# ---------------------------------------------------------------------------
# sqrt(1 - t^2) with a C^2 quadratic continuation outside |t| <= CIRCLE_SEAM,
# so circle graphs stay finite (and curved) on the whole frequency lattice.
# ---------------------------------------------------------------------------

def _circle_jet(t):
    """Orders 0, 1 and 2 of :func:`_circle_sqrt` from one seam computation."""
    t = np.asarray(t, dtype=float)
    u = np.abs(t)
    inside = u <= CIRCLE_SEAM
    uc = np.minimum(u, CIRCLE_SEAM)
    w = 1.0 - uc * uc
    r = np.sqrt(w)
    # value and |t|-derivatives at the clamp point, Taylor-continued outside
    v1, v2 = -uc / r, -w ** -1.5
    c0, c1 = r, v1
    if not inside.all():
        d = u - CIRCLE_SEAM  # >= 0 only where outside
        c0 = np.asarray(r + v1 * d + 0.5 * v2 * d * d)
        c1 = np.asarray(v1 + v2 * d)
        np.copyto(c0, r, where=inside)
        np.copyto(c1, v1, where=inside)
    return c0, np.sign(t) * c1, v2


def _circle_sqrt(t, order: int = 0):
    if not 0 <= order <= _CIRCLE_MAX_ORDER:
        raise ValueError(f"_circle_sqrt derivatives available to order 4, got {order}")
    if order <= 2:
        out = _circle_jet(t)[order]
    else:  # the quadratic continuation has no third or fourth derivative
        t = np.asarray(t, dtype=float)
        uc = np.minimum(np.abs(t), CIRCLE_SEAM)
        w = 1.0 - uc * uc
        dk = -3.0 * uc * w ** -2.5 if order == 3 else -3.0 * (1.0 + 4.0 * uc * uc) * w ** -3.5
        out = np.where(np.abs(t) <= CIRCLE_SEAM, dk, 0.0)
        if order == 3:
            out = np.sign(t) * out
    return out if out.ndim else float(out)


_CIRCLE_MAX_ORDER = 4


# ---------------------------------------------------------------------------
# graphs a(x, xi2): term lists x2^j * c * xi2^m with the jet the flow needs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphFn:
    """Graph a(x1, x2, xi2) of a characteristic branch xi1 = a.

    ``jet(x1, x2, xi2)`` returns (a, a_xi2, a_x2, a_x2xi2), each
    broadcastable against the arguments, with None for a partial that is
    structurally zero.  ``xi2_derivative(x1, x2, xi2, order)`` returns the
    closed-form derivative or None when only finite differences are possible
    at that order.  ``terms`` is the term list a catalog graph is built from
    (see :func:`_graph`), None for a hand-built graph.
    """

    name: str
    jet: Callable  # (x1, x2, xi2) -> (a, a_xi, a_y, a_yxi)
    x_dependent: bool
    xi2_derivative: Callable  # (x1, x2, xi2, order) -> value or None
    terms: tuple | None = None

    def value(self, x1, x2, xi2):
        """a alone, the first entry of the jet."""
        return self.jet(x1, x2, xi2)[0]

    __call__ = value


# jet entries of the xi2-orders 0, 1 of a term and of their x2-derivatives
_XI2_ENTRIES = ((0, 2), (1, 3))


def _power(k, x2, t, e):
    """k * x2 * t**e, the x2 product first; x2 None stands for 1, t**1 is t, t**0 is omitted."""
    f = k if x2 is None else k * x2
    return f if e == 0 else f * (t if e == 1 else t ** e)


def _graph(name: str, *terms) -> GraphFn:
    """Graph a = sum of terms (j, c, m), each x2^j * c * xi2^m with j in {0, 1}.

    m = None is the seam-continued circle, the term ``(0, 1.0, None)``.  The
    order-r xi2-derivative of a power term is c*perm(m, r) * x2^j * xi2^(m-r)
    (see :func:`_power`); its x2-derivative drops the x2.  Partials are folded
    over the terms left to right with None as a structural zero, and each
    product is added as soon as it is made, so few products are alive at once.
    """
    # per term and xi2-order r <= 1: (entry, entry of the x2-derivative or None,
    # c*perm(m, r), m - r, j); None stands for the circle's (a, a_xi)
    rows = []
    for j, c, m in terms:
        if m is None:
            rows.append(None)
            continue
        rows += [(i, i_x2 if j else None, c * math.perm(m, r), m - r, j)
                 for r, (i, i_x2) in enumerate(_XI2_ENTRIES) if r <= m]

    def jet(x1, x2, xi2):
        # _power inlined, t**e shared by a product and its x2-derivative: the
        # flow calls this thousands of times on a few points
        t = np.asarray(xi2, dtype=float)
        out = [None] * 4
        for row in rows:
            if row is None:
                for i, p in enumerate(_circle_jet(t)[:2]):
                    out[i] = p if out[i] is None else out[i] + p
                continue
            i, i_x2, k, e, j = row
            te = None if e == 0 else t if e == 1 else t ** e
            p = k * x2 if j else k
            if te is not None:
                p = p * te
            out[i] = p if out[i] is None else out[i] + p
            if i_x2 is not None:
                p = k if te is None else k * te
                out[i_x2] = p if out[i_x2] is None else out[i_x2] + p
        if out[0] is None:
            out[0] = np.zeros(np.broadcast(x1, x2, t).shape)
        return tuple(out)

    def xi2_derivative(x1, x2, xi2, order):
        t = np.asarray(xi2, dtype=float)
        out = None
        for j, c, m in terms:
            if m is None:
                if order > _CIRCLE_MAX_ORDER:
                    return None
                p = _circle_sqrt(t, order)
            elif order <= m:
                p = _power(c * math.perm(m, order), x2 if j else None, t, m - order)
            else:
                continue
            out = p if out is None else out + p
        return np.zeros(np.broadcast(x2, t).shape) if out is None else out

    return GraphFn(name, jet, any(j for j, _, _ in terms), xi2_derivative, terms)


def graph_circle() -> GraphFn:
    """Upper unit-circle branch a(xi2) = sqrt(1 - xi2^2), continued past 0.95."""
    return _graph("circle", (0, 1.0, None))


def graph_parabola(coeff: float = 1.0) -> GraphFn:
    """a(xi2) = coeff * xi2^2: the canonical curved branch, constant curvature."""
    return _graph("parabola", (0, coeff, 2))


def graph_flat() -> GraphFn:
    """a = 0: the straightened branch xi1 = 0."""
    return _graph("flat")


def graph_monomial(k: int, c: float) -> GraphFn:
    """a(xi2) = c * xi2^(k+1) (the flat-contact normal form graph)."""
    if c == 0:
        raise ValueError("monomial graph requires c != 0")
    return _graph(f"monomial(k={k}, c={c})", (0, c, k + 1))


def graph_shear() -> GraphFn:
    """a(x, xi2) = x2 * xi2: linear flow with exact exponential characteristics."""
    return _graph("shear", (1, 1.0, 1))


def graph_tilted_circle(tilt: float = 0.1) -> GraphFn:
    """a = sqrt(1 - xi2^2) + tilt * x2 * xi2^2: curved branch with x-dependence."""
    return _graph("tilted_circle", (0, 1.0, None), (1, tilt, 2))


def graph_sum(g1: GraphFn, g2: GraphFn) -> GraphFn:
    """Pointwise sum of two catalog graphs (e.g. a curved branch plus a contact bump)."""
    for g in (g1, g2):
        if g.terms is None:
            raise ValueError(f"graph_sum needs catalog graphs; {g.name!r} has no term list")
    return _graph(f"{g1.name}+{g2.name}", *g1.terms, *g2.terms)


_GRAPH_BUILDERS = {
    "circle": graph_circle,
    "parabola": graph_parabola,
    "flat": graph_flat,
    "shear": graph_shear,
    "tilted_circle": graph_tilted_circle,
    "monomial": graph_monomial,
}


def graph_catalog(name: str, **params) -> GraphFn:
    """Named graph lookup used by config files and the CLI."""
    try:
        builder = _GRAPH_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown graph '{name}'; have {sorted(_GRAPH_BUILDERS)}") from None
    return builder(**params)


# ---------------------------------------------------------------------------
# graph branches: callables xi2 -> xi1 with optional closed-form derivatives
# ---------------------------------------------------------------------------

class GraphBranch:
    """Branch of {p = 0} as xi1 = g(xi2) at a fixed base point x."""

    def __init__(self, fn: Callable, deriv: Callable | None = None, label: str = "graph"):
        self._fn = fn
        self._deriv = deriv
        self.label = label

    def __call__(self, xi2):
        return self._fn(xi2)

    def derivative(self, xi2, order: int):
        """Closed-form d^order g / dxi2^order, or None when unavailable."""
        if order == 0:
            return self._fn(xi2)
        if self._deriv is None:
            return None
        return self._deriv(xi2, order)


class NewtonBranch(GraphBranch):
    """Numeric branch solved by Newton iteration with residual <= tol."""

    def __init__(self, sym: "SymbolSpec", d_xi1: Callable, x=(0.0, 0.0),
                 xi1_start: float = 0.0, tol: float = 1e-12, max_iter: int = 80):
        self.sym = sym
        self.d_xi1 = d_xi1  # d p / d xi1, same arguments as sym.value
        self.x = x
        self.xi1_start = xi1_start
        self.tol = tol
        self.max_iter = max_iter
        super().__init__(self._solve, None, label=f"newton[{sym.label}]")

    def _solve(self, xi2):
        xi2 = np.asarray(xi2, dtype=float)
        scalar = xi2.ndim == 0
        xi2 = np.atleast_1d(xi2)
        x1, x2 = self.x
        xi1 = np.full(xi2.shape, float(self.xi1_start))
        real = lambda f: np.broadcast_to(np.asarray(f(x1, x2, xi1, xi2), dtype=complex).real, xi1.shape)
        for _ in range(self.max_iter):  # per-point stopping: a value does not depend on its batch
            r = real(self.sym.value)
            todo = ~(np.abs(r) <= self.tol)
            if not todo.any():
                break
            dp = real(self.d_xi1)[todo]
            if np.any(np.abs(dp) < 1e-14):
                raise ValueError("Newton branch: vanishing d p / d xi1 (no graph here)")
            xi1[todo] -= r[todo] / dp
        else:
            raise ValueError("Newton branch did not converge")
        return float(xi1[0]) if scalar else xi1


@dataclass(frozen=True)
class SymbolSpec:
    """Named, parameterized symbol with evaluators.

    value takes broadcastable (x1, x2, xi1, xi2).
    ``graph`` returns the branch of {p = 0} through a requested point.
    """

    family: str
    label: str
    params: dict = field(default_factory=dict)
    x_dependent: bool = False
    value: Callable = None
    _graph: Callable = None  # (x, xi0) -> GraphBranch

    def graph(self, x=(0.0, 0.0), xi0=None) -> GraphBranch:
        if self._graph is None:
            raise ValueError(f"symbol '{self.label}' has no graph representation")
        return self._graph(x, xi0)


# ---------------------------------------------------------------------------
# symbol factories
# ---------------------------------------------------------------------------

def circle_minus_one() -> SymbolSpec:
    """p(xi) = |xi|^2 - 1."""

    def graph(x, xi0):
        sign = 1.0 if xi0 is None or xi0[0] >= 0 else -1.0
        return GraphBranch(
            lambda t: sign * _circle_sqrt(t, 0),
            lambda t, r: sign * _circle_sqrt(t, r) if r <= _CIRCLE_MAX_ORDER else None,
            label="circle_branch",
        )

    return SymbolSpec(
        family="circle_minus_one",
        label="circle_minus_one",
        x_dependent=False,
        value=lambda x1, x2, xi1, xi2: np.asarray(xi1) ** 2 + np.asarray(xi2) ** 2 - 1.0,
        _graph=graph,
    )


def contact_perturbed_circle(k: int, c: float) -> SymbolSpec:
    """p(xi) = xi1 - sqrt(1 - xi2^2) - c * xi2^(k+1), touching the circle at (1, 0)."""
    if k < 1:
        raise ValueError("contact order parameter k must be >= 1")
    return replace(graph_symbol(graph_sum(graph_circle(), graph_monomial(k, c))),
                   family="contact_perturbed_circle", label=f"contact_circle(k={k}, c={c})",
                   params={"k": k, "c": c})


def flat_contact(k: int, c: float) -> SymbolSpec:
    """p(xi) = xi1 - c * xi2^(k+1): local normal form of kth-order contact."""
    return replace(graph_symbol(graph_monomial(k, c)), family="flat_contact",
                   label=f"flat_contact(k={k}, c={c})", params={"k": k, "c": c})


def graph_symbol(graph_fn: GraphFn) -> SymbolSpec:
    """p(x, xi) = xi1 - a(x, xi2) for a catalog graph a."""

    return SymbolSpec(
        family="graph",
        label=f"graph[{graph_fn.name}]",
        params={"graph": graph_fn.name},
        x_dependent=graph_fn.x_dependent,
        value=lambda x1, x2, xi1, xi2: np.asarray(xi1) - graph_fn.value(x1, x2, xi2),
        _graph=lambda x, xi0: GraphBranch(
            lambda t: graph_fn.value(x[0], x[1], t),
            lambda t, r: graph_fn.xi2_derivative(x[0], x[1], t, r),
            label=f"graph[{graph_fn.name}]",
        ),
    )


def custom_symbol(value, label="custom", x_dependent=False, xi1_partial=None,
                  graph=None) -> SymbolSpec:
    """Symbol from plain callables; graph defaults to a Newton solve."""

    def default_graph(x, xi0):
        start = 0.0 if xi0 is None else float(xi0[0])
        return NewtonBranch(spec, xi1_partial or fd_xi1, x=x, xi1_start=start)

    def fd_xi1(x1, x2, xi1, xi2, eta=1e-6):
        return (np.asarray(value(x1, x2, xi1 + eta, xi2)) - np.asarray(value(x1, x2, xi1 - eta, xi2))) / (2 * eta)

    spec = SymbolSpec(
        family="custom",
        label=label,
        x_dependent=x_dependent,
        value=value,
        _graph=graph or default_graph,
    )
    return spec


def multiplier_symbol(fn_of_xi, label) -> SymbolSpec:
    """x-independent symbol p(xi1, xi2) given as a plain function of xi."""
    return SymbolSpec(
        family="multiplier",
        label=label,
        x_dependent=False,
        value=lambda x1, x2, xi1, xi2: fn_of_xi(np.asarray(xi1), np.asarray(xi2)),
    )


def xi1_symbol() -> SymbolSpec:
    """p = xi1, i.e. the operator h D_{x1}."""
    return multiplier_symbol(lambda a, b: a + 0.0 * b, "xi1")


def xi2_power_symbol(m: int) -> SymbolSpec:
    """p = xi2^m, i.e. the operator (h D_{x2})^m = h^m D_{x2}^m."""
    return multiplier_symbol(lambda a, b: b ** m + 0.0 * a, f"xi2^{m}")


# ---------------------------------------------------------------------------
# contact order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactReport:
    """Result of contact detection between two characteristic graphs."""

    xi0: tuple[float, float]
    order: float  # integer k, or math.inf when no derivative separates
    first_nonzero_derivative: float
    derivative_table: tuple[float, ...]  # d^r (g1 - g2), r = 1 .. len
    curvature: float  # |g1''(xi0)|, second-fundamental-form proxy
    inconclusive: bool = False


_FD_STEPS = (1e-2, 5e-3)


def _fd_derivative(fn, t0: float, order: int, step: float) -> float:
    """Centered finite difference of given order, O(step^2)."""
    acc = 0.0
    for i in range(order + 1):
        offset = order / 2.0 - i
        acc += (-1.0) ** i * math.comb(order, i) * float(fn(t0 + offset * step))
    return acc / step ** order


def _richardson_derivative(fn, t0: float, order: int, step: float = _FD_STEPS[0]) -> float:
    d1 = _fd_derivative(fn, t0, order, step)
    d2 = _fd_derivative(fn, t0, order, step / 2.0)
    return (4.0 * d2 - d1) / 3.0


def contact_order(a_sym: SymbolSpec, q_sym: SymbolSpec, xi0, max_order: int,
                  x=(0.0, 0.0), tol: float = 1e-8) -> ContactReport:
    """Order of contact of the two characteristic graphs at xi0.

    k = (order of the first non-vanishing xi2-derivative of g1 - g2) - 1.
    Derivatives within [tol_r/10, tol_r] of the vanishing threshold flag the
    report inconclusive rather than silently classifying.  The stencils of
    every order and both Richardson steps are evaluated in one batched call per graph.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    g1 = a_sym.graph(x=x, xi0=xi0)
    g2 = q_sym.graph(x=x, xi0=xi0)
    t0 = float(xi0[1])
    steps = (_FD_STEPS[0], _FD_STEPS[0] / 2.0)
    pts = np.array(sorted({t0} | {t0 + (r / 2.0 - i) * s for s in steps
                                  for r in range(1, max_order + 2) for i in range(r + 1)}))

    def tabulate(g):
        vals = np.broadcast_to(np.asarray(g(pts), dtype=float), pts.shape)
        return dict(zip(pts.tolist(), vals.tolist()))

    v1, v2 = tabulate(g1), tabulate(g2)

    gap = abs(v1[t0] - v2[t0])
    scale0 = 1.0 + abs(v1[t0])
    if gap > tol * scale0:
        raise ContactError(
            f"graphs of {a_sym.label} and {q_sym.label} do not intersect at {tuple(xi0)} "
            f"(|g1 - g2| = {gap:.3e})"
        )

    def diff(t):
        return v1[t] - v2[t]

    table = []
    scales = [abs(v1[t0])]
    inconclusive = False
    order_found = None
    first_nonzero = 0.0
    for r in range(1, max_order + 2):
        d1r = g1.derivative(t0, r)
        d2r = g2.derivative(t0, r)
        if d1r is not None and d2r is not None:
            dr = float(d1r) - float(d2r)
        else:
            dr = _richardson_derivative(diff, t0, r)
        scales.append(abs(float(d1r)) if d1r is not None
                      else abs(_richardson_derivative(v1.__getitem__, t0, r)))
        table.append(dr)
        tol_r = tol * (1.0 + max(scales))
        if abs(dr) > tol_r:
            order_found = r - 1
            first_nonzero = dr
            break
        if tol_r / 10.0 <= abs(dr) <= tol_r:
            inconclusive = True

    curv = g1.derivative(t0, 2)
    if curv is None:
        curv = _richardson_derivative(v1.__getitem__, t0, 2)
    return ContactReport(
        xi0=(float(xi0[0]), float(xi0[1])),
        order=math.inf if order_found is None else order_found,
        first_nonzero_derivative=first_nonzero,
        derivative_table=tuple(table),
        curvature=abs(float(curv)),
        inconclusive=inconclusive,
    )


# ---------------------------------------------------------------------------
# left quantization
# ---------------------------------------------------------------------------

QUANTIZATION_N_GUARD = 128
_X2_CHUNK = 16


def apply_left_quantization(sym: SymbolSpec, u: Field2D, force: bool = False) -> Field2D:
    """Apply p(x, hD) to a field.

    x-independent symbols act as spectral multipliers.  x-dependent symbols
    use the direct O(N^4) quadrature and are refused for N > 128 unless
    ``force`` is set.
    """
    g = u.grid
    spec = semiclassical_fft(u)
    if not sym.x_dependent:
        xi1, xi2 = g.xi_mesh()
        mult = np.asarray(sym.value(0.0, 0.0, xi1, xi2), dtype=np.complex128)
        return semiclassical_ifft(SpectralField2D(g, spec.values * mult))
    if g.points_per_axis > QUANTIZATION_N_GUARD and not force:
        raise CostGuardError(
            f"x-dependent quantization at N = {g.points_per_axis} exceeds the "
            f"N <= {QUANTIZATION_N_GUARD} cost guard (force=True to override)"
        )
    n = g.points_per_axis
    x = g.x_coords
    xi = g.xi_coords
    E = np.exp(1j * np.outer(x, xi) / g.h)  # shared by both axes
    scale = g.dxi ** 2 / (2.0 * np.pi * g.h)
    out = np.empty((n, n), dtype=np.complex128)
    for i1 in range(n):
        w = (E[i1, :, None] * spec.values) * scale  # (n_xi1, n_xi2)
        for j0 in range(0, n, _X2_CHUNK):
            j1 = min(j0 + _X2_CHUNK, n)
            p_block = np.asarray(
                sym.value(x[i1], x[j0:j1][:, None, None],
                          xi[None, :, None], xi[None, None, :]),
                dtype=np.complex128,
            )
            out[i1, j0:j1] = np.einsum("xmn,mn,xn->x", p_block, w, E[j0:j1])
    return Field2D(g, out)
