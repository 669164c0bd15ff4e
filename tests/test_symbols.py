"""Symbol families, contact detection and quantization contracts."""

import math

import numpy as np
import pytest

from qmlab.grid import Field2D, GridSpec, random_field, semiclassical_fft
from qmlab.quasimodes import plane_wave
from qmlab.symbols import (
    CIRCLE_SEAM,
    ContactError,
    GraphFn,
    CostGuardError,
    _circle_jet,
    _circle_sqrt,
    apply_left_quantization,
    circle_minus_one,
    contact_order,
    contact_perturbed_circle,
    custom_symbol,
    flat_contact,
    graph_catalog,
    graph_circle,
    graph_flat,
    graph_monomial,
    graph_parabola,
    graph_shear,
    graph_sum,
    graph_symbol,
    graph_tilted_circle,
    xi1_symbol,
    xi2_power_symbol,
)


def fd_contact_oracle(g1, g2, t0, order, steps=(1e-2, 5e-3, 1e-3, 5e-4, 1e-4)):
    """Independent centered-difference oracle over a step sweep."""
    best = None
    for h in steps:
        acc = 0.0
        for i in range(order + 1):
            off = order / 2.0 - i
            acc += (-1) ** i * math.comb(order, i) * (float(g1(t0 + off * h)) - float(g2(t0 + off * h)))
        val = acc / h ** order
        if best is None or abs(val) < 1e12:
            best = val
    return best


class TestContactOrder:
    def test_quadratic_tangency(self):
        rep = contact_order(graph_symbol(graph_flat()), flat_contact(1, 1.0), (0.0, 0.0), 4)
        assert rep.order == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_monomials(self, k):
        rep = contact_order(graph_symbol(graph_flat()), flat_contact(k, 1.0), (0.0, 0.0), 5)
        assert rep.order == k
        assert rep.first_nonzero_derivative == pytest.approx(-math.factorial(k + 1), rel=1e-6)

    def test_circle_vs_perturbed_matches_fd_oracle(self):
        a, q = circle_minus_one(), contact_perturbed_circle(2, 1.0)
        rep = contact_order(a, q, (1.0, 0.0), 5)
        assert rep.order == 2
        g1, g2 = a.graph(xi0=(1.0, 0.0)), q.graph(xi0=(1.0, 0.0))
        oracle = fd_contact_oracle(g1, g2, 0.0, 3)
        assert rep.first_nonzero_derivative == pytest.approx(oracle, rel=1e-4)
        # curvature of the circle branch at the contact point
        assert rep.curvature == pytest.approx(1.0, abs=1e-8)

    def test_symmetry(self):
        a, q = circle_minus_one(), contact_perturbed_circle(2, 0.5)
        assert contact_order(a, q, (1.0, 0.0), 5).order == contact_order(q, a, (1.0, 0.0), 5).order

    def test_invariant_under_common_perturbation(self):
        base = graph_catalog("circle")
        for k in (1, 2):
            plain = contact_order(graph_symbol(graph_flat()), flat_contact(k, 1.0), (0.0, 0.0), 5)
            shifted = contact_order(
                graph_symbol(base),
                graph_symbol(graph_sum(base, graph_monomial(k, 1.0))),
                (1.0, 0.0), 5)
            assert plain.order == shifted.order == k

    def test_no_intersection_rejected(self):
        with pytest.raises(ContactError):
            contact_order(graph_symbol(graph_flat()),
                          graph_symbol(graph_sum(graph_flat(), graph_monomial(1, 1.0))),
                          (0.0, 0.5), 3)  # graphs differ by 0.25 there

    def test_identical_graphs_infinite(self):
        rep = contact_order(circle_minus_one(), circle_minus_one(), (1.0, 0.0), 4)
        assert rep.order == math.inf

    def test_tolerance_band_flags_inconclusive(self):
        # derivative sitting inside [tol/10, tol] must be flagged
        from qmlab.symbols import GraphBranch

        eps = 3e-9
        wobbly = custom_symbol(
            lambda x1, x2, xi1, xi2: np.asarray(xi1) - eps * np.asarray(xi2),
            label="wobble",
            graph=lambda x, xi0: GraphBranch(lambda t: eps * np.asarray(t),
                                             lambda t, r: eps if r == 1 else 0.0),
        )
        rep = contact_order(graph_symbol(graph_flat()), wobbly, (0.0, 0.0), 3)
        assert rep.inconclusive

    def test_max_order_validation(self):
        with pytest.raises(ValueError):
            contact_order(circle_minus_one(), circle_minus_one(), (1.0, 0.0), 0)


class TestGraphOf:
    def test_circle_branch(self):
        br = circle_minus_one().graph(xi0=(1.0, 0.0))
        t = np.linspace(-0.5, 0.5, 11)
        np.testing.assert_allclose(br(t), np.sqrt(1 - t ** 2), atol=1e-14)

    def test_negative_branch(self):
        br = circle_minus_one().graph(xi0=(-1.0, 0.0))
        assert br(0.0) == pytest.approx(-1.0)

    def test_flat_contact_branch(self):
        br = flat_contact(2, 0.7).graph()
        t = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(br(t), 0.7 * t ** 3, atol=1e-14)

    def test_newton_branch_vs_bisection(self):
        cubic = custom_symbol(
            lambda x1, x2, xi1, xi2: np.asarray(xi1) ** 3 + np.asarray(xi1) - np.asarray(xi2),
            label="cubic",
            xi1_partial=lambda x1, x2, xi1, xi2: 3 * np.asarray(xi1) ** 2 + 1 + 0.0 * np.asarray(xi2),
        )
        br = cubic.graph()
        for t in (-0.8, -0.1, 0.0, 0.4, 1.0):
            val = float(br(t))
            assert abs(val ** 3 + val - t) <= 1e-12
            # independent bisection oracle
            lo, hi = -2.0, 2.0
            for _ in range(60):
                mid = (lo + hi) / 2
                if (mid ** 3 + mid - t) * (lo ** 3 + lo - t) <= 0:
                    hi = mid
                else:
                    lo = mid
            assert val == pytest.approx((lo + hi) / 2, abs=1e-10)

    def test_newton_branch_batch_equals_pointwise(self):
        # contact_order solves all stencil points in one call; each value must
        # be the one a scalar solve gives
        sym = custom_symbol(
            lambda x1, x2, xi1, xi2: np.asarray(xi1) + np.asarray(xi1) ** 3 - np.asarray(xi2) ** 2,
            label="cubic_square",
            xi1_partial=lambda x1, x2, xi1, xi2: 1 + 3 * np.asarray(xi1) ** 2 + 0.0 * np.asarray(xi2),
        )
        br = sym.graph()
        t = np.linspace(-0.02, 0.02, 9)
        np.testing.assert_array_equal(br(t), [br(v) for v in t])


def spectral_laplacian_oracle(u: Field2D):
    """(-h^2 Lap - 1) u via plain per-axis FFT differentiation."""
    g = u.grid
    k = 2 * np.pi * np.fft.fftfreq(g.points_per_axis, d=g.dx)
    d2x1 = np.fft.ifft(-(k[:, None] ** 2) * np.fft.fft(u.values, axis=0), axis=0)
    d2x2 = np.fft.ifft(-(k[None, :] ** 2) * np.fft.fft(u.values, axis=1), axis=1)
    return -g.h ** 2 * (d2x1 + d2x2) - u.values


class TestQuantization:
    def test_multiplier_on_plane_wave(self):
        g = GridSpec(8.0, 64, 0.125)
        xi = g.xi_coords
        u = plane_wave(g, (xi[40], xi[36]))
        out = apply_left_quantization(xi1_symbol(), u)
        np.testing.assert_allclose(out.values, xi[40] * u.values, atol=1e-12)

    def test_position_multiplication(self):
        g = GridSpec(8.0, 64, 0.125)
        u = plane_wave(g, (g.xi_coords[40], g.xi_coords[20]))
        px1 = custom_symbol(
            lambda x1, x2, xi1, xi2: np.asarray(x1) + 0.0 * (np.asarray(x2) + np.asarray(xi1) + np.asarray(xi2)),
            label="x1", x_dependent=True)
        out = apply_left_quantization(px1, u)
        x1, _ = g.x_mesh()
        np.testing.assert_allclose(out.values, x1 * u.values, atol=1e-11)

    def test_circle_symbol_matches_spectral_laplacian(self):
        g = GridSpec(8.0, 128, 0.0625)
        # unit-band-supported smooth field
        xi1, xi2 = g.xi_mesh()
        from qmlab.grid import SpectralField2D, semiclassical_ifft

        bump = np.exp(-((xi1 - 0.6) ** 2 + xi2 ** 2) / (2 * 0.1 ** 2))
        u = semiclassical_ifft(SpectralField2D(g, bump.astype(complex)))
        out = apply_left_quantization(circle_minus_one(), u)
        oracle = spectral_laplacian_oracle(u)
        err = np.sqrt(np.sum(np.abs(out.values - oracle) ** 2) / np.sum(np.abs(oracle) ** 2))
        assert err <= 1e-10

    def test_linearity(self):
        g = GridSpec(4.0, 32, 0.25)
        u, v = random_field(g, 1), random_field(g, 2)
        sym = circle_minus_one()
        lhs = apply_left_quantization(sym, Field2D(g, u.values + 2j * v.values)).values
        rhs = (apply_left_quantization(sym, u).values + 2j * apply_left_quantization(sym, v).values)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_multipliers_commute(self):
        g = GridSpec(4.0, 32, 0.25)
        u = random_field(g, 5)
        s1, s2 = circle_minus_one(), flat_contact(1, 1.0)
        ab = apply_left_quantization(s1, apply_left_quantization(s2, u)).values
        ba = apply_left_quantization(s2, apply_left_quantization(s1, u)).values
        assert np.max(np.abs(ab - ba)) <= 1e-12 * max(1.0, np.max(np.abs(ab)))

    @pytest.mark.parametrize("k,c", [(1, 1.0), (2, 0.5)])
    def test_flat_contact_matches_spectral_differentiation(self, k, c):
        g = GridSpec(8.0, 128, 0.0625)
        xi1, xi2 = g.xi_mesh()
        from qmlab.grid import SpectralField2D, semiclassical_ifft

        bump = np.exp(-(xi1 ** 2 + xi2 ** 2) / (2 * 0.3 ** 2))
        u = semiclassical_ifft(SpectralField2D(g, bump.astype(complex)))
        out = apply_left_quantization(flat_contact(k, c), u)
        # oracle: h D_x1 u - c (h D_x2)^(k+1) u by plain FFT differentiation
        kf = 2 * np.pi * np.fft.fftfreq(g.points_per_axis, d=g.dx)
        hd1 = g.h * np.fft.ifft(kf[:, None] * np.fft.fft(u.values, axis=0), axis=0)
        hd2k = (g.h ** (k + 1)
                * np.fft.ifft(kf[None, :] ** (k + 1) * np.fft.fft(u.values, axis=1), axis=1))
        oracle = hd1 - c * hd2k
        err = np.sqrt(np.sum(np.abs(out.values - oracle) ** 2) / np.sum(np.abs(oracle) ** 2))
        assert err <= 1e-10

    def test_x_dependent_against_dense_oracle(self):
        g = GridSpec(2.0, 16, 0.5)
        u = random_field(g, 8)
        sym = custom_symbol(
            lambda x1, x2, xi1, xi2: np.asarray(x1) * np.asarray(xi2) + np.asarray(xi1) ** 2
            + 0.0 * np.asarray(x2),
            label="mixed", x_dependent=True)
        out = apply_left_quantization(sym, u)
        # dense loop oracle
        spec = semiclassical_fft(u).values
        x = g.x_coords
        xi = g.xi_coords
        oracle = np.zeros_like(u.values)
        for i1 in range(16):
            for i2 in range(16):
                acc = 0.0
                for m1 in range(16):
                    for m2 in range(16):
                        pval = x[i1] * xi[m2] + xi[m1] ** 2
                        acc += (np.exp(1j * (x[i1] * xi[m1] + x[i2] * xi[m2]) / g.h)
                                * pval * spec[m1, m2])
                oracle[i1, i2] = acc * g.dxi ** 2 / (2 * np.pi * g.h)
        np.testing.assert_allclose(out.values, oracle, atol=1e-10)

    def test_cost_guard(self):
        g = GridSpec(4.0, 192, 0.125)
        u = random_field(g, 2)
        sym = custom_symbol(
            lambda x1, x2, xi1, xi2: np.asarray(x1) + 0.0 * (np.asarray(x2) + np.asarray(xi1) + np.asarray(xi2)),
            label="x1", x_dependent=True)
        with pytest.raises(CostGuardError):
            apply_left_quantization(sym, u)

    def test_xi2_power_symbol(self):
        g = GridSpec(4.0, 32, 0.25)
        xi = g.xi_coords
        u = plane_wave(g, (xi[20], xi[22]))
        out = apply_left_quantization(xi2_power_symbol(3), u)
        np.testing.assert_allclose(out.values, xi[22] ** 3 * u.values, atol=1e-12)


def circle_sqrt_where(t, order):
    """Orders 0-2 of the seam-continued sqrt(1 - t^2), each branch picked by np.where."""
    t = np.asarray(t, dtype=float)
    u = np.abs(t)
    inside = u <= CIRCLE_SEAM
    uc = np.where(inside, u, CIRCLE_SEAM)
    w = 1.0 - uc * uc
    r = np.sqrt(w)
    d = u - CIRCLE_SEAM
    v1, v2 = -uc / r, -w ** -1.5
    if order == 0:
        return np.where(inside, r, r + v1 * d + 0.5 * v2 * d * d)
    if order == 1:
        return np.sign(t) * np.where(inside, -uc / r, v1 + v2 * d)
    return np.where(inside, -w ** -1.5, v2)


JET_GRAPHS = [graph_circle(), graph_parabola(0.7), graph_flat(), graph_monomial(2, 1.3),
              graph_shear(), graph_tilted_circle(0.5),
              graph_sum(graph_tilted_circle(0.1), graph_monomial(1, 1.0))]


class TestGraphJets:
    SEAM_POINTS = [0.0, 0.5, -0.5, 0.95, -0.95, 0.97, -0.97, 1.3, -1.3]

    @pytest.mark.parametrize("points", [SEAM_POINTS, SEAM_POINTS[:5]], ids=["seam", "inside"])
    def test_circle_jet_bitwise(self, points):
        t = np.array(points)
        for r, got in enumerate(_circle_jet(t)):
            assert got.tobytes() == np.asarray(_circle_sqrt(t, r)).tobytes()
            assert got.tobytes() == circle_sqrt_where(t, r).tobytes()
        for tv in points:
            for r in range(3):
                assert _circle_sqrt(tv, r) == float(circle_sqrt_where(tv, r))

    @pytest.mark.parametrize("g", JET_GRAPHS, ids=lambda g: g.name)
    def test_jet_matches_finite_differences(self, g):
        x2, xi2 = np.meshgrid([-1.0, 0.5], [-0.6, 0.3, 0.8], indexing="ij")
        eps = 1e-4

        def f(dy, dxi):
            return np.broadcast_to(g.value(0.2, x2 + dy * eps, xi2 + dxi * eps), x2.shape)

        fd = (
            f(0, 0),
            (f(0, 1) - f(0, -1)) / (2 * eps),
            (f(1, 0) - f(-1, 0)) / (2 * eps),
            (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4 * eps ** 2),
        )
        jet = g.jet(0.2, x2, xi2)
        assert len(jet) == 4
        for got, want in zip(jet, fd, strict=True):
            got = np.zeros(x2.shape) if got is None else np.broadcast_to(got, x2.shape)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
        # the closed-form xi2-derivatives used by contact detection agree with the jet ...
        for order, entry in enumerate(jet[:2]):
            got = np.zeros(x2.shape) if entry is None else np.broadcast_to(entry, x2.shape)
            np.testing.assert_allclose(g.xi2_derivative(0.2, x2, xi2, order), got,
                                       rtol=1e-13, atol=1e-13)
        # ... and the second one with its finite difference
        np.testing.assert_allclose(g.xi2_derivative(0.2, x2, xi2, 2),
                                   (f(0, 1) - 2 * f(0, 0) + f(0, -1)) / eps ** 2,
                                   rtol=0, atol=1e-6)



# The hand-written jets and xi2-derivatives the catalog had before graphs became
# term lists, kept as oracles for the term-list fold.

def _oracle_circle():
    def jet(x1, x2, xi2):
        c0, c1, _ = _circle_jet(xi2)
        return c0, c1, None, None

    return jet, lambda x1, x2, xi2, order: _circle_sqrt(xi2, order) if order <= 4 else None


def _oracle_parabola(coeff):
    def jet(x1, x2, xi2):
        xi2 = np.asarray(xi2)
        return coeff * xi2 ** 2, 2.0 * coeff * xi2, None, None

    def deriv(x1, x2, xi2, order):
        if order == 0:
            return coeff * np.asarray(xi2) ** 2
        if order == 1:
            return 2.0 * coeff * np.asarray(xi2)
        if order == 2:
            return 2.0 * coeff * np.ones_like(np.asarray(xi2, dtype=float))
        return np.zeros_like(np.asarray(xi2, dtype=float))

    return jet, deriv


def _oracle_flat():
    return ((lambda x1, x2, xi2: (np.zeros(np.broadcast(x1, x2, xi2).shape),) + (None,) * 3),
            lambda x1, x2, xi2, order: np.zeros_like(np.asarray(xi2, dtype=float)))


def _oracle_monomial(k, c):
    m = k + 1

    def dpoly(t, order):
        t = np.asarray(t, dtype=float)
        if order > m:
            return np.zeros_like(t)
        return c * math.factorial(m) / math.factorial(m - order) * t ** (m - order)

    return ((lambda x1, x2, xi2: (dpoly(xi2, 0), dpoly(xi2, 1), None, None)),
            lambda x1, x2, xi2, order: dpoly(xi2, order))


def _oracle_shear():
    def jet(x1, x2, xi2):
        x2, xi2 = np.asarray(x2), np.asarray(xi2)
        return x2 * xi2, x2, xi2, 1.0

    def deriv(x1, x2, xi2, order):
        x2a, xi2a = np.asarray(x2, dtype=float), np.asarray(xi2, dtype=float)
        if order == 0:
            return x2a * xi2a
        if order == 1:
            return x2a + 0.0 * xi2a
        return np.zeros(np.broadcast(x2a, xi2a).shape)

    return jet, deriv


def _oracle_tilted_circle(tilt):
    def jet(x1, x2, xi2):
        c0, c1, _ = _circle_jet(xi2)
        x2, xi2 = np.asarray(x2), np.asarray(xi2)
        sq, tx2 = xi2 ** 2, 2.0 * tilt * x2
        return c0 + tilt * x2 * sq, c1 + tx2 * xi2, tilt * sq, 2.0 * tilt * xi2

    def deriv(x1, x2, xi2, order):
        if order > 4:
            return None
        x2a = np.asarray(x2, dtype=float)
        base = _circle_sqrt(xi2, order)
        if order == 0:
            return base + tilt * x2a * np.asarray(xi2) ** 2
        if order == 1:
            return base + 2.0 * tilt * x2a * np.asarray(xi2)
        if order == 2:
            return base + 2.0 * tilt * x2a
        return base

    return jet, deriv


def _oracle_sum(o1, o2):
    (jet1, d1), (jet2, d2) = o1, o2

    def jet(x1, x2, xi2):
        return tuple(p if q is None else q if p is None else p + q
                     for p, q in zip(jet1(x1, x2, xi2), jet2(x1, x2, xi2)))

    def deriv(x1, x2, xi2, order):
        a, b = d1(x1, x2, xi2, order), d2(x1, x2, xi2, order)
        return None if a is None or b is None else a + b

    return jet, deriv


def _oracle_perturbed_circle(k, c):
    """gval / gder of contact_perturbed_circle's graph branch."""
    m = k + 1

    def gval(t):
        return _circle_sqrt(t, 0) + c * np.asarray(t) ** m

    def gder(t, r):
        circ = _circle_sqrt(t, r) if r <= 4 else None
        if circ is None:
            return None
        poly = 0.0 if r > m else c * math.factorial(m) / math.factorial(m - r) * np.asarray(t) ** (m - r)
        return circ + poly

    return gval, gder


def _term_cases(c):
    return [
        (graph_circle(), _oracle_circle()),
        (graph_parabola(c), _oracle_parabola(c)),
        (graph_flat(), _oracle_flat()),
        (graph_monomial(1, c), _oracle_monomial(1, c)),
        (graph_monomial(2, c), _oracle_monomial(2, c)),
        (graph_shear(), _oracle_shear()),
        (graph_tilted_circle(c), _oracle_tilted_circle(c)),
        (graph_sum(graph_tilted_circle(0.1), graph_monomial(1, c)),
         _oracle_sum(_oracle_tilted_circle(0.1), _oracle_monomial(1, c))),
        (graph_sum(graph_tilted_circle(0.1), graph_monomial(2, c)),
         _oracle_sum(_oracle_tilted_circle(0.1), _oracle_monomial(2, c))),
        (graph_sum(graph_circle(), graph_monomial(2, c)),
         _oracle_sum(_oracle_circle(), _oracle_monomial(2, c))),
    ]


def _same(got, want, shape, rtol=0.0):
    """None matches None; arrays are compared on the grid, bitwise unless rtol is set."""
    assert (got is None) == (want is None)
    if want is None:
        return
    got, want = np.broadcast_to(got, shape), np.broadcast_to(want, shape)
    if rtol:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)
    else:
        assert np.array_equal(got, want)


class TestTermListOracle:
    # x2 != 0 everywhere; xi2 crosses the circle's seam at +-0.95
    X2, XI2 = np.meshgrid([-1.3, -0.4, 0.7, 1.1],
                          [-1.3, -0.97, -0.95, -0.5, 0.0, 0.3, 0.95, 0.97, 1.3], indexing="ij")

    def check(self, g, oracle, rtol=0.0):
        jet, deriv = oracle
        shape = self.X2.shape
        want_jet = jet(0.2, self.X2, self.XI2)
        for got, want in zip(g.jet(0.2, self.X2, self.XI2), want_jet, strict=True):
            _same(got, want, shape, rtol)
        _same(g.value(0.2, self.X2, self.XI2), want_jet[0], shape, rtol)
        for order in range(6):
            _same(g.xi2_derivative(0.2, self.X2, self.XI2, order),
                  deriv(0.2, self.X2, self.XI2, order), shape, rtol)

    @pytest.mark.parametrize("c", [1.0, 0.5])
    def test_families_and_sums_bitwise(self, c):
        for g, oracle in _term_cases(c):
            self.check(g, oracle)

    @pytest.mark.parametrize("c", [0.7, 1.3])
    def test_non_dyadic_coefficients(self, c):
        # c*perm(m, r) rounds differently from the old (c*m!)/(m-r)! only at m >= 3
        for g, oracle in _term_cases(c):
            self.check(g, oracle, rtol=1e-15)
        for k in (2, 3, 4):
            self.check(graph_monomial(k, c), _oracle_monomial(k, c), rtol=1e-15)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("c", [1.0, 0.5, 0.7, 1.3, 1.7])
    def test_contact_perturbed_circle_bitwise(self, k, c):
        gval, gder = _oracle_perturbed_circle(k, c)
        sym = contact_perturbed_circle(k, c)
        br = sym.graph()
        t = self.XI2[0]
        assert np.array_equal(br(t), gval(t))
        assert np.array_equal(sym.value(0.0, 0.0, 0.4, t), 0.4 - gval(t))
        for r in range(1, 6):
            _same(br.derivative(t, r), gder(t, r), t.shape)

    def test_terms_are_concatenated(self):
        g = graph_sum(graph_tilted_circle(0.3), graph_monomial(2, 0.5))
        assert g.terms == ((0, 1.0, None), (1, 0.3, 2), (0, 0.5, 3))
        assert graph_flat().terms == ()
        assert g.x_dependent and not graph_sum(graph_circle(), graph_flat()).x_dependent

    def test_graph_sum_refuses_hand_built_graph(self):
        fake = GraphFn("fake", lambda x1, x2, xi2: (np.asarray(xi2),) + (None,) * 3, False,
                       lambda x1, x2, xi2, order: None)
        with pytest.raises(ValueError, match="no term list"):
            graph_sum(graph_circle(), fake)
