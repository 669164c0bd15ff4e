"""Flow integration, phase tables, W application and Egorov pullback."""

import functools
import math
import warnings

import numpy as np
import pytest

from oracles import flow_action, flow_positions, plane_wave
from qmlab.cli import load_shipped_config
from qmlab.config import parse_config, run
from qmlab.grid import Field2D, GridSpec
from qmlab.propagator import (
    CausticError,
    HamiltonianFlow,
    PhaseTable,
    apply_w,
    apply_w_star,
    build_phase,
    conjugated_symbols,
    eikonal_residual,
    integrate_flow,
    quasimode_pushforward,
)
from qmlab.quasimodes import build_graph_adapted_quasimode, defect
from qmlab.symbols import (
    ContactReport,
    GraphFn,
    _circle_sqrt,
    contact_order,
    graph_circle,
    graph_flat,
    graph_monomial,
    graph_parabola,
    graph_shear,
    graph_sum,
    graph_tilted_circle,
    xi1_symbol,
)


def mesh(y, xi):
    return np.meshgrid(y, xi, indexing="ij")


def closed_form_table(graph, grid, x1_values):
    """Phase table of an x-independent generator from phi = y xi - x1 a(xi)."""
    a_vals = np.asarray(graph.value(0.0, 0.0, grid.xi_coords), dtype=float)
    x1_values = np.asarray(x1_values, dtype=float)
    phi = np.stack([grid.x_coords[:, None] * grid.xi_coords[None, :] - x1 * a_vals[None, :]
                    for x1 in x1_values])
    return PhaseTable(graph=graph, h=grid.h, y_grid=grid.x_coords, x1_values=x1_values, phi=phi)


class TestFlow:
    def test_free_motion_closed_form(self):
        g = graph_parabola(0.5)  # a = xi^2/2
        y0 = np.linspace(-2, 2, 9)
        xi0 = np.linspace(-0.5, 0.5, 7)
        fl = integrate_flow(g, y0, xi0, 1.0, dt=1e-3)
        Y, XI = mesh(y0, xi0)
        assert np.max(np.abs(flow_positions(fl)[-1] - (Y + XI))) <= 1e-10
        assert np.max(np.abs(fl.xi_of[-1] - XI)) <= 1e-14
        assert fl.x1_values[0] == 0.0
        np.testing.assert_array_equal(flow_positions(fl)[0], Y)

    def test_circle_drift_closed_form(self):
        g = graph_circle()
        y0 = np.linspace(-1, 1, 5)
        xi0 = np.linspace(-0.6, 0.6, 7)
        t = 0.4
        fl = integrate_flow(g, y0, xi0, t, dt=1e-3)
        Y, XI = mesh(y0, xi0)
        drift = -XI / np.sqrt(1 - XI ** 2)
        assert np.max(np.abs(fl.xi_of[-1] - XI)) <= 1e-14  # conserved exactly
        assert np.max(np.abs(flow_positions(fl)[-1] - (Y + t * drift))) <= 1e-10
        assert fl.energy_drift <= 1e-12

    def test_shear_exponential_flow(self):
        g = graph_shear()
        y0 = np.linspace(-2, 2, 9)
        xi0 = np.linspace(-0.5, 0.5, 7)
        t = 0.5
        fl = integrate_flow(g, y0, xi0, t, dt=1e-3)
        Y, XI = mesh(y0, xi0)
        rel = np.max(np.abs(flow_positions(fl)[-1] - Y * math.exp(t))) / math.exp(t) / 2.0
        assert rel <= 1e-8
        assert np.max(np.abs(fl.xi_of[-1] - XI * math.exp(-t))) <= 1e-8

    def test_box_exit_flagged(self):
        with pytest.warns(UserWarning, match="left the box"):
            fl = integrate_flow(graph_shear(), np.linspace(-4, 4, 9),
                                np.array([0.5]), 0.5, dt=1e-3, box_half_width=4.0)
        assert fl.exited_box is not None and fl.exited_box.any()

    def test_evaluate_matches_snapshots(self):
        g = graph_tilted_circle()
        y0 = np.linspace(-1, 1, 5)
        xi0 = np.linspace(-0.4, 0.4, 5)
        fl = integrate_flow(g, y0, xi0, 0.3, dt=1e-3, save_at=[0.3])
        Y, XI = mesh(y0, xi0)
        y, xi = fl.evaluate(Y, XI, 0.3)  # marches (y, xi) of every mesh point
        assert np.array_equal(xi, np.broadcast_to(fl.xi_of[-1], XI.shape))
        assert np.max(np.abs(y - flow_positions(fl)[-1])) <= 1e-13  # y = E y0 + F rounds differently

    def test_negative_save_time_refused(self):
        # a snapshot labelled x1 = -0.1 used to hold the x1 = 0 state
        with pytest.raises(ValueError, match="negative"):
            integrate_flow(graph_shear(), np.array([1.0]), np.array([0.0]), 0.2,
                           dt=1e-3, save_at=[-0.1, 0.1, 0.2])

    def test_hand_built_graph_refused(self):
        def jet(x1, x2, xi2):
            x2, xi2 = np.asarray(x2), np.asarray(xi2)
            return (x2 ** 2 + xi2 ** 2) / 2.0, xi2, x2, None

        osc = GraphFn(name="oscillator", jet=jet, x_dependent=True,
                      xi2_derivative=lambda x1, x2, xi2, order: None)
        with pytest.raises(ValueError, match="'oscillator' is hand-built"):
            integrate_flow(osc, np.array([1.0]), np.array([0.0]), 0.2, dt=1e-3)

    @pytest.mark.parametrize("dt", [-1e-3, 0.0, math.nan, math.inf])
    def test_bad_step_refused(self, dt):
        # dt = -1e-3 used to become one RK4 step of 0.3
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate_flow(graph_shear(), np.array([1.0]), np.array([0.0]), 0.3, dt=dt)

    @pytest.mark.parametrize("x1_max", [math.nan, math.inf, 0.0, -0.1])
    def test_bad_end_time_refused(self, x1_max):
        with pytest.raises(ValueError, match="x1_max must be positive and finite"):
            integrate_flow(graph_shear(), np.array([1.0]), np.array([0.0]), x1_max, dt=1e-3)

    @pytest.mark.parametrize("t", [0.1234, 0.1 + 1e-9, math.nan])
    def test_save_time_off_lattice_refused(self, t):
        # save_at = [0.1234] used to return a snapshot labelled 0.123
        with pytest.raises(ValueError, match="off the step lattice"):
            integrate_flow(graph_shear(), np.array([1.0]), np.array([0.0]), 0.2,
                           dt=1e-3, save_at=[t, 0.2])
        fl = integrate_flow(graph_shear(), np.array([1.0]), np.array([0.0]), 0.2,
                            dt=1e-3, save_at=[0.1 + 1e-12, 0.2])  # rounding is not refused
        assert np.allclose(fl.x1_values, [0.0, 0.1, 0.2], rtol=0, atol=1e-15)

    def test_evaluate_backward_matches_closed_form(self):
        fl = integrate_flow(graph_shear(), np.array([1.0]), np.array([0.0]), 0.3, dt=1e-3)
        y_fwd, _ = fl.evaluate(1.0, 0.0, 0.3)
        y_back, _ = fl.evaluate(1.0, 0.0, -0.3)
        assert abs(y_fwd - math.exp(0.3)) <= 1e-12
        assert abs(y_back - math.exp(-0.3)) <= 1e-12


def tilted_circle_partials(tilt):
    """a = sqrt(1 - xi2^2) + tilt x2 xi2^2 and its five partials as separate callables."""
    def partials(x1, x2, xi2):
        x2, xi2 = np.asarray(x2), np.asarray(xi2)
        return (_circle_sqrt(xi2, 0) + tilt * x2 * xi2 ** 2,
                _circle_sqrt(xi2, 1) + 2.0 * tilt * x2 * xi2,
                tilt * xi2 ** 2 + 0.0 * x2,
                2.0 * tilt * xi2 + 0.0 * x2,
                _circle_sqrt(xi2, 2) + 2.0 * tilt * x2 + 0.0 * xi2,
                np.zeros(np.broadcast(x1, x2, xi2).shape))

    return tuple(lambda x1, x2, xi2, i=i: partials(x1, x2, xi2)[i] for i in range(6))


def jet_partials(graph):
    """Six partial callables from the jet, a_xixi from the closed-form xi2-derivative.

    Structural zeros are filled in; a_yy is zero for a term list, which is affine in x2.
    """
    def zero(x1, x2, xi2):
        return np.zeros(np.broadcast(x1, x2, xi2).shape)

    def entry(i):
        def f(x1, x2, xi2):
            v = graph.jet(x1, x2, xi2)[i]
            return zero(x1, x2, xi2) if v is None else v
        return f

    def a_xixi(x1, x2, xi2):
        return graph.xi2_derivative(x1, x2, xi2, 2) + zero(x1, x2, xi2)

    return tuple(entry(i) for i in range(4)) + (a_xixi, zero)


def oracle_rhs(parts, t, y, xi, jac):
    a, a_xi, a_y, a_yxi, a_xixi, a_yy = (np.asarray(f(t, y, xi), dtype=float) for f in parts)
    djac = np.empty_like(jac)
    djac[..., 0, 0] = a_yxi * jac[..., 0, 0] + a_xixi * jac[..., 1, 0]
    djac[..., 0, 1] = a_yxi * jac[..., 0, 1] + a_xixi * jac[..., 1, 1]
    djac[..., 1, 0] = -a_yy * jac[..., 0, 0] - a_yxi * jac[..., 1, 0]
    djac[..., 1, 1] = -a_yy * jac[..., 0, 1] - a_yxi * jac[..., 1, 1]
    return a_xi, -a_y, djac, xi * a_xi - a


def oracle_march(parts, y, xi, jac, action, t0, dt, steps):
    for s in range(steps):
        t = t0 + s * dt
        k1 = oracle_rhs(parts, t, y, xi, jac)
        k2 = oracle_rhs(parts, t + dt / 2, y + dt / 2 * k1[0], xi + dt / 2 * k1[1], jac + dt / 2 * k1[2])
        k3 = oracle_rhs(parts, t + dt / 2, y + dt / 2 * k2[0], xi + dt / 2 * k2[1], jac + dt / 2 * k2[2])
        k4 = oracle_rhs(parts, t + dt, y + dt * k3[0], xi + dt * k3[1], jac + dt * k3[2])
        y = y + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        xi = xi + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        jac = jac + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        action = action + dt / 6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
    return y, xi, jac, action


def oracle_flow(parts, y_init, xi_init, x1_max, dt, save_at):
    """RK4 with six partial callables and the strided (..., 2, 2) Jacobian.

    Snapshots (y, xi, jac, action) are taken at the same steps as integrate_flow.
    """
    n_steps = max(1, int(math.ceil((x1_max / dt) * (1.0 - 1e-12))))
    dt = x1_max / n_steps
    y = np.repeat(y_init[:, None], len(xi_init), axis=1)
    xi = np.repeat(xi_init[None, :], len(y_init), axis=0)
    jac = np.zeros(y.shape + (2, 2))
    jac[..., 0, 0] = 1.0
    jac[..., 1, 1] = 1.0
    state, snaps, prev = (y, xi, jac, np.zeros_like(y)), [], 0
    for s in sorted({int(round(t / dt)) for t in save_at} | {0}):
        state = oracle_march(parts, *state, prev * dt, dt, s - prev)
        prev = s
        snaps.append(state)
    return [np.stack(c) for c in zip(*snaps)]


ORACLE_Y0 = np.linspace(-2.0, 2.0, 33)
ORACLE_XI0 = np.linspace(-1.3, 1.3, 17)  # crosses the circle seam at |xi2| = 0.95


@functools.lru_cache
def tilted_circle_oracle(tilt):
    """The oracle's (y, xi, jac, action) for the tilted circle, saved at 0.1 and 0.3."""
    return oracle_flow(tilted_circle_partials(tilt), ORACLE_Y0, ORACLE_XI0, 0.3, 1e-3, [0.1, 0.3])


class TestFlowOracle:
    """integrate_flow (the column march over xi2 alone) against the full-matrix six-callable
    march of the whole mesh: xi and dy/dy0 bitwise, y and the action to rounding."""

    def check(self, graph, want):
        want_y, want_xi, want_jac, want_action = want
        fl = integrate_flow(graph, ORACLE_Y0, ORACLE_XI0, 0.3, dt=1e-3, save_at=[0.1, 0.3])
        assert fl.xi_of.shape == fl.dy_dy0.shape == (3, 17)
        assert np.array_equal(np.broadcast_to(fl.xi_of[:, None], want_xi.shape), want_xi)
        assert np.array_equal(np.broadcast_to(fl.dy_dy0[:, None], want_y.shape),
                              want_jac[..., 0, 0])
        assert np.all(want_jac[..., 1, 0] == 0.0)  # dxi/dy0: xi does not depend on y0
        # measured maxima over the cases below: 5.9e-14 (y) and 9.8e-15 (action)
        assert np.max(np.abs(flow_positions(fl) - want_y)) <= 1e-13
        assert np.max(np.abs(flow_action(fl) - want_action)) <= 1e-13

    @pytest.mark.parametrize("tilt", [0.5, 0.3])  # 0.3 is not dyadic: products round
    def test_tilted_circle_bitwise(self, tilt):
        self.check(graph_tilted_circle(tilt), tilted_circle_oracle(tilt))

    @pytest.mark.parametrize("graph", [
        graph_circle(), graph_shear(), graph_flat(), graph_parabola(0.5),
        graph_sum(graph_tilted_circle(0.1), graph_monomial(2, 1.0)),
    ], ids=lambda g: g.name)
    def test_structural_zeros_skipped_bitwise(self, graph):
        self.check(graph, oracle_flow(jet_partials(graph), ORACLE_Y0, ORACLE_XI0, 0.3, 1e-3,
                                      [0.1, 0.3]))


class TestPhase:
    def test_constant_coefficient_closed_form(self):
        # an x-independent generator on the whole lattice y in [-8, 8), also where no
        # characteristic launched from the lattice arrives (outside the fan); measured
        # 2.0e-14 and 2.3e-12 (|phi| up to about 50 on the xi lattice, rounding of the
        # 700-step march), against 4.3e-13 and 2.2e-7 for a spline pullback
        g = GridSpec(8.0, 128, 0.1)
        y = g.x_coords
        for xi, atol in ((np.linspace(-0.8, 0.8, 33), 1e-13), (g.xi_coords, 1e-11)):
            fl = integrate_flow(graph_circle(), y, xi, 0.7, dt=1e-3, save_at=[0.7])
            phi, amp = build_phase(fl, g, y_out=y).slice_arrays(0.7)
            Y, XI = mesh(y, xi)
            np.testing.assert_allclose(phi, Y * XI - 0.7 * _circle_sqrt(XI, 0),
                                       rtol=0, atol=atol)
            assert np.all(amp == 1.0)

    @pytest.mark.parametrize("tilt", [0.5, 0.3])
    def test_phase_at_oracle_endpoints(self, tilt):
        # phi(x1, y(x1; y0, xi0), xi0) = y0 xi0 + S(x1; y0, xi0) on the oracle's trajectories
        y0, xi0 = ORACLE_Y0, ORACLE_XI0
        want_y, _, _, want_action = tilted_circle_oracle(tilt)
        fl = integrate_flow(graph_tilted_circle(tilt), y0, xi0, 0.3, dt=1e-3, save_at=[0.1, 0.3])
        g = GridSpec(8.0, 64, 0.1)
        worst = 0.0
        for m in range(len(xi0)):
            for s, x1 in enumerate(fl.x1_values):
                phi, _ = build_phase(fl, g, y_out=want_y[s, :, m]).slice_arrays(x1)
                want = y0 * xi0[m] + want_action[s, :, m]
                worst = max(worst, float(np.max(np.abs(phi[:, m] - want))))
        assert worst <= 1e-13  # measured 3.0e-14 (tilt 0.5) and 1.1e-14 (tilt 0.3)

    def test_quadratic_phase_residual(self):
        # a = xi^2/2: phi = y xi - x1 xi^2/2; FD residual vanishes identically
        g = GridSpec(8.0, 128, 0.1)
        tab = closed_form_table(graph_parabola(0.5), g, np.arange(0.1, 0.2, 0.01))
        assert eikonal_residual(tab) <= 1e-10

    def test_shear_table_matches_closed_form(self):
        gsh = graph_shear()
        g = GridSpec(8.0, 128, 0.05)
        y = np.linspace(-2, 2, 129)
        xi = np.linspace(-1, 1, 33)
        fl = integrate_flow(gsh, y, xi, 0.2, dt=1e-3, save_at=[0.1, 0.2])
        tab = build_phase(fl, g)
        Y, XI = mesh(y, xi)
        for x1 in (0.1, 0.2):
            i = tab.slice_index(x1)
            np.testing.assert_allclose(tab.phi[i], Y * math.exp(-x1) * XI, atol=1e-12)

    def test_shear_residual_small_on_window(self):
        gsh = graph_shear()
        g = GridSpec(8.0, 256, 0.05)
        y = np.linspace(-2, 2, 256)
        xi = np.linspace(-1, 1, 65)
        save = np.arange(0.196, 0.2041, 1e-3)
        fl = integrate_flow(gsh, y, xi, 0.204, dt=1e-3, save_at=save)
        assert eikonal_residual(build_phase(fl, g)) <= 1e-6

    def test_second_order_convergence(self):
        gtc = graph_tilted_circle()
        g = GridSpec(8.0, 256, 0.05)

        def residual(ny, ds):
            yv = np.linspace(-2, 2, ny)
            xiv = np.linspace(-0.8, 0.8, 33)
            sv = np.arange(0.2 - 2 * ds, 0.2 + 2.0001 * ds, ds)
            fl = integrate_flow(gtc, yv, xiv, sv[-1], dt=2.5e-4, save_at=sv)
            return eikonal_residual(build_phase(fl, g))

        r1 = residual(129, 4e-3)
        r2 = residual(257, 2e-3)
        assert r1 / r2 >= 3.9  # second order, with higher-order slack

    def test_caustic_shortens_horizon(self):
        # tilt 0.5: xi' = -xi^2 / 2 and dy/dy0 = (1 + xi0 t / 2)^2, which reads 0.5625,
        # 0.25 and 0.0756 at xi0 = -1, below the threshold only at the last save
        g = GridSpec(8.0, 64, 0.1)
        y = np.linspace(-2, 2, 65)
        xi = np.linspace(-1, 1, 17)
        fl = integrate_flow(graph_tilted_circle(0.5), y, xi, 1.45, dt=1e-3,
                            save_at=[0.5, 1.0, 1.45])
        np.testing.assert_allclose(fl.dy_dy0[1:, 0], [0.5625, 0.25, 0.075625], rtol=1e-10)
        with pytest.warns(UserWarning, match="caustic"):
            tab = build_phase(fl, g)
        assert tab.caustic_limited
        assert tab.x1_max == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(tab.x1_values, [0.0, 0.5, 1.0], rtol=0, atol=1e-12)
        gv = np.exp(-g.x_coords ** 2)
        with pytest.raises(CausticError):
            apply_w(tab, gv.astype(complex), 1.45, g)


class TestApplyW:
    def setup_method(self):
        self.g = GridSpec(8.0, 256, 0.05)
        x = self.g.x_coords
        self.gv = np.exp(-x ** 2 / (2 * 0.4 ** 2)) * np.exp(1j * 0.3 * x / self.g.h)

    def test_identity_at_zero(self):
        tab = closed_form_table(graph_circle(), self.g, [0.0])
        out = apply_w(tab, self.gv, 0.0, self.g)
        assert np.max(np.abs(out - self.gv)) <= 1e-10

    def test_unitary_constant_coefficient(self):
        out = apply_w(graph_circle(), self.gv, 0.3, self.g)
        n0 = np.sqrt(np.sum(np.abs(self.gv) ** 2))
        assert abs(np.sqrt(np.sum(np.abs(out) ** 2)) - n0) / n0 <= 1e-10

    def test_multiplier_matches_quadrature(self):
        w1 = apply_w(graph_circle(), self.gv, 0.25, self.g)
        w2 = apply_w(closed_form_table(graph_circle(), self.g, [0.25]), self.gv, 0.25, self.g)
        assert np.max(np.abs(w1 - w2)) <= 1e-12

    def test_adjoint_exact(self):
        tab = closed_form_table(graph_circle(), self.g, [0.2])
        x = self.g.x_coords
        u2 = np.exp(-(x - 0.3) ** 2) * np.exp(1j * 0.2 * x / self.g.h)
        lhs = np.sum(apply_w(tab, self.gv, 0.2, self.g) * np.conj(u2)) * self.g.dx
        rhs = np.sum(self.gv * np.conj(apply_w_star(tab, u2, 0.2, self.g))) * self.g.dx
        assert abs(lhs - rhs) <= 1e-10

    def test_star_solves_transposed_equation(self):
        # x-independent circle: W* is the inverse multiplier
        w = apply_w(graph_circle(), self.gv, 0.2, self.g)
        back = apply_w_star(graph_circle(), w, 0.2, self.g)
        assert np.max(np.abs(back - self.gv)) <= 1e-10

    def test_x_dependent_graph_refused(self):
        for apply in (apply_w, apply_w_star):
            with pytest.raises(ValueError, match="graph 'shear' depends on x"):
                apply(graph_shear(), self.gv, 0.2, self.g)

    def test_variable_coefficient_w_star_w(self):
        gsh = graph_shear()
        y0 = np.linspace(-8.0, 8.0, 257)
        fl = integrate_flow(gsh, y0, self.g.xi_coords, 0.2, dt=1e-3, save_at=[0.2])
        tab = build_phase(fl, self.g, transport_correction=True, y_out=self.g.x_coords)
        w = apply_w(tab, self.gv, 0.2, self.g)
        back = apply_w_star(tab, w, 0.2, self.g)
        rel = np.sqrt(np.sum(np.abs(back - self.gv) ** 2) / np.sum(np.abs(self.gv) ** 2))
        assert rel <= self.g.h  # identity to O(h) on localized data


class TestConjugation:
    def test_identity_at_zero_time(self):
        a_g = graph_tilted_circle(0.1)
        q_g = graph_sum(a_g, graph_monomial(1, 1.0))
        _, q_t = conjugated_symbols(a_g, [q_g], [0.0], 1e-3)[0.0]
        t = np.linspace(-0.3, 0.3, 7)
        np.testing.assert_allclose(q_t.graph_fn.value(0.0, 0.2, t),
                                   q_g.value(0.0, 0.2, t), atol=1e-12)

    def test_constant_coefficient_conserved(self):
        a_g = graph_circle()
        q_g = graph_sum(a_g, graph_monomial(1, 1.0))
        _, q_t = conjugated_symbols(a_g, [q_g], [0.3], 1e-3)[0.3]
        t = np.linspace(-0.3, 0.3, 7)
        # xi2 conserved for x-independent a: pullback equals the original graph
        np.testing.assert_allclose(q_t.graph_fn.value(0.3, 0.0, t),
                                   q_g.value(0.0, 0.0, t), atol=1e-10)

    @pytest.mark.parametrize("k", [1, 2])
    def test_contact_preserved(self, k):
        a_g = graph_tilted_circle(0.1)
        q_g = graph_sum(a_g, graph_monomial(k, 1.0))
        x1 = 0.1
        a_t, q_t = conjugated_symbols(a_g, [q_g], [x1], 1e-3)[x1]
        xi0 = (float(a_g.value(x1, 0.0, 0.0)), 0.0)
        rep = contact_order(a_t, q_t, xi0, max_order=k + 2, x=(x1, 0.0))
        assert rep.order == k
        assert not rep.inconclusive

    @pytest.mark.parametrize("x1", [0.1, 0.3])
    @pytest.mark.parametrize("x2, xi2", [(0.0, 0.0), (0.4, 0.3), (-0.7, -0.45)])
    def test_base_point_label_is_conserved_energy(self, x1, x2, xi2):
        # a is autonomous, so a(x1, x2, xi2) labels the flowed a~(x2, xi2);
        # (0, 0) is the base point of the egorov stage
        a_g = graph_tilted_circle(0.1)
        a_t, _ = conjugated_symbols(a_g, [graph_sum(a_g, graph_monomial(1, 1.0))], [x1], 1e-3)[x1]
        flowed = float(a_t.graph_fn.value(x1, x2, xi2))
        assert abs(flowed - float(a_g.value(x1, x2, xi2))) <= 1e-12

    def test_step_rounded_as_integrate_flow(self):
        a_g = graph_tilted_circle(0.1)
        q_g = graph_sum(a_g, graph_monomial(1, 1.0))
        x2, xi2 = np.linspace(-0.5, 0.5, 7), np.linspace(-0.3, 0.3, 7)
        for x1, dt in ((0.3, 1e-3), (0.25, 0.007)):  # 0.25 / 0.007 is no whole number
            fl = integrate_flow(a_g, x2, xi2, x1, dt=dt, save_at=[x1])
            a_t, q_t = conjugated_symbols(a_g, [q_g], [x1], dt)[x1]
            X2, XI2 = mesh(x2, xi2)
            want = q_g.value(x1, flow_positions(fl)[-1], fl.xi_of[-1])
            assert np.array_equal(q_t.graph_fn.value(x1, X2, XI2), want)

    def test_bad_time_or_step_refused(self):
        a_g = graph_tilted_circle(0.1)
        for x1, dt in ((-0.1, 1e-3), (0.1, 0.0), (0.1, -1e-3), (0.1, float("nan")),
                       (float("nan"), 1e-3)):
            with pytest.raises(ValueError, match="x1 >= 0 and dt > 0"):
                conjugated_symbols(a_g, [a_g], [x1], dt)[x1]


class TestSharedPullback:
    """conjugated_symbols: every pulled-back symbol at every time reads one march."""

    def setup_method(self):
        self.a_g = graph_tilted_circle(0.1)
        self.q_gs = [graph_sum(self.a_g, graph_monomial(k, 1.0)) for k in (1, 2)]

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        original = HamiltonianFlow.evaluate

        def counting(flow, y0, xi0, x1):
            calls.append((x1, np.shape(xi0)))
            return original(flow, y0, xi0, x1)

        monkeypatch.setattr(HamiltonianFlow, "evaluate", counting)
        return calls

    def test_each_time_equals_its_own_pullback(self, evaluations):
        x2, xi2 = mesh(np.linspace(-0.5, 0.5, 7), np.linspace(-0.3, 0.3, 7))
        pulled = conjugated_symbols(self.a_g, self.q_gs, [0.3, 0.1, 0.0], 1e-3)
        shared = {x1: [s.graph_fn.value(x1, x2, xi2) for s in pulled[x1]] for x1 in pulled}
        assert [round(x1, 12) for x1, _ in evaluations] == [0.1, 0.2]  # 0 -> 0.1 -> 0.3
        for x1 in (0.1, 0.3):
            (a_t, q1_t), (_, q2_t) = (conjugated_symbols(self.a_g, [q_g], [x1], 1e-3)[x1]
                                      for q_g in self.q_gs)
            for got, sym in zip(shared[x1], (a_t, q1_t, q2_t)):
                want = sym.graph_fn.value(x1, x2, xi2)
                if x1 == 0.1:  # the first segment is the march of a lone x1
                    assert np.array_equal(got, want)
                else:  # 100 + 200 steps against 300
                    assert np.max(np.abs(got - want)) <= 1e-13
        for got, g in zip(shared[0.0], [self.a_g, *self.q_gs]):
            assert np.array_equal(got, g.value(0.0, x2, xi2))  # no march at x1 = 0

    def test_egorov_stage_marches_once(self, evaluations):
        report = run(parse_config(load_shipped_config("egorov_contact")))
        assert report.passed
        # k = 1, 2 at x1 = 0.1, 0.3: one 17-point stencil (max_order 4), two segments
        assert [(round(x1, 12), shape) for x1, shape in evaluations] == [
            (0.1, (17,)), (0.2, (17,))]

    def test_k_rows_do_not_depend_on_the_other_ks(self):
        text = load_shipped_config("egorov_contact")
        both = run(parse_config(text)).rows[0].measurements
        alone = run(parse_config(text.replace("k_list = 1 2", "k_list = 1"))).rows[0].measurements
        assert alone == {key: v for key, v in both.items() if key[2] == 1}
        assert len(alone) == 4

    def test_negative_time_in_the_list_refused(self):
        with pytest.raises(ValueError, match="x1 >= 0 and dt > 0"):
            conjugated_symbols(self.a_g, self.q_gs, [0.1, -0.2], 1e-3)

    def test_hand_built_flow_refused(self):
        fake = GraphFn("fake", self.a_g.jet, True, self.a_g.xi2_derivative)
        with pytest.raises(TypeError, match="'fake' is hand-built"):
            conjugated_symbols(fake, self.q_gs, [0.1], 1e-3)


def scalar_contact_oracle(g1, g2, xi0, max_order, tol=1e-8):
    """Pointwise Richardson contact check for graphs without closed-form derivatives."""
    t0 = xi0[1]

    def rich(fn, r):
        def fd(step):
            acc = 0.0
            for i in range(r + 1):
                acc += (-1.0) ** i * math.comb(r, i) * fn(t0 + (r / 2.0 - i) * step)
            return acc / step ** r
        return (4.0 * fd(1e-2 / 2.0) - fd(1e-2)) / 3.0

    f1 = lambda t: float(g1(t))
    diff = lambda t: float(g1(t)) - float(g2(t))
    table, scales = [], [abs(f1(t0))]
    order, first, inconclusive = math.inf, 0.0, False
    for r in range(1, max_order + 2):
        dr = rich(diff, r)
        scales.append(abs(rich(f1, r)))
        table.append(dr)
        tol_r = tol * (1.0 + max(scales))
        if abs(dr) > tol_r:
            order, first = r - 1, dr
            break
        inconclusive |= tol_r / 10.0 <= abs(dr) <= tol_r
    return ContactReport(xi0=tuple(xi0), order=order, first_nonzero_derivative=first,
                         derivative_table=tuple(table), curvature=abs(rich(f1, 2)),
                         inconclusive=inconclusive)


class TestBatchedContact:
    """contact_order on pullbacks: one shared flow integration, same report as pointwise."""

    x1 = 0.1

    @pytest.fixture
    def pullbacks(self):
        a_g = graph_tilted_circle(0.1)
        q_g = graph_sum(a_g, graph_monomial(1, 1.0))
        return a_g, conjugated_symbols(a_g, [q_g], [self.x1], 1e-3)[self.x1]

    def test_one_flow_evaluation(self, pullbacks, monkeypatch):
        calls = []
        original = HamiltonianFlow.evaluate

        def counting(flow, y0, xi0, x1):
            calls.append(x1)
            return original(flow, y0, xi0, x1)

        monkeypatch.setattr(HamiltonianFlow, "evaluate", counting)
        a_g, (a_t, q_t) = pullbacks
        xi0 = (float(a_g.value(self.x1, 0.0, 0.0)), 0.0)
        rep = contact_order(a_t, q_t, xi0, max_order=3, x=(self.x1, 0.0))
        assert rep.order == 1
        assert calls == [self.x1]  # a~ and q~ on every stencil point: one flow

    def test_matches_pointwise_oracle(self, pullbacks):
        a_g, (a_t, q_t) = pullbacks
        x = (self.x1, 0.0)
        xi0 = (float(a_g.value(self.x1, 0.0, 0.0)), 0.0)
        rep = contact_order(a_t, q_t, xi0, max_order=3, x=x)
        oracle = scalar_contact_oracle(functools.partial(a_t.graph_fn.value, *x),
                                       functools.partial(q_t.graph_fn.value, *x), xi0, 3)
        assert rep == oracle


class TestPushforward:
    def test_plane_wave_on_graph_becomes_x1_constant(self):
        g = GridSpec(8.0, 256, 0.05)
        xi2_0 = g.xi_coords[160]
        a_val = float(np.sqrt(1 - xi2_0 ** 2))
        x1, x2 = g.x_mesh()
        window = np.exp(-(x1 ** 2 + x2 ** 2) / (2 * 1.0 ** 2))
        u = Field2D(g, np.exp(1j * (a_val * x1 + xi2_0 * x2) / g.h) * window)
        v = quasimode_pushforward(graph_circle(), u)
        # v should be a near-null field of hD_x1: windowed plane wave sheared to xi1 ~ 0
        rep = defect(xi1_symbol(), v, 1)
        assert rep.defect <= 3 * g.h  # window bandwidth dominates
        # exact-null variant: unwindowed wave is constant in x1 after W
        u2 = Field2D(g, np.exp(1j * (a_val * x1 + xi2_0 * x2) / g.h))
        v2 = quasimode_pushforward(graph_circle(), u2, localization_tol=1.1)
        col = v2.values[0]
        assert np.max(np.abs(v2.values - col[None, :])) <= 1e-8

    def test_norm_preserved(self):
        g = GridSpec(8.0, 256, 0.05)
        u = build_graph_adapted_quasimode(g, graph_circle(), 1)
        v = quasimode_pushforward(graph_circle(), u)
        assert v.l2_norm() == pytest.approx(u.l2_norm(), rel=1e-10)

    def test_zero_field(self):
        g = GridSpec(8.0, 64, 0.1)
        u = Field2D(g, np.zeros((64, 64), complex))
        v = quasimode_pushforward(graph_circle(), u)
        assert np.all(v.values == 0.0)

    def test_x_dependent_graph_refused(self):
        g = GridSpec(4.0, 64, 0.1)
        x1, x2 = g.x_mesh()
        u = Field2D(g, np.exp(-4.0 * (x1 ** 2 + x2 ** 2)).astype(complex))  # localized
        with pytest.raises(ValueError, match="graph 'shear' depends on x"):
            quasimode_pushforward(graph_shear(), u)

    def test_delocalized_input_rejected(self):
        g = GridSpec(8.0, 64, 0.1)
        u = plane_wave(g, (g.xi_coords[40], 0.0))
        with pytest.raises(ValueError, match="not localized"):
            quasimode_pushforward(graph_circle(), u)

    def test_zero_band_captures_pushforward_mass(self):
        # straightened model field concentrates in the lowest dyadic band
        import warnings

        from qmlab.grid import semiclassical_fft
        from qmlab.quasimodes import TAlphaSpec, build_t_alpha, grid_for_t_alpha
        from qmlab.wavelets import make_partition

        h, k = 2.0 ** -6, 1
        g = grid_for_t_alpha(h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u = build_t_alpha(TAlphaSpec(h=h, alpha=1.0 / (k + 1)), g)
        v = quasimode_pushforward(graph_circle(), u,
                                  localization_tol=0.5)
        spec = semiclassical_fft(v).values
        part = make_partition(h, k)
        chi0 = part.band_multiplier(g.xi_coords, 0)
        mass = np.sum(np.abs(spec * chi0[None, :]) ** 2) / np.sum(np.abs(spec) ** 2)
        assert mass >= 0.9

    @pytest.mark.parametrize("k", [1, 2])
    def test_strong_joint_quasimode_after_pushforward(self, k):
        from qmlab.symbols import xi2_power_symbol

        ratios1, ratios2 = [], []
        for e in (4, 5, 6, 7, 8):
            h = 2.0 ** -e
            n = 64
            while np.pi * h * n / 16.0 < 1.3:
                n *= 2
            g = GridSpec(8.0, n, h)
            u = build_graph_adapted_quasimode(g, graph_circle(), k)
            v = quasimode_pushforward(graph_circle(), u)
            ratios1.append(defect(xi1_symbol(), v, 1).ratio_to_power)
            ratios2.append(defect(xi2_power_symbol(k + 1), v, 1).ratio_to_power)
        assert max(ratios1) / min(ratios1) <= 3.0
        assert max(ratios2) / min(ratios2) <= 3.0
