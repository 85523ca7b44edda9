import math

import numpy as np
import pytest

from rarewave.gas import (PolytropicGas, PrimitiveState, RiemannInvariants, density_from_sound_speed,
                          from_invariants, pressure, sound_speed, to_invariants)
from rarewave.riemann1d import (CenteredFan, RiemannProblem1D, evaluate_fan,
                                geometric_profile, lax_admissible, shock_jump_residual,
                                solve_riemann)

GAS2 = PolytropicGas(2.0, 0.5)


def hugoniot_partner(gas, left, rho_r, forward=True):
    """Exact post-state across a discontinuity, from the jump relation."""
    rho_l = density_from_sound_speed(gas, left.c)
    p_l, p_r = pressure(gas, rho_l), pressure(gas, rho_r)
    dv = math.sqrt((p_r - p_l) * (1.0 / rho_l - 1.0 / rho_r))
    v_r = left.v1 - dv if forward else left.v1 + dv
    return PrimitiveState(c=float(sound_speed(gas, rho_r)), v1=v_r)


class TestCenteredFan:
    def test_right_edge_matches_data(self):
        fan = CenteredFan(GAS2, 0.0, 1.0)
        s = fan(1.0, 1.0)
        assert (s.v1, s.c) == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_interior_closed_form(self):
        fan = CenteredFan(GAS2, 0.0, 1.0)
        s = fan(0.0, 1.0)
        assert s.v1 == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert s.c == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_w_constant_through_fan(self):
        fan = CenteredFan(GAS2, 0.0, 1.0)
        for xi in np.linspace(fan.vacuum_slope, fan.head_slope, 57):
            v, c = fan.state_at_slope(xi)
            w = 0.5 * (2.0 * c / (GAS2.gamma - 1.0) - v)
            assert w == pytest.approx(1.0, abs=1e-14)

    def test_t_nonpositive_rejected(self):
        fan = CenteredFan(GAS2, 0.0, 1.0)
        with pytest.raises(ValueError):
            fan(0.1, 0.0)

    def test_random_fans_keep_w_constant(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            gas = PolytropicGas(rng.uniform(1.1, 2.9), rng.uniform(0.2, 2.0))
            v0, c0 = rng.uniform(-1, 1), rng.uniform(0.2, 2.0)
            fan = CenteredFan(gas, v0, c0)
            xi = rng.uniform(fan.vacuum_slope, fan.head_slope)
            v, c = fan.state_at_slope(xi)
            w_ref = 0.5 * (2.0 * c0 / (gas.gamma - 1.0) - v0)
            w = 0.5 * (2.0 * c / (gas.gamma - 1.0) - v)
            assert abs(w - w_ref) < 1e-12 * max(1.0, abs(w_ref))

    def test_vacuum_threshold_value(self):
        # the forward fan reaches vacuum a parameter distance
        # (gamma+1)/(gamma-1)*c0 below the head slope
        fan = CenteredFan(GAS2, 0.0, 1.0)
        width = fan.head_slope - fan.vacuum_slope
        assert width == pytest.approx(3.0, abs=1e-14)
        _, c = fan.state_at_slope(fan.vacuum_slope)
        assert c == 0.0


class TestJumpConditions:
    def test_equal_states_zero(self):
        s = PrimitiveState(c=1.0, v1=0.3)
        assert shock_jump_residual(GAS2, s, s) == 0.0

    def test_constructed_pair(self):
        left = PrimitiveState(c=1.0, v1=0.2)
        right = hugoniot_partner(GAS2, left, rho_r=1.8)
        assert abs(shock_jump_residual(GAS2, left, right)) <= 1e-12

    def test_generic_pair_nonzero(self):
        a = PrimitiveState(c=1.0, v1=0.0)
        b = PrimitiveState(c=1.4, v1=1.0)
        assert abs(shock_jump_residual(GAS2, a, b)) > 1e-3


class TestLaxAdmissibility:
    def test_compressive_forward_shock(self):
        # forward shock: denser post-state on the left of the jump
        right = PrimitiveState(c=1.0, v1=0.0)
        left = hugoniot_partner(GAS2, right, rho_r=1.6, forward=False)
        assert lax_admissible(GAS2, left, right, family=2)
        assert not lax_admissible(GAS2, right, left, family=2)

    def test_zero_strength_not_admissible(self):
        s = PrimitiveState(c=1.0, v1=0.1)
        assert not lax_admissible(GAS2, s, s, family=1)

    def test_non_jump_pair_rejected(self):
        a = PrimitiveState(c=1.0, v1=0.0)
        b = PrimitiveState(c=1.5, v1=1.0)
        with pytest.raises(ValueError):
            lax_admissible(GAS2, a, b, family=1)


class TestSolve:
    def test_equal_states(self):
        s = PrimitiveState(c=1.0, v1=0.2)
        fan = solve_riemann(RiemannProblem1D(GAS2, s, s))
        assert not fan.has_vacuum
        assert fan.middle.c == pytest.approx(1.0, abs=1e-12)
        assert fan.wave1.kind == "rarefaction" and fan.wave1.strength <= 1e-12
        assert fan.wave2.kind == "rarefaction" and fan.wave2.strength <= 1e-12

    def test_pure_forward_fan_data(self):
        left = PrimitiveState(c=2.0 / 3.0, v1=-2.0 / 3.0)  # interior fan ray x/t = 0
        right = PrimitiveState(c=1.0, v1=0.0)
        fan = solve_riemann(RiemannProblem1D(GAS2, left, right))
        assert fan.wave1.strength <= 1e-12
        assert fan.wave2.kind == "rarefaction"
        assert fan.wave2.head == pytest.approx(1.0, abs=1e-12)
        assert fan.wave2.tail == pytest.approx(0.0, abs=1e-12)

    def test_divergent_data_gives_vacuum(self):
        left = PrimitiveState(c=1.0, v1=-5.0)
        right = PrimitiveState(c=1.0, v1=5.0)
        inv_l = to_invariants(GAS2, left)
        inv_r = to_invariants(GAS2, right)
        assert inv_l.wbar + inv_r.w < 0.0
        fan = solve_riemann(RiemannProblem1D(GAS2, left, right))
        assert fan.has_vacuum

    def test_vacuum_detection_matches_invariant_criterion(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            gas = PolytropicGas(rng.uniform(1.2, 2.8), 0.5)
            left = PrimitiveState(c=rng.uniform(0.1, 2), v1=rng.uniform(-4, 4))
            right = PrimitiveState(c=rng.uniform(0.1, 2), v1=rng.uniform(-4, 4))
            fan = solve_riemann(RiemannProblem1D(gas, left, right))
            crit = to_invariants(gas, left).wbar + to_invariants(gas, right).w < 0.0
            assert fan.has_vacuum == crit

    def test_solution_consistency_random(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            gas = PolytropicGas(rng.uniform(1.2, 2.8), rng.uniform(0.2, 1.5))
            left = PrimitiveState(c=rng.uniform(0.2, 2), v1=rng.uniform(-2, 2))
            right = PrimitiveState(c=rng.uniform(0.2, 2), v1=rng.uniform(-2, 2))
            fan = solve_riemann(RiemannProblem1D(gas, left, right))
            if fan.has_vacuum:
                continue
            for wave, outer, family in ((fan.wave1, left, 1), (fan.wave2, right, 2)):
                if wave.kind == "shock":
                    pair = (outer, fan.middle) if family == 1 else (fan.middle, outer)
                    scale = 1.0 + (pair[0].v1 - pair[1].v1) ** 2
                    assert abs(shock_jump_residual(gas, *pair)) <= 1e-10 * scale
                    assert lax_admissible(gas, *pair, family=family)
                else:
                    for edge in (wave.head, wave.tail):
                        lo = evaluate_fan(fan, edge - 1e-11)
                        hi = evaluate_fan(fan, edge + 1e-11)
                        assert abs(lo.c - hi.c) < 1e-9
                        assert abs(lo.v1 - hi.v1) < 1e-9


    def test_two_rarefaction_middle_to_round_off(self):
        # the middle state of two rarefactions has wbar_l and w_r as its invariants;
        # both sides keep c >= 0.5, so the invariants do not swamp the middle c
        rng = np.random.default_rng(3)
        worst = 0.0
        for k in range(3000):
            gas = PolytropicGas(rng.uniform(1.5, 2.5), rng.uniform(0.3, 1.0))
            spread = 4.0 if k % 5 == 0 else 1.5
            left = PrimitiveState(c=rng.uniform(0.5, 1.5), v1=rng.uniform(-spread, spread))
            right = PrimitiveState(c=rng.uniform(0.5, 1.5), v1=rng.uniform(-spread, spread))
            inv = RiemannInvariants(to_invariants(gas, left).wbar, to_invariants(gas, right).w)
            if not 0.0 < inv.wbar + inv.w:
                continue
            ref = from_invariants(gas, inv).c
            if ref >= min(left.c, right.c):
                continue
            fan = solve_riemann(RiemannProblem1D(gas, left, right))
            assert fan.wave1.kind == fan.wave2.kind == "rarefaction"
            worst = max(worst, abs(fan.middle.c - ref) / np.spacing(ref))
        assert worst <= 256

    def test_exact_middle_state(self):
        # wbar_l = 1 and w_r = 0.55 give c_m = 0.775, a root that the wave curves hit exactly
        left, right = PrimitiveState(c=1.0, v1=0.0), PrimitiveState(c=0.8, v1=0.5)
        fan = solve_riemann(RiemannProblem1D(GAS2, left, right))
        assert fan.middle.c == 0.775
        assert fan.middle.v1 == pytest.approx(0.45, abs=1e-15)


class TestEvaluateFan:
    def setup_method(self):
        left = PrimitiveState(c=0.8, v1=-0.4)
        right = PrimitiveState(c=1.0, v1=0.6)
        self.fan = solve_riemann(RiemannProblem1D(GAS2, left, right))

    def test_far_field(self):
        assert evaluate_fan(self.fan, -100.0) == self.fan.left
        assert evaluate_fan(self.fan, 100.0) == self.fan.right

    def test_forward_fan_interior_matches_closed_form(self):
        # two-rarefaction solution: sample the forward fan interior
        assert self.fan.wave2.kind == "rarefaction"
        mid = self.fan.middle
        ref = CenteredFan(GAS2, self.fan.right.v1, self.fan.right.c)
        for xi in np.linspace(self.fan.wave2.tail + 1e-9, self.fan.wave2.head - 1e-9, 11):
            got = evaluate_fan(self.fan, xi)
            v, c = ref.state_at_slope(xi)
            assert got.v1 == pytest.approx(float(v), abs=1e-14)
            assert got.c == pytest.approx(float(c), abs=1e-14)
        assert mid.c < self.fan.right.c

    def test_backward_fan_interior_matches_closed_form(self):
        assert self.fan.wave1.kind == "rarefaction"
        g = GAS2.gamma
        wbar_l = to_invariants(GAS2, self.fan.left).wbar
        for xi in np.linspace(self.fan.wave1.head + 1e-9, self.fan.wave1.tail - 1e-9, 11):
            got = evaluate_fan(self.fan, xi)
            c = (g - 1.0) / (g + 1.0) * (2.0 * wbar_l - xi)
            assert got.c == pytest.approx(c, abs=1e-14)
            assert got.v1 == pytest.approx(xi + c, abs=1e-14)

    def test_self_similarity(self):
        for x, t in ((0.3, 0.5), (0.6, 1.0)):
            a = evaluate_fan(self.fan, x / t)
            b = evaluate_fan(self.fan, (2 * x) / (2 * t))
            assert a == b


class TestGeometricProfile:
    def test_diagonal_variables(self):
        prof = geometric_profile(GAS2, 0.0, 1.0, t=0.7, x=0.0)
        assert prof.Um1 == 0.0
        assert prof.u == 0.0
        assert prof.kappa == pytest.approx(0.7)
        assert prof.mu == pytest.approx((2.0 / 3.0) * 0.7, abs=1e-14)

    def test_normal_derivative_of_leading_variable(self):
        # finite difference in x at fixed t, scaled by -t
        t, x, h = 0.7, 0.05, 1e-6
        up = geometric_profile(GAS2, 0.0, 1.0, t, x + h).U0
        dn = geometric_profile(GAS2, 0.0, 1.0, t, x - h).U0
        t_deriv = -t * (up - dn) / (2.0 * h)
        assert t_deriv == pytest.approx(-2.0 / 3.0, abs=1e-9)

    def test_um2_constant_across_fan(self):
        vals = [geometric_profile(GAS2, 0.1, 0.9, 0.5, x).Um2
                for x in np.linspace(-0.4, 0.4, 9)]
        assert np.ptp(vals) == 0.0

    def test_outside_fan_rejected(self):
        with pytest.raises(ValueError):
            geometric_profile(GAS2, 0.0, 1.0, t=1.0, x=5.0)
