import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarewave import euler2d
from rarewave.euler2d import (FlowField, Grid, PerturbationMode, PerturbationSpec,
                              SolverConfig, clamped_fan_profile,
                              advective_derivative, diagonal_rhs,
                              init_perturbed_rarefaction, iter_run, run,
                              step, total_mass)
from rarewave.euler2d import _flat
from rarewave.gas import PolytropicGas, density_from_sound_speed, sound_speed
from rarewave.geometry import directional_derivative
from rarewave.riemann1d import NumericalError

from conftest import GAS2, fan_field, make_uniform_field, rolled, same_bits, small_grid


def rusanov_oracle_step(f, dt):
    """SSP-RK2 step with the Rusanov flux evaluated per interface on
    interleaved (n1, n2, 3) states: the reference for the planar kernel."""
    gas, grid = f.gas, f.grid
    padded = np.moveaxis(f.q, 0, -1)  # (n1+2, n2, 3), the ghost rows first and last

    def phys_flux(q, axis):
        vn = q[..., axis + 1] / q[..., 0]
        fl = q * vn[..., None]
        fl[..., axis + 1] += gas.k0 * q[..., 0] ** gas.gamma
        return fl

    def interface_flux(ql, qr, axis):
        lam = np.maximum(np.abs(ql[..., axis + 1] / ql[..., 0]) + sound_speed(gas, ql[..., 0]),
                         np.abs(qr[..., axis + 1] / qr[..., 0]) + sound_speed(gas, qr[..., 0]))
        return 0.5 * (phys_flux(ql, axis) + phys_flux(qr, axis)) \
            - 0.5 * lam[..., None] * (qr - ql)

    def rhs(q):
        qx = np.concatenate([padded[:1], q, padded[-1:]])
        fx = interface_flux(qx[:-1], qx[1:], 0)
        fy = interface_flux(q, np.roll(q, -1, axis=1), 1)
        dq = -(fx[1:] - fx[:-1]) / grid.dx1 - (fy - np.roll(fy, 1, axis=1)) / grid.dx2
        return dq, (fx[-1, :, 0].sum() - fx[0, :, 0].sum()) * grid.dx2

    q0 = padded[1:-1]
    dq1, out1 = rhs(q0)
    q1 = q0 + dt * dq1
    dq2, out2 = rhs(q1)
    return 0.5 * (q0 + q1 + dt * dq2), 0.5 * (out1 + out2) * dt


def max_signal_speed(f):
    """Max over cells of |v| + c, as the CFL check of iter_run takes it."""
    return float(np.max(euler2d._signal_speeds(*euler2d._cell_planes(f.gas, f.q))))


SUP_SAMPLING_DX = 1e-3  # sampling step of velocity_third_derivative_bound


def velocity_third_derivative_bound(spec):
    """Dense-sampled sup bound on third partials of the velocity perturbation.

    The discrete-curl Taylor bound needs third derivatives of grad(phi),
    i.e. fourth derivatives of the potential, sampled SUP_SAMPLING_DX apart.
    """
    a, b = spec.strip
    dx = SUP_SAMPLING_DX
    xs = np.arange(a - 5 * dx, b + 5 * dx, dx)
    best = 0.0
    for m in spec.modes:
        p = spec._mode_profile(m, xs, deriv=0)
        derivs = [np.abs(p)]
        cur = p
        for _ in range(4):
            cur = np.gradient(cur, dx)
            derivs.append(np.abs(np.max(np.abs(cur))) * np.ones(1))
        sup = [float(np.max(d)) for d in derivs]  # |P|, |P'|, ..., |P''''|
        amp = abs(m.amplitude) * spec.epsilon
        k2 = abs(m.k2)
        for a_ord in range(4):
            b_ord = 4 - a_ord
            best = max(best, amp * sup[a_ord] * k2 ** b_ord)
        best = max(best, amp * sup[4])
    return best


def transport_residual(snap0, snap1, invariant):
    """Residual of the diagonal transport law for one Riemann invariant.

    The advective derivative along d/dt + (v1+c) d1 + v2 d2 is formed from
    the two snapshots and compared with diagonal_rhs, with coefficients and
    stencils at the midpoint time.
    """
    if snap0.grid != snap1.grid:
        raise ValueError("snapshots live on different grids")
    if invariant not in ("wbar", "w", "psi2"):
        raise ValueError(f"unknown invariant {invariant!r}")
    if snap1.time <= snap0.time:
        raise ValueError("snapshots must be ordered in time")

    idx = ("wbar", "w", "psi2").index(invariant)
    inv0, inv1 = snap0.invariants(), snap1.invariants()
    c = 0.5 * (snap0.c + snap1.c)
    v1 = 0.5 * (snap0.v1 + snap1.v1)
    v2 = 0.5 * (snap0.v2 + snap1.v2)
    adv = advective_derivative(inv0[idx], inv1[idx], v1 + c, v2, snap0.time, snap1.time,
                               snap0.grid)
    wbar_m, w_m, psi2_m = (0.5 * (a + b) for a, b in zip(inv0, inv1))
    return adv - diagonal_rhs(invariant, c, wbar_m, w_m, psi2_m, snap0.grid)


def vorticity(f):
    """Centered-difference curl d1(v2) - d2(v1)."""
    return f.grid.d1(f.v2) - f.grid.d2(f.v1)


def one_mode_spec(eps, strip=(-0.5, 1.1)):
    return PerturbationSpec(epsilon=eps,
                            modes=(PerturbationMode(k1=2, k2=1, amplitude=1.0, phase=0.7),),
                            strip=strip)


class TestInit:
    def test_unperturbed_matches_exact_fan(self):
        grid = small_grid()
        delta = 0.2
        f = init_perturbed_rarefaction(GAS2, grid, delta, (0.0, 1.0),
                                       PerturbationSpec(epsilon=0.0), u_glue=1.9)
        ref = fan_field(GAS2, grid, delta)
        np.testing.assert_allclose(f.rho, ref.rho, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(f.m1, ref.m1, rtol=1e-14, atol=1e-14)
        assert np.all(f.m2 == 0.0)
        assert np.max(np.abs(f.rho - f.rho[:, :1])) == 0.0

    def test_unperturbed_normal_derivative_of_wbar(self):
        # -delta * d1(wbar) = -2/(gamma+1) in the fan interior, exactly for
        # the piecewise-linear profile away from the two corner columns
        grid = small_grid(n1=256)
        delta = 0.2
        f = init_perturbed_rarefaction(GAS2, grid, delta, (0.0, 1.0),
                                       PerturbationSpec(epsilon=0.0), u_glue=1.9)
        wbar, _, _ = f.invariants()
        x1 = grid.x1
        d1 = (wbar[2:, 0] - wbar[:-2, 0]) / (2.0 * grid.dx1)
        interior = (x1[1:-1] > (1.0 - 1.9) * delta + 2 * grid.dx1) \
            & (x1[1:-1] < delta - 2 * grid.dx1)
        t_wbar = -delta * d1[interior]
        assert np.max(np.abs(t_wbar + 2.0 / 3.0)) < 1e-12

    def test_perturbation_leaves_head_speed_unchanged(self):
        grid = small_grid(n1=256)
        delta = 0.2
        spec = one_mode_spec(0.01)
        f = init_perturbed_rarefaction(GAS2, grid, delta, (0.0, 1.0), spec, u_glue=1.9)
        ref = fan_field(GAS2, grid, delta)
        np.testing.assert_allclose(f.v1 + f.c, ref.v1 + ref.c, atol=1e-13)

    def test_discrete_curl_bound(self):
        grid = small_grid(n1=512, n2=64)
        delta = 0.2
        spec = one_mode_spec(0.01)
        f = init_perturbed_rarefaction(GAS2, grid, delta, (0.0, 1.0), spec, u_glue=1.9)
        curl = vorticity(f)
        dx = max(grid.dx1, grid.dx2)
        bound = 10.0 * dx ** 2 * velocity_third_derivative_bound(spec)
        assert np.max(np.abs(curl)) <= bound

    def test_epsilon_warning(self):
        grid = small_grid()
        with pytest.warns(UserWarning):
            init_perturbed_rarefaction(GAS2, grid, 0.2, (0.0, 1.0),
                                       one_mode_spec(0.2), u_glue=1.9)

    def test_strip_outside_grid_rejected(self):
        grid = small_grid(x1_min=-0.05, x1_max=0.10)
        with pytest.raises(ValueError):
            init_perturbed_rarefaction(GAS2, grid, 0.2, (0.0, 1.0),
                                       PerturbationSpec(epsilon=0.0), u_glue=1.9)


class TestSignalSpeed:
    def test_uniform_at_rest(self):
        f = make_uniform_field(GAS2, small_grid(), c=1.0)
        assert max_signal_speed(f) == pytest.approx(1.0, abs=1e-14)

    def test_uniform_moving(self):
        f = make_uniform_field(GAS2, small_grid(), c=1.0, v1=1.0)
        assert max_signal_speed(f) == pytest.approx(2.0, abs=1e-14)

    def test_clamped_fan_value(self):
        # |v| + c over the clamped fan is attained at the left glue state,
        # where |v| = c_glue - v_glue; for data (0, 1) this is 1 + u_glue/3
        grid = small_grid(n1=512)
        f = fan_field(GAS2, grid, 0.5, u_glue=1.9)
        assert max_signal_speed(f) == pytest.approx(1.0 + 1.9 / 3.0, abs=1e-3)


def reflected(field):
    """The field under x2 -> -x2: cell j goes to n2-1-j and m2 flips, ghosts alike."""
    flip = np.array([1.0, 1.0, -1.0])[:, None, None]
    return FlowField(field.gas, field.grid, field.time, field.q[:, :, ::-1] * flip)


def with_cell(q, k, i, value):
    """A copy of the padded state q with component k of cell (i, 7) set to value."""
    q = q.copy()
    q[k, i, 7] = value
    return q


def same_state(a, b):
    return all(same_bits(getattr(a, name), getattr(b, name)) for name in ("rho", "m1", "m2"))


class TestStep:
    def test_uniform_state_exact(self):
        f = make_uniform_field(GAS2, small_grid(n1=32, n2=8), c=1.0, v1=0.3, v2=-0.2)
        g = f
        for _ in range(50):
            g = step(g, 1e-3)
        assert np.max(np.abs(g.rho - f.rho)) < 1e-13
        assert np.max(np.abs(g.m1 - f.m1)) < 1e-13
        assert np.max(np.abs(g.m2 - f.m2)) < 1e-13

    def test_mass_conservation_per_step(self):
        f = fan_field(GAS2, small_grid(), 0.3)
        dt = 0.4 * f.grid.dx1 / max_signal_speed(f)
        m0 = total_mass(f)
        g = f
        for _ in range(10):
            g = step(g, dt)
            drift = total_mass(g) + g.boundary_mass_flux - m0
            assert abs(drift) < 1e-12 * max(1.0, m0)

    def test_zero_dt_identity(self):
        f = fan_field(GAS2, small_grid(), 0.3)
        f = step(f, 0.4 * f.grid.dx1 / max_signal_speed(f))
        g = step(f, 0.0)
        assert np.array_equal(g.q, f.q) and g.time == f.time
        # the outflow since the solve's initial field, not that of f's step again
        assert g.boundary_mass_flux == f.boundary_mass_flux

    def test_negative_density_abort(self):
        grid = small_grid(n1=32, n2=8)
        rho = np.full((32, 8), 1e-9)
        m1 = np.zeros_like(rho)
        m1[10:20] = 1.0  # enormous velocity on near-vacuum density
        f = FlowField.from_planes(GAS2, grid, 0.0, rho, m1, np.zeros_like(rho))
        with pytest.raises(NumericalError, match="density"):
            step(f, 0.05)

    def test_nan_momentum_names_time_and_cell(self):
        # a NaN momentum spreads NaN into the densities it touches; the
        # breakdown must surface as a NumericalError, not an IndexError, and
        # run() must stop before a NaN signal speed turns dt into NaN
        f = make_uniform_field(GAS2, small_grid(n1=32, n2=16), c=1.0, time=0.5)
        f.m1[16, 8] = np.nan
        with pytest.raises(NumericalError, match=r"t=0\.51: \d+ cells, first at \(i=\d+, j=\d+\)"):
            step(f, 0.01)
        with pytest.raises(NumericalError, match=r"t=0\.5, first at \(i=16, j=8\)"):
            run(f, SolverConfig(snapshot_times=(0.6,)))

    def test_nan_density_rejected(self):
        grid = small_grid(n1=32, n2=16)
        rho = np.ones((32, 16))
        rho[3, 4] = np.nan
        with pytest.raises(ValueError, match="NaN density"):
            FlowField.from_planes(GAS2, grid, 0.0, rho, np.zeros_like(rho), np.zeros_like(rho))

    @pytest.mark.parametrize("bad, match", [
        (lambda q: q[:, 1:], r"q has shape \(3, 33, 16\), expected \(3, 34, 16\)"),
        (lambda q: with_cell(q, 0, -1, 0.0), "ghost row 33 has a non-finite value or a non-positive"),
        (lambda q: with_cell(q, 0, 0, np.inf), "ghost row 0 has a non-finite value"),
        (lambda q: with_cell(q, 1, 0, np.nan), "ghost row 0 has a non-finite value"),
        (lambda q: with_cell(q, 2, -1, -np.inf), "ghost row 33 has a non-finite value"),
    ], ids=["shape", "zero_density", "infinite_density", "nan_momentum", "infinite_momentum"])
    def test_bad_ghost_rejected(self, bad, match):
        # the interior stays valid: only the shape or a ghost row is at fault
        f = make_uniform_field(GAS2, small_grid(n1=32, n2=16), c=1.0, v1=0.3)
        with pytest.raises(ValueError, match=match):
            FlowField(f.gas, f.grid, f.time, bad(f.q))

    @pytest.mark.parametrize("gamma", [2.0, 1.4])
    def test_matches_per_interface_oracle(self, gamma):
        gas = PolytropicGas(gamma, 0.5)
        grid = small_grid(n1=48, n2=16)
        rng = np.random.default_rng(11)

        def state(shape, v1_range):
            rho = rng.uniform(0.5, 1.5, shape)
            return rho, rho * rng.uniform(*v1_range, shape), rho * rng.uniform(-0.5, 0.5, shape)

        q = np.empty((3, 50, 16))
        q[:, 1:-1] = state((48, 16), (-0.5, 0.5))
        # ghost rows unlike the edge rows, with mass leaving through both ends
        q[:, 0] = state(16, (-0.5, -0.1))
        q[:, -1] = state(16, (0.1, 0.5))
        f = FlowField(gas, grid, 0.2, q)
        dt = 0.3 * grid.dx1 / max_signal_speed(f)
        g = step(f, dt)
        q, outflow = rusanov_oracle_step(f, dt)
        for k, a in enumerate((g.rho, g.m1, g.m2)):
            assert np.max(np.abs(a - q[..., k])) <= 1e-13 * np.max(np.abs(q[..., k]))
        assert g.boundary_mass_flux == pytest.approx(outflow, rel=1e-13)
        assert g.time == 0.2 + dt

    @settings(max_examples=8, deadline=None)
    @given(n1=st.integers(8, 64), n2=st.integers(8, 16), seed=st.integers(0, 2 ** 32 - 1),
           gamma=st.floats(1.1, 2.9))
    def test_every_strip_height_gives_the_same_bits(self, n1, n2, seed, gamma):
        # neighbouring strips share their edge rows, stage 2 overwrites rows that
        # the next strip reads, and the outflow sums the end interfaces of the
        # first and the last strip: every height from 1 row to n1, a short last
        # strip included, must give the bits of the oracle and of one strip
        rng = np.random.default_rng(seed)
        q = np.empty((3, n1 + 2, n2))
        for rows, v1_range in ((slice(1, -1), (-0.5, 0.5)), (0, (-0.5, -0.1)), (-1, (0.1, 0.5))):
            rho = rng.uniform(0.5, 1.5, q[0, rows].shape)
            q[:, rows] = (rho, rho * rng.uniform(*v1_range, rho.shape),
                          rho * rng.uniform(-0.5, 0.5, rho.shape))
        f = FlowField(PolytropicGas(gamma, 0.5), small_grid(n1=n1, n2=n2), 0.2, q)
        dt = 0.3 * min(f.grid.dx1, f.grid.dx2) / max_signal_speed(f)
        oracle_q, oracle_outflow = rusanov_oracle_step(f, dt)
        results = {}
        with pytest.MonkeyPatch.context() as mp:
            for height in range(n1, 0, -1):
                mp.setattr(euler2d, "STRIP_BYTES", height * n2 * 8)
                results[height] = step(f, dt)
        one = results[n1]
        assert same_bits(one.q[:, 1:-1], np.moveaxis(oracle_q, -1, 0))
        assert same_bits(one.q[:, [0, -1]], f.q[:, [0, -1]])
        assert one.boundary_mass_flux == oracle_outflow
        for height, g in results.items():
            assert same_bits(g.q, one.q), height
            assert (g.time, g.boundary_mass_flux) == (f.time + dt, oracle_outflow), height

    def test_step_peak_memory(self):
        # scratch of one step, counted in float64 planes of the grid
        f = fan_field(GAS2, small_grid(n1=128, n2=32), 0.3)
        dt = 0.4 * f.grid.dx1 / max_signal_speed(f)
        tracemalloc.start()
        try:
            step(f, dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / f.rho.nbytes <= 40.0

    def test_x2_independence_preserved(self):
        f = fan_field(GAS2, small_grid(), 0.3)
        dt = 0.4 * f.grid.dx1 / max_signal_speed(f)
        g = f
        for _ in range(20):
            g = step(g, dt)
        for a in (g.rho, g.m1, g.m2):
            assert np.max(np.abs(a - a[:, :1])) == 0.0

    def test_reflection_symmetry_commutes(self):
        grid = small_grid(n1=64, n2=16)
        f = init_perturbed_rarefaction(GAS2, grid, 0.3, (0.0, 1.0),
                                       one_mode_spec(0.02), u_glue=1.9)
        dt = 0.3 * grid.dx1 / max_signal_speed(f)
        assert same_state(reflected(step(f, dt)), step(reflected(f), dt))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), gamma=st.floats(1.1, 2.9), k=st.integers(1, 15))
    def test_commutes_with_x2_roll_and_reflection(self, seed, gamma, k):
        # every x2 stencil is the same periodic shift in every column, and the
        # Rusanov flux is symmetric under swapping its sides with m2 negated
        rng = np.random.default_rng(seed)
        grid = small_grid(n1=16, n2=16)
        rho = rng.uniform(0.5, 2.0, (grid.n1, grid.n2))
        f = FlowField.from_planes(PolytropicGas(gamma, 0.5), grid, 0.3, rho,
                                  rho * rng.uniform(-0.5, 0.5, rho.shape),
                                  rho * rng.uniform(-0.5, 0.5, rho.shape))
        dt = 0.3 * min(grid.dx1, grid.dx2) / max_signal_speed(f)
        for transform in (lambda g: rolled(g, k), reflected):
            assert same_state(transform(step(f, dt)), step(transform(f), dt))


class TestRun:
    def test_snapshot_at_initial_time(self):
        f = fan_field(GAS2, small_grid(), 0.3)
        cfg = SolverConfig(snapshot_times=(0.3,))
        snaps = run(f, cfg)
        assert len(snaps) == 1 and snaps[0].time == 0.3
        assert np.array_equal(snaps[0].rho, f.rho)

    def test_empty_snapshots_raise(self):
        f = fan_field(GAS2, small_grid(), 0.3)
        with pytest.raises(ValueError, match="snapshot time"):
            run(f, SolverConfig(snapshot_times=()))

    def test_fan_edges_track_exact_slopes(self):
        grid = small_grid(n1=512)
        f = fan_field(GAS2, grid, 0.2)
        snaps = run(f, SolverConfig(snapshot_times=(0.6,)))
        g = snaps[0]
        # the fan edges are slope kinks of v1 + c: recover each corner as the
        # intersection of the linear branches fitted outside the smeared zone
        speed = (g.v1 + g.c)[:, 0]
        x1 = grid.x1

        def branch(lo, hi):
            sel = (x1 >= lo) & (x1 <= hi)
            return np.polyfit(x1[sel], speed[sel], 1)

        for corner, sgn in ((0.6 * 1.0, +1), (0.6 * (1.0 - 1.9), -1)):
            inner = branch(corner - sgn * 0.25, corner - sgn * 0.10) if sgn > 0 \
                else branch(corner + 0.10, corner + 0.25)
            outer = branch(corner + sgn * 0.10, corner + sgn * 0.25) if sgn > 0 \
                else branch(corner - 0.25, corner - 0.10)
            found = (outer[1] - inner[1]) / (inner[0] - outer[0])
            assert abs(found - corner) <= 2 * grid.dx1

    def test_one_step_call_per_time_step(self, monkeypatch):
        calls = []

        def counting_step(field, dt):
            out = step(field, dt)
            calls.append((field, out))
            return out

        monkeypatch.setattr(euler2d, "step", counting_step)
        f = fan_field(GAS2, small_grid(), 0.3)
        snaps = run(f, SolverConfig(snapshot_times=(0.35, 0.4)))
        # each call advances the result of the one before it
        assert calls[0][0] is f and calls[-1][1] is snaps[-1]
        assert all(prev is nxt for (_, prev), (nxt, _) in zip(calls, calls[1:]))
        assert len(calls) > 2

    def test_snapshots_own_their_memory(self):
        f = init_perturbed_rarefaction(GAS2, small_grid(n1=64), 0.3, (0.0, 1.0),
                                       one_mode_spec(0.02), u_glue=1.9)
        snaps = run(f, SolverConfig(snapshot_times=(0.32, 0.34, 0.36)))
        planes = [(k, a) for k, s in enumerate([f] + snaps) for a in (s.rho, s.m1, s.m2)]
        for n, (k, a) in enumerate(planes):
            for j, b in planes[n + 1:]:
                assert not np.shares_memory(a, b), (k, j)

    @settings(max_examples=25, deadline=None)
    @given(n1=st.integers(8, 64), n2=st.integers(8, 16), data=st.data())
    def test_non_finite_cell_named_in_interior_coordinates(self, n1, n2, data):
        # the planes are views of the padded state one row in, and the locator
        # reads its interior rows: an off-by-one in either names a neighbour
        # cell, or the wrong row of an edge cell, or raises IndexError
        i = data.draw(st.sampled_from([0, n1 - 1]) | st.integers(0, n1 - 1), label="i")
        j = data.draw(st.sampled_from([0, n2 - 1]) | st.integers(0, n2 - 1), label="j")
        name, value = data.draw(st.sampled_from(
            [(m, v) for m in ("m1", "m2") for v in (math.nan, math.inf, -math.inf)]
            + [("rho", math.inf)]), label="injected")
        rng = np.random.default_rng(n1 * n2)
        rho = rng.uniform(0.5, 1.5, (n1, n2))
        f = FlowField.from_planes(GAS2, small_grid(n1=n1, n2=n2), 0.5, rho,
                                  rho * rng.uniform(-0.3, 0.3, rho.shape),
                                  rho * rng.uniform(-0.3, 0.3, rho.shape))
        getattr(f, name)[i, j] = value
        yielded = []
        with pytest.raises(NumericalError, match=rf"at t=0\.5, first at \(i={i}, j={j}\)$"):
            for s in iter_run(f, SolverConfig(snapshot_times=(0.6, 0.7))):
                yielded.append(s)
        assert yielded == []

    # the run's overflow warning must reach the locator as it does in a real run,
    # where no warning filter applies; the suite otherwise raises it as an error
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_signal_speed_names_its_cell(self):
        # a finite state whose velocity overflows: the signal speed is infinite,
        # and the locator must name the cell of that speed, not look for a
        # non-finite state value that is not there
        f = make_uniform_field(GAS2, small_grid(n1=8, n2=8), c=1.0, time=0.5)
        f.q[0, 4, 5] = 1e-300
        f.q[1, 4, 5] = 1e10
        assert np.isfinite(f.q).all()
        with pytest.raises(NumericalError, match=r"at t=0\.5, first at \(i=3, j=5\)$"):
            run(f, SolverConfig(snapshot_times=(0.6,)))

    def test_conservation_accumulated_over_run(self):
        f = fan_field(GAS2, small_grid(), 0.3)
        snaps = run(f, SolverConfig(snapshot_times=(0.3, 0.45, 0.6)))
        m0 = total_mass(snaps[0])
        for s in snaps:
            assert abs(total_mass(s) + s.boundary_mass_flux - m0) < 1e-11


class TestTransportResidual:
    def test_uniform_state_zero(self):
        f0 = make_uniform_field(GAS2, small_grid(), c=1.0, v1=0.4, time=0.5)
        f1 = make_uniform_field(GAS2, small_grid(), c=1.0, v1=0.4, time=0.6)
        for name in ("wbar", "w", "psi2"):
            assert np.max(np.abs(transport_residual(f0, f1, name))) == 0.0

    def test_analytic_fan_wbar(self):
        # exact fan snapshots closely spaced: the forward-transport law for
        # wbar holds to time-discretization error
        grid = small_grid(n1=256)
        dt = 1e-5
        f0 = fan_field(GAS2, grid, 1.0 - dt / 2)
        f1 = fan_field(GAS2, grid, 1.0 + dt / 2)
        res = transport_residual(f0, f1, "wbar")
        x1 = grid.x1
        interior = (x1 > -0.8) & (x1 < 0.9)  # inside the fan, off the corners
        assert np.max(np.abs(res[interior, :])) < 1e-10

    def test_simulated_residual_refines(self):
        vals = {}
        for n1 in (128, 256):
            grid = small_grid(n1=n1)
            f = init_perturbed_rarefaction(GAS2, grid, 0.2, (0.0, 1.0),
                                           one_mode_spec(0.02), u_glue=1.9)
            snaps = run(f, SolverConfig(snapshot_times=(0.4, 0.41)))
            res = transport_residual(snaps[0], snaps[1], "wbar")
            x1 = grid.x1
            sel = (x1 > -0.1) & (x1 < 0.3)
            vals[n1] = np.max(np.abs(res[sel, :]))
        assert vals[128] / vals[256] > 1.3


def d1_oracle(a, dx):
    """Centered x1-derivative from whole-array slices: the reference for `Grid.d1`."""
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - a[:-2]) / (2.0 * dx)
    out[0] = (a[1] - a[0]) / dx
    out[-1] = (a[-1] - a[-2]) / dx
    return out


def d2_oracle(a, dx):
    """Centered periodic x2-derivative through np.roll: the reference for `Grid.d2`."""
    return (np.roll(a, -1, axis=1) - np.roll(a, 1, axis=1)) / (2.0 * dx)


class TestDerivativeStencils:
    @pytest.mark.parametrize("shape", [(8, 8), (40, 8), (24, 33)])
    def test_match_whole_array_formulas(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape)
        a[:, :3] = np.cumsum(a[:, :3], axis=0)
        a[2:5] = [[0.0], [-0.0], [1.5]]
        grid = Grid(*shape, -0.3, 0.07 * shape[0] - 0.3)
        for got, want in ((grid.d1(a), d1_oracle(a, grid.dx1)),
                          (grid.d2(a), d2_oracle(a, grid.dx2))):
            assert same_bits(got, want)

    def test_fortran_ordered_and_sliced_inputs(self):
        grid = small_grid(n1=24, n2=16)
        rng = np.random.default_rng(4)
        a, e1, e2 = rng.standard_normal((3, grid.n1, grid.n2))
        wide = rng.standard_normal((grid.n1, 2 * grid.n2))
        wide[:, ::2] = a
        for f in (np.asfortranarray(a), wide[:, ::2]):
            assert not f.flags.c_contiguous
            assert same_bits(grid.d1(f), d1_oracle(a, grid.dx1))
            assert same_bits(grid.d2(f), d2_oracle(a, grid.dx2))
            assert same_bits(directional_derivative(grid.grad(f), e1, e2),
                             e1 * d1_oracle(a, grid.dx1) + e2 * d2_oracle(a, grid.dx2))
        with pytest.raises(ValueError, match="C-contiguous"):
            _flat(np.asfortranarray(a))

    @settings(max_examples=30, deadline=None)
    @given(n1=st.integers(8, 64), n2=st.integers(8, 16), data=st.data())
    def test_window_contract(self, n1, n2, data):
        # on a window, every stencil gives the whole-grid bits on the rows that
        # hold both x1 neighbours (or lie on a grid edge) and NaN at a window
        # edge inside the grid, where the x1 neighbour is missing
        lo = data.draw(st.integers(0, n1 - 2), label="lo")
        hi = data.draw(st.integers(lo + 2, n1), label="hi")
        grid = Grid(n1, n2, -1.0, 2.0)
        window = grid.window(lo, hi)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        a, e1, e2 = rng.standard_normal((3, n1, n2))
        rows = window.rows
        whole, part = grid.grad(a), window.grad(a[rows])
        stencils = {
            "d1": (grid.d1(a), window.d1(a[rows])),
            "d2": (grid.d2(a), window.d2(a[rows])),
            "grad d1": (whole[0], part[0]),
            "grad d2": (whole[1], part[1]),
            "directional": (directional_derivative(whole, e1, e2),
                            directional_derivative(part, e1[rows], e2[rows])),
        }
        cut = np.zeros(hi - lo, dtype=bool)
        cut[0], cut[-1] = lo > 0, hi < n1
        for name, (want, got) in stencils.items():
            if name.endswith("d2"):
                assert same_bits(got, want[rows]), name
                continue
            assert np.isnan(got[cut]).all(), name
            assert same_bits(got[~cut], want[rows][~cut]), name


class TestVorticity:
    def test_uniform_zero(self):
        f = make_uniform_field(GAS2, small_grid(), c=1.0, v1=0.4)
        assert np.max(np.abs(vorticity(f))) == 0.0

    def test_rigid_rotation_patch(self):
        grid = small_grid(n1=64, n2=64, x1_min=-1.0, x1_max=1.0)
        X1, X2 = grid.mesh()
        xc, yc = 0.0, math.pi
        rho = np.ones_like(X1)
        v1 = -(X2 - yc)
        v2 = X1 - xc
        f = FlowField.from_planes(GAS2, grid, 1.0, rho, rho * v1, rho * v2)
        curl = vorticity(f)
        inner = (np.abs(X1 - xc) < 0.5) & (np.abs(X2 - yc) < 1.0)
        assert np.max(np.abs(curl[inner] - 2.0)) < 1e-12

    def test_potential_flow_second_order(self):
        errs = {}
        for n in (64, 128):
            grid = small_grid(n1=n, n2=n, x1_min=0.0, x1_max=2 * math.pi)
            X1, X2 = grid.mesh()
            rho = np.ones_like(X1)
            v1 = np.cos(X1) * np.cos(X2)   # gradient of sin(x1)cos(x2)
            v2 = -np.sin(X1) * np.sin(X2)
            f = FlowField.from_planes(GAS2, grid, 1.0, rho, rho * v1, rho * v2)
            errs[n] = np.max(np.abs(vorticity(f)))
        assert errs[64] / errs[128] > 3.0  # second-order interior stencils


def test_l1_error_halves_cheap():
    errs = {}
    for n1 in (128, 256):
        grid = small_grid(n1=n1)
        f = init_perturbed_rarefaction(GAS2, grid, 0.2, (0.0, 1.0),
                                       PerturbationSpec(epsilon=0.0), u_glue=1.9)
        snaps = run(f, SolverConfig(snapshot_times=(0.7,)))
        X1, _ = grid.mesh()
        _, c_exact = clamped_fan_profile(GAS2, 0.0, 1.0, 1.9, X1, 0.7)
        rho_exact = density_from_sound_speed(GAS2, c_exact)
        errs[n1] = np.sum(np.abs(snaps[0].rho - rho_exact)) * grid.dx1 * grid.dx2
    assert 1.4 < errs[128] / errs[256] < 2.6
