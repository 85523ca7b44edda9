import copy
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rarewave.euler2d as euler2d
import rarewave.geometry as geo
from rarewave.euler2d import FlowField, Grid, SolverConfig, init_perturbed_rarefaction, \
    run, PerturbationSpec, PerturbationMode
from rarewave.gas import PolytropicGas, density_from_sound_speed
from rarewave.geometry import (BilinearStencil, DegenerateFoliationError, FlowStencil,
                               PairDiagnostics, Slice, _one_sided, _reflect_ends, band_mask,
                               bilinear_sample, commutation_residual_y, commutation_residual_z,
                               directional_derivative, evolve_u, foliate, frame_fields,
                               iter_evolve_u, second_frame, semi_lagrangian, sign_monitors,
                               structure_residuals, torsions)
from rarewave.riemann1d import NumericalError

from conftest import (GAS2, WholeGridRayTrace, bilinear_oracle, fan_field, framed,
                      make_uniform_field, perturbed_pair, rolled, same_bits, small_grid)


def theta(sl):
    """The tangent's turning xhat2 Xhat(xhat1) - xhat1 Xhat(xhat2) of a framed slice."""
    x1, x2 = sl.xhat1, sl.xhat2
    xx1, xx2 = (directional_derivative(sl.grid.grad(a), x1, x2) for a in (x1, x2))
    return x2 * xx1 - x1 * xx2


@dataclass
class DeformationComponents:
    """Null components of the deformation tensor of one commutator field."""

    commutator: str  # "X" or "T"
    pi_ll: np.ndarray
    pi_lbarlbar: np.ndarray
    pi_llbar: np.ndarray
    pi_lx: np.ndarray
    pi_lbarx: np.ndarray
    pi_xx: np.ndarray


def deformation_components(frame, field, commutator):
    """Deformation-tensor null components of the tangential or normal commutator.

    commutator "X" (tangential, d2) or "T" (normal, -t d1).
    """
    grid = field.grid
    t = frame.time
    c = field.c
    if commutator == "X":
        zc = grid.d2(c)
        lead, mixed = frame.y, frame.chi
    elif commutator == "T":
        zc = -t * grid.d1(c)
        lead, mixed = frame.z, frame.eta
    else:
        raise ValueError("commutator must be 'X' or 'T'")
    zero = np.zeros_like(c)
    return DeformationComponents(
        commutator=commutator,
        pi_ll=-2.0 * c * lead,
        pi_lbarlbar=2.0 * t * t / c * (lead - 2.0 * zc),
        pi_llbar=-2.0 * t * zc,
        pi_lx=-mixed,
        pi_lbarx=-t / c * mixed,
        pi_xx=zero,
    )


def kslash(sl):
    """Tangential component of the flow's second fundamental form on a
    framed slice, k(Xhat, Xhat) = Xhat^j Xhat(v^j) / c."""
    xv1, xv2 = (directional_derivative(sl.grid.grad(v), sl.xhat1, sl.xhat2)
                for v in (sl.v1, sl.v2))
    return (sl.xhat1 * xv1 + sl.xhat2 * xv2) / sl.c


def chibar(sl):
    """Incoming-null expansion, (kappa/c) * (2 Xhat^j Xhat(v^j) - chi)."""
    return sl.kappa / sl.c * (2.0 * sl.c * kslash(sl) - sl.chi)


def analytic_fan_sequence(grid, times, u_glue=1.9):
    return [fan_field(GAS2, grid, t, u_glue=u_glue) for t in times]


def manufactured_field(grid, t, amp=0.1):
    """Smooth analytic flow, periodic in x2; not a solution of anything."""
    X1, X2 = grid.mesh()
    c = 1.0 + amp * np.cos(X1) * np.sin(X2) * (1.0 + 0.3 * t)
    v1 = amp * np.sin(1.3 * X1 + 0.2) * np.cos(X2) * (1.0 + 0.5 * t)
    v2 = amp * np.cos(0.7 * X1) * np.sin(2.0 * X2 + 0.4) * (1.0 - 0.2 * t)
    rho = density_from_sound_speed(GAS2, c)
    return FlowField.from_planes(GAS2, grid, t, rho, rho * v1, rho * v2)


class TestEvolveU:
    def test_planar_front_uniform_flow(self):
        grid = small_grid(n1=128, n2=8, x1_min=-2.0, x1_max=2.0)
        times = np.linspace(0.0, 0.5, 11)
        snaps = [make_uniform_field(GAS2, grid, c=1.0, time=t) for t in times]
        X1, _ = grid.mesh()
        u0 = -X1
        u_seq = evolve_u(snaps, u0)
        # exact solution translates: u(t) = -x + t; linear profiles are exact
        inner = (X1 > -1.5) & (X1 < 1.5)
        err = np.abs(u_seq[-1] - (-X1 + 0.5))
        assert np.max(err[inner]) < 1e-10

    def test_fan_characteristic_function(self):
        grid = small_grid(n1=256, n2=8)
        times = np.linspace(0.2, 1.0, 33)
        snaps = analytic_fan_sequence(grid, times)
        X1, _ = grid.mesh()
        u0 = 1.0 - X1 / 0.2
        u_seq = evolve_u(snaps, u0)
        u_exact = 1.0 - X1 / 1.0
        m = band_mask(u_exact, 0.15, 1.35)
        err = np.max(np.abs(u_seq[-1] - u_exact)[m])
        assert err < 6.0 * grid.dx1

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_snapshot_raises(self, bad):
        # FlowField checks only the density, so a snapshot can carry a
        # non-finite momentum into the transport
        grid = small_grid(n1=128, n2=16)
        s0, s1 = analytic_fan_sequence(grid, [0.3, 0.35])
        s1.m1[3, 4] = bad
        X1, _ = grid.mesh()
        with pytest.raises(NumericalError, match=r"t=0\.35 .*first at \(i=3, j=4\)"):
            evolve_u([s0, s1], 1.0 - X1 / 0.3)

    @settings(max_examples=25, deadline=None)
    @given(n1=st.integers(8, 64), n2=st.integers(8, 16), data=st.data())
    def test_non_finite_cell_named(self, n1, n2, data):
        # a non-finite value in any interior cell of either snapshot stops the
        # transport with the time of that snapshot and the cell, never IndexError
        k = data.draw(st.sampled_from([0, 1]), label="snapshot")
        i = data.draw(st.sampled_from([0, n1 - 1]) | st.integers(0, n1 - 1), label="i")
        j = data.draw(st.sampled_from([0, n2 - 1]) | st.integers(0, n2 - 1), label="j")
        name, value = data.draw(st.sampled_from(
            [(m, v) for m in ("m1", "m2") for v in (math.nan, math.inf, -math.inf)]
            + [("rho", math.inf)]), label="injected")
        grid = small_grid(n1=n1, n2=n2)
        snaps = [manufactured_field(grid, t) for t in (0.3, 0.35)]
        getattr(snaps[k], name)[i, j] = value
        X1, _ = grid.mesh()
        with pytest.raises(NumericalError,
                           match=rf"at t={snaps[k].time:.6g} .*first at \(i={i}, j={j}\)$"):
            evolve_u(snaps, 1.0 - X1 / 0.3)

    @pytest.mark.parametrize("n2", [8, 16])
    def test_matches_per_substep_reference(self, n2):
        grid = small_grid(n1=48, n2=n2)
        snaps = [manufactured_field(grid, t, amp=0.4) for t in (0.3, 0.34, 0.4)]
        X1, X2 = grid.mesh()
        u0 = 1.0 - X1 / 0.3 + 0.05 * np.sin(X2)
        u0[:, 0] = u0[:, 1]  # a flat step along x2 for the zero branch of minmod
        for got, want in zip(evolve_u(snaps, u0), evolve_u_oracle(snaps, u0)):
            assert same_bits(got, want)

    @settings(max_examples=8, deadline=None)
    @given(n1=st.integers(8, 64), n2=st.integers(8, 16), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_strip_height_gives_the_same_bits(self, n1, n2, seed):
        # a strip reads two rows of old u past each edge, which the strip before
        # it has stepped; the first and the last strip read the ghost rows at the
        # x1 ends, and every strip the x2 wrap columns.  Rough u everywhere and a
        # flow whose v1 and v2 change sign: every height from n1 rows down to 1,
        # a short last strip included, must give the bits of one strip
        rng = np.random.default_rng(seed)
        grid = small_grid(n1=n1, n2=n2)
        snaps = [manufactured_field(grid, t, amp=0.4) for t in (0.3, 0.33, 0.36)]
        X1, X2 = grid.mesh()
        u0 = 1.0 - X1 / 0.3 + 0.05 * np.sin(X2) + 0.02 * rng.standard_normal(X1.shape)
        results = {}
        with pytest.MonkeyPatch.context() as mp:
            for height in range(n1, 0, -1):
                mp.setattr(euler2d, "STRIP_BYTES", height * n2 * 8)
                results[height] = evolve_u(snaps, u0)
        one = results[n1]
        assert all(same_bits(a, b) for a, b in zip(one, evolve_u_oracle(snaps, u0)))
        for height, us in results.items():
            assert len(us) == 3 and all(same_bits(a, b) for a, b in zip(us, one)), height

    def test_peak_memory(self):
        # one call at 128x32, counted in float64 planes of the grid: its
        # scratch, the (v1, v2, c) planes of two snapshots and the three
        # returned planes
        grid = small_grid(n1=128, n2=32)
        snaps = analytic_fan_sequence(grid, [0.3, 0.33, 0.36])
        X1, _ = grid.mesh()
        u0 = 1.0 - X1 / 0.3
        tracemalloc.start()
        try:
            evolve_u(snaps, u0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / u0.nbytes <= 20.0

    def test_stream_holds_u_alone_between_yields(self):
        # between two yields the stream holds u with its ghost rows and the latest
        # field, besides the copy it yields: its difference and work scratch (7
        # planes here) lives for one interval, and it keeps neither u_init, whose
        # only reference it is given, nor the field before the latest.  Every
        # field is formed while traced, and the loop drops the one it is given
        grid = small_grid(n1=256, n2=64)
        X1, _ = grid.mesh()
        u0 = 1.0 - X1 / 0.3
        plane = u0.nbytes
        tracemalloc.start()
        try:
            fields = (Slice(manufactured_field(grid, t)) for t in (0.3, 0.33, 0.36, 0.4))
            held = []
            for _, u in iter_evolve_u(fields, u0.copy()):
                del _
                held.append(tracemalloc.get_traced_memory()[0] / plane)
        finally:
            tracemalloc.stop()
        # g (n1 + 4 rows), the latest field's v1, v2 and c, and the yielded copy
        expected = (grid.n1 + 4) / grid.n1 + 3.0 + 1.0
        assert len(held) == 4 and max(held) <= expected + 0.25, held

    def test_degenerate_gradient_detected(self):
        grid = small_grid(n1=32, n2=8)
        f = make_uniform_field(GAS2, grid, c=1.0, time=0.3)
        u_flat = np.full((grid.n1, grid.n2), 0.5)
        with pytest.raises(DegenerateFoliationError, match=r"t=0\.3.*first at \(i=0, j=0\)"):
            foliate(f, u_flat, band_mask(u_flat, 0.0, 1.0))


class TestFrameFields:
    def test_one_dimensional_fan_frame(self):
        grid = small_grid(n1=128)
        f = fan_field(GAS2, grid, 0.5)
        X1, _ = grid.mesh()
        u = 1.0 - X1 / 0.5
        fol = framed(f, u)
        assert np.max(np.abs(fol.that1 + 1.0)) < 1e-12
        assert np.max(np.abs(fol.that2)) < 1e-12
        assert np.max(np.abs(fol.xhat1)) < 1e-12
        assert np.max(np.abs(fol.xhat2 - 1.0)) < 1e-12
        for arr in (fol.chi, *torsions(fol), theta(fol)):
            assert np.max(np.abs(arr)) < 1e-12
        assert np.max(np.abs(fol.kappa - 0.5)) < 1e-12

    def test_planar_front_kappa_one(self):
        grid = small_grid(n1=64, n2=8)
        f = make_uniform_field(GAS2, grid, c=1.0, time=0.2)
        X1, _ = grid.mesh()
        fol = framed(f, -X1 + 0.2)
        assert np.max(np.abs(fol.kappa - 1.0)) < 1e-12
        assert np.max(np.abs(fol.mu - 1.0)) < 1e-12

    def test_orthonormality_generic_u(self):
        grid = small_grid(n1=64, n2=32)
        f = manufactured_field(grid, 0.4)
        X1, X2 = grid.mesh()
        u = 1.0 - X1 / 0.4 + 0.2 * np.sin(X2) * np.cos(0.8 * X1)
        fol = framed(f, u)
        assert np.max(np.abs(fol.that1 ** 2 + fol.that2 ** 2 - 1.0)) < 1e-12
        assert np.max(np.abs(fol.xhat1 ** 2 + fol.xhat2 ** 2 - 1.0)) < 1e-12
        assert np.max(np.abs(fol.that1 * fol.xhat1 + fol.that2 * fol.xhat2)) < 1e-12
        assert np.max(np.abs(fol.mu - f.c * fol.kappa)) < 1e-13

    def test_mu_against_transport_formula(self):
        # mu = c^2 / (du/dt + v.grad u) on an exactly transported u
        grid = small_grid(n1=256, n2=8)
        t, dt = 0.5, 1e-6
        f = fan_field(GAS2, grid, t)
        X1, _ = grid.mesh()
        u_mid = 1.0 - X1 / t
        fol = framed(f, u_mid)
        dudt = (1.0 - X1 / (t + dt) - (1.0 - X1 / (t - dt))) / (2.0 * dt)
        du1 = np.gradient(u_mid, grid.dx1, axis=0)
        mu_alt = f.c ** 2 / (dudt + f.v1 * du1)
        m = band_mask(u_mid, 0.1, 1.4)
        assert np.max(np.abs((mu_alt - fol.mu) / fol.mu)[m]) < 1e-6


class TestSecondFrame:
    def test_exact_fan_values(self):
        grid = small_grid(n1=256)
        f = fan_field(GAS2, grid, 0.5)
        frame = second_frame(f)
        X1, _ = grid.mesh()
        interior = (X1 > 0.5 * (1.0 - 1.9) + 2 * grid.dx1) & (X1 < 0.5 - 2 * grid.dx1)
        assert np.max(np.abs(frame.z[interior])) < 1e-12   # 1 - t d1(v+c) = 0
        assert np.max(np.abs(frame.y)) == 0.0
        assert np.max(np.abs(frame.chi)) == 0.0
        assert np.max(np.abs(frame.eta)) == 0.0

    def test_uniform_state_values(self):
        f = make_uniform_field(GAS2, small_grid(n1=32, n2=8), c=1.0, time=0.5)
        frame = second_frame(f)
        assert np.all(frame.y == 0.0)
        assert np.max(np.abs(frame.z - 1.0)) == 0.0
        assert np.max(np.abs(frame.zt - 2.0)) == 0.0  # z/t at t = 0.5


class TestCommutationResiduals:
    def test_unperturbed_fan_vanishes(self):
        grid = small_grid(n1=256)
        dt = 1e-4
        s0 = fan_field(GAS2, grid, 0.6 - dt / 2)
        s1 = fan_field(GAS2, grid, 0.6 + dt / 2)
        ry = commutation_residual_y(s0, s1)
        assert np.max(np.abs(ry)) == 0.0  # every term vanishes identically
        rz = commutation_residual_z(s0, s1)
        X1, _ = grid.mesh()
        interior = (X1 > 0.6 * (1.0 - 1.9) + 3 * grid.dx1) & (X1 < 0.6 - 3 * grid.dx1)
        assert np.max(np.abs(rz[interior])) < 1e-7

    def test_uniform_state_zero(self):
        s0 = make_uniform_field(GAS2, small_grid(n1=32, n2=8), c=1.0, time=0.5)
        s1 = make_uniform_field(GAS2, small_grid(n1=32, n2=8), c=1.0, time=0.6)
        assert np.max(np.abs(commutation_residual_z(s0, s1))) == 0.0

    def test_manufactured_fields_second_order(self):
        # pure commutator form (no flow equations assumed) on smooth fields
        errs = {}
        for n in (48, 96):
            grid = small_grid(n1=n, n2=n, x1_min=0.0, x1_max=2 * math.pi)
            h = grid.dx1 * 0.5
            s0 = manufactured_field(grid, 0.5 - h / 2)
            s1 = manufactured_field(grid, 0.5 + h / 2)
            ry = commutation_residual_y(s0, s1, use_euler_rhs=False)
            rz = commutation_residual_z(s0, s1, use_euler_rhs=False)
            errs[n] = max(np.max(np.abs(ry[2:-2, :])), np.max(np.abs(rz[2:-2, :])))
        assert errs[48] / errs[96] > 2.5

    def test_simulated_residual_refines(self):
        spec = PerturbationSpec(
            epsilon=0.02, modes=(PerturbationMode(2, 1, 1.0, 0.3),), strip=(-0.5, 1.1))
        vals = {}
        for n1 in (128, 256):
            grid = small_grid(n1=n1)
            f = init_perturbed_rarefaction(GAS2, grid, 0.2, (0.0, 1.0), spec, u_glue=1.9)
            snaps = run(f, SolverConfig(snapshot_times=(0.5, 0.52)))
            ry = commutation_residual_y(snaps[0], snaps[1])
            X1, _ = grid.mesh()
            sel = (X1 > -0.1) & (X1 < 0.35)
            vals[n1] = np.max(np.abs(ry[sel]))
        assert vals[128] / vals[256] > 1.3


class TestDeformation:
    def test_table_values_fan_and_uniform(self):
        grid = small_grid(n1=256)
        fan = fan_field(GAS2, grid, 0.5)
        frame = second_frame(fan)
        comps = deformation_components(frame, fan, "T")
        X1, _ = grid.mesh()
        interior = (X1 > 0.5 * (1.0 - 1.9) + 2 * grid.dx1) & (X1 < 0.5 - 2 * grid.dx1)
        assert np.max(np.abs(comps.pi_ll[interior])) < 1e-11  # -2 c z with z = 0
        assert np.all(comps.pi_xx == 0.0)

        uni = make_uniform_field(GAS2, small_grid(n1=32, n2=8), c=1.0, time=0.5)
        comps_u = deformation_components(second_frame(uni), uni, "T")
        assert np.max(np.abs(comps_u.pi_ll + 2.0)) < 1e-13  # -2 c z with c = z = 1

    def test_incoming_component_proportionality(self):
        grid = small_grid(n1=64, n2=32)
        f = manufactured_field(grid, 0.7)
        frame = second_frame(f)
        for comm in ("X", "T"):
            comps = deformation_components(frame, f, comm)
            target = (frame.time / f.c) * comps.pi_lx
            np.testing.assert_allclose(comps.pi_lbarx, target, rtol=1e-12, atol=1e-14)

    def test_mixed_component_against_metric_computation(self):
        # independent check of pi(L, X) for the tangential commutator via
        # Christoffel symbols of the acoustical metric on manufactured fields
        errs = {}
        for n in (48, 96):
            grid = small_grid(n1=n, n2=n, x1_min=0.0, x1_max=2 * math.pi)
            t0, h = 0.5, 1e-5
            f = manufactured_field(grid, t0)
            fm = manufactured_field(grid, t0 - h)
            fp = manufactured_field(grid, t0 + h)

            def metric(field):
                c, v1, v2 = field.c, field.v1, field.v2
                g = np.zeros((3, 3) + c.shape)
                g[0, 0] = -c * c + v1 * v1 + v2 * v2
                g[0, 1] = g[1, 0] = -v1
                g[0, 2] = g[2, 0] = -v2
                g[1, 1] = 1.0
                g[2, 2] = 1.0
                return g

            g0, gm, gp = metric(f), metric(fm), metric(fp)
            dg = np.zeros((3, 3, 3) + f.c.shape)  # dg[sigma, mu, nu] = d_sigma g_{mu nu}
            dg[0] = (gp - gm) / (2.0 * h)
            for a in range(3):
                for b in range(3):
                    dg[1, a, b] = np.gradient(g0[a, b], grid.dx1, axis=0)
                    dg[2, a, b] = (np.roll(g0[a, b], -1, axis=1)
                                   - np.roll(g0[a, b], 1, axis=1)) / (2 * grid.dx2)
            L = np.stack([np.ones_like(f.c), f.v1 + f.c, f.v2])
            X = np.stack([np.zeros_like(f.c), np.zeros_like(f.c), np.ones_like(f.c)])
            # pi(L, X) = L^mu X^nu (d_mu Z_nu + d_nu Z_mu - 2 Gamma_{2 mu nu}),
            # Z = X so Z_nu = g_{nu 2} and the raised index just selects sigma = 2
            pi = np.zeros_like(f.c)
            for mu in range(3):
                for nu in range(3):
                    gam = 0.5 * (dg[mu, 2, nu] + dg[nu, 2, mu] - dg[2, mu, nu])
                    dz = dg[mu, nu, 2] + dg[nu, mu, 2]
                    pi += L[mu] * X[nu] * (dz - 2.0 * gam)
            frame = second_frame(f)
            comps = deformation_components(frame, f, "X")
            errs[n] = np.max(np.abs(pi - comps.pi_lx))
        # the metric-derivative terms cancel structurally, so the two
        # evaluations agree to round-off at any resolution
        assert errs[48] < 1e-10 and errs[96] < 1e-10
        assert np.max(np.abs(pi)) > 1e-3  # the quantity itself is not trivial


class TestStructureResiduals:
    def _framed_fan_pair(self, n1=256, t=0.5, dt=0.02):
        grid = small_grid(n1=n1)
        X1, _ = grid.mesh()
        s0 = framed(fan_field(GAS2, grid, t), 1.0 - X1 / t)
        s1 = framed(fan_field(GAS2, grid, t + dt), 1.0 - X1 / (t + dt))
        return grid, s0, s1

    def test_unperturbed_fan_kappa_equation(self):
        grid, s0, s1 = self._framed_fan_pair()
        out = structure_residuals(s0, s1)
        res, ok = out["kappa"]
        m = band_mask(s0.u, 0.2, 1.3) & ok
        assert np.max(np.abs(res[m])) < 0.05
        for name in ("that1", "that2"):
            res, okk = out[name]
            sel = band_mask(s0.u, 0.2, 1.3) & okk
            assert np.max(np.abs(res[sel])) < 1e-10

    def test_uniform_state_zero(self):
        grid = small_grid(n1=64, n2=8)
        X1, _ = grid.mesh()
        s0 = framed(make_uniform_field(GAS2, grid, c=1.0, time=0.5), -X1 + 0.5)
        s1 = framed(make_uniform_field(GAS2, grid, c=1.0, time=0.6), -X1 + 0.6)
        out = structure_residuals(s0, s1)
        res, ok = out["kappa"]
        assert np.max(np.abs(res[ok])) < 1e-12


class TestSignMonitors:
    def test_unperturbed_fan_values(self):
        grid, s0, s1 = TestStructureResiduals()._framed_fan_pair()
        m = band_mask(s0.u, 0.2, 1.3)
        rep = sign_monitors(s0, s1, m)
        # L(mu) = c > 0 through the band; T(wbar) = -2/(gamma+1) = -2/3
        assert rep["L_mu"][0] > 0.0
        assert abs(rep["T_wbar"][0] + 2.0 / 3.0) < 1e-6
        assert abs(rep["T_wbar"][1] + 2.0 / 3.0) < 1e-6
        assert rep["Lbar_wbar"][1] < -1.0  # -4/3 in the exact fan


def shifted_pair_diagnostics(pair, k):
    """Commutation residuals, structure residuals and sign monitors of the
    pair (snapshot, u) rolled by k whole cells along x2."""
    s0, s1 = (framed(rolled(s, k), np.roll(u, k, axis=1)) for s, u in pair)
    diag = PairDiagnostics(s0, s1)
    return (diag.commutation_residual_y(), diag.commutation_residual_z(),
            diag.structure_residuals(), diag.sign_monitors(band_mask(s0.u, 0.3, 1.3)))


class TestPairShift:
    """A whole-cell roll along the periodic x2 axis commutes with the pair
    diagnostics: exactly where every stencil is a periodic shift, and to
    round-off through the bilinear stencils, whose weights depend on x2."""

    @pytest.fixture(scope="class")
    def unshifted(self):
        pair = perturbed_pair(64, 16)
        return pair, shifted_pair_diagnostics(pair, 0)

    @settings(max_examples=5, deadline=None)
    @given(k=st.integers(min_value=1, max_value=15))
    def test_whole_cell_x2_shift(self, unshifted, k):
        pair, (ry, rz, structure, monitors) = unshifted
        ry_k, rz_k, structure_k, monitors_k = shifted_pair_diagnostics(pair, k)

        def roll(a):
            return np.roll(a, k, axis=1)

        assert same_bits(roll(ry), ry_k)
        assert same_bits(roll(rz), rz_k)
        # round-off of the sampled O(1) fields, not of the residual itself: the
        # that1 residual is a near-cancellation about 1e-4 of the others' size
        scale = max(np.max(np.abs(res)) for res, _ in structure.values())
        for name, (res, ok) in structure.items():
            res_k, ok_k = structure_k[name]
            assert np.array_equal(roll(ok), ok_k)
            assert np.max(np.abs(roll(res) - res_k)) <= 1e-12 * scale
        for name, extrema in monitors.items():
            np.testing.assert_allclose(monitors_k[name], extrema, rtol=1e-12, atol=0.0)


def planes_of(sl):
    """The planes a slice holds, by attribute name."""
    return {name: a for name, a in vars(sl).items() if isinstance(a, np.ndarray)}


# the planes that frame_fields adds to a foliated slice
FRAME_PLANES = ("kappa", "mu", "that1", "that2", "chi", "xhat_v1", "xhat_v2", "xhat_c")


class TestSlice:
    def test_on_restricts_every_plane(self):
        # a record framed on a window: every plane holds exactly the window's rows
        # and the bits of the whole grid's frame, and the record's own planes are views
        (s, u), _ = perturbed_pair(64, 16)
        rec = foliate(Slice(s), u, band_mask(u, 0.3, 1.3))
        assert set(planes_of(rec)) == {"v1", "v2", "c", "u", "band"}
        whole = frame_fields(rec, rec.grid)
        lo, hi = rec.band_rows
        window = rec.grid.window(lo - 2, hi + 3)
        view = frame_fields(rec, window)
        assert view.grid is window and view.time == rec.time
        assert set(planes_of(view)) == set(planes_of(rec)) | set(FRAME_PLANES)
        for name, a in planes_of(view).items():
            assert a.shape == (window.hi - window.lo, rec.grid.n2), name
            assert same_bits(a, getattr(whole, name)[window.lo:window.hi]), name
        for name, a in planes_of(rec).items():
            assert np.shares_memory(getattr(view, name), a), name
        with pytest.raises(NumericalError, match=rf"t=0\.5 needs row {hi - 1},"):
            frame_fields(rec, rec.grid.window(lo, hi - 1))

    def test_cut_holds_copies_of_its_rows_and_names_a_row_it_lacks(self):
        # a cut record holds copies of its rows alone; a frame or a cut that
        # needs a row past them raises NumericalError naming the time and the
        # row, never IndexError
        (s, u), _ = perturbed_pair(64, 16)
        rec = foliate(Slice(s), u, band_mask(u, 0.3, 1.3))
        lo, hi = rec.band_rows
        held = rec.grid.window(lo - 6, hi + 6)
        cut = copy.copy(rec)
        cut.cut(held)
        assert cut.grid is held and cut.band_rows == rec.band_rows
        assert set(planes_of(cut)) == set(planes_of(rec))
        for name, a in planes_of(cut).items():
            assert same_bits(a, getattr(rec, name)[held.lo:held.hi]), name
            assert not np.shares_memory(a, getattr(rec, name)), name
        for window, row in ((rec.grid.window(lo - 7, hi), lo - 7),
                            (rec.grid.window(lo, hi + 7), hi + 6)):
            for ask in (frame_fields, lambda sl, w: copy.copy(sl).cut(w)):
                with pytest.raises(NumericalError, match=rf"t=0\.5 needs row {row},"):
                    ask(cut, window)


class TestFrameWindow:
    """A frame on any window of rows holds the whole grid's frame bits there,
    because `frame_fields` forms it on the window widened by FRAME_DEPTH."""

    @pytest.fixture(scope="class")
    def records(self):
        # foliated without a band, so that every window may be framed
        return [foliate(Slice(s), u, None) for s, u in perturbed_pair(64, 16)]

    @staticmethod
    def differing(rec, window):
        """The frame planes and torsions that differ on the rows of window from
        those of the whole grid's frame; the torsions are read off a frame on
        one more row each side, for the x1 derivative of mu in eta."""
        whole, view = frame_fields(rec, rec.grid), frame_fields(rec, window)
        planes = {name: (getattr(whole, name), getattr(view, name)) for name in FRAME_PLANES}
        wide = rec.grid.around(window.lo, window.hi, 1)
        inner = slice(window.lo - wide.lo, window.hi - wide.lo)
        for name, a, b in zip(("zeta", "eta"), torsions(whole),
                              torsions(frame_fields(rec, wide))):
            planes[name] = (a, b[inner])
        return [name for name, (a, b) in planes.items()
                if not same_bits(a[window.lo:window.hi], b)]

    @settings(max_examples=10, deadline=None)
    @given(side=st.integers(0, 1), lo=st.integers(0, 62), size=st.integers(2, 64))
    def test_any_window_has_whole_grid_bits(self, records, side, lo, size):
        rec = records[side]
        window = rec.grid.window(lo, min(lo + size, rec.grid.n1))
        assert self.differing(rec, window) == []

    @settings(max_examples=10, deadline=None)
    @given(side=st.integers(0, 1), lo=st.integers(0, 60), size=st.integers(2, 64),
           margin=st.integers(0, 4))
    def test_cut_record_frames_with_whole_grid_bits(self, records, side, lo, size, margin):
        # a record cut to rows frames on any window of them with the whole grid's
        # bits where the window widened by FRAME_DEPTH is held, and NaN at an
        # edge of the held rows inside the grid
        rec = records[side]
        n1 = rec.grid.n1
        window = rec.grid.window(lo, min(lo + size, n1))
        held = rec.grid.around(window.lo, window.hi, margin)
        cut = copy.copy(rec)
        cut.cut(held)
        whole, view = frame_fields(rec, rec.grid), frame_fields(cut, window)
        i0 = max(held.lo + geo.FRAME_DEPTH, window.lo) if held.lo > 0 else window.lo
        i1 = min(held.hi - geo.FRAME_DEPTH, window.hi) if held.hi < n1 else window.hi
        for name in FRAME_PLANES:
            a, b = getattr(whole, name), getattr(view, name)
            assert same_bits(a[i0:max(i0, i1)], b[i0 - window.lo:max(i0, i1) - window.lo]), name
        if window.lo == held.lo > 0:
            assert np.isnan(view.kappa[0]).all()

    def test_one_row_less_differs(self, records):
        # a frame formed on a halo of FRAME_DEPTH - 1 rows misses the outer
        # neighbours of grad Xhat, so chi differs at the window's edges
        rec = records[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geo, "FRAME_DEPTH", geo.FRAME_DEPTH - 1)
            assert "chi" in self.differing(rec, rec.grid.window(20, 40))


class TestX2Roll:
    """A whole-cell roll along the periodic x2 axis commutes with the level-set
    transport and the frame fields bit for bit: each stencil is a periodic
    shift, and the wrap columns are recomputed from their periodic partners."""

    @pytest.fixture(scope="class")
    def transported(self):
        grid = small_grid(n1=48, n2=16)
        fields = [manufactured_field(grid, t, amp=0.4) for t in (0.3, 0.34, 0.4)]
        X1, X2 = grid.mesh()
        u0 = 1.0 - X1 / 0.3 + 0.05 * np.sin(X2) + 0.02 * np.cos(3.0 * X2 + X1)
        return fields, u0, [(f, u) for f, u in iter_evolve_u(fields, u0)]

    @settings(max_examples=5, deadline=None)
    @given(k=st.integers(min_value=1, max_value=15))
    def test_level_set_and_frame_fields(self, transported, k):
        fields, u0, unrolled = transported
        for (f, u), (f_k, u_k) in zip(unrolled, iter_evolve_u([rolled(f, k) for f in fields],
                                                              np.roll(u0, k, axis=1))):
            assert same_bits(np.roll(u, k, axis=1), u_k)
            band = band_mask(u, 0.3, 1.3)
            planes = planes_of(framed(f, u, band))
            planes_k = planes_of(framed(f_k, u_k, np.roll(band, k, axis=1)))
            assert planes.keys() == planes_k.keys()
            for name, a in planes.items():
                assert same_bits(np.roll(a, k, axis=1), planes_k[name]), name


class TestDerivedConnectionFields:
    def test_vanish_on_1d_data(self):
        grid = small_grid(n1=128)
        f = fan_field(GAS2, grid, 0.5)
        X1, _ = grid.mesh()
        fol = framed(f, 1.0 - X1 / 0.5)
        assert np.max(np.abs(kslash(fol))) < 1e-12
        assert np.max(np.abs(chibar(fol))) < 1e-12

    def test_chi_decomposition_on_generic_fields(self):
        # chi = c * (kslash - theta) ties the three tangential scalars together
        grid = small_grid(n1=64, n2=32)
        f = manufactured_field(grid, 0.4)
        X1, X2 = grid.mesh()
        u = 1.0 - X1 / 0.4 + 0.2 * np.sin(X2) * np.cos(0.8 * X1)
        fol = framed(f, u)
        lhs = fol.chi
        rhs = f.c * (kslash(fol) - theta(fol))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestRayTracing:
    def test_u_constant_along_rays_analytic_fan(self):
        from rarewave.geometry import trace_characteristics
        grid = small_grid(n1=256)
        times = 0.2 * (1.0 / 0.2) ** (np.arange(17) / 16.0)
        snaps = analytic_fan_sequence(grid, times)
        X1, _ = grid.mesh()
        slices = [framed(s, 1.0 - X1 / s.time) for s in snaps]
        seeds_u = np.array([0.4, 0.8, 1.2])
        x1s = (1.0 - seeds_u) * 0.2
        x2s = np.full_like(x1s, math.pi)
        pos, u_along = trace_characteristics(slices, x1s, x2s)
        # rays are straight lines x = (1 - u) t in the exact fan
        expect = (1.0 - seeds_u)[None, :] * np.asarray(times)[:, None]
        assert np.max(np.abs(pos[..., 0] - expect)) < 0.02
        assert np.max(np.abs(u_along - seeds_u[None, :])) < 0.03


    @staticmethod
    def rippled_slices(grid, times):
        """Slices of a manufactured flow foliated by a u whose normal turns
        along x2, so that the generator moves rays across the x2 wrap."""
        X1, X2 = grid.mesh()
        return [foliate(manufactured_field(grid, t, amp=0.4),
                        1.0 - X1 / t + 0.3 * np.sin(X2 + 4.0 * t), None) for t in times]

    @settings(max_examples=15, deadline=None)
    @given(n1=st.integers(8, 64), n2=st.integers(8, 16), data=st.data())
    def test_window_matches_whole_grid_trace(self, n1, n2, data):
        # rays seeded past both x1 ends (clamped), inside, and on both sides of
        # the x2 wrap give the bits of the trace on the whole grid
        grid = small_grid(n1=n1, n2=n2)
        gaps = data.draw(st.lists(st.floats(0.01, 0.2), min_size=1, max_size=4), label="gaps")
        slices = self.rippled_slices(grid, 0.3 + np.cumsum([0.0] + gaps))
        x1s = np.array([grid.x1_min - 0.3, grid.x1[0], grid.x1[-1], grid.x1_max + 0.2,
                        data.draw(st.floats(grid.x1_min, grid.x1_max), label="x1")])
        x2s = np.array([0.0, 2 * math.pi - 1e-3, 1e-3, data.draw(st.floats(0.0, 0.1)),
                        data.draw(st.floats(0.0, 2 * math.pi), label="x2")])
        rays, oracle = geo.RayTrace(slices[0], x1s, x2s), WholeGridRayTrace(slices[0], x1s, x2s)
        for sl in slices[1:]:
            rays.advance(sl)
            oracle.advance(sl)
            assert same_bits(rays.x1, oracle.x1) and same_bits(rays.x2, oracle.x2)
        for got, want in ((rays.positions, oracle.positions), (rays.u_along, oracle.u_along)):
            assert same_bits(np.stack(got), np.stack(want))

    def test_rays_that_speed_up_past_the_speed_where_they_start(self):
        # v1 grows along x1, so a ray crosses rows faster than the speed of the
        # rows it starts on: its reach is taken over the rows it can reach
        grid = small_grid(n1=64, n2=8)
        X1, _ = grid.mesh()
        rho = float(density_from_sound_speed(GAS2, 1.0))
        slices = [foliate(FlowField.from_planes(GAS2, grid, t, np.full(X1.shape, rho),
                                                rho * 2.0 * (X1 - grid.x1_min),
                                                np.zeros(X1.shape)), -X1, None)
                  for t in (0.3, 0.8)]
        x1s, x2s = np.array([-2.0, -1.9]), np.array([1.0, 2.0])
        rays, oracle = geo.RayTrace(slices[0], x1s, x2s), WholeGridRayTrace(slices[0], x1s, x2s)
        rays.advance(slices[1])
        oracle.advance(slices[1])
        assert np.all(rays.x1 - x1s > 0.5 * (2.0 * (x1s - grid.x1_min) + 1.0) + 5 * grid.dx1)
        assert same_bits(rays.x1, oracle.x1) and same_bits(rays.u_along[1], oracle.u_along[1])

    def test_rays_clamp_and_wrap(self):
        # the cases of the property above occur: rays outside both x1 ends, and
        # rays whose x2 crosses the wrap
        grid = small_grid(n1=64, n2=16)
        slices = self.rippled_slices(grid, (0.3, 0.4, 0.5, 0.6))
        x1s = np.array([grid.x1_min - 0.3, grid.x1_max + 0.2, 0.0, 0.0])
        x2s = np.array([math.pi, math.pi, 1e-3, 2 * math.pi - 1e-3])
        pos, _ = geo.trace_characteristics(slices, x1s, x2s)
        assert (pos[:, 0, 0] < grid.x1[0]).any() and (pos[:, 1, 0] > grid.x1[-1]).all()
        assert (np.abs(np.diff(pos[:, 2:, 1], axis=0)) > math.pi).any()

    def test_holds_no_whole_grid_plane(self):
        # the rays read about 17 of 256 rows: an advance peaks near one plane,
        # where the trace on the whole grid peaks at 6, and keeps no plane
        grid = small_grid(n1=256, n2=32)
        slices = self.rippled_slices(grid, (0.3, 0.32, 0.34))
        rays = geo.RayTrace(slices[0], np.linspace(-0.1, 0.1, 5), np.full(5, math.pi))
        rays.advance(slices[1])
        tracemalloc.start()
        try:
            rays.advance(slices[2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rays.slice is slices[2]
        held = [a for a in vars(rays).values() if isinstance(a, np.ndarray)]
        assert held and all(a.size < grid.n2 for a in held)
        assert peak / slices[0].u.nbytes <= 1.5

    @settings(max_examples=25, deadline=None)
    @given(n1=st.integers(8, 64), n2=st.integers(8, 16), data=st.data())
    def test_non_finite_flow_on_a_read_row_named(self, n1, n2, data):
        # a non-finite value on a corner row of a ray, in either slice, stops the
        # trace with the time of that slice and the cell: never a ValueError from
        # the reach or an IndexError
        grid = small_grid(n1=n1, n2=n2)
        k = data.draw(st.sampled_from([0, 1]), label="slice")
        i = data.draw(st.integers(0, n1 - 1), label="i")
        j = data.draw(st.integers(0, n2 - 1), label="j")
        name, value = data.draw(st.sampled_from(
            [(m, v) for m in ("m1", "m2") for v in (math.nan, math.inf, -math.inf)]
            + [("rho", math.inf)]), label="injected")
        fields = [manufactured_field(grid, t, amp=0.4) for t in (0.3, 0.35)]
        getattr(fields[k], name)[i, j] = value
        X1, X2 = grid.mesh()
        slices = [foliate(f, 1.0 - X1 / f.time + 0.3 * np.sin(X2), None) for f in fields]
        x1s = np.array([grid.x1[min(i, n1 - 2)] + 0.5 * grid.dx1])
        rays = geo.RayTrace(slices[0], x1s, np.array([math.pi]))
        with pytest.raises(NumericalError,
                           match=rf"at t={fields[k].time:.6g} .*first at \(i={i}, j={j}\)$"):
            rays.advance(slices[1])


def one_sided_oracle(u, dx, axis, grid_periodic):
    """ENO one-sided differences with the three second differences and the
    two minmod pairs evaluated per cell: the reference for `_one_sided`."""
    pad = [(0, 0)] * u.ndim
    pad[axis] = (2, 2)
    mode = {"mode": "wrap"} if grid_periodic else {"mode": "reflect", "reflect_type": "odd"}
    up = np.pad(u, pad, **mode)

    def shifted(k):
        sl = [slice(None)] * u.ndim
        sl[axis] = slice(2 + k, 2 + k + u.shape[axis])
        return up[tuple(sl)]

    def minmod(a, b):
        return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)

    up1, um1, up2, um2 = shifted(1), shifted(-1), shifted(2), shifted(-2)
    d2c = (up1 - 2.0 * u + um1) / dx ** 2
    d2m = (u - 2.0 * um1 + um2) / dx ** 2
    d2p = (up2 - 2.0 * up1 + u) / dx ** 2
    back = (u - um1) / dx + 0.5 * dx * minmod(d2m, d2c)
    fwd = (up1 - u) / dx - 0.5 * dx * minmod(d2c, d2p)
    return back, fwd


def hamiltonian_oracle(u, v1, v2, c, grid):
    """Godunov Hamiltonian from per-cell ENO differences: the per-substep
    reference for `_hamiltonian`."""
    bx, fx = one_sided_oracle(u, grid.dx1, 0, grid_periodic=False)
    by, fy = one_sided_oracle(u, grid.dx2, 1, grid_periodic=True)
    adv = np.maximum(v1, 0.0) * bx + np.minimum(v1, 0.0) * fx \
        + np.maximum(v2, 0.0) * by + np.minimum(v2, 0.0) * fy
    grad_minus = np.sqrt(np.minimum(bx, 0.0) ** 2 + np.maximum(fx, 0.0) ** 2
                         + np.minimum(by, 0.0) ** 2 + np.maximum(fy, 0.0) ** 2)
    return adv - c * grad_minus


def evolve_u_oracle(snapshots, u_init, cfl=0.45):
    """Level-set transport with fresh arrays in every substep: the reference
    for `evolve_u` on finite flows."""
    grid = snapshots[0].grid
    out = [u_init.copy()]
    u = u_init.copy()
    for s0, s1 in zip(snapshots[:-1], snapshots[1:]):
        speed = max(np.max(np.abs(s.v1) + s.c) for s in (s0, s1))
        speed2 = max(np.max(np.abs(s.v2) + s.c) for s in (s0, s1))
        nsub = max(1, int(math.ceil((s1.time - s0.time)
                                    / (cfl / (speed / grid.dx1 + speed2 / grid.dx2)))))
        dt = (s1.time - s0.time) / nsub
        for m in range(nsub):
            w = (m + 0.5) / nsub
            v1, v2, c = ((1.0 - w) * a + w * b for a, b in ((s0.v1, s1.v1), (s0.v2, s1.v2),
                                                            (s0.c, s1.c)))
            u = u - dt * hamiltonian_oracle(u, v1, v2, c, grid)
        out.append(u.copy())
    return out


class TestSharedStencils:
    def test_one_sided_matches_per_cell_formula(self):
        rng = np.random.default_rng(5)
        for n1, n2 in ((40, 24), (12, 8)):
            u = rng.standard_normal((n1, n2))
            # smooth and rough columns exercise both nonzero minmod branches;
            # exactly linear and constant columns (with signed zeros), linear
            # rows and a checkerboard of +0 and -0 its zero branch
            u[:, :n2 // 2] = np.cumsum(np.cumsum(u[:, :n2 // 2], axis=0), axis=1)
            u[:, -4:] = np.column_stack([0.25 * np.arange(n1) - 3.0, np.full(n1, 1.5),
                                         np.zeros(n1), np.full(n1, -0.0)])
            u[-3:] = 0.125 * np.arange(n2) - 1.0
            u[-9:-3] = np.where(np.add.outer(range(6), range(n2)) % 2, 0.0, -0.0)
            g = np.empty((n1 + 4, n2))
            g[2:-2] = u
            work = np.empty((3, (n1 + 2) * n2))
            _reflect_ends(g)
            for axis, dx, periodic in ((0, 0.07, False), (1, 0.13, True)):
                got = np.empty((2, n1, n2))
                _one_sided(g, dx, axis, *got, work)
                want = one_sided_oracle(u, dx, axis, periodic)
                for a, b in zip(got, want):
                    assert same_bits(a, b)
            # the x1 ghost rows are np.pad's odd reflection
            assert same_bits(g, np.pad(u, [(2, 2), (0, 0)], mode="reflect", reflect_type="odd"))

    def test_one_stencil_samples_fields_as_per_field_formula(self):
        grid = small_grid(n1=32, n2=16)
        rng = np.random.default_rng(11)
        # beyond both x1 ends, inside, and across the x2 wrap in both directions
        x1p = np.concatenate([rng.uniform(grid.x1_min - 0.5, grid.x1[0], 20),
                              rng.uniform(grid.x1[-1], grid.x1_max + 0.5, 20),
                              rng.uniform(grid.x1_min, grid.x1_max, 40)])
        x2p = np.concatenate([rng.uniform(-1.0, 0.2, 30), rng.uniform(6.0, 7.5, 30),
                              rng.uniform(0.0, 2 * math.pi, 20)])
        x2p[:4] = [0.0, grid.x2[-1], 2 * math.pi, -2 * math.pi]
        st = BilinearStencil(x1p, x2p, grid)
        fields = [rng.standard_normal((grid.n1, grid.n2)) for _ in range(3)]
        for f in fields:
            assert np.array_equal(st(f), bilinear_oracle(f, x1p, x2p, grid))
            assert np.array_equal(bilinear_sample(f, x1p, x2p, grid),
                                  bilinear_oracle(f, x1p, x2p, grid))
        i_floor = np.floor((x1p - grid.x1[0]) / grid.dx1)
        assert np.array_equal(st.inside, (i_floor >= 0) & (i_floor <= grid.n1 - 2))
        assert not st.inside[:40].all() and st.inside[40:].any()

    def test_flow_stencil_matches_semi_lagrangian_formula(self):
        grid = small_grid(n1=32, n2=16)
        rng = np.random.default_rng(3)
        a1 = rng.uniform(-3.0, 3.0, (grid.n1, grid.n2))
        a2 = rng.uniform(-8.0, 8.0, (grid.n1, grid.n2))
        t0, t1 = 0.4, 0.47
        flow = FlowStencil(a1, a2, t1 - t0, grid)
        x1 = grid.x1[:, None] + a1 * (t1 - t0)
        x2 = grid.x2[None, :] + a2 * (t1 - t0)
        i_floor = np.floor((x1 - grid.x1[0]) / grid.dx1)
        valid = (i_floor >= 0) & (i_floor <= grid.n1 - 2)
        assert valid.any() and not valid.all()
        for _ in range(3):
            f0, f1 = rng.standard_normal((2, grid.n1, grid.n2))
            want = (bilinear_oracle(f1, x1, x2, grid) - f0) / (t1 - t0)
            assert np.array_equal(flow.derivative(f0, f1), want)
            got, mask = semi_lagrangian(f0, f1, a1, a2, t0, t1, grid)
            assert np.array_equal(got, want) and np.array_equal(mask, valid)
        assert np.array_equal(flow.valid, valid)
