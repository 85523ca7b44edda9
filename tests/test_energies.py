import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarewave.energies import (EnergyAnalysis, FrameDerivativeOp, GronwallHypothesisError,
                               GronwallInstance, apply_frame_derivative,
                               check_data_predicates, energies_of_slice, extract_level_curve,
                               fit_gronwall_constants, gronwall_verify, read_rows,
                               region_weights, words_of_order)
from rarewave.euler2d import (FlowField, PerturbationSpec, SolverConfig,
                              init_perturbed_rarefaction, run)
from rarewave.geometry import PairDiagnostics, evolve_u
from rarewave.riemann1d import CenteredFan

from conftest import (GAS2, bilinear_oracle, fan_field, framed, make_uniform_field,
                      perturbed_pair, rolled, small_grid)


def fan_setup(n1=256, t=0.5, dt=0.02, n2=8, n_times=2):
    grid = small_grid(n1=n1, n2=n2)
    snaps = [fan_field(GAS2, grid, t + i * dt) for i in range(n_times)]
    X1, _ = grid.mesh()
    slices = [framed(s, 1.0 - X1 / s.time) for s in snaps]
    return grid, snaps, slices


class TestRegionQuadrature:
    def test_band_area(self):
        grid, snaps, slices = fan_setup()
        w = region_weights(slices[0].u, 0.2, 1.2, grid)
        # u = 1 - x/t: the band is an x-slab of width (1.2 - 0.2) * t
        assert w.sum() == pytest.approx(1.0 * 0.5 * 2 * math.pi, rel=1e-3)

    def test_monotone_in_u(self):
        grid, snaps, slices = fan_setup()
        areas = [region_weights(slices[0].u, 0.0, um, grid).sum()
                 for um in np.linspace(0.1, 1.4, 14)]
        assert np.all(np.diff(areas) > 0)


class TestLevelCurves:
    def test_circle_length_and_integral(self):
        grid = small_grid(n1=128, n2=128, x1_min=0.0, x1_max=2 * math.pi)
        X1, X2 = grid.mesh()
        x0, y0, r = math.pi, math.pi, 1.0
        u = np.hypot(X1 - x0, X2 - y0)
        curve = extract_level_curve(u, r, grid)
        assert curve.lengths.sum() == pytest.approx(2 * math.pi * r, rel=2e-3)
        # integral of (x - x0)^2 over the circle is pi r^3
        val = extract_level_curve(u, r, grid).integral((X1 - x0) ** 2)
        assert val == pytest.approx(math.pi * r ** 3, rel=5e-3)

    def test_vertical_front_wraps_periodically(self):
        grid = small_grid(n1=64, n2=16)
        X1, _ = grid.mesh()
        u = 1.0 - X1 / 0.5
        curve = extract_level_curve(u, 0.8, grid)
        assert curve.lengths.sum() == pytest.approx(2 * math.pi, rel=1e-10)


def marching_squares_oracle(u, level, grid):
    """Full-grid marching squares, saddle squares split one by one: the
    reference for `extract_level_curve`.  Returns (mid_x1, mid_x2, lengths,
    number of saddle squares)."""
    A, B = u[:-1, :], u[1:, :]
    C, D = np.roll(u, -1, axis=1)[1:, :], np.roll(u, -1, axis=1)[:-1, :]
    x1, x2 = grid.x1[:-1, None], grid.x2[None, :]
    dx1, dx2 = grid.dx1, grid.dx2
    shape = A.shape

    def cross(p, q):
        denom = np.where(q != p, q - p, 1.0)
        return (p < level) != (q < level), np.clip((level - p) / denom, 0.0, 1.0)

    (g0, f0), (g1, f1), (g2, f2), (g3, f3) = cross(A, B), cross(B, C), cross(D, C), cross(A, D)
    ex = np.stack([x1 + f0 * dx1, np.broadcast_to(x1 + dx1, shape),
                   x1 + f2 * dx1, np.broadcast_to(x1, shape)])
    ey = np.stack([np.broadcast_to(x2, shape), x2 + f1 * dx2,
                   np.broadcast_to(x2 + dx2, shape), x2 + f3 * dx2])
    flags = np.stack([g0, g1, g2, g3])
    counts = flags.sum(axis=0)
    mids1, mids2, lens = [], [], []
    for i, j in np.argwhere(counts == 2):
        first = int(np.argmax(flags[:, i, j]))
        last = 3 - int(np.argmax(flags[::-1, i, j]))
        dy = abs(ey[first, i, j] - ey[last, i, j])
        dy = np.minimum(dy, 2.0 * math.pi - dy)
        mids1.append(0.5 * (ex[first, i, j] + ex[last, i, j]))
        mids2.append(0.5 * (ey[first, i, j] + ey[last, i, j]))
        lens.append(np.hypot(ex[first, i, j] - ex[last, i, j], dy))
    four = np.argwhere(counts == 4)
    for i, j in four:
        corners = (A[i, j], B[i, j], C[i, j], D[i, j])
        center = 0.25 * sum(corners)
        pairs = [(0, 1), (2, 3)] if (center < level) == (corners[1] < level) else [(0, 3), (1, 2)]
        for e1, e2 in pairs:
            dy = abs(ey[e1, i, j] - ey[e2, i, j])
            dy = min(dy, 2.0 * math.pi - dy)
            mids1.append(0.5 * (ex[e1, i, j] + ex[e2, i, j]))
            mids2.append(0.5 * (ey[e1, i, j] + ey[e2, i, j]))
            lens.append(math.hypot(ex[e1, i, j] - ex[e2, i, j], dy))
    return (np.array(mids1), np.mod(np.array(mids2), 2.0 * math.pi), np.array(lens), len(four))


class TestMarchingSquaresOracle:
    @pytest.mark.parametrize("level", [0.0, 0.3])
    def test_crossed_cells_match_full_grid(self, level):
        grid = small_grid(n1=64, n2=64, x1_min=0.0, x1_max=2 * math.pi)
        X1, X2 = grid.mesh()
        u = np.cos(X1) * np.cos(X2)
        mid1, mid2, lens, saddles = marching_squares_oracle(u, level, grid)
        # level 0 passes through the saddles of cos*cos; 0.3 has none
        assert (saddles > 0) == (level == 0.0)
        curve = extract_level_curve(u, level, grid)
        assert np.array_equal(curve.mid_x1, mid1)
        assert np.array_equal(curve.mid_x2, mid2)
        assert np.array_equal(curve.lengths, lens)
        g = np.sin(X1 + 2.0 * X2)
        assert curve.integral(g) == float(np.sum(lens * bilinear_oracle(g, mid1, mid2, grid)))

    def test_uncrossed_level_gives_empty_curve(self):
        grid = small_grid(n1=16, n2=8)
        X1, _ = grid.mesh()
        curve = extract_level_curve(X1, 10.0, grid)
        assert curve.lengths.size == 0 and curve.lengths.sum() == 0.0
        assert curve.integral(X1) == 0.0


class TestFrameDerivative:
    def test_empty_word_identity(self):
        grid, snaps, _ = fan_setup()
        fields = [s.invariants()[0] for s in snaps]
        out, valid = apply_frame_derivative(FrameDerivativeOp(()), fields,
                                            [s.time for s in snaps], grid)
        assert np.array_equal(out[0], fields[0])
        assert valid.all()

    def test_tangential_derivative_of_1d_field_vanishes(self):
        grid, snaps, _ = fan_setup()
        fields = [s.invariants()[0] for s in snaps]
        out, _ = apply_frame_derivative(FrameDerivativeOp(("X",)), fields,
                                        [s.time for s in snaps], grid)
        assert np.max(np.abs(out[0])) == 0.0

    def test_normal_derivative_of_wbar_in_fan(self):
        grid, snaps, _ = fan_setup()
        fields = [s.invariants()[0] for s in snaps]
        out, valid = apply_frame_derivative(FrameDerivativeOp(("T",)), fields,
                                            [s.time for s in snaps], grid)
        X1, _ = grid.mesh()
        interior = (X1 > 0.5 * (1.0 - 1.9) + 2 * grid.dx1) & (X1 < 0.5 - 2 * grid.dx1)
        assert np.max(np.abs(out[0][interior] + 2.0 / 3.0)) < 1e-11

    def test_order_cap(self):
        with pytest.raises(ValueError):
            FrameDerivativeOp(("X",) * 4)


# rows of a slice_energies entry: outgoing, incoming, ring; columns: energy, flux line
OUT, INC, RING = 0, 1, 2


class TestEnergies:
    def test_zero_invariant_gives_zero_energies(self):
        # psi2 = v2 vanishes identically in the 1D fan
        grid, _, slices = fan_setup()
        ana = EnergyAnalysis(slices, u_min=0.1)
        sl = ana.slice_energies(0, ["psi2"], [0, 1], [0.6, 1.2])
        assert len(sl) == 4
        for vals in sl.values():
            assert np.all(vals == 0.0)

    def test_unperturbed_fan_outgoing_of_w_is_floor(self):
        grid, _, slices = fan_setup()
        ana = EnergyAnalysis(slices, u_min=0.1)
        e = ana.slice_energies(0, ["w"], [0], [1.3])["w", 0, 1.3][OUT, 0]
        assert e < 1e-20  # w is constant and L w = 0 in the exact fan

    def test_unperturbed_fan_incoming_of_wbar_vs_oracle(self):
        # closed form: Lbar(wbar) = -4/3, Xhat(wbar) = 0, kappa = t, so the
        # Cartesian integrand is (16/9)/t over an x-slab of width
        # (u_hi - u_lo) * t; independent arithmetic gives 16*pi*(du)/9
        grid, _, slices = fan_setup(n1=512)
        ana = EnergyAnalysis(slices, u_min=0.2)
        ebar = ana.slice_energies(0, ["wbar"], [0], [1.2])["wbar", 0, 1.2][INC, 0]
        oracle = 0.5 * (16.0 / 9.0) * (1.2 - 0.2) * 2 * math.pi
        assert ebar == pytest.approx(oracle, rel=2e-2)

    def test_monotone_in_band_width(self):
        grid, _, slices = fan_setup()
        ana = EnergyAnalysis(slices, u_min=0.0)
        sl = ana.slice_energies(0, ["wbar"], [0], [0.4, 0.8, 1.2])
        vals = [sl["wbar", 0, um][INC, 0] for um in (0.4, 0.8, 1.2)]
        assert vals[0] < vals[1] < vals[2]

    def test_report_matches_slice_energies_bitwise(self):
        grid, snaps, slices = fan_setup(n_times=3)
        X1, X2 = grid.mesh()
        # a transverse velocity wave makes the psi2 = v2 energies and fluxes nonzero
        snaps = [FlowField.from_planes(s.gas, grid, s.time, s.rho, s.m1,
                                       0.01 * s.rho * np.sin(X2 + 3.0 * X1 - s.time))
                 for s in snaps]
        ana = EnergyAnalysis([framed(s, sl.u) for s, sl in zip(snaps, slices)], u_min=0.1)
        psis, orders, u_values = ["wbar", "w", "psi2"], [0, 1], [0.8, 1.3]
        slices = [ana.slice_energies(k, psis, orders, u_values) for k in range(3)]
        rep = ana.report(psis, orders, [0, 1, 2], u_values)
        assert len(rep.rows) == 3 * 2 * 2 * 3
        for row in rep.rows:
            k = ana.times.index(row.t)
            vals = [s[row.psi, row.n, row.u] for s in slices]
            assert (row.E, row.Ebar) == (vals[k][OUT, 0], vals[k][INC, 0])
            ring = row.psi == "wbar" and row.n == 0
            assert row.E0ring == (vals[k][RING, 0] if ring else None)
            for attr, r in (("F", OUT), ("Fbar", INC)) + ((("F0ring", RING),) if ring else ()):
                flux = 0.0
                for j in range(k):
                    flux += 0.5 * (vals[j][r, 1] + vals[j + 1][r, 1]) \
                        * (ana.times[j + 1] - ana.times[j])
                assert getattr(row, attr) == flux
        assert all(row.F > 0 and row.Fbar > 0 for row in rep.rows
                   if row.psi == "psi2" and row.t > ana.times[0])

    def test_ring_energy_fan_floor_and_uniform_zero(self):
        grid, snaps, slices = fan_setup()
        ana = EnergyAnalysis(slices, u_min=0.1)
        assert ana.slice_energies(0, ["wbar"], [0], [1.3])["wbar", 0, 1.3][RING, 0] < 1e-18
        # uniform flows framed by the fan's u
        uniform = [framed(make_uniform_field(GAS2, grid, 1.0, time=s.time), sl.u)
                   for s, sl in zip(snaps, slices)]
        ana = EnergyAnalysis(uniform, u_min=0.1)
        assert ana.slice_energies(0, ["wbar"], [0], [1.2])["wbar", 0, 1.2][RING, 0] == 0.0

    def test_slice_peak_memory(self):
        # one slice holds one flow stencil (eight planes) shared by every
        # (invariant, word) field; per-field stencils would raise the peak
        grid, snaps, slices = fan_setup(n_times=6)
        ana = EnergyAnalysis(slices, u_min=0.1)
        tracemalloc.start()
        try:
            ana.slice_energies(2, ["wbar", "w", "psi2"], [0, 1], [0.75, 1.5])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / snaps[0].rho.nbytes <= 44.0

    def test_flux_of_invariant_w_is_floor(self):
        grid, _, slices = fan_setup()
        ana = EnergyAnalysis(slices, u_min=0.1)
        rep = ana.report(["w"], [0], [1], [1.0])
        row = rep.rows[0]
        assert row.F < 1e-16
        assert row.Fbar < 1e-16


def rolled_energies(pair, k):
    """`energies_of_slice` of both slices of the pair (snapshot, u) rolled by k
    whole cells along x2, over two bands and orders 0 and 1."""
    s0, s1 = (framed(rolled(s, k), np.roll(u, k, axis=1)) for s, u in pair)
    diag, u_values = PairDiagnostics(s0, s1), [0.75, 1.3]
    return [energies_of_slice(diag, side, read_rows(sl, 0.3, u_values), ["wbar", "w", "psi2"],
                              [0, 1], u_values, 0.3)
            for side, sl in enumerate((s0, s1))]


class TestX2Roll:
    """A whole-cell roll along the periodic x2 axis leaves the slice energies
    unchanged to round-off: they are sums over x2, in the rolled order, and
    the level curves' sampling weights depend on x2."""

    @pytest.fixture(scope="class")
    def unrolled(self):
        pair = perturbed_pair(64, 16)
        return pair, rolled_energies(pair, 0)

    @settings(max_examples=5, deadline=None)
    @given(k=st.integers(min_value=1, max_value=15))
    def test_energies_of_slice(self, unrolled, k):
        pair, energies = unrolled
        for side, side_k in zip(energies, rolled_energies(pair, k)):
            assert side.keys() == side_k.keys()
            for key, e in side.items():
                np.testing.assert_allclose(side_k[key], e, rtol=1e-12, atol=0.0, err_msg=str(key))


class TestDataPredicates:
    def test_unperturbed_fan_passes(self):
        grid = small_grid(n1=512)
        delta = 0.2
        f = init_perturbed_rarefaction(GAS2, grid, delta, (0.0, 1.0),
                                       PerturbationSpec(epsilon=0.0), u_glue=1.9)
        X1, _ = grid.mesh()
        lines = check_data_predicates(framed(f, 1.0 - X1 / delta), 0.0, delta, 1.5)
        byname = {p.name: p for p in lines}
        assert byname["sup|T wbar + 2/(gamma+1)|"].measured < 5 * grid.dx1
        assert byname["sup|L wbar|"].measured < 1e-12
        assert byname["sup|Xhat w|"].measured < 1e-12
        assert all(p.passed for p in lines)
        assert byname["u_star vs half-vacuum-width"].scale == pytest.approx(1.5)

    def test_perturbed_norms_scale_with_epsilon(self):
        grid = small_grid(n1=512, n2=32)
        delta = 0.2
        sups = {}
        for eps in (0.02, 0.01):
            cfgspec = PerturbationSpec(epsilon=eps, modes=(
                __import__("rarewave.euler2d", fromlist=["PerturbationMode"])
                .PerturbationMode(2, 1, 1.0, 0.4),), strip=(-0.5, 1.1))
            f = init_perturbed_rarefaction(GAS2, grid, delta, (0.0, 1.0), cfgspec,
                                           u_glue=1.9)
            X1, _ = grid.mesh()
            sl = framed(f, 1.0 - X1 / delta)
            lines = {p.name: p for p in check_data_predicates(sl, eps, delta, 1.5)}
            sups[eps] = lines["sup|Xhat wbar|"].measured
        assert 1.7 < sups[0.02] / sups[0.01] < 2.3


def oracle_instance(rng, n_t=12, n_u=9):
    """Saturated-equality instance: F free, E from the linear growth ODE."""
    A = rng.uniform(0.5, 3.0)
    B = rng.uniform(0.1, 1.5)
    u_star = rng.uniform(0.4, 1.5)
    C = rng.uniform(0.1, 1.0) / math.exp(B * u_star)
    delta = rng.uniform(0.02, 0.1)
    t = np.linspace(delta, 1.0, n_t)
    u = np.linspace(0.0, u_star, n_u)
    beta_nodes = rng.uniform(0.0, A, size=n_u)
    beta_nodes[0] = rng.uniform(0.0, A)
    fine = np.linspace(0.0, u_star, 2001)
    beta_fine = np.interp(fine, u, beta_nodes)
    i_beta = np.concatenate([[0.0], np.cumsum(0.5 * (beta_fine[1:] + beta_fine[:-1])
                                              * np.diff(fine))])
    beta = np.interp(u, fine, beta_fine)
    ib = np.interp(u, fine, i_beta)
    F = beta[None, :] * t[:, None] ** 2
    b = A - beta + B * ib  # coefficient of t^2 in the remainder
    assert np.all(b >= -1e-12)
    b = np.maximum(b, 0.0)
    E = b[None, :] * (2.0 * t[:, None] ** 2
                      - C * delta ** (2.0 - C) * t[:, None] ** C) / (2.0 - C)
    return GronwallInstance(A=A, B=B, C=C, t=t, u=u, E=E, F=F)


class TestGronwall:
    def test_zero_instance(self):
        t = np.linspace(0.05, 1.0, 8)
        u = np.linspace(0.0, 1.0, 5)
        inst = GronwallInstance(1.0, 0.5, 0.1, t, u,
                                np.zeros((8, 5)), np.zeros((8, 5)))
        v = gronwall_verify(inst)
        assert v.max_ratio == 0.0 and v.passed

    def test_pure_quadratic_energy(self):
        t = np.linspace(0.05, 1.0, 30)
        u = np.linspace(0.0, 1.0, 9)
        A, B, C = 2.0, 0.4, 0.05
        E = A * t[:, None] ** 2 * np.ones((1, 9))
        F = np.zeros_like(E)
        v = gronwall_verify(GronwallInstance(A, B, C, t, u, E, F))
        assert v.passed
        assert v.max_ratio <= 1.0 / 3.0 + 0.01

    def test_oracle_instances_all_pass(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            v = gronwall_verify(oracle_instance(rng))
            assert v.passed and v.max_ratio <= 1.0

    def test_mutated_instance_flagged(self):
        rng = np.random.default_rng(22)
        inst = oracle_instance(rng, n_t=16, n_u=9)
        E = inst.E.copy()
        i, j = 9, 5
        flagged = False
        for _ in range(12):
            E[i, j] *= 10.0
            try:
                gronwall_verify(GronwallInstance(inst.A, inst.B, inst.C,
                                                 inst.t, inst.u, E, inst.F))
            except GronwallHypothesisError as exc:
                flagged = True
                assert f"t={inst.t[i]:.6g}" in str(exc)
                break
        assert flagged

    def test_precondition_on_constants(self):
        t = np.linspace(0.05, 1.0, 8)
        u = np.linspace(0.0, 2.0, 5)
        inst = GronwallInstance(1.0, 2.0, 1.0, t, u, np.zeros((8, 5)), np.zeros((8, 5)))
        with pytest.raises(GronwallHypothesisError, match="exceeds 1"):
            gronwall_verify(inst)

    def test_fit_constants_roundtrip(self):
        rng = np.random.default_rng(23)
        inst = oracle_instance(rng)
        fitted = fit_gronwall_constants(inst.E, inst.F, inst.t, inst.u)
        v = gronwall_verify(fitted)
        assert v.passed
