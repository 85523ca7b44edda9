"""Production-scale acceptance checks.

Five simulations shared across the criteria (unperturbed runs at 512 and
1024 cells, perturbed runs at amplitudes 0.01 and 0.005), each with the
full foliation/energy pipeline.  Every criterion prints one PASS line with
its measured values; tolerances are pinned here.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from rarewave.energies import GronwallHypothesisError, GronwallInstance, gronwall_verify
from rarewave.gas import PolytropicGas, PrimitiveState, to_invariants
from rarewave.harness import RunConfig, run_single
from rarewave.riemann1d import CenteredFan, RiemannProblem1D, solve_riemann

from conftest import evaluate_fan, lax_admissible, shock_jump_residual

pytestmark = pytest.mark.acceptance

GAS2 = PolytropicGas(2.0, 0.5)
DELTA = 0.1

BASE = dict(delta=DELTA, t_star=1.0, n2=128, u_star=1.5, u_lo=0.3, u_glue=1.9,
            snapshots=21, orders=1, u_levels=4, save_snapshots="none")


def _ok(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    made = {}
    timings = {}
    for tag, n1, eps in (("e0_512", 512, 0.0), ("e0_1024", 1024, 0.0),
                         ("e1_512", 512, 0.01), ("e1_1024", 1024, 0.01),
                         ("e05_1024", 1024, 0.005)):
        cfg = RunConfig(**BASE, n1=n1, epsilon=eps, out_dir=str(out)).validate()
        tic = time.monotonic()
        made[tag] = run_single(cfg, out_dir=out / tag)
        timings[tag] = time.monotonic() - tic
    made["timings"] = timings
    return made


def _frame_max(report, col, t_min=2 * DELTA):
    return max(r[col] for r in report["frame_stats"] if r[0] >= t_min - 1e-9)


def _energy_at(report, psi, n, ring=False):
    rows = report["energies"]
    t_last = max(r[0] for r in rows)
    u_wide = max(r[1] for r in rows)
    for r in rows:
        if r[0] == t_last and r[1] == u_wide and r[2] == psi and r[3] == n:
            return float(r[8]) if ring else float(r[4]) + float(r[5])
    raise KeyError((psi, n))


def _residual_max(report, col, t_min=2 * DELTA):
    vals = [r[col] for r in report["residuals"]
            if r[0] >= t_min - 1e-9 and np.isfinite(r[col])]
    return float(np.max(vals))


def _dx1(report):
    cfg = report["config"]
    return (cfg["x1_max"] - cfg["x1_min"]) / cfg["n1"]


class TestCriterion1:
    def test_exact_fan_oracle(self):
        tic = time.monotonic()
        g = GAS2.gamma
        fan = CenteredFan(GAS2, 0.0, 1.0)
        rng = np.random.default_rng(1)
        xi = rng.uniform(fan.vacuum_slope, fan.head_slope, size=1000)
        v, c = fan.state_at_slope(xi)
        # the closed self-similar form, written out independently
        b = (g - 1.0) / (g + 1.0) * 0.0 - 2.0 / (g + 1.0) * 1.0
        v_ref = 2.0 / (g + 1.0) * xi + b
        c_ref = (g - 1.0) / (g + 1.0) * xi - b
        assert np.max(np.abs(v - v_ref)) <= 1e-14
        assert np.max(np.abs(c - c_ref)) <= 1e-14
        w = 0.5 * (2.0 * c / (g - 1.0) - v)
        assert np.max(np.abs(w - 1.0)) <= 1e-12
        elapsed = time.monotonic() - tic
        assert elapsed < 1.0
        _ok(1, f"closed form to {np.max(np.abs(v - v_ref)):.1e}, "
               f"w const to {np.max(np.abs(w - 1.0)):.1e}, {elapsed:.2f}s")


class TestCriterion2:
    def test_riemann_round_trip(self):
        tic = time.monotonic()
        rng = np.random.default_rng(2)
        n_shock = n_raref = n_vac = 0
        for k in range(1000):
            gas = PolytropicGas(rng.uniform(1.5, 2.5), rng.uniform(0.3, 1.0))
            spread = 4.0 if k % 5 == 0 else 1.5  # wide draws generate vacuum
            left = PrimitiveState(c=rng.uniform(0.5, 1.5), v1=rng.uniform(-spread, spread))
            right = PrimitiveState(c=rng.uniform(0.5, 1.5), v1=rng.uniform(-spread, spread))
            fan = solve_riemann(RiemannProblem1D(gas, left, right))
            crit = to_invariants(gas, left).wbar + to_invariants(gas, right).w < 0.0
            assert fan.has_vacuum == crit
            if fan.has_vacuum:
                n_vac += 1
                continue
            for wave, outer, family in ((fan.wave1, left, 1), (fan.wave2, right, 2)):
                if wave.kind == "shock":
                    pair = (outer, fan.middle) if family == 1 else (fan.middle, outer)
                    assert abs(shock_jump_residual(gas, *pair)) <= 1e-10
                    assert lax_admissible(gas, *pair, family=family)
                    n_shock += 1
                else:
                    n_raref += 1
                    for edge in (wave.head, wave.tail):
                        lo = evaluate_fan(fan, edge - 1e-11)
                        hi = evaluate_fan(fan, edge + 1e-11)
                        assert abs(lo.c - hi.c) <= 1e-10
                        assert abs(lo.v1 - hi.v1) <= 1e-10
        elapsed = time.monotonic() - tic
        assert elapsed < 10.0
        _ok(2, f"1000 problems ({n_shock} shocks, {n_raref} fans, {n_vac} vacuum), "
               f"{elapsed:.1f}s")


class TestCriterion3:
    def test_dimensional_reduction_and_convergence(self, runs):
        r512, r1024 = runs["e0_512"], runs["e0_1024"]
        x2var = max(r512["x2_variation"], r1024["x2_variation"])
        assert x2var <= 1e-12
        ratio = r512["l1_fan_error_final"] / r1024["l1_fan_error_final"]
        assert 1.6 <= ratio <= 2.4
        elapsed = runs["timings"]["e0_512"] + runs["timings"]["e0_1024"]
        assert elapsed < 300.0
        _ok(3, f"x2 variation {x2var:.1e}, L1 ratio {ratio:.2f}, {elapsed:.0f}s")


class TestCriterion4:
    def test_foliation_geometry(self, runs):
        r = runs["e0_1024"]
        kappa_dev = max(row[1] for row in r["kappa_stats"] if row[0] >= 2 * DELTA - 1e-9)
        assert kappa_dev <= 0.05
        vals = {name: _frame_max(r, col)
                for name, col in (("that1+1", 1), ("that2", 2), ("chi", 3),
                                  ("zeta", 4), ("eta", 5))}
        for name, v in vals.items():
            assert v <= 0.05, name
        _ok(4, f"max|kappa/t-1| = {kappa_dev:.3f}, frame/torsion sups "
               + ", ".join(f"{k}={v:.1e}" for k, v in vals.items()))


class TestCriterion5:
    def test_amplitude_scaling(self, runs):
        a, b = runs["e1_1024"], runs["e05_1024"]
        quad = {
            "that1+1": _frame_max(a, 1) / _frame_max(b, 1),
            "E0(w)": _energy_at(a, "w", 0) / _energy_at(b, "w", 0),
            "E0(psi2)": _energy_at(a, "psi2", 0) / _energy_at(b, "psi2", 0),
            "E0ring(wbar)": (_energy_at(a, "wbar", 0, ring=True)
                             / _energy_at(b, "wbar", 0, ring=True)),
        }
        for psi in ("wbar", "w", "psi2"):
            quad[f"E1({psi})"] = _energy_at(a, psi, 1) / _energy_at(b, psi, 1)
        for name, ratio in quad.items():
            assert 3.0 <= ratio <= 5.0, (name, ratio)
        lin = _frame_max(a, 2) / _frame_max(b, 2)
        assert 1.6 <= lin <= 2.4
        elapsed = sum(runs["timings"][k] for k in ("e1_512", "e1_1024", "e05_1024"))
        assert elapsed < 900.0
        _ok(5, "quadratic " + ", ".join(f"{k}={v:.2f}" for k, v in quad.items())
               + f"; linear that2={lin:.2f}; {elapsed:.0f}s")


class TestCriterion6:
    def test_time_scaling_slopes(self, runs):
        r = runs["e1_1024"]
        rows = r["energies"]
        u_wide = max(row[1] for row in rows)
        slopes = {}
        for psi in ("wbar", "w", "psi2"):
            pts = [(row[0], row[4] + row[5]) for row in rows
                   if row[2] == psi and row[3] == 1 and row[1] == u_wide
                   and row[0] >= 4 * DELTA - 1e-9]
            lx = np.log([p[0] for p in pts])
            ly = np.log([p[1] for p in pts])
            A = np.stack([lx, np.ones_like(lx)], axis=1)
            coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
            slopes[psi] = float(coef[0])
        for psi, s in slopes.items():
            assert 1.7 <= s <= 2.3, (psi, s)
        _ok(6, "order-1 energy slopes " + ", ".join(f"{k}={v:.2f}" for k, v in slopes.items()))


class TestCriterion7:
    def test_sign_conditions(self, runs):
        r = runs["e1_1024"]
        mons = [row for row in r["monitors"] if row[0] >= 2 * DELTA - 1e-9]
        min_lmu = min(row[1] for row in mons)
        max_twbar = max(row[4] for row in mons)
        max_lbar = max(row[6] for row in mons)
        assert min_lmu > 0.0
        assert max_twbar < -0.4
        assert max_lbar < -0.4
        _ok(7, f"min L(mu)={min_lmu:.3f}, max T(wbar)={max_twbar:.3f}, "
               f"max incoming-null (wbar)={max_lbar:.3f}")


class TestCriterion8:
    def test_commutation_residual_convergence(self, runs):
        y_ratio = _residual_max(runs["e1_512"], 1) / _residual_max(runs["e1_1024"], 1)
        z_ratio = _residual_max(runs["e1_512"], 2) / _residual_max(runs["e1_1024"], 2)
        assert y_ratio >= 1.5
        assert z_ratio >= 1.5
        # unperturbed data: the tangential identity vanishes to round-off and
        # the normal identity sits at the discretization floor, certified by
        # its own refinement between the two unperturbed runs
        y_e0 = _residual_max(runs["e0_1024"], 1)
        z_e0_512 = _residual_max(runs["e0_512"], 2)
        z_e0_1024 = _residual_max(runs["e0_1024"], 2)
        assert y_e0 <= 1e-13
        assert z_e0_1024 <= 35.0 * _dx1(runs["e0_1024"])
        assert z_e0_512 / z_e0_1024 >= 1.4
        _ok(8, f"refinement ratios y={y_ratio:.2f}, z={z_ratio:.2f}; unperturbed floors "
               f"y={y_e0:.1e}, z={z_e0_1024:.3f} (refines x{z_e0_512 / z_e0_1024:.2f})")


class TestCriterion9:
    def test_transverse_speed_gradient(self, runs):
        def yt_at(rep, t):
            rows = rep["second_frame_stats"]
            k = int(np.argmin([abs(r[0] - t) for r in rows]))
            return rows[k][1]

        sample_times = (0.25, 0.5, 1.0)
        vals = {t: yt_at(runs["e1_1024"], t) for t in sample_times}
        spread = max(vals.values()) / min(vals.values())
        assert spread < 2.0
        ratios = {t: yt_at(runs["e1_1024"], t) / yt_at(runs["e05_1024"], t)
                  for t in sample_times}
        for t, ratio in ratios.items():
            assert 1.6 <= ratio <= 2.4, (t, ratio)
        _ok(9, "max|y|/t at t=(0.25,0.5,1): "
               + ", ".join(f"{vals[t]:.2e}" for t in sample_times)
               + f" (spread x{spread:.2f}); amplitude ratios "
               + ", ".join(f"{ratios[t]:.2f}" for t in sample_times))


class TestCriterion10:
    @staticmethod
    def _oracle_instance(rng, n_t=12, n_u=9):
        """Saturated-equality instance: F free, the energy from the growth ODE."""
        A = rng.uniform(0.5, 3.0)
        B = rng.uniform(0.1, 1.5)
        u_star = rng.uniform(0.4, 1.5)
        C = rng.uniform(0.1, 1.0) / math.exp(B * u_star)
        delta = rng.uniform(0.02, 0.1)
        t = np.linspace(delta, 1.0, n_t)
        u = np.linspace(0.0, u_star, n_u)
        beta_nodes = rng.uniform(0.0, A, size=n_u)
        fine = np.linspace(0.0, u_star, 2001)
        beta_fine = np.interp(fine, u, beta_nodes)
        i_beta = np.concatenate([[0.0], np.cumsum(
            0.5 * (beta_fine[1:] + beta_fine[:-1]) * np.diff(fine))])
        beta = np.interp(u, fine, beta_fine)
        ib = np.interp(u, fine, i_beta)
        F = beta[None, :] * t[:, None] ** 2
        bcoef = np.maximum(A - beta + B * ib, 0.0)
        E = bcoef[None, :] * (2.0 * t[:, None] ** 2
                              - C * delta ** (2.0 - C) * t[:, None] ** C) / (2.0 - C)
        return GronwallInstance(A=A, B=B, C=C, t=t, u=u, E=E, F=F)

    def test_verifier_oracle_and_mutations(self):
        tic = time.monotonic()
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(1000):
            v = gronwall_verify(self._oracle_instance(rng))
            assert v.passed and v.max_ratio <= 1.0
            worst = max(worst, v.max_ratio)
        flagged = 0
        for _ in range(100):
            inst = self._oracle_instance(rng, n_t=16)
            E = inst.E.copy()
            i, j = rng.integers(4, 15), rng.integers(1, 8)
            for _ in range(12):
                E[i, j] *= 10.0
                try:
                    gronwall_verify(GronwallInstance(inst.A, inst.B, inst.C,
                                                     inst.t, inst.u, E, inst.F))
                except GronwallHypothesisError:
                    flagged += 1
                    break
        assert flagged == 100
        elapsed = time.monotonic() - tic
        assert elapsed < 5.0
        _ok(10, f"1000 saturated instances pass (worst ratio {worst:.3f}), "
                f"100/100 mutations flagged, {elapsed:.1f}s")


class TestCriterion11:
    def test_structure_equation_residuals(self, runs):
        kappa_ratio = (_residual_max(runs["e1_512"], 3)
                       / _residual_max(runs["e1_1024"], 3))
        that1_ratio = (_residual_max(runs["e1_512"], 4)
                       / _residual_max(runs["e1_1024"], 4))
        that2_ratio = (_residual_max(runs["e1_512"], 5)
                       / _residual_max(runs["e1_1024"], 5))
        assert kappa_ratio >= 1.5
        assert that1_ratio >= 1.5
        assert that2_ratio >= 1.5
        kappa_e0 = _residual_max(runs["e0_1024"], 3)
        assert kappa_e0 <= 0.05
        _ok(11, f"refinement ratios kappa={kappa_ratio:.2f}, that1={that1_ratio:.2f}, "
                f"that2={that2_ratio:.2f}; unperturbed kappa residual {kappa_e0:.3f}")
