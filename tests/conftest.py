import multiprocessing

import numpy as np
import pytest

from rarewave.euler2d import (FlowField, Grid, PerturbationMode, PerturbationSpec, SolverConfig,
                              clamped_fan_profile, init_perturbed_rarefaction, run)
from rarewave.gas import PolytropicGas, PrimitiveState, density_from_sound_speed, pressure
from rarewave.geometry import foliate, frame_fields
from rarewave.riemann1d import ZERO_STRENGTH, CenteredFan, _shock_speed

GAS2 = PolytropicGas(2.0, 0.5)
# relative jump-condition residual up to which lax_admissible accepts a state pair
JUMP_TOL = 1e-8


def fan_field(gas, grid, t, v0=0.0, c0=1.0, u_glue=1.9):
    """Exact clamped-fan flow field sampled at cell centers."""
    X1, _ = grid.mesh()
    v1, c = clamped_fan_profile(gas, v0, c0, u_glue, X1, t)
    rho = density_from_sound_speed(gas, c)
    return FlowField.from_planes(gas, grid, t, rho, rho * v1, np.zeros_like(rho))


def make_uniform_field(gas, grid, c, v1=0.0, v2=0.0, time=0.0):
    """The uniform field of sound speed c and velocity (v1, v2) at time."""
    rho = float(density_from_sound_speed(gas, c))
    shp = (grid.n1, grid.n2)
    return FlowField.from_planes(gas, grid, time, np.full(shp, rho),
                                 np.full(shp, rho * v1), np.full(shp, rho * v2))


def from_invariants(gas, inv):
    """Inverse of to_invariants.  Requires wbar + w >= 0 (vacuum at equality)."""
    total = inv.wbar + inv.w
    if total < 0.0:
        raise ValueError(f"wbar + w = {total} < 0 has no corresponding state")
    c = 0.5 * (gas.gamma - 1.0) * total
    return PrimitiveState(c=c, v1=inv.wbar - inv.w, v2=-inv.psi2)


def shock_jump_residual(gas, left, right):
    """(v_l - v_r)**2 - (nu_r - nu_l) * (p_l - p_r), nu = 1/rho.

    Zero exactly when the states can be joined by a discontinuity conserving
    mass and momentum.
    """
    rho_l = density_from_sound_speed(gas, left.c)
    rho_r = density_from_sound_speed(gas, right.c)
    if rho_l == 0.0 or rho_r == 0.0:
        raise ValueError("jump residual requires non-vacuum states")
    nu_l, nu_r = 1.0 / rho_l, 1.0 / rho_r
    p_l, p_r = pressure(gas, rho_l), pressure(gas, rho_r)
    return (left.v1 - right.v1) ** 2 - (nu_r - nu_l) * (p_l - p_r)


def lax_admissible(gas, left, right, family):
    """Lax entropy condition: lambda_family(left) > s > lambda_family(right).

    left/right are in spatial order.  The pair must satisfy the jump
    conditions to JUMP_TOL; a zero-strength pair is reported as not admissible.
    """
    if family not in (1, 2):
        raise ValueError("family must be 1 or 2")
    scale = max(1.0, left.c, right.c) ** 2
    if abs(shock_jump_residual(gas, left, right)) > JUMP_TOL * scale:
        raise ValueError("states do not satisfy the jump conditions")
    if abs(left.c - right.c) <= ZERO_STRENGTH and abs(left.v1 - right.v1) <= ZERO_STRENGTH:
        return False
    s = _shock_speed(gas, left, right)
    sign = -1.0 if family == 1 else 1.0
    lam_l = left.v1 + sign * left.c
    lam_r = right.v1 + sign * right.c
    return lam_l > s > lam_r


def evaluate_fan(fan, xi):
    """Sample the self-similar solution at slope xi = x/t.

    A rarefaction interior is the CenteredFan through its outer state: the
    forward fan itself, the backward one as its mirror image x -> -x.
    """
    w1, w2 = fan.wave1, fan.wave2
    if xi < w1.head or (w1.kind == "rarefaction" and xi == w1.head):
        return fan.left
    if w1.kind == "rarefaction" and xi < w1.tail:
        sign, side = -1.0, fan.left
    elif xi >= w2.head:
        return fan.right
    elif w2.kind == "rarefaction" and xi > w2.tail:
        sign, side = 1.0, fan.right
    else:
        return PrimitiveState(c=0.0, v1=xi) if fan.has_vacuum else fan.middle
    v, c = CenteredFan(fan.gas, sign * side.v1, side.c).state_at_slope(sign * xi)
    return PrimitiveState(c=float(c), v1=sign * float(v), v2=side.v2)


def small_grid(n1=128, n2=16, x1_min=-2.4, x1_max=2.2):
    return Grid(n1=n1, n2=n2, x1_min=x1_min, x1_max=x1_max)


def perturbed_pair(n1, n2):
    """Snapshots at t = 0.5 and 0.54 of a simulated perturbed fan, and a
    characteristic function with an x2 ripple on each."""
    spec = PerturbationSpec(epsilon=0.02, modes=(PerturbationMode(2, 1, 1.0, 0.3),),
                            strip=(-0.5, 1.1))
    grid = small_grid(n1=n1, n2=n2)
    f = init_perturbed_rarefaction(GAS2, grid, 0.2, (0.0, 1.0), spec, u_glue=1.9)
    X1, X2 = grid.mesh()
    return [(s, 1.0 - X1 / s.time + 0.02 * np.sin(X1 + X2))
            for s in run(f, SolverConfig(snapshot_times=(0.5, 0.54)))]


def framed(field, u, band=None):
    """field foliated by u (with the band mask band) and framed on its whole grid."""
    return frame_fields(foliate(field, u, band), field.grid)


def rolled(s, k):
    """The flow field s rolled by k whole cells along the periodic x2 axis, ghosts alike."""
    return FlowField(s.gas, s.grid, s.time, np.roll(s.q, k, axis=2), s.boundary_mass_flux)


def same_bits(a, b):
    """Equal shapes and float64 bit patterns, so that signed zeros count."""
    a, b = (np.ascontiguousarray(x, dtype=float) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def bilinear_oracle(f, x1p, x2p, grid):
    """Bilinear sample with 2D corner indexing: the reference for the stencil."""
    s = (x1p - grid.x1[0]) / grid.dx1
    i0 = np.clip(np.floor(s).astype(int), 0, grid.n1 - 2)
    fi = np.clip(s - i0, 0.0, 1.0)
    r = x2p / grid.dx2 - 0.5
    j0 = np.floor(r).astype(int)
    fj = r - j0
    j0 = np.mod(j0, grid.n2)
    j1 = np.mod(j0 + 1, grid.n2)
    return (f[i0, j0] * (1 - fi) * (1 - fj) + f[i0 + 1, j0] * fi * (1 - fj)
            + f[i0, j1] * (1 - fi) * fj + f[i0 + 1, j1] * fi * fj)


@pytest.fixture
def gas2():
    return GAS2


@pytest.fixture(autouse=True)
def no_processes_left_running():
    """Fail a test after which a child process of the test run is still
    running (it is ended first, so that it cannot leak into later tests)."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"processes left running after the test: {left}"
