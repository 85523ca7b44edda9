import multiprocessing

import numpy as np
import pytest

from rarewave.euler2d import (FlowField, Grid, PerturbationMode, PerturbationSpec, SolverConfig,
                              clamped_fan_profile, init_perturbed_rarefaction, run)
from rarewave.gas import PolytropicGas, density_from_sound_speed
from rarewave.geometry import foliate, frame_fields

GAS2 = PolytropicGas(2.0, 0.5)


def fan_field(gas, grid, t, v0=0.0, c0=1.0, u_glue=1.9):
    """Exact clamped-fan flow field sampled at cell centers."""
    X1, _ = grid.mesh()
    v1, c = clamped_fan_profile(gas, v0, c0, u_glue, X1, t)
    rho = density_from_sound_speed(gas, c)
    return FlowField.from_planes(gas, grid, t, rho, rho * v1, np.zeros_like(rho))


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
