"""Finite-volume solver for 2D isentropic Euler on a periodic tube.

The domain is x1 in [x1_min, x1_max] with frozen far-field ghost states,
x2 in [0, 2*pi) periodic.  Conserved variables are (rho, rho*v1, rho*v2)
with pressure p = k0 * rho**gamma.  Rusanov fluxes, SSP-RK2 time stepping;
inside a step the state is held as (3, n1+2, n2) conserved planes padded
with one ghost row on each x1 side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from .gas import (PolytropicGas, RiemannInvariants, density_from_sound_speed, pressure,
                  sound_speed, to_invariants)
from .riemann1d import CenteredFan, NumericalError

__all__ = [
    "Grid",
    "RowWindow",
    "FlowField",
    "PerturbationMode",
    "PerturbationSpec",
    "SolverConfig",
    "check_fan_strip",
    "clamped_fan_profile",
    "init_perturbed_rarefaction",
    "make_uniform_field",
    "max_signal_speed",
    "step",
    "run",
    "iter_run",
    "advective_derivative",
    "diagonal_rhs",
    "transport_residual",
    "vorticity",
    "total_mass",
]

RAMP = 0.2  # width of the quintic ramps of a k1 = 0 perturbation profile
SUP_SAMPLING_DX = 1e-3  # sampling step of velocity_third_derivative_bound


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid; x2 spans [0, 2*pi) periodically."""

    n1: int
    n2: int
    x1_min: float
    x1_max: float

    def __post_init__(self):
        if self.n1 < 8 or self.n2 < 8:
            raise ValueError("grid needs at least 8 cells per direction")
        if self.x1_max <= self.x1_min:
            raise ValueError("x1_max must exceed x1_min")

    @property
    def dx1(self) -> float:
        return (self.x1_max - self.x1_min) / self.n1

    @property
    def dx2(self) -> float:
        return 2.0 * math.pi / self.n2

    @property
    def x1(self) -> np.ndarray:
        return self.x1_min + (np.arange(self.n1) + 0.5) * self.dx1

    @property
    def x2(self) -> np.ndarray:
        return (np.arange(self.n2) + 0.5) * self.dx2

    def mesh(self):
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    @property
    def rows(self) -> slice:
        """The x1 rows that planes on this grid hold: all of them."""
        return slice(0, self.n1)

    def d1(self, a: np.ndarray) -> np.ndarray:
        """Centered x1-derivative of a plane on this grid, one-sided at its edges."""
        dx = self.dx1
        out = np.empty(a.shape)
        inner = np.subtract(a[2:], a[:-2], out=out[1:-1])
        inner /= 2.0 * dx
        np.subtract(a[1], a[0], out=out[0])
        np.subtract(a[-1], a[-2], out=out[-1])
        out[0] /= dx
        out[-1] /= dx
        return out

    def d2(self, a: np.ndarray) -> np.ndarray:
        """Centered periodic x2-derivative of a plane on this grid."""
        a = np.ascontiguousarray(a)
        out = np.empty(a.shape)
        flat = _flat(a)
        np.subtract(flat[2:], flat[:-2], out=_flat(out)[1:-1])
        np.subtract(a[:, 1], a[:, -1], out=out[:, 0])
        np.subtract(a[:, 0], a[:, -2], out=out[:, -1])
        out /= 2.0 * self.dx2
        return out

    def grad(self, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(d1 a, d2 a)."""
        return self.d1(a), self.d2(a)

    def window(self, lo: int, hi: int) -> "RowWindow":
        """The rows [lo, hi) of this grid."""
        return RowWindow(self.n1, self.n2, self.x1_min, self.x1_max, lo, hi)

    def around(self, lo: int, hi: int, halo: int) -> "RowWindow":
        """The rows [lo - halo, hi + halo) of this grid, clipped to its rows."""
        return self.window(max(lo - halo, 0), min(hi + halo, self.n1))


@dataclass(frozen=True)
class RowWindow(Grid):
    """The x1 rows [lo, hi) of a grid, for planes that hold only those rows.

    Coordinates, spacings and sizes are those of the whole grid, so a
    window's x1 centres are the grid's own.  An x1 derivative at a window
    edge that is not a grid edge lacks its outer neighbour and is NaN there,
    and so is everything computed from it: a value that needs rows past the
    window reads as NaN instead of as a wrong number.
    """

    lo: int
    hi: int

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.lo <= self.hi - 2 <= self.n1 - 2:
            raise ValueError(f"rows [{self.lo}, {self.hi}) are not a window of {self.n1} rows")

    @property
    def rows(self) -> slice:
        return slice(self.lo, self.hi)

    def d1(self, a: np.ndarray) -> np.ndarray:
        out = super().d1(a)
        if self.lo > 0:
            out[0] = np.nan
        if self.hi < self.n1:
            out[-1] = np.nan
        return out


@dataclass
class FlowField:
    """Conserved state (rho, m1, m2) on a grid at one time.

    ghost_lo/ghost_hi hold two frozen columns of conserved far-field state
    on each x1 side, shaped (2, n2, 3); they ride along unchanged through
    time stepping, which reads the column next to the domain (ghost_lo[-1],
    ghost_hi[0]).
    """

    gas: PolytropicGas
    grid: Grid
    time: float
    rho: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    ghost_lo: np.ndarray = None  # shape (2, n2, 3)
    ghost_hi: np.ndarray = None
    boundary_mass_flux: float = 0.0  # net mass outflow during the step that made this field

    def __post_init__(self):
        shape = (self.grid.n1, self.grid.n2)
        for name in ("rho", "m1", "m2"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        if not np.all(self.rho > 0.0):
            raise ValueError("non-positive or NaN density in flow field")
        if self.ghost_lo is None:
            self.ghost_lo = np.stack(
                [np.stack([self.rho[0], self.m1[0], self.m2[0]], axis=-1)] * 2)
        if self.ghost_hi is None:
            self.ghost_hi = np.stack(
                [np.stack([self.rho[-1], self.m1[-1], self.m2[-1]], axis=-1)] * 2)
        for name in ("ghost_lo", "ghost_hi"):
            ghost = getattr(self, name)
            if np.shape(ghost) != (2, self.grid.n2, 3):
                raise ValueError(f"{name} has shape {np.shape(ghost)}, "
                                 f"expected {(2, self.grid.n2, 3)}")
            if not np.all(np.isfinite(ghost[..., 0]) & (ghost[..., 0] > 0.0)):
                raise ValueError(f"{name} has a non-positive or non-finite density")

    @property
    def v1(self) -> np.ndarray:
        return self.m1 / self.rho

    @property
    def v2(self) -> np.ndarray:
        return self.m2 / self.rho

    @property
    def c(self) -> np.ndarray:
        return sound_speed(self.gas, self.rho)

    def invariants(self) -> RiemannInvariants:
        """(wbar, w, psi2) arrays."""
        return to_invariants(self.gas, self)

    def copy(self, time=None):
        out = FlowField(self.gas, self.grid, self.time if time is None else time,
                        self.rho.copy(), self.m1.copy(), self.m2.copy(),
                        self.ghost_lo.copy(), self.ghost_hi.copy())
        out.boundary_mass_flux = self.boundary_mass_flux
        return out


@dataclass(frozen=True)
class PerturbationMode:
    k1: int
    k2: int
    amplitude: float
    phase: float = 0.0


def _smoothstep(s):
    """Quintic ramp with two vanishing derivatives at both ends."""
    s = np.clip(s, 0.0, 1.0)
    return s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


def _smoothstep_integral(s):
    """Antiderivative of the quintic ramp, zero at s = 0."""
    s = np.clip(s, 0.0, 1.0)
    return 2.5 * s ** 4 - 3.0 * s ** 5 + s ** 6


@dataclass(frozen=True)
class PerturbationSpec:
    """Sound-speed ripple plus the potential-flow velocity perturbation.

    Each mode contributes

        delta_c  = eps * a * S(x1) * cos(k2*x2 + phase)
        delta_v  = grad(phi),  phi = -eps * a * P(x1) * cos(k2*x2 + phase)

    with S = P'.  Two mode families share this structure:

    * k1 = 0: S is a smooth plateau equal to 1 on the strip interior with
      quintic ramps of width RAMP at both ends, so the strip must be at
      least 2 * RAMP wide.  The x1-uniform interior means the perturbation
      carries no normal gradients into the wave region, so the transverse
      structure of the maximal characteristic speed develops only through
      the genuine 2D coupling.
    * k1 >= 1: S oscillates, d/dx of a C^2 bump times sin(pi*k1*s),
      normalized to max|S| = 1.

    In both cases delta_v1 = -delta_c pointwise, so v1 + c is unperturbed
    at the initial time, and the velocity perturbation is a gradient, so
    the data is irrotational to round-off.  For plateau modes P does not
    return to zero on the right; that constant tail lies outside the
    domain of influence of the tracked band for the default geometry.
    """

    epsilon: float
    modes: Tuple[PerturbationMode, ...] = ()
    strip: Tuple[float, float] = (-0.35, 1.95)

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        if self.strip[1] <= self.strip[0]:
            raise ValueError("empty perturbation strip")
        if not RAMP <= 0.5 * (self.strip[1] - self.strip[0]):
            raise ValueError(f"the strip is narrower than its two ramps of width {RAMP}")

    def _bump(self, x, deriv=0):
        a, b = self.strip
        s = (np.asarray(x, dtype=float) - a) / (b - a)
        inside = (s > 0.0) & (s < 1.0)
        s = np.where(inside, s, 0.5)
        e = np.where(inside, (s * (1.0 - s)) ** 3, 0.0)
        if deriv == 0:
            return e
        de = np.where(inside, 3.0 * (s * (1.0 - s)) ** 2 * (1.0 - 2.0 * s) / (b - a), 0.0)
        return de

    def _mode_profile(self, mode, x, deriv=0):
        """P (deriv=0) or S = P' (deriv=1)."""
        x = np.asarray(x, dtype=float)
        a, b = self.strip
        if mode.k1 == 0:
            r = RAMP
            up = (x - a) / r
            dn = (b - x) / r
            if deriv == 1:
                return _smoothstep(up) * _smoothstep(dn) * np.where(
                    (x > a) & (x < b), 1.0, 0.0)
            # antiderivative of the plateau profile
            out = r * _smoothstep_integral(up)
            mid = x > a + r
            out = np.where(mid, r * _smoothstep_integral(1.0) + np.minimum(x, b - r)
                           - (a + r), out)
            tail = x > b - r
            out = np.where(tail, r * _smoothstep_integral(1.0) + (b - r) - (a + r)
                           + r * (_smoothstep_integral(1.0)
                                  - _smoothstep_integral(dn)), out)
            return out
        s = (x - a) / (b - a)
        k = math.pi * mode.k1 / (b - a)
        trig = np.sin(math.pi * mode.k1 * np.clip(s, 0.0, 1.0))
        dtrig = k * np.cos(math.pi * mode.k1 * np.clip(s, 0.0, 1.0))
        if deriv == 0:
            raw = self._bump(x) * trig
        else:
            raw = self._bump(x, 1) * trig + self._bump(x) * dtrig
        return raw / self._norm(mode)

    def _norm(self, mode):
        a, b = self.strip
        xs = np.linspace(a, b, 4001)
        sp = self._bump(xs, 1) * np.sin(math.pi * mode.k1 * (xs - a) / (b - a)) \
            + self._bump(xs) * (math.pi * mode.k1 / (b - a)) * np.cos(math.pi * mode.k1 * (xs - a) / (b - a))
        return np.max(np.abs(sp))

    def sound_speed_ripple(self, x1, x2):
        """delta_c / 1 on the (x1, x2) mesh (already scaled by epsilon)."""
        out = np.zeros(np.broadcast(np.asarray(x1), np.asarray(x2)).shape)
        for m in self.modes:
            out += m.amplitude * self._mode_profile(m, x1, deriv=1) * np.cos(m.k2 * x2 + m.phase)
        return self.epsilon * out

    def velocity_perturbation(self, x1, x2, gamma: float = 2.0):
        """(dv1, dv2) = grad(phi) on the mesh; dv1 = -sound_speed_ripple.

        dv2 also carries the x1-independent shear
        2/(gamma-1) * sum_m a_m cos(k2 x2 + phase) that turns the ripple
        into a traveling simple wave of the tangential acoustics wherever
        the profile plateaus; a standing ripple would instead pump the
        tangential velocity linearly in time.
        """
        dv1 = -self.sound_speed_ripple(x1, x2)
        dv2 = np.zeros_like(dv1)
        for m in self.modes:
            dv2 += m.amplitude * self._mode_profile(m, x1, deriv=0) \
                * m.k2 * np.sin(m.k2 * x2 + m.phase)
            dv2 += (2.0 / (gamma - 1.0)) * m.amplitude \
                * np.cos(m.k2 * np.asarray(x2) + m.phase) * np.ones_like(dv1)
        return dv1, self.epsilon * dv2

    def velocity_third_derivative_bound(self):
        """Dense-sampled sup bound on third partials of the velocity perturbation.

        The discrete-curl Taylor bound needs third derivatives of grad(phi),
        i.e. fourth derivatives of the potential, sampled SUP_SAMPLING_DX apart.
        """
        a, b = self.strip
        dx = SUP_SAMPLING_DX
        xs = np.arange(a - 5 * dx, b + 5 * dx, dx)
        best = 0.0
        for m in self.modes:
            p = self._mode_profile(m, xs, deriv=0)
            derivs = [np.abs(p)]
            cur = p
            for _ in range(4):
                cur = np.gradient(cur, dx)
                derivs.append(np.abs(np.max(np.abs(cur))) * np.ones(1))
            sup = [float(np.max(d)) for d in derivs]  # |P|, |P'|, ..., |P''''|
            amp = abs(m.amplitude) * self.epsilon
            k2 = abs(m.k2)
            for a_ord in range(4):
                b_ord = 4 - a_ord
                best = max(best, amp * sup[a_ord] * k2 ** b_ord)
            best = max(best, amp * sup[4])
        return best


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.45
    snapshot_times: Tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.9:
            raise ValueError(f"cfl must lie in (0, 0.9], got {self.cfl}")


def clamped_fan_profile(gas: PolytropicGas, v0: float, c0: float, u_glue: float, x, t):
    """(v, c) of the centered fan clamped to constants outside [head-u_glue, head].

    This is the exact unperturbed solution for all t > 0 of the initial data
    it defines at any one time.
    """
    fan = CenteredFan(gas, v0, c0)
    glue_slope = fan.head_slope - u_glue
    if glue_slope <= fan.vacuum_slope:
        raise ValueError("u_glue reaches past the vacuum edge of the fan")
    xi = np.clip(np.asarray(x, dtype=float) / t, glue_slope, fan.head_slope)
    return fan.state_at_slope(xi)


def check_fan_strip(grid: Grid, delta: float, head: float, u_glue: float) -> None:
    """Raise ValueError unless the fan data strip at t = delta fits inside the grid."""
    if not (grid.x1_min < (head - u_glue) * delta and grid.x1_max > head * delta):
        raise ValueError("fan data strip does not fit inside the grid")


def init_perturbed_rarefaction(gas: PolytropicGas, grid: Grid, delta: float,
                               fan_params: Tuple[float, float],
                               spec: PerturbationSpec, u_glue: float) -> FlowField:
    """Flow field at t = delta: frozen fan profile plus the spec perturbation."""
    import warnings

    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if spec.epsilon > 0.05:
        warnings.warn(f"perturbation amplitude {spec.epsilon} is outside the small-amplitude regime")
    v0, c0 = fan_params
    check_fan_strip(grid, delta, v0 + c0, u_glue)

    X1, X2 = grid.mesh()
    v1, c = clamped_fan_profile(gas, v0, c0, u_glue, X1, delta)
    v2 = np.zeros_like(v1)
    if spec.epsilon > 0.0 and spec.modes:
        c = c + spec.sound_speed_ripple(X1, X2)
        dv1, dv2 = spec.velocity_perturbation(X1, X2, gamma=gas.gamma)
        v1 = v1 + dv1
        v2 = v2 + dv2
    if np.any(c <= 0.0):
        raise ValueError("perturbation drives the sound speed non-positive")

    rho = density_from_sound_speed(gas, c)
    return FlowField(gas, grid, delta, rho, rho * v1, rho * v2)


def make_uniform_field(gas: PolytropicGas, grid: Grid, c: float, v1: float = 0.0,
                       v2: float = 0.0, time: float = 0.0) -> FlowField:
    rho = float(density_from_sound_speed(gas, c))
    shp = (grid.n1, grid.n2)
    return FlowField(gas, grid, time, np.full(shp, rho),
                     np.full(shp, rho * v1), np.full(shp, rho * v2))


def max_signal_speed(f: FlowField) -> float:
    """Max over cells of |v| + c."""
    return float(np.max(np.hypot(f.v1, f.v2) + f.c))


def _flat(a: np.ndarray) -> np.ndarray:
    """The raveled view of a C-contiguous plane.

    Periodic x2 stencils shift raveled planes and then overwrite the wrap
    columns, whose shifted partner lies in the neighbouring row.  Raveling
    any other layout would copy, and writes into the copy would be lost.
    """
    if not a.flags.c_contiguous:
        raise ValueError("x2 stencils need C-contiguous planes")
    return a.reshape(-1)


def _pairs(ufunc, a, out, axis):
    """out[i] = ufunc(a[i+1], a[i]) for each interface i+1/2 along axis.

    Along x1 the ghost rows close the pairs.  Along x2 the grid is periodic:
    the last interface pairs the last column with the first.
    """
    if axis == 0:
        ufunc(a[1:], a[:-1], out=out)
    else:
        flat = _flat(a)
        ufunc(flat[1:], flat[:-1], out=_flat(out)[:-1])
        ufunc(a[:, 0], a[:, -1], out=out[:, -1])


def _rhs(gas, grid, q, dq, cell, face):
    """Rusanov flux divergence of the padded state q, written into dq.

    q is (3, n1+2, n2) conserved planes (rho, m1, m2) whose rows 0 and n1+1
    hold the frozen ghost cells; dq is (3, n1, n2).  cell (4, n1+2, n2) and
    face (3, n1+1, n2) are scratch.  Velocity, sound speed, pressure and the
    physical flux are evaluated once per cell and shared by its interfaces.
    Returns the net boundary mass outflow rate.
    """
    vel, lam, flux = cell[:2], cell[2], cell[3]
    np.divide(q[1], q[0], out=vel[0])
    np.divide(q[2], q[0], out=vel[1])
    c = sound_speed(gas, q[0])
    p = pressure(gas, q[0])
    outflow = 0.0
    # x1 interfaces: all n1+1 between the padded rows; x2 interfaces: on the
    # n1 interior rows only
    for axis, dx, rows, faces in ((0, grid.dx1, slice(None), slice(None)),
                                  (1, grid.dx2, slice(1, -1), slice(1, None))):
        half_speed, num, jump = face[:, faces]
        v = vel[axis, rows]
        speed = np.abs(v, out=lam[rows])
        speed += c[rows]
        _pairs(np.maximum, speed, half_speed, axis)
        half_speed *= 0.5
        for k in range(3):
            qk = q[k, rows]
            fk = np.multiply(qk, v, out=flux[rows])
            if k == axis + 1:
                fk += p[rows]
            # num = (f_l + f_r)/2 - max(|v|+c)/2 * (q_r - q_l)
            _pairs(np.add, fk, num, axis)
            num *= 0.5
            _pairs(np.subtract, qk, jump, axis)
            jump *= half_speed
            num -= jump
            if axis == 0:
                if k == 0:
                    outflow = (num[-1].sum() - num[0].sum()) * grid.dx2
                _pairs(np.subtract, num, dq[k], 0)
                dq[k] /= -dx
            else:
                # cell j lies between interfaces j-1/2 and j+1/2
                flat = _flat(num)
                np.subtract(flat[1:], flat[:-1], out=_flat(jump)[1:])
                np.subtract(num[:, 0], num[:, -1], out=jump[:, 0])
                jump /= dx
                dq[k] -= jump
    return outflow


def _check_positive(rho, time):
    if np.all(rho > 0.0):
        return
    bad = np.argwhere(~(rho > 0.0))
    i, j = bad[0]
    raise NumericalError(
        f"non-positive or NaN density at t={time:.6g}: {len(bad)} cells, "
        f"first at (i={i}, j={j}) with rho={rho[i, j]:.3e}")


def step(f: FlowField, dt: float) -> FlowField:
    """One conservative update of size dt; dt = 0 returns a copy.

    The result's rho, m1 and m2 are disjoint views of one new buffer.
    """
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    if dt == 0.0:
        return f.copy()
    gas, grid = f.gas, f.grid
    n1, n2 = grid.n1, grid.n2
    # scratch first: q0 outlives the step as the result, so with glibc malloc
    # the freed scratch lies below it and the next step reuses those pages
    # instead of faulting in fresh ones
    q1 = np.empty((3, n1 + 2, n2))
    dq = np.empty((3, n1, n2))
    cell = np.empty((4, n1 + 2, n2))
    face = np.empty((3, n1 + 1, n2))
    # q0 is updated in place to the new state; its interior rows are the result
    q0 = np.empty((3, n1 + 2, n2))
    q0[:, 0] = f.ghost_lo[-1].T
    q0[:, -1] = f.ghost_hi[0].T
    q0[0, 1:-1], q0[1, 1:-1], q0[2, 1:-1] = f.rho, f.m1, f.m2
    q1[:, 0], q1[:, -1] = q0[:, 0], q0[:, -1]

    out1 = _rhs(gas, grid, q0, dq, cell, face)
    dq *= dt
    np.add(q0[:, 1:-1], dq, out=q1[:, 1:-1])
    _check_positive(q1[0, 1:-1], f.time + dt)
    out2 = _rhs(gas, grid, q1, dq, cell, face)
    dq *= dt
    q_new = q0[:, 1:-1]
    q_new += q1[:, 1:-1]
    q_new += dq
    q_new *= 0.5
    _check_positive(q_new[0], f.time + dt)
    outflow = 0.5 * (out1 + out2) * dt
    result = FlowField(gas, grid, f.time + dt, q_new[0], q_new[1], q_new[2],
                       f.ghost_lo.copy(), f.ghost_hi.copy())
    result.boundary_mass_flux = outflow
    return result


def run(f: FlowField, config: SolverConfig) -> List[FlowField]:
    """Advance to each requested snapshot time (exact hit by dt clipping)."""
    return list(iter_run(f, config))


def iter_run(f: FlowField, config: SolverConfig) -> Iterator[FlowField]:
    """`run` one snapshot at a time: each snapshot is yielded as the solve
    reaches its time and is held by the solve only until its next step (f
    too, which is the first snapshot when its time is the first)."""
    times = sorted(config.snapshot_times)
    if not times:
        raise ValueError("need at least one snapshot time")
    if times[0] < f.time - 1e-12:
        raise ValueError(f"snapshot time {times[0]} precedes field time {f.time}")

    current = f
    cumulative_outflow = f.boundary_mass_flux
    dx_min = min(f.grid.dx1, f.grid.dx2)
    del f
    for target in times:
        while current.time < target - 1e-13:
            speed = max_signal_speed(current)
            if not math.isfinite(speed):
                state = np.stack([current.rho, current.m1, current.m2])
                i, j = np.argwhere(~np.isfinite(state).all(axis=0))[0]
                raise NumericalError(f"non-finite state at t={current.time:.6g}, "
                                     f"first at (i={i}, j={j})")
            dt = min(config.cfl * dx_min / speed, target - current.time)
            current = step(current, dt)
            cumulative_outflow += current.boundary_mass_flux
            current.boundary_mass_flux = cumulative_outflow
        yield current if abs(current.time - target) < 1e-12 else current.copy(time=target)


def total_mass(f: FlowField) -> float:
    return float(f.rho.sum()) * f.grid.dx1 * f.grid.dx2


def advective_derivative(f0: np.ndarray, f1: np.ndarray, a1, a2, t0: float, t1: float,
                         grid: Grid) -> np.ndarray:
    """d/dt + a1 d1 + a2 d2 of a field pair, centered at the midpoint time."""
    dt = t1 - t0
    fm = 0.5 * (f0 + f1)
    return (f1 - f0) / dt + a1 * grid.d1(fm) + a2 * grid.d2(fm)


def diagonal_rhs(invariant: str, c, wbar, w, psi2, grid: Grid) -> np.ndarray:
    """Right side of the diagonal system for one Riemann invariant, the value
    of its advective derivative along d/dt + (v1+c) d1 + v2 d2:

        wbar:  0.5 * c * d2(psi2)
        w:     2 * c * d1(w) + 0.5 * c * d2(psi2)
        psi2:  c * d1(psi2) + c * d2(w + wbar)
    """
    if invariant == "wbar":
        return 0.5 * c * grid.d2(psi2)
    if invariant == "w":
        return 2.0 * c * grid.d1(w) + 0.5 * c * grid.d2(psi2)
    return c * grid.d1(psi2) + c * grid.d2(wbar + w)


def transport_residual(snap0: FlowField, snap1: FlowField, invariant: str) -> np.ndarray:
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


def vorticity(f: FlowField) -> np.ndarray:
    """Centered-difference curl d1(v2) - d2(v1)."""
    return f.grid.d1(f.v2) - f.grid.d2(f.v1)
