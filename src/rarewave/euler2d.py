"""Finite-volume solver for 2D isentropic Euler on a periodic tube.

The domain is x1 in [x1_min, x1_max] with frozen far-field ghost states,
x2 in [0, 2*pi) periodic.  Conserved variables are (rho, rho*v1, rho*v2)
with pressure p = k0 * rho**gamma.  Rusanov fluxes, SSP-RK2 time stepping;
a field holds its state as (3, n1+2, n2) conserved planes padded with one
ghost row on each x1 side.
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
    "max_signal_speed",
    "step",
    "run",
    "iter_run",
    "advective_derivative",
    "diagonal_rhs",
    "total_mass",
]

RAMP = 0.2  # width of the quintic ramps of a k1 = 0 perturbation profile


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

    q holds the three conserved planes padded along x1, shaped
    (3, n1+2, n2): rows 0 and n1+1 are the frozen far-field ghost cells that
    close the tube at both x1 ends, and ride along unchanged through time
    stepping.  rho, m1 and m2 are views of its interior rows.
    boundary_mass_flux is the net mass outflow through both x1 ends since
    the solve's initial field.
    """

    gas: PolytropicGas
    grid: Grid
    time: float
    q: np.ndarray
    boundary_mass_flux: float = 0.0

    def __post_init__(self):
        shape = (3, self.grid.n1 + 2, self.grid.n2)
        if np.shape(self.q) != shape:
            raise ValueError(f"q has shape {np.shape(self.q)}, expected {shape}")
        if not np.all(self.rho > 0.0):
            raise ValueError("non-positive or NaN density in flow field")
        for row in (0, shape[1] - 1):
            ghost = self.q[:, row]
            if not (np.all(np.isfinite(ghost)) and np.all(ghost[0] > 0.0)):
                raise ValueError(f"ghost row {row} has a non-finite value or a "
                                 "non-positive density")

    @classmethod
    def from_planes(cls, gas: PolytropicGas, grid: Grid, time: float,
                    rho, m1, m2) -> "FlowField":
        """The field of the planes rho, m1 and m2, whose edge rows are its ghosts."""
        q = np.empty((3, grid.n1 + 2, grid.n2))
        for k, (name, a) in enumerate((("rho", rho), ("m1", m1), ("m2", m2))):
            if np.shape(a) != (grid.n1, grid.n2):
                raise ValueError(f"{name} has shape {np.shape(a)}, "
                                 f"expected {(grid.n1, grid.n2)}")
            q[k, 1:-1] = a
        q[:, 0], q[:, -1] = q[:, 1], q[:, -2]
        return cls(gas, grid, time, q)

    @property
    def rho(self) -> np.ndarray:
        return self.q[0, 1:-1]

    @property
    def m1(self) -> np.ndarray:
        return self.q[1, 1:-1]

    @property
    def m2(self) -> np.ndarray:
        return self.q[2, 1:-1]

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
        return FlowField(self.gas, self.grid, self.time if time is None else time,
                         self.q.copy(), self.boundary_mass_flux)


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

    def velocity_perturbation(self, x1, x2, gamma: float):
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
    return FlowField.from_planes(gas, grid, delta, rho, rho * v1, rho * v2)


def _signal_speeds(f: FlowField) -> np.ndarray:
    """|v| + c of each cell."""
    return np.hypot(f.v1, f.v2) + f.c


def max_signal_speed(f: FlowField) -> float:
    """Max over cells of |v| + c."""
    return float(np.max(_signal_speeds(f)))


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

    Stage 1 reads f.q in place.  The result is one new padded buffer, which
    holds the stage-1 state until stage 2 overwrites its interior, and its
    ghost rows are copies of f's.
    """
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    if dt == 0.0:
        return f.copy()
    gas, grid, q0 = f.gas, f.grid, f.q
    n1, n2 = grid.n1, grid.n2
    # scratch first: q outlives the step as the result, so with glibc malloc
    # the freed scratch lies below it and the next step reuses those pages
    # instead of faulting in fresh ones
    dq = np.empty((3, n1, n2))
    cell = np.empty((4, n1 + 2, n2))
    face = np.empty((3, n1 + 1, n2))
    q = np.empty((3, n1 + 2, n2))
    q[:, 0], q[:, -1] = q0[:, 0], q0[:, -1]

    out1 = _rhs(gas, grid, q0, dq, cell, face)
    dq *= dt
    np.add(q0[:, 1:-1], dq, out=q[:, 1:-1])
    _check_positive(q[0, 1:-1], f.time + dt)
    out2 = _rhs(gas, grid, q, dq, cell, face)
    dq *= dt
    q_new = q[:, 1:-1]
    q_new += q0[:, 1:-1]
    q_new += dq
    q_new *= 0.5
    _check_positive(q_new[0], f.time + dt)
    outflow = 0.5 * (out1 + out2) * dt
    return FlowField(gas, grid, f.time + dt, q, f.boundary_mass_flux + outflow)


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
    dx_min = min(f.grid.dx1, f.grid.dx2)
    del f
    for target in times:
        while current.time < target - 1e-13:
            speed = max_signal_speed(current)
            if not math.isfinite(speed):
                # the cell whose own signal speed is not finite: a finite state
                # can overflow it (a huge momentum on a tiny density)
                i, j = np.argwhere(~np.isfinite(_signal_speeds(current)))[0]
                raise NumericalError(f"non-finite signal speed at t={current.time:.6g}, "
                                     f"first at (i={i}, j={j})")
            dt = min(config.cfl * dx_min / speed, target - current.time)
            current = step(current, dt)
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
