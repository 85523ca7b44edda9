"""Exact Riemann solver for the 1D isentropic Euler system.

Solves two-state initial value problems in terms of shocks (on the curve of
states that mass and momentum conservation join) and centered rarefaction
fans, including the vacuum case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gas import (
    PolytropicGas,
    PrimitiveState,
    density_from_sound_speed,
    to_invariants,
)

__all__ = [
    "RiemannProblem1D",
    "WaveDescriptor",
    "WaveFan",
    "CenteredFan",
    "solve_riemann",
    "NumericalError",
]

# Waves weaker than this (in |c_m - c_side|) count as degenerate rarefactions.
ZERO_STRENGTH = 1e-12


class NumericalError(RuntimeError):
    """Raised when a numerical solve breaks down."""


@dataclass(frozen=True)
class RiemannProblem1D:
    gas: PolytropicGas
    left: PrimitiveState
    right: PrimitiveState

    def __post_init__(self):
        if self.left.is_vacuum or self.right.is_vacuum:
            raise ValueError("Riemann problem requires non-vacuum input states")


@dataclass(frozen=True)
class WaveDescriptor:
    """One wave of the two-wave solution.

    kind is "shock" or "rarefaction"; head is the speed of the edge adjacent
    to the outer (left/right) state, tail the edge adjacent to the middle
    state.  For shocks head == tail.  strength is |c_middle - c_outer|.
    """

    kind: str
    head: float
    tail: float
    strength: float


@dataclass(frozen=True)
class WaveFan:
    """Two-wave solution of a Riemann problem, in self-similar form."""

    gas: PolytropicGas
    left: PrimitiveState
    right: PrimitiveState
    wave1: WaveDescriptor
    wave2: WaveDescriptor
    middle: Optional[PrimitiveState]  # None when the fan opens onto vacuum

    @property
    def has_vacuum(self) -> bool:
        return self.middle is None


class CenteredFan:
    """Forward-facing centered rarefaction fan connected to data (v0, c0) on x > 0.

    Inside the fan (v0 - 2c0/(gamma-1) <= x/t <= v0 + c0):

        v = 2/(gamma+1) * x/t + B,   c = (gamma-1)/(gamma+1) * x/t - B,

    with B = (gamma-1)/(gamma+1)*v0 - 2/(gamma+1)*c0.  The map clamps to the
    constant state on the right of the head and to the vacuum continuation
    below the vacuum slope.
    """

    def __init__(self, gas: PolytropicGas, v0: float, c0: float):
        if c0 <= 0.0:
            raise ValueError("fan data requires c0 > 0")
        self.gas = gas
        self.v0 = v0
        self.c0 = c0
        g = gas.gamma
        self.B = (g - 1.0) / (g + 1.0) * v0 - 2.0 / (g + 1.0) * c0
        self.head_slope = v0 + c0
        self.vacuum_slope = v0 - 2.0 * c0 / (g - 1.0)

    def state_at_slope(self, xi):
        """(v, c) arrays at self-similar slope xi = x/t, clamped at both edges."""
        g = self.gas.gamma
        xi = np.asarray(xi, dtype=float)
        xi_c = np.clip(xi, self.vacuum_slope, self.head_slope)
        v = 2.0 / (g + 1.0) * xi_c + self.B
        c = (g - 1.0) / (g + 1.0) * xi_c - self.B
        c = np.maximum(c, 0.0)
        return v, c


def _shock_speed(gas, left, right):
    """Shock speed from mass conservation rho_l (v_l - s) = rho_r (v_r - s)."""
    rho_l = density_from_sound_speed(gas, left.c)
    rho_r = density_from_sound_speed(gas, right.c)
    return (rho_l * left.v1 - rho_r * right.v1) / (rho_l - rho_r)


def _wave_velocity(gas, side: PrimitiveState, c_m: float, forward: bool) -> float:
    """Middle velocity on the wave curve through one state.

    forward=True gives the 2-family curve through the right state,
    forward=False the 1-family curve through the left state.
    """
    sign = 1.0 if forward else -1.0
    g, k0 = gas.gamma, gas.k0
    if c_m <= side.c:
        # rarefaction branch: the opposite Riemann invariant is constant
        return side.v1 + sign * 2.0 * (c_m - side.c) / (g - 1.0)
    # shock branch: density_from_sound_speed and pressure without their array
    # wrappers, as the bisection calls this about 55 times per solve; their bits
    # are a float's ** for the density and the np.power ufunc for the pressure
    rho_s = (side.c * side.c / (k0 * g)) ** (1.0 / (g - 1.0))
    rho_m = (c_m * c_m / (k0 * g)) ** (1.0 / (g - 1.0))
    p_s, p_m = k0 * np.power(rho_s, g), k0 * np.power(rho_m, g)
    return side.v1 + sign * math.sqrt((p_m - p_s) * (1.0 / rho_s - 1.0 / rho_m))


def solve_riemann(problem: RiemannProblem1D) -> WaveFan:
    """Intersect the backward and forward wave curves in the (v, c) plane.

    Bisection on the middle sound speed until the bracket holds two
    adjacent floats.  A middle state with wbar_m + w_m < 0 cannot exist
    and yields a vacuum fan.
    """
    gas, left, right = problem.gas, problem.left, problem.right
    g = gas.gamma

    inv_l = to_invariants(gas, left)
    inv_r = to_invariants(gas, right)
    # two-rarefaction middle state: wbar_m = wbar_l, w_m = w_r
    if inv_l.wbar + inv_r.w < 0.0:
        wave1 = WaveDescriptor("rarefaction", head=left.v1 - left.c,
                               tail=left.v1 + 2.0 * left.c / (g - 1.0), strength=left.c)
        wave2 = WaveDescriptor("rarefaction", head=right.v1 + right.c,
                               tail=right.v1 - 2.0 * right.c / (g - 1.0), strength=right.c)
        return WaveFan(gas, left, right, wave1, wave2, middle=None)

    def mismatch(c_m):
        return (_wave_velocity(gas, left, c_m, forward=False)
                - _wave_velocity(gas, right, c_m, forward=True))

    # mismatch is strictly decreasing in c_m and >= 0 at c_m = 0
    lo = 0.0
    hi = max(left.c, right.c)
    grow = 0
    while mismatch(hi) > 0.0:
        hi *= 2.0
        grow += 1
        if grow > 60:
            raise NumericalError(f"failed to bracket the middle state: {problem}")

    while lo < 0.5 * (lo + hi) < hi:
        c_m = 0.5 * (lo + hi)
        if mismatch(c_m) > 0.0:
            lo = c_m
        else:
            hi = c_m
    c_m = hi

    v_m = 0.5 * (_wave_velocity(gas, left, c_m, forward=False)
                 + _wave_velocity(gas, right, c_m, forward=True))
    middle = PrimitiveState(c=c_m, v1=v_m)

    def describe(side, family):
        strength = abs(c_m - side.c)
        compressive = c_m > side.c + ZERO_STRENGTH * max(1.0, side.c)
        if compressive:
            s = _shock_speed(gas, side, middle) if family == 1 else _shock_speed(gas, middle, side)
            return WaveDescriptor("shock", head=s, tail=s, strength=strength)
        sign = -1.0 if family == 1 else 1.0
        return WaveDescriptor("rarefaction",
                              head=side.v1 + sign * side.c,
                              tail=v_m + sign * c_m,
                              strength=strength)

    return WaveFan(gas, left, right, describe(left, 1), describe(right, 2), middle)
