"""Equation of state and Riemann-invariant algebra for an isentropic polytropic gas.

The gas law is p = k0 * rho**gamma with 1 < gamma < 3.  All field-level code
works with the sound speed c rather than the density; the density is derived
on demand via rho = (c**2 / (k0*gamma))**(1/(gamma-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PolytropicGas",
    "PrimitiveState",
    "RiemannInvariants",
    "sound_speed",
    "density_from_sound_speed",
    "pressure",
    "enthalpy",
    "to_invariants",
]


@dataclass(frozen=True)
class PolytropicGas:
    """Polytropic equation of state p = k0 * rho**gamma."""

    gamma: float = 2.0
    k0: float = 0.5

    def __post_init__(self):
        if not 1.0 < self.gamma < 3.0:
            raise ValueError(f"gamma must lie in (1, 3), got {self.gamma}")
        if self.k0 <= 0.0:
            raise ValueError(f"k0 must be positive, got {self.k0}")


@dataclass(frozen=True)
class PrimitiveState:
    """Flow state (c, v1, v2).  c = 0 marks vacuum."""

    c: float
    v1: float
    v2: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite((self.c, self.v1, self.v2))):
            raise ValueError(f"state must be finite, got {self}")
        if self.c < 0.0:
            raise ValueError(f"sound speed must be non-negative, got {self.c}")

    @property
    def is_vacuum(self) -> bool:
        return self.c == 0.0


class RiemannInvariants(NamedTuple):
    """Invariant triple (wbar, w, psi2), of scalars or of planes.

    wbar rides the forward (v+c) characteristic family, w the backward
    (v-c) family, and psi2 = -v2 completes the triple.
    """

    wbar: float
    w: float
    psi2: float = 0.0


def sound_speed(gas: PolytropicGas, rho):
    """Sound speed sqrt(k0 * gamma * rho**(gamma-1)); 0 at rho = 0."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise ValueError("density must be non-negative")
    c = np.sqrt(gas.k0 * gas.gamma) * rho ** ((gas.gamma - 1.0) / 2.0)
    return c if c.ndim else float(c)


def density_from_sound_speed(gas: PolytropicGas, c):
    """Inverse of sound_speed: rho = (c**2 / (k0*gamma))**(1/(gamma-1))."""
    c = np.asarray(c, dtype=float)
    if np.any(c < 0.0):
        raise ValueError("sound speed must be non-negative")
    rho = (c * c / (gas.k0 * gas.gamma)) ** (1.0 / (gas.gamma - 1.0))
    return rho if rho.ndim else float(rho)


def pressure(gas: PolytropicGas, rho):
    return gas.k0 * np.asarray(rho, dtype=float) ** gas.gamma


def enthalpy(gas: PolytropicGas, c):
    """Specific enthalpy h = c**2 / (gamma - 1)."""
    c = np.asarray(c, dtype=float)
    h = c * c / (gas.gamma - 1.0)
    return h if h.ndim else float(h)


def to_invariants(gas: PolytropicGas, state) -> RiemannInvariants:
    """Map (c, v1, v2) to (wbar, w, psi2), for any state with those attributes.

    wbar = (2c/(gamma-1) + v1)/2, w = (2c/(gamma-1) - v1)/2, psi2 = -v2.
    """
    s = 2.0 * state.c / (gas.gamma - 1.0)
    v1 = state.v1
    return RiemannInvariants(wbar=0.5 * (s + v1), w=0.5 * (s - v1), psi2=-state.v2)
