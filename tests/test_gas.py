import numpy as np
import pytest

from rarewave.gas import (PolytropicGas, PrimitiveState, RiemannInvariants,
                          density_from_sound_speed, enthalpy, sound_speed, to_invariants)

from conftest import from_invariants


def test_gas_parameter_ranges():
    with pytest.raises(ValueError):
        PolytropicGas(gamma=3.0)
    with pytest.raises(ValueError):
        PolytropicGas(gamma=1.0)
    with pytest.raises(ValueError):
        PolytropicGas(gamma=2.0, k0=0.0)


def test_sound_speed_values():
    assert sound_speed(PolytropicGas(2.0, 0.5), 0.0) == 0.0
    assert sound_speed(PolytropicGas(2.0, 0.5), 1.0) == pytest.approx(1.0, abs=1e-15)
    assert sound_speed(PolytropicGas(1.5, 2.0 / 3.0), 1.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        sound_speed(PolytropicGas(2.0, 0.5), -1.0)


def test_density_round_trip():
    gas = PolytropicGas(1.7, 0.9)
    rho = np.linspace(0.1, 4.0, 50)
    c = sound_speed(gas, rho)
    np.testing.assert_allclose(density_from_sound_speed(gas, c), rho, rtol=1e-13)


def test_enthalpy_values():
    assert enthalpy(PolytropicGas(2.0, 0.5), 1.0) == pytest.approx(1.0)
    assert enthalpy(PolytropicGas(2.0, 0.5), 0.0) == 0.0
    assert enthalpy(PolytropicGas(2.9999 - 0.0001, 0.5), 2.0) == pytest.approx(
        4.0 / (2.9998 - 1.0))


def test_invariant_map_examples():
    gas = PolytropicGas(2.0, 0.5)
    inv = to_invariants(gas, PrimitiveState(c=1.0, v1=0.0))
    assert (inv.wbar, inv.w, inv.psi2) == (1.0, 1.0, 0.0)

    inv = to_invariants(gas, PrimitiveState(c=0.0, v1=0.0))
    assert (inv.wbar, inv.w, inv.psi2) == (0.0, 0.0, 0.0)

    inv = to_invariants(gas, PrimitiveState(c=1.0, v1=1.0))
    assert (inv.wbar, inv.w) == (1.5, 0.5)


def test_from_invariants_examples():
    gas = PolytropicGas(2.0, 0.5)
    s = from_invariants(gas, RiemannInvariants(wbar=1.0, w=1.0))
    assert (s.c, s.v1, s.v2) == (1.0, 0.0, 0.0)

    s = from_invariants(gas, RiemannInvariants(0.0, 0.0, 0.0))
    assert s.is_vacuum

    s = from_invariants(gas, RiemannInvariants(wbar=1.5, w=0.5))
    assert (s.c, s.v1) == (1.0, 1.0)

    with pytest.raises(ValueError):
        from_invariants(gas, RiemannInvariants(wbar=-1.0, w=0.5))


def test_round_trip_random_states():
    # tolerance is relative to the invariant scale 2c/(gamma-1), which
    # dominates the subtraction wbar - w for gamma near 1
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        gas = PolytropicGas(rng.uniform(1.05, 2.95), rng.uniform(0.1, 3.0))
        s = PrimitiveState(c=rng.uniform(1e-3, 5.0), v1=rng.uniform(-5, 5),
                           v2=rng.uniform(-5, 5))
        back = from_invariants(gas, to_invariants(gas, s))
        scale = 2.0 * s.c / (gas.gamma - 1.0) + abs(s.v1) + abs(s.v2)
        assert abs(back.c - s.c) <= 1e-14 * scale
        assert abs(back.v1 - s.v1) <= 1e-14 * scale
        assert abs(back.v2 - s.v2) <= 1e-14 * scale


def test_sound_speed_from_invariant_sum():
    rng = np.random.default_rng(8)
    for _ in range(200):
        gas = PolytropicGas(rng.uniform(1.05, 2.95), 0.5)
        s = PrimitiveState(c=rng.uniform(0.0, 3.0), v1=rng.uniform(-3, 3))
        inv = to_invariants(gas, s)
        assert 0.5 * (gas.gamma - 1.0) * (inv.w + inv.wbar) == pytest.approx(s.c, abs=1e-14)


def test_max_char_speed_combination():
    rng = np.random.default_rng(9)
    for _ in range(200):
        gas = PolytropicGas(rng.uniform(1.05, 2.95), 0.5)
        s = PrimitiveState(c=rng.uniform(0.01, 3.0), v1=rng.uniform(-3, 3))
        inv = to_invariants(gas, s)
        g = gas.gamma
        combo = 0.5 * (g + 1.0) * inv.wbar + 0.5 * (g - 3.0) * inv.w
        assert combo == pytest.approx(s.v1 + s.c, rel=1e-13, abs=1e-13)
