import numpy as np
import pytest

from dnems.network import Branch, Bus, Network, builtin_ieee69


@pytest.fixture(scope="session")
def ieee69():
    return builtin_ieee69()


@pytest.fixture()
def two_bus():
    """Minimal feeder: substation plus one 150 kW / 0 kvar load bus."""
    return Network(
        buses=[Bus(id=1), Bus(id=2, p_load=150.0, q_load=0.0)],
        branches=[Branch(from_bus=1, to_bus=2, r=0.001, x=0.001, at_repair=2.0, at_restoration=0.5)],
        v_min=0.5,
        v_max=1.5,
    )


@pytest.fixture()
def chain3():
    return Network(
        buses=[Bus(id=1), Bus(id=2, p_load=50.0, q_load=20.0), Bus(id=3, p_load=80.0, q_load=30.0)],
        branches=[
            Branch(from_bus=1, to_bus=2, r=0.1, x=0.1),
            Branch(from_bus=2, to_bus=3, r=0.2, x=0.15),
        ],
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
