import numpy as np
import pytest

from garnier_lab import numerics
from garnier_lab.schlesinger import gen_schlesinger_b
from garnier_lab.poly_garnier import gen_pg, random_theta_pg

THETA4 = [0.31 - 0.12j, 0.47 + 0.08j, -0.29 + 0.21j, 0.55 - 0.03j]


@pytest.fixture(scope="session")
def b_state():
    """One generic traceless Schlesinger state, reused across read-only tests."""
    return gen_schlesinger_b(THETA4, seed=11)


@pytest.fixture(scope="session")
def pg_state():
    th = random_theta_pg(7)
    return gen_pg(th, 3)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def fixed_step_hop(field, y0, t0, t1, n):
    """Reference for one straight hop, without the batch driver: n Dormand-Prince
    steps of dy/ds = field(t0 + s v, v, y), v = t1 - t0, s in [0, 1], in a plain loop."""
    v, h = t1 - t0, 1.0 / n
    y = np.asarray(y0, dtype=complex)
    k1 = field(t0 + 0.0 * v, v, y)
    for i in range(n):
        y, k = numerics._dp_step(lambda j, acc: field(t0 + (i * h + numerics._DP_C[j] * h) * v, v, acc), y, h, k1)
        k1 = k[6]
    return y
