import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_stochastic(rng, nx, ny, floor=0.05):
    m = rng.random((nx, ny)) + floor
    return m / m.sum(axis=1, keepdims=True)


def dmc_in_label_order(cons, rows_by_label):
    """Dmc whose row for the channel input carrying label b is rows_by_label[b]."""
    from pbicm.channel import Dmc

    rows = np.asarray(rows_by_label, dtype=float)
    m = np.empty_like(rows)
    for b, row in enumerate(rows):
        m[cons.labels[b]] = row
    return Dmc(m)
