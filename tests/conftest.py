import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import mgnet3d
from helpers import reduce_sum, weighted_sum

# The loss probes are test code (tests/helpers.py), not library API; the
# acceptance gate calls them through the package namespace as mg.reduce_sum
# and mg.weighted_sum, so they are bound there for the test session.
mgnet3d.reduce_sum = reduce_sum
mgnet3d.weighted_sum = weighted_sum

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
