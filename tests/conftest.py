import numpy as np
import pytest
from hypothesis import settings

from synwatch.lstm import init_params
from synwatch.pipeline import WindowSet

# Every property test draws the same examples on every run, however long
# one example takes.
settings.register_profile("synwatch", derandomize=True, deadline=None)
settings.load_profile("synwatch")


def make_window_set(rng, lag, n):
    inputs = rng.normal(0.5, 0.3, size=(n, lag))
    targets = rng.normal(0.5, 0.3, size=n)
    return WindowSet(lag=lag, inputs=inputs, targets=targets,
                     origin_steps=np.arange(lag - 1, lag - 1 + n))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_instance(rng):
    """Small random network plus window set for gradient checks."""
    params = init_params(3, 3, rng_seed=5)
    windows = make_window_set(rng, 3, 6)
    return params, windows
