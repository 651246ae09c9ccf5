import numpy as np
import pytest
from hypothesis import settings

from synwatch.lstm import init_params
from synwatch.pipeline import WindowSet

# Every property test draws the same examples on every run, however long
# one example takes.
settings.register_profile("synwatch", derandomize=True, deadline=None)
settings.load_profile("synwatch")


#: Fused against per-gate products: every value within this many units of
#: float64 rounding (``EPS``) of the per-gate value, times the larger of 1
#: and that value's magnitude (predictions) or its output's largest
#: magnitude (gradients).  The two differ only in the order of the sums in
#: their products; the largest seen are about 6.0 (gradients) and 11
#: (predictions) on ``test_kernels.random_case``'s values.
PER_GATE_ULPS = 32
EPS = np.finfo(np.float64).eps


def assert_within_per_gate_bound(got, want, size=1.0):
    """Every prediction in ``got`` within ``PER_GATE_ULPS`` of
    ``max(|want|, size)`` of the per-gate prediction ``want``.  ``size``,
    at least 1, may give the size of the terms the products sum, which
    bounds their rounding when it is larger."""
    want = np.asarray(want)
    bound = PER_GATE_ULPS * EPS * np.maximum(np.abs(want), size)
    assert np.all(np.abs(np.asarray(got) - want) <= bound)


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
