import numpy as np
import pytest

from holowdm import blas


def blas_threads() -> int:
    """numpy's OpenBLAS thread count."""
    return blas.thread_calls()[0]()


@pytest.fixture
def two_blas_threads():
    """The caller runs numpy's OpenBLAS at 2 threads, restored afterwards."""
    if blas.thread_calls() is None:
        pytest.skip("numpy's OpenBLAS thread control is not available")
    get, set_ = blas.thread_calls()
    before = get()
    set_(2)
    yield
    set_(before)


def assert_kkt(gains, allocation, total_power, noise_var):
    """Water-filling optimality: budget, common level, complementary slackness."""
    gains = np.asarray(gains, dtype=float)
    allocation = np.asarray(allocation, dtype=float)
    assert np.all(allocation >= 0.0)
    assert allocation[gains == 0.0].sum() == 0.0
    assert abs(allocation.sum() - total_power) <= 1e-10 * total_power
    active = allocation > 0.0
    assert active.any()
    levels = allocation[active] + noise_var / gains[active]
    mu = levels.max()
    assert np.all(np.abs(levels - mu) <= 1e-9)
    inactive = (~active) & (gains > 0.0)
    assert np.all(noise_var / gains[inactive] >= mu - 1e-9)
