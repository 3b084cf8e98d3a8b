# slabrt before numpy: its OpenBLAS pin takes effect only if it loads first,
# and the suite should run the single-threaded BLAS that the CLI runs (the
# threaded matrix-matrix products round differently, which the evolve
# golden digests would show)
from slabrt import SlabConfig, build_grid, growth_rate, preset_profile  # isort: skip

import numpy as np
import pytest


@pytest.fixture(scope="session")
def grid32():
    return build_grid(32)


@pytest.fixture(scope="session")
def grid64():
    return build_grid(64)


@pytest.fixture(scope="session")
def grid128():
    return build_grid(128)


@pytest.fixture(scope="session")
def profile_up():
    return preset_profile("linear-up")


@pytest.fixture(scope="session")
def profile_down():
    return preset_profile("linear-down")


@pytest.fixture(scope="session")
def profile_exp():
    return preset_profile("exp")


@pytest.fixture(scope="session")
def default_config():
    """Reference unstable configuration used throughout the suite."""
    return SlabConfig(mu=0.01, g=1.0, k0=0.0, k1=0.0, L=1.0)


@pytest.fixture(scope="session")
def default_mode(profile_up, default_config, grid128):
    """Growing mode of the reference configuration at xi = 2."""
    ms = growth_rate(profile_up, default_config, grid128, 2.0)
    assert ms is not None
    return ms


@pytest.fixture
def rng():
    # function-scoped so every test sees the same deterministic stream
    return np.random.default_rng(20260808)
