"""Shared fixtures: small machine configurations and fast parameters."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.analysis.cache as cache_mod
from repro.machine import CM5Params, MachineConfig


@pytest.fixture(scope="session", autouse=True)
def sim_cache_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """Keep the whole run off the working tree's ``.sim_cache/``.

    Session-scoped so it is in place before any fixture of any scope
    (class-scoped sweeps included) touches the default cache.
    """
    root = tmp_path_factory.mktemp("sim_cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(root))
        mp.setattr(cache_mod, "_DEFAULT", None)
        yield root


@pytest.fixture(scope="session")
def params() -> CM5Params:
    """The calibrated default parameter set."""
    return CM5Params()


@pytest.fixture(scope="session")
def nojitter_params() -> CM5Params:
    """Deterministic-wire parameters (exact arithmetic in timing tests)."""
    return CM5Params(routing_jitter=0.0)


@pytest.fixture
def cfg4(params: CM5Params) -> MachineConfig:
    return MachineConfig(4, params)


@pytest.fixture
def cfg8(params: CM5Params) -> MachineConfig:
    return MachineConfig(8, params)


@pytest.fixture
def cfg16(params: CM5Params) -> MachineConfig:
    return MachineConfig(16, params)


@pytest.fixture
def cfg32(params: CM5Params) -> MachineConfig:
    return MachineConfig(32, params)


@pytest.fixture
def cfg8_nojitter(nojitter_params: CM5Params) -> MachineConfig:
    return MachineConfig(8, nojitter_params)
