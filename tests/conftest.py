"""Shared pytest fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol import LuckyAtomicProtocol
from repro.sim.cluster import SimCluster


@pytest.fixture
def small_config() -> SystemConfig:
    """t=1, b=0: the smallest non-trivial crash-only configuration (S=3)."""
    return SystemConfig(t=1, b=0, fw=1, fr=0, num_readers=2)


@pytest.fixture
def byzantine_config() -> SystemConfig:
    """t=2, b=1: the paper's canonical mixed-failure configuration (S=6)."""
    return SystemConfig(t=2, b=1, fw=1, fr=0, num_readers=2)


@pytest.fixture
def balanced_config() -> SystemConfig:
    """t=3, b=1 with the fast-path budget split between reads and writes (S=8)."""
    return SystemConfig.balanced(t=3, b=1, num_readers=2)


@pytest.fixture
def cluster_factory():
    """Factory building a SimCluster for a config with standard settings."""

    def _build(config: SystemConfig, **kwargs) -> SimCluster:
        return SimCluster(LuckyAtomicProtocol(config), **kwargs)

    return _build


@pytest.fixture
def byzantine_cluster(byzantine_config, cluster_factory) -> SimCluster:
    return cluster_factory(byzantine_config)
