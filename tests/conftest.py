"""Shared fixtures: one well-resolved two-bin arena used across the suite."""

import numpy as np
import pytest

from poltime import hilbert, tomography

TAU = 2.3e-12
SIGMA_T = TAU / 10.0  # resolvable bins: envelope overlap at tau is e^-12.5


@pytest.fixture(scope="session")
def lattice():
    return hilbert.TimeBinLattice(bin_count=2, tau=TAU)


@pytest.fixture(scope="session")
def packet():
    return hilbert.Wavepacket(sigma_t=SIGMA_T)


@pytest.fixture(scope="session")
def tset(lattice, packet):
    """Default tomography set: 20 mutually unbiased projectors, 18 scans."""
    return tomography.default_tomography_set(lattice, packet)


@pytest.fixture(scope="session")
def product_tset(lattice, packet):
    """The paper's 16-member product set."""
    return tomography.product_tomography_set(lattice, packet)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)


def make_state(name, lattice, packet):
    return hilbert.named_state(name, lattice, packet)
