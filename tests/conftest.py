"""Shared fixtures: one well-resolved two-bin arena used across the suite."""

import itertools

import numpy as np
import pytest

from poltime import cli, experiment, hilbert, tomography

TAU = 2.3e-12
SIGMA_T = TAU / 10.0  # resolvable bins: envelope overlap at tau is e^-12.5
# Filter bandwidths in nm at 780 nm.  On the CLI's default grid of 321
# points a run of the product set reads 171 at 3 nm (sigma_t = tau / 18.1)
# and 49 at 1 nm (tau / 6); the unbiased set reads no dip at -tau.
WIDE_GRIDS = {"3nm": 3.0, "1nm": 1.0}


def wide_grid(name):
    """(packet, delays) of a WIDE_GRIDS entry: its filter's envelope on the
    CLI's default grid."""
    sigma_t = cli.bandwidth_to_sigma(WIDE_GRIDS[name], 780.0)
    return hilbert.Wavepacket(sigma_t), experiment.default_delay_grid(TAU)


def on_each_grid(*axes):
    """pytest params of every combination of the axes and a grid name:
    "compact" keeps the ids the axes give, and each WIDE_GRIDS name is
    appended to them."""
    cases = []
    for grid, combo in itertools.product(["compact", *WIDE_GRIDS], itertools.product(*axes)):
        ident = "-".join(getattr(value, "__name__", str(value)) for value in combo)
        cases.append(pytest.param(*combo, grid, id=ident + ("" if grid == "compact" else f"-{grid}")))
    return cases


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
