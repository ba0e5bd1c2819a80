"""Interference model: envelope overlaps, dip scans, and the Fock oracle.

The Gaussian envelope overlap is cross-checked against direct numerical
quadrature; the closed-form coincidence ratio is cross-checked against the
brute-force two-photon Fock enumeration.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from poltime import experiment, hilbert, hom, optics
from poltime.hilbert import PhotonState, TimeBinLattice, Wavepacket, to_density
from poltime.hom import (
    coincidence_ratio,
    envelope_overlap,
    fock_oracle_ratio,
    scan_trace,
    shifted_ancilla_vector,
)

TAU = 2.3e-12


def random_pure(rng, lattice, packet):
    amps = rng.normal(size=2 * lattice.bin_count) + 1j * rng.normal(
        size=2 * lattice.bin_count
    )
    return PhotonState(amps / np.linalg.norm(amps), lattice, packet)


# ---------------------------------------------------------------------------
# Envelope overlap
# ---------------------------------------------------------------------------


def quadrature_overlap(sigma, dt):
    """Overlap of displaced envelopes by direct integration.

    Integrates in units of sigma; at picosecond scales the raw integrals fall
    below quad's absolute-error floor and the result is garbage.
    """
    x = dt / sigma
    f = lambda u: np.exp(-(u**2) / 4.0)
    num, _ = integrate.quad(
        lambda u: f(u) * f(u - x), -30.0, 30.0, epsabs=0.0, epsrel=1e-12
    )
    den, _ = integrate.quad(lambda u: f(u) ** 2, -30.0, 30.0, epsabs=0.0, epsrel=1e-12)
    return num / den


def test_envelope_overlap_normalization(packet):
    assert envelope_overlap(packet, 0.0) == 1.0


def test_envelope_overlap_distinguishable_limit(packet):
    # exp(-x^2/8) crosses 1e-12 at x ~ 14.9
    assert envelope_overlap(packet, 15.0 * packet.sigma_t) <= 1e-12
    assert envelope_overlap(packet, -15.0 * packet.sigma_t) <= 1e-12
    assert envelope_overlap(packet, 12.0 * packet.sigma_t) <= 1e-7


@pytest.mark.parametrize("displacement_sigmas", [0.5, 1.0, 2.0, 3.7])
def test_envelope_overlap_matches_quadrature(packet, displacement_sigmas):
    dt = displacement_sigmas * packet.sigma_t
    assert envelope_overlap(packet, dt) == pytest.approx(
        quadrature_overlap(packet.sigma_t, dt), abs=1e-9
    )
    assert envelope_overlap(packet, -dt) == envelope_overlap(packet, dt)


def test_envelope_overlap_monotone_in_displacement(packet):
    dts = np.linspace(0.0, 6.0 * packet.sigma_t, 40)
    vals = [envelope_overlap(packet, dt) for dt in dts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, np.float64(1e300), -1e300])
def test_envelope_overlap_at_non_finite_and_huge_delays(packet, dt):
    """A NaN displacement raises, as on every other delay path; beyond
    1e150 sigma_t the overlap reads 0 without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isnan(dt):
            with pytest.raises(ValueError, match="no NaN"):
                envelope_overlap(packet, dt)
        else:
            assert envelope_overlap(packet, dt) == 0.0


def test_envelope_overlap_is_the_scan_tables_entry(lattice, packet):
    """envelope_overlap and the shifted vectors' table read one envelope,
    bit for bit: h0's vector holds the table's row for its one bin."""
    h0 = hilbert.named_state("h0", lattice, packet)
    delays = np.linspace(-3.0 * TAU, 3.0 * TAU, 101)
    g = shifted_ancilla_vector(h0, delays, 2)
    want = [[envelope_overlap(packet, d - j * TAU) for j in range(2)] for d in delays]
    assert np.array_equal(g[:, :2].real, want)


# ---------------------------------------------------------------------------
# State overlap at delay
# ---------------------------------------------------------------------------


def overlap_at_delay(encoded, ancilla, delay):
    """<encoded|ancilla delayed by delay>, on the encoded photon's bins."""
    g = shifted_ancilla_vector(ancilla, delay, encoded.bin_count)
    return complex(np.vdot(encoded.amplitudes, g))


def test_identical_bell_overlap_at_zero_delay(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    assert overlap_at_delay(phi, phi, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_orthogonal_bell_overlap_vanishes_at_all_delays(lattice, packet):
    plus = hilbert.named_state("phi_plus", lattice, packet)
    minus = hilbert.named_state("phi_minus", lattice, packet)
    for delay in np.linspace(-2 * TAU, 2 * TAU, 21):
        assert abs(overlap_at_delay(plus, minus, delay)) < 1e-9


def test_shifted_superposition_overlap_is_half(lattice, packet):
    p_plus = hilbert.product_state("p", "+", lattice, packet)
    p_minus = hilbert.product_state("p", "-", lattice, packet)
    assert overlap_at_delay(p_plus, p_minus, TAU) == pytest.approx(0.5, abs=1e-9)


def test_overlap_requires_shared_envelope(lattice, packet):
    other = Wavepacket(sigma_t=packet.sigma_t / 2)
    a = hilbert.basis_state("h", 0, lattice, packet)
    b = hilbert.basis_state("h", 0, lattice, other)
    with pytest.raises(ValueError, match="wavepacket envelope"):
        coincidence_ratio(a, b, 0.0)


# ---------------------------------------------------------------------------
# Coincidence ratio
# ---------------------------------------------------------------------------


def test_full_dip_for_identical_states(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    assert coincidence_ratio(phi, phi, 0.0, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_dip_depth_scales_with_visibility(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    assert coincidence_ratio(phi, phi, 0.0, 0.94) == pytest.approx(0.06, abs=1e-9)


def test_classical_mixture_gives_half_dip(lattice, packet):
    h0 = hilbert.basis_state("h", 0, lattice, packet)
    v0 = hilbert.basis_state("v", 0, lattice, packet)
    mix = hilbert.DensityMatrix(
        0.5 * to_density(h0).matrix + 0.5 * to_density(v0).matrix, lattice, packet
    )
    assert coincidence_ratio(mix, h0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-9)


def test_visibility_model_validation(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    with pytest.raises(ValueError):
        coincidence_ratio(phi, phi, 0.0, 1.2)
    with pytest.raises(ValueError):
        fock_oracle_ratio(phi, phi, 0.0, 1.2)


@given(seed=st.integers(0, 2**32 - 1), delay_frac=st.floats(-2.0, 2.0), v=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_ratio_bounds_and_swap_symmetry(seed, delay_frac, v):
    rng = np.random.default_rng(seed)
    lattice = TimeBinLattice(2, TAU)
    packet = Wavepacket(TAU / 10)
    a = random_pure(rng, lattice, packet)
    b = random_pure(rng, lattice, packet)
    delay = delay_frac * TAU
    r_ab = coincidence_ratio(a, b, delay, v)
    assert 0.0 <= r_ab <= 1.0
    r_ba = coincidence_ratio(b, a, -delay, v)
    assert r_ab == pytest.approx(r_ba, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_pure_and_rank_one_density_agree(seed):
    rng = np.random.default_rng(seed)
    lattice = TimeBinLattice(2, TAU)
    packet = Wavepacket(TAU / 10)
    a = random_pure(rng, lattice, packet)
    b = random_pure(rng, lattice, packet)
    delay = float(rng.uniform(-2, 2)) * TAU
    pure = coincidence_ratio(a, b, delay, 1.0)
    mixed = coincidence_ratio(to_density(a), b, delay, 1.0)
    assert pure == pytest.approx(mixed, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_ratio_is_linear_in_the_mixed_state(seed, lam):
    rng = np.random.default_rng(seed)
    lattice = TimeBinLattice(2, TAU)
    packet = Wavepacket(TAU / 10)
    rho1 = to_density(random_pure(rng, lattice, packet))
    rho2 = to_density(random_pure(rng, lattice, packet))
    blend = hilbert.DensityMatrix(
        lam * rho1.matrix + (1 - lam) * rho2.matrix, lattice, packet
    )
    anc = random_pure(rng, lattice, packet)
    delay = float(rng.uniform(-2, 2)) * TAU
    r_blend = coincidence_ratio(blend, anc, delay, 1.0)
    r_parts = lam * coincidence_ratio(rho1, anc, delay, 1.0) + (
        1 - lam
    ) * coincidence_ratio(rho2, anc, delay, 1.0)
    assert r_blend == pytest.approx(r_parts, abs=1e-12)


# ---------------------------------------------------------------------------
# Scan shapes
# ---------------------------------------------------------------------------


def grid():
    return np.linspace(-8e-12, 8e-12, 321)


def ratio_at(points, delay):
    i = int(np.argmin(np.abs(grid() - delay)))
    return points[i]


def test_scan_single_central_dip(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    points = scan_trace(phi, phi, grid(), 1.0)
    assert ratio_at(points, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert ratio_at(points, TAU) >= 1.0 - 1e-6
    assert ratio_at(points, -TAU) >= 1.0 - 1e-6


def test_scan_flat_for_orthogonal_bells(lattice, packet):
    plus = hilbert.named_state("phi_plus", lattice, packet)
    minus = hilbert.named_state("phi_minus", lattice, packet)
    points = scan_trace(plus, minus, grid(), 1.0)
    assert min(points) >= 1.0 - 1e-6


def test_scan_side_dips_for_shifted_superpositions(lattice):
    # Narrow envelope regime: at sigma = tau/10 the tails of adjacent bins
    # still shift the side dips at the 2e-6 level, masking the exact 3/4.
    packet = Wavepacket(TAU / 16)
    p_plus = hilbert.product_state("p", "+", lattice, packet)
    p_minus = hilbert.product_state("p", "-", lattice, packet)
    same = scan_trace(p_plus, p_plus, grid(), 1.0)
    assert ratio_at(same, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert ratio_at(same, TAU) == pytest.approx(0.75, abs=1e-6)
    assert ratio_at(same, -TAU) == pytest.approx(0.75, abs=1e-6)
    cross = scan_trace(p_plus, p_minus, grid(), 1.0)
    assert ratio_at(cross, 0.0) >= 1.0 - 1e-6
    assert ratio_at(cross, TAU) == pytest.approx(0.75, abs=1e-6)
    assert ratio_at(cross, -TAU) == pytest.approx(0.75, abs=1e-6)


def test_scan_rejects_empty_grid(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    with pytest.raises(ValueError):
        scan_trace(phi, phi, [], 1.0)


def pointwise_ratios(encoded, ancilla, delays, v):
    """The one-delay overlap formulas, evaluated one delay at a time."""
    out = []
    for d in delays:
        g = shifted_ancilla_vector(ancilla, float(d), encoded.bin_count)
        if isinstance(encoded, hilbert.DensityMatrix):
            raw = np.real(np.vdot(g, encoded.matrix @ g))
        else:
            raw = abs(np.vdot(encoded.amplitudes, g)) ** 2
        out.append(1.0 - v * np.clip(raw, 0.0, 1.0))
    return np.array(out)


@pytest.mark.parametrize("v", [1.0, 0.94])
@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("enc_bins,anc_bins", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_scan_trace_equals_pointwise_formula_bit_for_bit(enc_bins, anc_bins, mixed, v):
    rng = np.random.default_rng(100 * enc_bins + 10 * anc_bins + mixed)
    packet = Wavepacket(TAU / 10)
    enc_lattice = TimeBinLattice(enc_bins, TAU)
    anc_lattice = TimeBinLattice(anc_bins, TAU)
    encoded = random_pure(rng, enc_lattice, packet)
    if mixed:
        other = random_pure(rng, enc_lattice, packet)
        encoded = hilbert.DensityMatrix(
            0.3 * to_density(encoded).matrix + 0.7 * to_density(other).matrix,
            enc_lattice,
            packet,
        )
    ancillas = [
        random_pure(rng, anc_lattice, packet),
        hilbert.product_state("r", "0", anc_lattice, packet),
        hilbert.product_state("p", "t", anc_lattice, packet),
    ]
    delays = np.concatenate([grid(), np.sort(rng.uniform(-3, 3, 40)) * TAU])
    for anc in ancillas:
        expected = pointwise_ratios(encoded, anc, delays, v)
        assert np.array_equal(scan_trace(encoded, anc, delays, v), expected)
        assert np.array_equal(scan_trace(encoded, anc, delays[200:201], v), expected[200:201])
        assert coincidence_ratio(encoded, anc, delays[-1], v) == expected[-1]


def dip_full_width_at_half_depth(sigma):
    lattice = TimeBinLattice(2, TAU)
    packet = Wavepacket(sigma)
    phi = hilbert.named_state("phi_plus", lattice, packet)
    delays = np.linspace(-6 * sigma, 6 * sigma, 4001)
    ratios = np.array([coincidence_ratio(phi, phi, d, 1.0) for d in delays])
    above = ratios >= 0.5
    # linear interpolation at the two half-depth crossings
    left = np.argmax(~above)
    right = len(above) - np.argmax(~above[::-1]) - 1

    def crossing(i0, i1):
        d0, d1 = delays[i0], delays[i1]
        r0, r1 = ratios[i0], ratios[i1]
        return d0 + (0.5 - r0) * (d1 - d0) / (r1 - r0)

    return crossing(right, right + 1) - crossing(left - 1, left)


def test_dip_width_scales_linearly_with_envelope():
    sigmas = np.array([TAU / 20, TAU / 10, TAU / 5])
    widths = np.array([dip_full_width_at_half_depth(s) for s in sigmas])
    slopes = widths / sigmas
    assert slopes.max() / slopes.min() < 1.05
    # overlap^2 = exp(-d^2 / (4 sigma^2)) crosses 1/2 at d = 2 sigma sqrt(ln 2)
    np.testing.assert_allclose(slopes, 4.0 * np.sqrt(np.log(2.0)), rtol=1e-3)


# ---------------------------------------------------------------------------
# Fock oracle
# ---------------------------------------------------------------------------


def test_oracle_identical_states_bunch(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    assert fock_oracle_ratio(phi, phi, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_oracle_orthogonal_states_never_bunch(lattice, packet):
    h0 = hilbert.basis_state("h", 0, lattice, packet)
    v0 = hilbert.basis_state("v", 0, lattice, packet)
    assert fock_oracle_ratio(h0, v0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_oracle_refuses_mixed_states(lattice, packet):
    """coincidence_ratio takes a DensityMatrix; the Fock oracle enumerates
    pure states only and says so, whichever photon is mixed."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    mixed = to_density(phi)
    assert coincidence_ratio(mixed, phi, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    for encoded, ancilla in ((mixed, phi), (phi, mixed)):
        with pytest.raises(TypeError, match="expects a PhotonState, got DensityMatrix"):
            fock_oracle_ratio(encoded, ancilla, 0.0, 1.0)
    with pytest.raises(TypeError, match="got NoneType"):
        fock_oracle_ratio(phi, None, 0.0, 1.0)


@pytest.mark.parametrize(
    "entry",
    [
        lambda phi, rho: coincidence_ratio(phi, rho, 0.0, 1.0),
        lambda phi, rho: scan_trace(phi, rho, [0.0, TAU]),
        lambda phi, rho: hom.scan_traces(phi, [phi, rho], [0.0, TAU]),
        lambda phi, rho: shifted_ancilla_vector(rho, 0.0, 2),
        lambda phi, rho: experiment.sample_scan(
            phi, rho, experiment.ScanConfig(experiment.default_delay_grid(TAU), 100.0, 0)
        ),
        lambda phi, rho: optics.compile_preparation(rho),
    ],
    ids=["coincidence_ratio", "scan_trace", "scan_traces", "shifted_ancilla_vector",
         "sample_scan", "compile_preparation"],
)
def test_a_mixed_ancilla_or_compile_target_is_a_type_error(entry, lattice, packet):
    """Only the encoded photon may be mixed: an ancilla or a compile target
    given as a DensityMatrix raises TypeError naming its type, not an
    AttributeError from deep inside the closed form."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    with pytest.raises(TypeError, match="PhotonState, got DensityMatrix"):
        entry(phi, to_density(phi))


@pytest.mark.parametrize(
    "entry",
    [
        lambda phi, rho: experiment.occupied_bins(rho),
        lambda phi, rho: hilbert.inner_product(phi, rho),
        lambda phi, rho: optics.element_action(optics.HalfWavePlate(0.1), rho),
        lambda phi, rho: optics.apply_pipeline(
            optics.OpticalPipeline([optics.HalfWavePlate(0.1)]), rho
        ),
    ],
    ids=["occupied_bins", "inner_product", "element_action", "apply_pipeline"],
)
def test_pure_state_entries_refuse_a_density_matrix(entry, lattice, packet):
    """These read amplitudes a DensityMatrix does not have: each raised
    AttributeError from deep inside and now raises TypeError naming the type."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    with pytest.raises(TypeError, match="expects a PhotonState, got DensityMatrix"):
        entry(phi, to_density(phi))


def test_encoded_and_ancilla_share_tau(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    other = hilbert.named_state("phi_plus", TimeBinLattice(2, 2 * TAU), packet)
    message = "^encoded and ancilla must share the lattice spacing tau$"
    with pytest.raises(ValueError, match=message):
        coincidence_ratio(phi, other, 0.0)


def test_oracle_mode_cap(packet):
    lattice = TimeBinLattice(20, TAU)
    big = hilbert.basis_state("h", 0, lattice, packet)
    with pytest.raises(ValueError):
        fock_oracle_ratio(big, big, 0.0, 1.0)


@pytest.mark.parametrize("bins", [2, 3, 4])
def test_oracle_agrees_with_closed_form(bins):
    """Random ensembles in the resolvable-bin regime (sigma <= tau/16, where
    the filtered-source defaults live) agree to well below 1e-9."""
    rng = np.random.default_rng(bins)
    lattice = TimeBinLattice(bins, TAU)
    worst = 0.0
    for k in range(15):
        packet = Wavepacket(TAU / 16 if k % 2 else TAU / 20)
        enc = random_pure(rng, lattice, packet)
        anc = random_pure(rng, lattice, packet)
        delay = float(rng.uniform(-2, 2)) * TAU
        v = float(rng.uniform(0.5, 1.0))
        fast = coincidence_ratio(enc, anc, delay, v)
        slow = fock_oracle_ratio(enc, anc, delay, v)
        worst = max(worst, abs(fast - slow))
    assert worst <= 1e-9


def test_oracle_gap_stays_small_for_broad_envelopes():
    """At sigma = tau/10 adjacent bins overlap at the 4e-6 level, so the
    idealized closed form (orthonormal bins) and the physical enumeration
    (true Gaussian mode geometry) part ways, but only at that scale."""
    rng = np.random.default_rng(99)
    lattice = TimeBinLattice(3, TAU)
    packet = Wavepacket(TAU / 10)
    worst = 0.0
    for _ in range(25):
        enc = random_pure(rng, lattice, packet)
        anc = random_pure(rng, lattice, packet)
        delay = float(rng.uniform(-2, 2)) * TAU
        fast = coincidence_ratio(enc, anc, delay, 1.0)
        slow = fock_oracle_ratio(enc, anc, delay, 1.0)
        worst = max(worst, abs(fast - slow))
    assert worst <= 1e-5


def test_scan_traces_refuse_a_nan_delay(lattice, packet):
    """A NaN delay raises instead of reading a NaN ratio, on every path."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    with pytest.raises(ValueError, match="no NaN"):
        hom.coincidence_ratio(phi, phi, float("nan"))
    with pytest.raises(ValueError, match="no NaN"):
        hom.scan_traces(phi, [phi, phi], [-TAU, np.nan, TAU])


def test_shifted_vector_refuses_a_nan_delay(lattice, packet):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    with pytest.raises(ValueError, match="no NaN"):
        hom.shifted_ancilla_vector(phi, np.nan, 2)


@pytest.mark.parametrize("delay", [1e300, -1e300, [[1e300], [-1e300]]])
def test_shifted_vector_at_huge_delays_is_zero_without_a_warning(delay, lattice, packet):
    """Delays no envelope reaches are clipped as in scan_traces, in the
    shape they were given."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = hom.shifted_ancilla_vector(phi, delay, 3)
    assert g.shape == np.shape(delay) + (6,)
    assert not g.any()


@pytest.mark.parametrize("delay", [np.nan, np.inf, -np.inf, 1e300, -1e300])
@pytest.mark.parametrize("ratio", [hom.coincidence_ratio, hom.fock_oracle_ratio])
def test_ratios_at_non_finite_and_huge_delays(ratio, delay, lattice, packet):
    """The closed form and the oracle both refuse a NaN delay, and read no
    interference, without a warning, where the ancilla is infinitely or
    1e300 s away."""
    phi = hilbert.named_state("phi_plus", lattice, packet)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isnan(delay):
            with pytest.raises(ValueError, match="no NaN"):
                ratio(phi, phi, delay, 0.9)
        else:
            assert ratio(phi, phi, delay, 0.9) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("vis", [np.float64(0.5), np.int64(1), 1, 0, 0.25])
def test_interference_takes_numpy_and_integer_visibilities(lattice, packet, vis):
    phi = hilbert.named_state("phi_plus", lattice, packet)
    delays = np.array([-TAU, 0.0, TAU])
    want = hom.scan_trace(phi, phi, delays, float(vis))
    assert np.array_equal(hom.scan_trace(phi, phi, delays, vis), want)
    assert hom.coincidence_ratio(phi, phi, 0.0, vis) == want[1]
    assert hom.fock_oracle_ratio(phi, phi, 0.0, vis) == pytest.approx(want[1], abs=1e-9)
