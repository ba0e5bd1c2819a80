"""Two-photon interference of an encoded photon against a prepared ancilla.

The encoded photon and the ancilla meet on a balanced beam splitter; the
coincidence rate between the output ports, normalized to its long-delay
value, dips by the squared overlap of the two single-photon states.  With
an interference visibility v the dip ratio is

    R(delta) = 1 - v * <psi_a(delta)| rho_e |psi_a(delta)>

where psi_a(delta) is the ancilla delayed by delta, including the Gaussian
envelope overlap factors between displaced bins.  Positive delta delays the
ancilla.

scan_traces evaluates R for a stack of ancillas over a whole delay grid in
one array pass: one envelope table for the grid, one real product for every
ancilla's shifted vectors, and the overlaps as stacked one-slice products.
scan_trace is its one-ancilla case and coincidence_ratio its one-delay case;
every path gives the same bits.

fock_oracle_ratio recomputes R by brute force in the two-photon Fock space
(explicit beam-splitter expansion over an orthonormalized mode basis) and
exists purely as a cross-check of the closed-form path.
"""

from __future__ import annotations

import numpy as np

from .hilbert import DensityMatrix, PhotonState, Wavepacket

_MODE_CAP = 32


def envelope_overlap(packet: Wavepacket, dt: float) -> float:
    """Amplitude overlap of two identical Gaussian envelopes displaced by dt.

    For the amplitude profile f(t) proportional to exp(-t^2 / (4 sigma_t^2))
    the normalized overlap integral is exp(-dt^2 / (8 sigma_t^2)): equal to 1
    at dt = 0, symmetric, and monotone decreasing in |dt|.
    """
    x = dt / packet.sigma_t
    return float(np.exp(-0.125 * x * x))


def _require_shared_envelope(encoded, ancilla) -> None:
    if encoded.lattice.tau != ancilla.lattice.tau:
        raise ValueError("encoded and ancilla must share the lattice spacing tau")
    if encoded.packet != ancilla.packet:
        raise ValueError("encoded and ancilla must share the wavepacket envelope")


def _shifted_vectors(ancillas, delay, target_bin_count: int) -> np.ndarray:
    """shifted_ancilla_vector of each of a stack of ancillas on one lattice
    and packet.  The envelope table env[k, d, j] = envelope_overlap(d +
    (k - j) tau) is built once and meets the real and imaginary amplitude
    rows of all the ancillas in one real product, bit for bit one ancilla's
    complex amps @ env: both run BLAS's multiply-add chain over the bins,
    which an elementwise sum over them does not reproduce."""
    first = ancillas[0]
    bins = first.bin_count
    d = np.asarray(delay, dtype=float)
    k = np.arange(bins)[:, None, None]
    dt = d.reshape(-1, 1) + (k - np.arange(target_bin_count)) * first.lattice.tau
    env = np.exp(-0.125 * (dt / first.packet.sigma_t) ** 2)
    amps = np.array([ancilla.as_matrix() for ancilla in ancillas])
    rows = np.concatenate([amps.real, amps.imag], axis=1).reshape(-1, bins)
    # (ancillas, re/im, polarization, delays, target bins)
    prod = (rows @ env.reshape(bins, -1)).reshape(len(amps), 2, 2, d.size, -1)
    g = np.empty((len(amps), d.size, 2, target_bin_count), dtype=complex)
    g.real = prod[:, 0].swapaxes(1, 2)
    g.imag = prod[:, 1].swapaxes(1, 2)
    return g.reshape((len(amps),) + d.shape + (-1,))


def shifted_ancilla_vector(ancilla: PhotonState, delay, target_bin_count: int) -> np.ndarray:
    """Effective amplitudes of the delayed ancilla on a target bin grid.

    g[p, j] = sum_k a[p, k] * envelope_overlap(delay + (k - j) tau), so that
    <e|g> is the two-photon interference overlap for any encoded amplitudes e
    on the same grid.  The bin counts of the two photons may differ.  A
    scalar delay gives a vector of length 2 * target_bin_count; an array of
    delays gives one such vector per delay, stacked along a leading axis.
    """
    return _shifted_vectors([ancilla], delay, target_bin_count)[0]


def state_overlap_at_delay(
    encoded: PhotonState, ancilla: PhotonState, delay: float
) -> complex:
    """Complex interference overlap between the encoded photon and the
    delayed ancilla.  Reduces to hilbert.inner_product at delay 0 when the
    bins are well resolved."""
    _require_shared_envelope(encoded, ancilla)
    g = shifted_ancilla_vector(ancilla, delay, encoded.bin_count)
    return complex(np.vdot(encoded.amplitudes, g))


def _check_visibility(vis) -> float:
    v = float(vis)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return v


def scan_traces(encoded, ancillas, delays, vis: float = 1.0) -> np.ndarray:
    """Dip ratios R(delta) of a pure or mixed encoded input against each of a
    stack of prepared ancillas on one lattice, (ancillas, delays) in grid
    order.  Each overlap is a stack of one-slice products over all (ancilla,
    delay) pairs, which run the same BLAS calls as np.vdot and M @ g at one
    delay, so every point equals the one-delay formula bit for bit; one gemv
    over the stack, or einsum, moves some points by an ulp.  The raw overlap
    is clamped to [0, 1]: envelope tails between adjacent bins can push the
    bilinear form past 1 by O(envelope_overlap(tau)^2), which is far below
    1e-12 for resolvable bins.
    """
    for ancilla in ancillas:
        _require_shared_envelope(encoded, ancilla)
    if len({ancilla.bin_count for ancilla in ancillas}) > 1:
        raise ValueError("ancillas of one scan block must share one bin count")
    v = _check_visibility(vis)
    grid = np.asarray(delays, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("delay grid must be a non-empty 1-d array")
    g = _shifted_vectors(ancillas, grid, encoded.bin_count)
    g = g.reshape(-1, g.shape[-1])
    if isinstance(encoded, DensityMatrix):
        mg = np.matmul(encoded.matrix[None], g[:, :, None])
        raw = np.matmul(g.conj()[:, None, :], mg)[:, 0, 0].real
    else:
        e = encoded.amplitudes.conj()
        z = np.matmul(g[:, None, :], e[None, :, None])[:, 0, 0]
        # abs(z) ** 2 as Python computes it: hypot, then libm pow (not x * x).
        raw = np.float_power(np.hypot(z.real, z.imag), 2.0)
    return (1.0 - v * np.clip(raw, 0.0, 1.0)).reshape(len(ancillas), grid.size)


def scan_trace(encoded, ancilla: PhotonState, delays, vis: float = 1.0) -> np.ndarray:
    """Dip ratio R(delta) over a delay grid, in grid order: the one-ancilla
    case of scan_traces."""
    return scan_traces(encoded, [ancilla], delays, vis)[0]


def coincidence_ratio(encoded, ancilla: PhotonState, delay: float, vis: float = 1.0) -> float:
    """Normalized coincidence ratio R(delay) at one delay: the one-point
    case of scan_trace."""
    return float(scan_trace(encoded, ancilla, [delay], vis)[0])


# ---------------------------------------------------------------------------
# Fock-space oracle
# ---------------------------------------------------------------------------


def fock_oracle_ratio(
    encoded: PhotonState,
    ancilla: PhotonState,
    delay: float,
    vis: float = 1.0,
) -> float:
    """Coincidence ratio from an explicit two-photon Fock computation.

    Builds the exact Gram matrix of every Gaussian temporal mode involved
    (encoded bins at j tau, ancilla bins at k tau + delay), orthonormalizes
    it, sends each photon through a balanced beam splitter, and enumerates
    two-photon Fock amplitudes over (port, mode) to get the coincidence
    probability.  Imperfect visibility enters as an extra ancilla mode
    component orthogonal to everything, with weight 1 - v.  The result is
    normalized by the distinguishable-photon limit 1/2.
    """
    _require_shared_envelope(encoded, ancilla)
    v = _check_visibility(vis)
    for state in (encoded, ancilla):
        if 2 * state.bin_count > _MODE_CAP:
            raise ValueError(
                f"state needs {2 * state.bin_count} modes, above the cap {_MODE_CAP}"
            )

    tau = encoded.lattice.tau
    sigma = encoded.packet.sigma_t
    # (polarization, arrival time) of every temporal mode, encoded arm first.
    pols = []
    times = []
    for p in range(2):
        for j in range(encoded.bin_count):
            pols.append(p)
            times.append(j * tau)
    n_enc = len(pols)
    for p in range(2):
        for k in range(ancilla.bin_count):
            pols.append(p)
            times.append(k * tau + delay)
    pols_arr = np.array(pols)
    times_arr = np.array(times)

    same_pol = pols_arr[:, None] == pols_arr[None, :]
    dt = times_arr[:, None] - times_arr[None, :]
    gram = same_pol * np.exp(-0.125 * (dt / sigma) ** 2)

    evals, evecs = np.linalg.eigh(gram)
    keep = evals > 1e-12 * evals.max()
    coords = (np.sqrt(evals[keep])[:, None]) * evecs[:, keep].conj().T

    e_full = np.concatenate([encoded.as_matrix()[0], encoded.as_matrix()[1]])
    a_full = np.concatenate([ancilla.as_matrix()[0], ancilla.as_matrix()[1]])
    phi = coords[:, :n_enc] @ e_full
    chi = coords[:, n_enc:] @ a_full
    phi = phi / np.linalg.norm(phi)
    chi = chi / np.linalg.norm(chi)

    # Mode-mismatch model of visibility: a fraction 1 - v of the ancilla
    # amplitude sits in a mode no other photon occupies.
    phi = np.append(phi, 0.0)
    chi = np.append(np.sqrt(v) * chi, np.sqrt(1.0 - v))

    # Balanced beam splitter: arm 1 -> (c + d)/sqrt2, arm 2 -> (c - d)/sqrt2.
    w_c, w_d = phi / np.sqrt(2.0), phi / np.sqrt(2.0)
    z_c, z_d = chi / np.sqrt(2.0), -chi / np.sqrt(2.0)

    # Two-photon amplitude for one photon in (c, mu) and one in (d, nu).
    amp_cd = w_c[:, None] * z_d[None, :] + z_c[:, None] * w_d[None, :]
    p_coinc = float(np.sum(np.abs(amp_cd) ** 2))

    # Bunched terms, for the completeness check only.
    def same_port(w, z):
        off = w[:, None] * z[None, :] + w[None, :] * z[:, None]
        diag = np.sqrt(2.0) * w * z
        total = 0.0
        iu = np.triu_indices(len(w), k=1)
        total += float(np.sum(np.abs(off[iu]) ** 2))
        total += float(np.sum(np.abs(diag) ** 2))
        return total

    total_prob = p_coinc + same_port(w_c, z_c) + same_port(w_d, z_d)
    if abs(total_prob - 1.0) > 1e-9:
        raise RuntimeError(
            f"two-photon Fock amplitudes are not normalized (sum {total_prob})"
        )

    return p_coinc / 0.5
