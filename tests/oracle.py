"""Brute-force reference for one- and two-photon detector statistics.

Kept independent of the package's state engine: elements become dense
single-photon transfer matrices over the full mode list, compositions are
plain matrix products, and two-photon outputs are expanded term by term over
ordered mode pairs. Anything the sparse polynomial engine computes can be
cross-checked against this path.

It also keeps `verify.binomial_tails`' scalar form: the tail summed one term
per loop step, which the block sum must reproduce bit for bit.
"""

import math

import numpy as np


def full_transfer_matrix(element, registry) -> np.ndarray:
    """Embed an element's block into the identity on the whole registry."""
    n = len(registry)
    mat = np.eye(n, dtype=complex)
    idx = [registry.index(m) for m in element.target_modes]
    for r, i in enumerate(idx):
        for c, j in enumerate(idx):
            mat[i, j] = element.matrix[r, c]
    return mat


def compose(elements, registry) -> np.ndarray:
    """Net single-photon transfer of a sequence of elements (first applied first)."""
    n = len(registry)
    total = np.eye(n, dtype=complex)
    for element in elements:
        total = full_transfer_matrix(element, registry) @ total
    return total


def one_photon_distribution(transfer, mode_in: int) -> dict[int, float]:
    """P(photon out at mode k) for one photon injected at mode_in."""
    col = transfer[:, mode_in]
    return {k: float(abs(col[k]) ** 2) for k in range(len(col)) if abs(col[k]) ** 2 > 1e-20}


def modes_of(occ) -> tuple[int, ...]:
    """The modes an occupation's photons sit in, one entry per photon, in order."""
    return tuple(i for i, n in enumerate(occ) for _ in range(n))


def state_distribution(amplitudes, transfer) -> dict[tuple[int, ...], float]:
    """Output distribution over sorted mode tuples of a one- or two-photon state,
    given as occupation -> amplitude."""
    if sum(next(iter(amplitudes))) == 1:
        vector = np.zeros(transfer.shape[1], dtype=complex)
        for occ, amp in amplitudes.items():
            vector[modes_of(occ)[0]] = amp
        out = transfer @ vector
        return {(k,): float(abs(a) ** 2) for k, a in enumerate(out) if abs(a) > 1e-14}
    terms = [(amp, *modes_of(occ)) for occ, amp in amplitudes.items()]
    return superposed_two_photon_distribution(transfer, terms)


def two_photon_amplitudes(transfer, mode_i: int, mode_j: int) -> dict[tuple[int, int], complex]:
    """Output amplitudes over unordered mode pairs (k <= l) for a†_i a†_j input.

    Input and output kets are Fock-normalized, so a doubly occupied mode picks
    up the usual sqrt(2) factors.
    """
    n = transfer.shape[0]
    coeff: dict[tuple[int, int], complex] = {}
    for k in range(n):
        for l in range(n):
            c = transfer[k, mode_i] * transfer[l, mode_j]
            if c == 0:
                continue
            key = (k, l) if k <= l else (l, k)
            coeff[key] = coeff.get(key, 0j) + c
    norm_in = math.sqrt(2.0) if mode_i == mode_j else 1.0
    amps = {}
    for (k, l), c in coeff.items():
        amp = c * (math.sqrt(2.0) if k == l else 1.0) / norm_in
        if abs(amp) > 1e-14:
            amps[(k, l)] = amp
    return amps


def two_photon_distribution(transfer, mode_i: int, mode_j: int) -> dict[tuple[int, int], float]:
    return {
        pair: float(abs(amp) ** 2)
        for pair, amp in two_photon_amplitudes(transfer, mode_i, mode_j).items()
    }


def superposed_two_photon_distribution(transfer, terms) -> dict[tuple[int, int], float]:
    """Distribution for sum of weighted two-photon inputs [(coeff, i, j), ...]."""
    amps: dict[tuple[int, int], complex] = {}
    for coeff, i, j in terms:
        for pair, amp in two_photon_amplitudes(transfer, i, j).items():
            amps[pair] = amps.get(pair, 0j) + coeff * amp
    return {pair: float(abs(a) ** 2) for pair, a in amps.items() if abs(a) > 1e-14}


def tail_start(k: int, n: int, p: float) -> tuple[float, int, int, float]:
    """Where the tail on k's side of Bin(n, p)'s mean starts, for 0 <= k <= n and
    0 < p < 1: (P(X = k), k, n, p / (1 - p)), with k and p mirrored into
    n - X ~ Bin(n, 1 - p) when k lies below the mean and 1 - p does not round to 1,
    so that it sums upward."""
    if k < n * p and 1.0 - p < 1.0:
        k, p = n - k, 1.0 - p
    log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    first = math.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))
    return first, k, n, p / (1.0 - p)


def outward_sum(first: float, k: int, n: int, odds: float) -> tuple[float, int]:
    """The tail from `first` = P(X = k) upward, one term per step, and the j it stopped at."""
    upper, term, j = first, first, k
    while term > upper * 1e-17 and j < n:
        term *= (n - j) * odds / (j + 1)
        j += 1
        upper += term
    return upper, j


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Bin(n, p), by the scalar sum."""
    if k < 0 or k > n:
        return (0.0, 1.0) if k < 0 else (1.0, 0.0)
    if p in (0.0, 1.0):
        return float(k >= n * p), float(k <= n * p)
    mirrored = k < n * p and 1.0 - p < 1.0  # as `tail_start` decides
    first, *rest = tail_start(k, n, p)
    upper, _ = outward_sum(first, *rest)
    tails = min(1.0, 1.0 - upper + first), upper
    return tails[::-1] if mirrored else tails
