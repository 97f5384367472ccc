"""Brute-force reference for one- and two-photon detector statistics.

Kept independent of the package's state engine: elements become dense
single-photon transfer matrices over the full mode list, compositions are
plain matrix products, and each two-photon output amplitude is a permanent of
a 2x2 submatrix of the transfer matrix (Scheel, quant-ph/0406127), where the
engine contracts a pair's matrix as U A U^T. Anything the engine computes can
be cross-checked against this path.

It also keeps `verify.binomial_tails`' scalar form: the tail summed one term
per loop step, which the block sum must reproduce bit for bit, and sessions
drawn one raw word at a time from the branch laws, which the session kernel
must reproduce trial for trial: scenario b's, and scenarios a and c's with
their retries searched one running sum at a time. The raw words themselves
have a reference too, philox4x64-10 in plain Python integers (`philox_words`).
"""

import math
from itertools import accumulate, permutations

import numpy as np

from sdcsim.protocol import ALPHABET, Branch, ClonePolicy, Scenario
from sdcsim.session import NoteKind, ScenarioAction


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


def permanent(matrix) -> complex:
    """The permanent of a square matrix: its determinant's sum without the signs."""
    n = len(matrix)
    return sum(math.prod(matrix[r][c] for r, c in enumerate(columns))
               for columns in permutations(range(n)))


def two_photon_amplitudes(transfer, mode_i: int, mode_j: int) -> dict[tuple[int, int], complex]:
    """Output amplitudes over unordered mode pairs (k <= l) for a†_i a†_j input.

    Each is the permanent of the transfer matrix's submatrix over output rows
    (k, l) and input columns (i, j), divided by the square roots of both
    occupations' factorials: sqrt(2) for a doubly occupied mode on either side
    (Scheel, quant-ph/0406127).
    """
    n = transfer.shape[0]
    norm_in = math.sqrt(2.0) if mode_i == mode_j else 1.0
    amps = {}
    for k in range(n):
        for l in range(k, n):
            sub = transfer[np.ix_([k, l], [mode_i, mode_j])]
            amp = permanent(sub) / (norm_in * (math.sqrt(2.0) if k == l else 1.0))
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


def tail_start(k: int, n: int, p: float, mirror: bool = True) -> tuple[float, int, int, float]:
    """Where the tail on k's side of Bin(n, p)'s mean starts, for 0 <= k <= n and
    0 < p < 1: (P(X = k), k, n, p / (1 - p)), with k and p mirrored into
    n - X ~ Bin(n, 1 - p) when k lies below the mean and 1 - p does not round to 1,
    so that it sums upward. Without `mirror`, where the sum upward from k starts,
    on either side of the mean."""
    if mirror and k < n * p and 1.0 - p < 1.0:
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


# philox4x64's multipliers, and its key increments, the fractions of the golden
# ratio and of sqrt(3) - 1 (Salmon et al., "Parallel random numbers: as easy as
# 1, 2, 3", SC'11)
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORD = 2**64 - 1


def philox4x64_10(counter, key) -> tuple[int, int, int, int]:
    """The block of four 64-bit words philox4x64 makes of a counter of four words
    and a key of two in 10 rounds: each round multiplies counter words 0 and 2 by
    PHILOX_M, crosses the halves of the products with words 1 and 3 and the key,
    and the key steps by PHILOX_W before every round but the first."""
    (c0, c1, c2, c3), (k0, k1) = counter, key
    for round_ in range(10):
        if round_:
            k0, k1 = (k0 + PHILOX_W[0]) & _WORD, (k1 + PHILOX_W[1]) & _WORD
        p0, p1 = PHILOX_M[0] * c0, PHILOX_M[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _WORD, (p0 >> 64) ^ c3 ^ k1, p0 & _WORD
    return c0, c1, c2, c3


def philox_words(seed: int, chunk: int, stream: int, count: int) -> list[int]:
    """The first `count` raw words of chunk `chunk`'s stream `stream`: word j is item
    j mod 4 of the block for counter (1 + j // 4, 0, chunk, stream) under key
    (seed, 0), since the generator steps counter word 0 before each block."""
    return [philox4x64_10((1 + j // 4, 0, chunk, stream), (seed, 0))[j % 4]
            for j in range(count)]


def _fresh(seed: int, stream: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, chunk, stream]))


def _uniform(raw: int) -> float:
    """The double `random` makes of a raw word."""
    return (raw >> 11) * 2.0**-53


def _chunk_codes(config, chunk: int, start: int, chunk_messages: int) -> list[int]:
    """The ALPHABET codes of chunk `chunk`, from message `start` on: uniform
    ones as `integers(0, 4, size, dtype=int8)` of a fresh
    Generator(Philox(key=seed, counter=(0, 0, chunk, 1))), listed ones cycled."""
    size = min(chunk_messages, config.n_messages - start)
    if config.messages == "uniform":
        return _fresh(config.seed, 1, chunk).integers(0, 4, size, dtype=np.int8).tolist()
    listed = [ALPHABET.index(m) for m in config.messages]
    return [listed[(start + i) % len(listed)] for i in range(size)]


def _pattern_index(law, u: float) -> int:
    """The index, in sorted order, of the first pattern of `law` whose running
    sum exceeds u, else the last's: the running sums accumulate the law's
    probabilities in sorted order, as `session.wiring` does."""
    running = list(accumulate(law[pattern] for pattern in sorted(law)))[:-1]
    return sum(u >= s for s in running)


def scenario_b_rows(config, bench, chunk_messages: int) -> list[int]:
    """The row code of each trial of the scenario-b session `config` on `bench`,
    drawn one message and one raw word at a time.

    It follows the scheme `session.RNG_SCHEME` states, not the kernel: chunk k
    of `chunk_messages` messages draws its uniform messages as
    `integers(0, 4, size, dtype=int8)` of a fresh
    Generator(Philox(key=seed, counter=(0, 0, k, 1))), and one raw word per
    message from a fresh one at counter (0, 0, k, 0). A word's uniform is
    u = (raw >> 11) * 2^-53, the double `random` makes of it. The message goes
    wrong when u >= p, its controlled probability; its pattern is the first,
    in sorted order, whose running sum in the message's joint law exceeds u,
    else the last: p * S_j on the controlled branch and p + (1 - p) * S_j on
    the wrong one, where S_j accumulate the branch law's probabilities in
    sorted order, as the compiled laws are summed. Every law and p come from
    `bench.encode_branches`, never from the session's wiring. The row is
    cell * width + the pattern's index, cell = 2 * message + wrong branch and
    width the most patterns of any law the session draws from.
    """
    splits = [bench.encode_branches(symbol) for symbol in ALPHABET]
    send_as_is = config.clone_policy is ClonePolicy.SEND_AS_IS
    wrong_laws = [split.resent_law if send_as_is else split.controlled_law for split in splits]
    width = max(len(law or ()) for split, wrong in zip(splits, wrong_laws)
                for law in (split.controlled_law, wrong))
    rows = []
    for chunk, start in enumerate(range(0, config.n_messages, chunk_messages)):
        codes = _chunk_codes(config, chunk, start, chunk_messages)
        words = _fresh(config.seed, 0, chunk).bit_generator.random_raw(len(codes)).tolist()
        for code, raw in zip(codes, words):
            split = splits[code]
            p = split.controlled_probability
            u = _uniform(raw)
            wrong = u >= p
            law = wrong_laws[code] if wrong else split.controlled_law
            index = 0
            if law is not None:
                running = list(accumulate(law[pattern] for pattern in sorted(law)))[:-1]
                index = sum(u >= (p + (1.0 - p) * s if wrong else p * s) for s in running)
            rows.append((2 * code + wrong) * width + index)
    return rows


def retries(u: float, p: float, stop: float = math.inf) -> int:
    """The retries a message that gets through with probability p draws at the
    uniform u, at most `stop`: the running sums of the geometric law that u
    exceeds, S_1 = p, prod *= 1 - p, S += prod, as numpy's geometric search
    builds them, searched one at a time. Where a sum stops growing the search
    stops, where numpy's would never end."""
    count, total, prod = 0, p, p
    while u > total and count < stop:
        count += 1
        prod *= 1.0 - p
        if total + prod == total:
            break
        total += prod
    return count


def scenario_ac_trials(config, bench, chunk_messages: int) -> list[tuple]:
    """Each trial of the scenario-a or -c session `config` on `bench`, drawn
    one message and one trial at a time, as its (trial, intended symbol,
    branch, action, pattern, classified outcome, note kind), None where there
    is none.

    It follows `session.RNG_SCHEME`, not the kernel: chunk k of
    `chunk_messages` messages draws its messages as `scenario_b_rows` does, and
    from a fresh Generator(Philox(key=seed, counter=(0, 0, k, 0))) first one
    raw word per message, whose uniform u draws `retries(u, p)` wrong-branch
    trials before the message's controlled one, then one raw word per trial,
    in trial order, for its pattern by `_pattern_index`. A wrong trial in
    scenario a draws from the receiver's lone photon and sends a Repeat note;
    in scenario c the pair is stopped, with no pattern, and the note is an
    Erase under `erase_notes`, else a Repeat. Every law and p come from
    `bench.encode_branches`, never from the session's wiring.
    """
    splits = [bench.encode_branches(symbol) for symbol in ALPHABET]
    lone = config.scenario is Scenario.A
    wrong = ((ScenarioAction.DISCARDED_BY_ALICE, NoteKind.REPEAT) if lone else
             (ScenarioAction.PAIR_STOPPED,
              NoteKind.ERASE if config.erase_notes else NoteKind.REPEAT))
    trials = []
    for chunk, start in enumerate(range(0, config.n_messages, chunk_messages)):
        codes = _chunk_codes(config, chunk, start, chunk_messages)
        words = _fresh(config.seed, 0, chunk).bit_generator
        attempts = []  # (message code, wrong branch), every retry before any pattern
        for code in codes:
            count = retries(_uniform(int(words.random_raw())), splits[code].controlled_probability)
            attempts += [(code, True)] * count + [(code, False)]
        for code, is_wrong in attempts:
            u = _uniform(int(words.random_raw()))
            split = splits[code]
            law = (split.lone_law if lone else None) if is_wrong else split.controlled_law
            pattern = None if law is None else sorted(law)[_pattern_index(law, u)]
            action, note = wrong if is_wrong else (ScenarioAction.SENT, None)
            trials.append((len(trials), ALPHABET[code], Branch.WRONG if is_wrong else
                           Branch.CONTROLLED, action, pattern,
                           None if pattern is None else bench.classify(pattern), note))
    return trials
