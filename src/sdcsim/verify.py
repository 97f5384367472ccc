"""Self-verification suite: the simulator's physical invariants as checks.

Each check returns a pass/fail with a short numeric detail so the CLI can
print one line per invariant. Everything here is either exact (tolerance
1e-12 on amplitudes and probabilities) or a seeded statistical bound, so at a
fixed seed the result is deterministic and does not flap across runs.

The two statistical checks read one scenario-b session of HH messages, sent
as is, which `run_verification` draws once through the session kernel
(`hh_session`). branch_statistics counts its wrong-branch trials against the
bench's HH wrong-branch probability. sampling_consistency holds each (branch,
pattern) cell of HH in that session to its exact law (`hh_cell_law`): the
branch's probability from `encode_branches`, times the pattern's from that
branch's law of the controlled or the re-emitted pair, never the boundary
rows the kernel draws from, so a kernel wired to the wrong law fails it.
Both share one rule, `consistent`: neither exact binomial tail of a count may
lie below half its false-alarm rate. They split FALSE_ALARM evenly,
sampling_consistency its half again over its cells, so a correct program
fails the suite at most 1e-6 of the time, at any seed. support is exact: it
holds every row of one scenario-a session to the optics, and seed_determinism
draws that session again and compares.

Those checks cost their draws, not their tails, and the session's draws are
made once for both. `binomial_tails` sums a tail in numpy blocks, the first
sized to the terms the tail needs (64 + 10 sigma), whose products and
additions are the scalar loop's, in its order, so each tail is the scalar
sum's bit for bit at ~0.025 ms raw for n = 100,000 (~0.3 ms one term at a
time); `negbin_tails` is two of them.
Both checks read the row counts the session already made for the report's
tally (`Trials.row_counts`), so a session's rows are counted once. The laws
the checks read are the compiled branch laws (`EncodeBranches.controlled_law`,
`.resent_law`), analyzed once per distinct optics; each call builds HH's
cell law and the element suite once and passes them down: the `--trials`
minimum, sampling_consistency and the two element checks share them.
Nothing is kept across calls but what each element keeps of itself: the
unitarity defect its constructor measured once, when it validated it, which
element_unitarity reports.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import capacity
from .elements import hwp
# sample_outcome is not called here; perfbench's `fock.sample_outcome` span looks it up here
from .fock import ModeLabel, apply_element, make_state, sample_outcome
from .protocol import (
    ALICE,
    ALPHABET,
    BOB,
    Branch,
    DetectionPattern,
    MessageSymbol,
    ReferenceState,
    Scenario,
    default_bench,
)
from .session import (ACTIONS, BRANCHES, InvalidConfigError, RunConfig, ScenarioAction,
                      SessionResult, Trials, check_seed, intended_stream, run_session)

EXACT_TOL = 1e-12
FALSE_ALARM = 1e-6
CHECK_ALARM = FALSE_ALARM / 2  # each statistical check's share


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# Terms per block of a tail's sum after its first, which `_outward_sum` sizes to
# the tail (64 + 10 sigma terms), so that no real tail needs a second block.
TAIL_BLOCK = 2048


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Bin(n, p).

    The tail on k's side of the mean is summed outward from k, each term from the last by
    their ratio, until the terms stop mattering; the other side is its complement. The sum
    runs in numpy blocks (`_outward_sum`), which make the scalar loop's products and
    additions in its order, so each tail is the scalar sum's bit for bit, at ~0.025 ms
    raw for n = 100,000.
    """
    if k < 0 or k > n:
        return (0.0, 1.0) if k < 0 else (1.0, 0.0)
    if p in (0.0, 1.0):
        return float(k >= n * p), float(k <= n * p)
    # the lower tail of X is the upper tail of n - X ~ Bin(n, 1 - p), unless 1 - p
    # rounds to 1 (p at most 2^-54), where k < n * p leaves only k = 0 to sum up from
    mirrored = k < n * p and 1.0 - p < 1.0
    if mirrored:
        k, p = n - k, 1.0 - p
    log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    first = math.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))
    upper, _ = _outward_sum(first, k, n, p / (1.0 - p))
    tails = min(1.0, 1.0 - upper + first), upper
    return tails[::-1] if mirrored else tails


def _outward_sum(first: float, k: int, n: int, odds: float) -> tuple[float, int]:
    """The sum of P(X = j) for j from k up, where X ~ Bin(n, p) and `first` is P(X = k),
    and the j it stops at: the first whose term no longer exceeds the running sum times
    1e-17 (past it no term moves the sum), or n.

    It is the scalar loop `term *= (n - j) * odds / (j + 1); j += 1; upper += term`, run
    while `term > upper * 1e-17 and j < n`, a block at a time: `multiply.accumulate` and
    `add.accumulate` (`cumprod`, `cumsum`) are sequential left folds, seeded with the
    running term and sum, so each product and each addition is the loop's, in its order
    (`np.sum`, which adds pairwise, would not be). The first block holds 64 + 10 sigma
    terms, sigma^2 = n * odds / (1 + odds)^2 = n p (1 - p): a tail that starts at or past
    the mean stops within about 9 sigma of it, or a few dozen terms where sigma is small,
    so one block sums it. Any later block holds TAIL_BLOCK terms.
    """
    upper, term, j = first, first, k
    size = 64 + int(10.0 * math.sqrt(n * odds) / (1.0 + odds))
    while term > upper * 1e-17 and j < n:
        size = min(size, n - j)
        terms = np.empty(size + 1)  # the running term, then this block's
        terms[0] = term
        # each ratio (n - j) * odds / (j + 1), its integers exact as floats below 2^53
        np.multiply(np.arange(n - j, n - j - size, -1.0), odds, out=terms[1:])
        terms[1:] /= np.arange(j + 1.0, j + size + 1.0)
        np.multiply.accumulate(terms, out=terms)
        sums = terms.copy()
        sums[0] = upper
        np.add.accumulate(sums, out=sums)
        # the first term that stops the sum; the loop's own test passed at index 0, so
        # argmin reads 0 only if every term in the block mattered
        stop = int(np.argmin(terms > sums * 1e-17))
        if stop:
            return float(sums[stop]), j + stop
        term, upper, j, size = terms[-1], float(sums[-1]), j + size, TAIL_BLOCK
    return upper, j


def negbin_tails(w: int, m: int, p: float) -> tuple[float, float]:
    """(P(W <= w), P(W >= w)) for W, the failures before the m-th success of trials
    that each succeed with probability p.

    W <= w when the first m + w trials hold at least m successes, and W >= w when the
    first m + w - 1 hold at most m - 1, so both are `binomial_tails`.
    """
    lower = binomial_tails(m, m + w, p)[1]
    upper = 1.0 if w == 0 else binomial_tails(m - 1, m + w - 1, p)[0]
    return lower, upper


def _tail_test(count: int, n: int, p: float, alpha: float) -> tuple[bool, str]:
    """Whether neither binomial tail of `count` of `n` lies below alpha / 2, and the figures."""
    smaller, bound = min(binomial_tails(count, n, p)), alpha / 2
    held = ">=" if smaller >= bound else "<"
    detail = f"{count} of {n} (p = {p:.6g}), smaller tail {smaller:.2g} {held} {bound:.3g}"
    return smaller >= bound, detail


def consistent(count: int, n: int, p: float, alpha: float) -> bool:
    """Whether `count` of `n` is consistent with Bin(n, p) at false-alarm rate alpha."""
    return _tail_test(count, n, p, alpha)[0]


@functools.cache
def band_minimum(counts: tuple[tuple[float, float], ...]) -> int:
    """The fewest trials at which each of `counts`, a count's (probability,
    false-alarm rate), can fail its test."""

    def can_fail(n, p, alpha):
        return not (consistent(0, n, p, alpha) and consistent(n, n, p, alpha))

    return next(n for n in itertools.count(1) if all(can_fail(n, *count) for count in counts))


def statistical_counts(bench, law: dict) -> tuple[tuple[float, float], ...]:
    """Each count the statistical checks hold on `bench`, as (probability,
    false-alarm rate): HH's wrong branches, then each cell of `law`, its
    `hh_cell_law`."""
    wrong = bench.encode_branches(MessageSymbol.HH).wrong_probability
    return ((wrong, CHECK_ALARM), *((p, CHECK_ALARM / len(law)) for p in law.values()))


@functools.lru_cache(maxsize=8)
def _tilted_plate(registry):
    """A plate at 22.5 degrees, which no ideal element is, built once per registry."""
    return hwp(registry, 22.5, ALICE)


def _element_suite(bench) -> list:
    """The elements `bench` compiled with (the analyzer's, then each encoder's),
    then a plate at 22.5 degrees, each distinct element once, in that order.

    Elements are told apart by their target modes and matrix, not by name: two
    equal plates are one, and two plates that differ past the digits their
    names show are two.
    """
    compiled = bench.compiled
    distinct = {}
    for element in (*compiled.analyzer, *itertools.chain(*compiled.encoders),
                    _tilted_plate(bench.registry)):
        distinct.setdefault((element.target_modes, element.matrix.tobytes()), element)
    return list(distinct.values())


def check_unitarity(elements: list) -> CheckResult:
    """The largest unitarity defect among `elements`: each one's `defect`, which its
    constructor measured on the same read-only matrix, so it is not measured again."""
    worst_name, worst = max(((e.name, e.defect) for e in elements), key=lambda kv: kv[1])
    return _check(
        "element_unitarity",
        worst < EXACT_TOL,
        f"max ||U†U-I|| = {worst:.2e} ({worst_name})",
    )


def _coincidence(bench, alice: str, bob: str) -> float:
    """P(one photon per analyzer arm) for a pair of these polarizations on alice and bob."""
    pair = make_state(bench.registry, [ModeLabel(ALICE, alice), ModeLabel(BOB, bob)])
    return sum(p for pattern, p in bench.analyze(pair).items()
               if pattern.count("aH") + pattern.count("aV") == 1)


def check_hom_dip(bench) -> CheckResult:
    worst = max(_coincidence(bench, pol, pol) for pol in "HV")
    return _check("hom_dip", worst < EXACT_TOL, f"coincidence prob = {worst:.2e}")


def check_perpendicular_split(bench) -> CheckResult:
    split = _coincidence(bench, "H", "V")
    bunch = 1.0 - split
    err = max(abs(split - 0.5), abs(bunch - 0.5))
    return _check(
        "perpendicular_split",
        err < EXACT_TOL,
        f"split {split:.12f} / bunch {bunch:.12f}",
    )


def check_composition(bench, elements: list) -> CheckResult:
    state = bench.source_emit()
    worst = 0.0
    for element in elements:
        # a Hermitian unitary (a plate, a PBS, a polarizer) is its own inverse
        hermitian = np.array_equal(element.matrix, element.matrix.conj().T)
        roundtrip = apply_element(apply_element(state, element),
                                  element if hermitian else element.dagger())
        worst = max(worst, abs(1.0 - roundtrip.fidelity(state)))
    return _check("composition_inverse", worst < EXACT_TOL, f"max fidelity defect = {worst:.2e}")


def check_signatures(bench) -> CheckResult:
    table = bench.signature_table()
    for a, b in itertools.combinations(ALPHABET, 2):
        overlap = table[a] & table[b]
        if overlap:
            return _check(
                "signature_disjointness",
                False,
                f"signatures of {a.value} and {b.value} overlap: {sorted(map(str, overlap))}",
            )
    n_patterns = sum(len(s) for s in table.values())
    return _check(
        "signature_disjointness",
        True,
        f"4 disjoint signatures, {n_patterns} patterns",
    )


def check_exact_discrimination(bench) -> CheckResult:
    for symbol in ALPHABET:
        good = sum(
            p
            for pattern, p in bench.encode_branches(symbol).controlled_law.items()
            if bench.classify(pattern).symbol is symbol
        )
        if abs(good - 1.0) > EXACT_TOL:
            return _check(
                "exact_discrimination",
                False,
                f"{symbol.value} decodes with prob {good:.12f}",
            )
    return _check("exact_discrimination", True, "all four messages decode with prob 1")


def check_phi_indistinguishable(bench) -> CheckResult:
    tvd = capacity.total_variation_distance(
        bench.analyze(bench.state_for(ReferenceState.PHI_PLUS)),
        bench.analyze(bench.state_for(ReferenceState.PHI_MINUS)),
    )
    return _check("phi_pair_indistinguishable", tvd < EXACT_TOL, f"TVD = {tvd:.2e}")


def check_branch_probability(bench) -> CheckResult:
    worst = 0.0
    for symbol in (MessageSymbol.HH, MessageSymbol.VV):
        p = bench.encode_branches(symbol).controlled_probability
        worst = max(worst, abs(p - 0.5))
    return _check("branch_probability_exact", worst < EXACT_TOL, f"|p - 1/2| = {worst:.2e}")


def hh_session(bench, seed: int, trials: int) -> Trials:
    """`trials` HH messages of scenario b, sent as is: the session both statistical
    checks read, one trial per message."""
    config = RunConfig(scenario=Scenario.B, n_messages=trials, seed=seed,
                       messages=(MessageSymbol.HH,))
    return run_session(config, bench).trials


def hh_cell_law(bench) -> dict[tuple[Branch, DetectionPattern], float]:
    """P(branch, pattern) of one HH message of scenario b, sent as is, from the optics:
    the branch's probability from `encode_branches`, times the pattern's from its
    branch laws, the analyzer's laws of the controlled pair and of the pair re-emitted
    on a click. A message that never goes wrong has no re-emitted pair, so its wrong
    cells have probability 0."""
    split = bench.encode_branches(MessageSymbol.HH)
    branches = ((Branch.CONTROLLED, split.controlled_probability, split.controlled_law),
                (Branch.WRONG, split.wrong_probability, split.resent_law))
    return {(branch, pattern): p * q
            for branch, p, law in branches if law is not None
            for pattern, q in law.items()}


def check_branch_statistics(bench, drawn: Trials) -> CheckResult:
    wrong_rows = drawn.table.branch == BRANCHES.index(Branch.WRONG)
    wrong = int(drawn.row_counts()[wrong_rows].sum())
    p = bench.encode_branches(MessageSymbol.HH).wrong_probability
    passed, measured = _tail_test(wrong, len(drawn), p, CHECK_ALARM)
    return _check("branch_statistics", passed, f"wrong {measured}")


def check_sampling_consistency(bench, drawn: Trials, law: dict) -> CheckResult:
    """Each (branch, pattern) cell of HH in `drawn`, one row of its table, held to
    `law`, its `hh_cell_law`; a cell the law gives and the table lacks counts 0, and a
    row of pattern code -1 (padding past a law's last outcome, or a stopped pair) is
    none."""
    table, counts = drawn.table, drawn.row_counts()
    rows = np.flatnonzero((table.intended == ALPHABET.index(MessageSymbol.HH))
                          & (table.pattern >= 0))
    counted = {
        (BRANCHES[branch], table.patterns[pattern]): n
        for branch, pattern, n in zip(table.branch[rows].tolist(), table.pattern[rows].tolist(),
                                      counts[rows].tolist())
    }
    cells = sorted(counted.keys() | law.keys(), key=lambda cell: (cell[0].value, str(cell[1])))
    alpha = CHECK_ALARM / len(cells)
    tests = [_tail_test(counted.get(cell, 0), len(drawn), law.get(cell, 0.0), alpha)
             for cell in cells]
    return _check(
        "sampling_consistency",
        all(passed for passed, _ in tests),
        "; ".join(f"{branch.value} {pattern} {measured}"
                  for (branch, pattern), (_, measured) in zip(cells, tests)),
    )


def check_capacity_references(bench) -> CheckResult:
    # every pair delivers: three symbols give dense coding's log2 3, four give 2 bits
    dense = capacity.capacity_from_counts({s.value: (1000, 0, 0) for s in ALPHABET[:3]})
    ideal = capacity.capacity_from_counts({s.value: (1000, 0, 0) for s in ALPHABET})
    expected = capacity.expected_accounting(Scenario.A, bench=bench)
    share = expected.per_symbol_counts["hh"].delivered / expected.pairs_consumed
    checks = [
        abs(dense.bits_per_pair - capacity.DENSE_CODING_BITS) < EXACT_TOL,
        abs(ideal.bits_per_pair - capacity.IDEAL_BITS) < EXACT_TOL,
        abs(expected.efficiency - 2.0 / 3.0) < EXACT_TOL,
        abs(expected.discard_fraction - 1.0 / 3.0) < EXACT_TOL,
        abs(share - 1.0 / 6.0) < EXACT_TOL,
        abs(expected.bits_per_pair - math.log2(8 / 3)) < EXACT_TOL,
        abs(expected.rounded_reference.bits_per_pair - math.log2(2.7)) < EXACT_TOL,
    ]
    return _check(
        "capacity_references",
        all(checks),
        f"log2(3)={dense.bits_per_pair:.4f}, uniform bits/pair="
        f"{expected.bits_per_pair:.4f} (rounded ref {expected.rounded_reference.bits_per_pair:.4f})",
    )


def scenario_a_session(bench, seed: int) -> SessionResult:
    """200 uniform messages of scenario a: the session support and seed_determinism read."""
    return run_session(RunConfig(scenario=Scenario.A, n_messages=200, seed=seed), bench)


def check_support(bench, drawn: SessionResult) -> CheckResult:
    """Exact: every row the scenario-a session `drawn` holds is possible, and each
    message is sent as often as the intended stream holds it.

    A row's probability is its branch's, from `encode_branches`, times its pattern's
    in that branch's law: the controlled pair's, or on the wrong branch the
    receiver's lone photon's. No probability comes from the wiring.
    """
    trials, splits = drawn.trials, [bench.encode_branches(symbol) for symbol in ALPHABET]
    rows = np.flatnonzero(trials.row_counts()).tolist()
    failures = []
    for message, branch, _, pattern, _, _ in (trials.table.fields[row] for row in rows):
        split = splits[ALPHABET.index(message)]
        p, law = ((split.wrong_probability, split.lone_law) if branch is Branch.WRONG
                  else (split.controlled_probability, split.controlled_law))
        if not p * (law or {}).get(pattern, 0.0) > 0.0:
            failures.append(f"impossible row {message.value} {branch.value} {pattern}")
    stream = intended_stream(drawn.config)
    sent = trials.tally()[:, ACTIONS.index(ScenarioAction.SENT)].tolist()
    failures += [f"{m.value} sent {n} of {stream.count(m)}"
                 for m, n in zip(ALPHABET, sent) if n != stream.count(m)]
    return _check("support", not failures, "; ".join(failures)
                  or f"{len(rows)} distinct rows, each possible; each message sent as intended")


def check_seed_determinism(bench, first: SessionResult) -> CheckResult:
    second = run_session(first.config, bench)
    same = np.array_equal(first.trials.row, second.trials.row) and first.report == second.report
    return _check("seed_determinism", same, f"{len(first.trials)} trials reproduced")


def run_verification(seed: int = 20_260_810, branch_trials: int = 100_000) -> list[CheckResult]:
    """Run every invariant check.

    `branch_trials` sizes the one session both statistical checks read: that
    many HH messages of scenario b, drawn once per call (`hh_session`). A seed
    that is not an unsigned 64-bit integer, or fewer trials than the fewest at
    which each of their counts can fail (`band_minimum` of
    `statistical_counts`), raises InvalidConfigError before any check runs.

    Each call builds HH's cell law once, from its compiled branch laws, the
    element suite once, and draws the scenario-a session of support and
    seed_determinism once, and passes each to the checks that read it;
    nothing is kept across calls but each element's own defect, measured when
    it was validated, so every call does the rest of the suite's work.
    """
    check_seed(seed)
    bench = default_bench()
    cell_law = hh_cell_law(bench)
    minimum = band_minimum(statistical_counts(bench, cell_law))
    if branch_trials < minimum:
        raise InvalidConfigError(
            f"{branch_trials} trials is below {minimum}, the fewest at which each "
            f"statistical check can fail at a false-alarm rate of {FALSE_ALARM:g}"
        )
    drawn = hh_session(bench, seed, branch_trials)
    retried = scenario_a_session(bench, seed)
    elements = _element_suite(bench)
    return [
        check_unitarity(elements),
        check_composition(bench, elements),
        check_hom_dip(bench),
        check_perpendicular_split(bench),
        check_signatures(bench),
        check_exact_discrimination(bench),
        check_phi_indistinguishable(bench),
        check_branch_probability(bench),
        check_branch_statistics(bench, drawn),
        check_sampling_consistency(bench, drawn, cell_law),
        check_capacity_references(bench),
        check_support(bench, retried),
        check_seed_determinism(bench, retried),
    ]


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
