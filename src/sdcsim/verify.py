"""Self-verification suite: the simulator's physical invariants as checks.

Each check returns a pass/fail with a short numeric detail so the CLI can
print one line per invariant. Everything here is either exact (tolerance
1e-12 on amplitudes and probabilities) or a seeded statistical bound, so at a
fixed seed the result is deterministic and does not flap across runs.

The two statistical checks (branch_statistics, and sampling_consistency on
the compiled psi+ law) share one rule, `consistent`: neither exact
binomial tail of a count may lie below half its false-alarm rate. They split
FALSE_ALARM evenly, sampling_consistency its half again over its patterns, so
a correct program fails the suite at most 1e-6 of the time, at any seed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import capacity, session
from .elements import hwp
from .fock import ModeLabel, apply_element, make_state, sample_outcome, unitarity_defect
from .protocol import (
    ALICE,
    ALPHABET,
    BOB,
    Branch,
    MessageSymbol,
    ReferenceState,
    Scenario,
    default_bench,
)
from .session import BRANCHES, InvalidConfigError, RunConfig, check_seed, run_session

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


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Bin(n, p).

    The tail on k's side of the mean is summed outward from k, each term from the last by
    their ratio, until the terms stop mattering; the other side is its complement.
    """
    if k < 0 or k > n:
        return (0.0, 1.0) if k < 0 else (1.0, 0.0)
    if p in (0.0, 1.0):
        return float(k >= n * p), float(k <= n * p)
    mirrored = k < n * p  # the lower tail of X is the upper tail of n - X ~ Bin(n, 1 - p)
    if mirrored:
        k, p = n - k, 1.0 - p
    log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    first = math.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))
    odds = p / (1.0 - p)
    upper, term, j = first, first, k
    while term > upper * 1e-17 and j < n:
        term *= (n - j) * odds / (j + 1)
        j += 1
        upper += term
    tails = min(1.0, 1.0 - upper + first), upper
    return tails[::-1] if mirrored else tails


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
def band_minimum(p: float) -> int:
    """The fewest trials at which each statistical check can fail a count of probability p."""

    def can_fail(n, alpha):
        return not (consistent(0, n, p, alpha) and consistent(n, n, p, alpha))

    alphas = (CHECK_ALARM, CHECK_ALARM / 2)  # one wrong-branch count; two psi+ patterns
    return next(n for n in itertools.count(1) if all(can_fail(n, a) for a in alphas))


def _element_suite(bench):
    reg = bench.registry
    return {
        "BS(alice,bob)": bench.bs.matrix,
        "PBS(alice,out_a)": bench.pbs_a.matrix,
        "PBS(bob,out_b)": bench.pbs_b.matrix,
        "HWP(0,alice)": bench.hwp0.matrix,
        "HWP(45,alice)": bench.hwp45.matrix,
        "HWP(22.5,alice)": hwp(reg, 22.5, ALICE).matrix,
        "pol(H)": bench.pol_pass_h.matrix,
        "pol(V)": bench.pol_pass_v.matrix,
    }


def check_unitarity(bench) -> CheckResult:
    worst_name, worst = max(
        ((name, unitarity_defect(m)) for name, m in _element_suite(bench).items()),
        key=lambda kv: kv[1],
    )
    return _check(
        "element_unitarity",
        worst < EXACT_TOL,
        f"max ||U†U-I|| = {worst:.2e} ({worst_name})",
    )


def check_hom_dip(bench) -> CheckResult:
    worst = 0.0
    for pol in ("H", "V"):
        pair = make_state(
            bench.registry, [ModeLabel(ALICE, pol), ModeLabel(BOB, pol)]
        )
        dist = bench.analyze(pair)
        coincidence = sum(
            p for pattern, p in dist.items() if pattern.count("aH") + pattern.count("aV") == 1
        )
        worst = max(worst, coincidence)
    return _check("hom_dip", worst < EXACT_TOL, f"coincidence prob = {worst:.2e}")


def check_perpendicular_split(bench) -> CheckResult:
    pair = make_state(bench.registry, [ModeLabel(ALICE, "H"), ModeLabel(BOB, "V")])
    dist = bench.analyze(pair)
    split = sum(
        p
        for pattern, p in dist.items()
        if (pattern.count("aH") + pattern.count("aV")) == 1
    )
    bunch = 1.0 - split
    err = max(abs(split - 0.5), abs(bunch - 0.5))
    return _check(
        "perpendicular_split",
        err < EXACT_TOL,
        f"split {split:.12f} / bunch {bunch:.12f}",
    )


def check_composition(bench) -> CheckResult:
    state = bench.source_emit()
    worst = 0.0
    for element in (bench.bs, bench.hwp45, bench.pbs_a):
        roundtrip = apply_element(apply_element(state, element), element.dagger())
        worst = max(worst, abs(1.0 - roundtrip.fidelity(state)))
    twice = apply_element(apply_element(state, bench.hwp0), bench.hwp0)
    worst = max(worst, abs(1.0 - twice.fidelity(state)))
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
        branches = bench.encode_branches(symbol)
        dist = bench.analyze(branches.controlled_state)
        good = sum(
            p
            for pattern, p in dist.items()
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


def check_branch_statistics(bench, seed: int, trials: int) -> CheckResult:
    config = RunConfig(
        scenario=Scenario.B,
        n_messages=trials,
        seed=seed,
        messages=(MessageSymbol.HH,),
    )
    drawn = run_session(config, bench).trials
    wrong_rows = drawn.table.branch == BRANCHES.index(Branch.WRONG)
    wrong = int(drawn.row_counts()[wrong_rows].sum())
    passed, measured = _tail_test(wrong, trials, 0.5, CHECK_ALARM)
    return _check("branch_statistics", passed, f"wrong {measured}")


def check_sampling_consistency(bench, seed: int, draws: int) -> CheckResult:
    compiled = bench.compiled
    psi_plus = ALPHABET.index(MessageSymbol.PSI_PLUS)
    # the column's boundaries: its running sums but the stack's last row, all +inf
    bounds, codes = compiled.sums[:-1, psi_plus], compiled.codes[:, psi_plus]
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(codes), dtype=np.intp)
    for start in range(0, draws, session.CHUNK_MESSAGES):  # one stream, a chunk at a time
        drawn = sample_outcome(bounds, rng.random(min(session.CHUNK_MESSAGES, draws - start)))
        counts += np.bincount(drawn, minlength=len(codes))
    counted = {compiled.patterns[c]: n for c, n in zip(codes.tolist(), counts.tolist()) if c >= 0}
    dist = bench.analyze(bench.source_emit())
    keys = sorted(counted.keys() | dist.keys(), key=str)
    alpha = CHECK_ALARM / len(keys)
    tests = [_tail_test(counted.get(key, 0), draws, dist.get(key, 0.0), alpha) for key in keys]
    return _check(
        "sampling_consistency",
        all(passed for passed, _ in tests),
        "; ".join(f"{key} {measured}" for key, (_, measured) in zip(keys, tests)),
    )


def check_capacity_references(bench) -> CheckResult:
    dense = capacity.capacity_from_counts(1000, 1000, alphabet_size=3)
    ideal = capacity.capacity_from_counts(1000, 1000, alphabet_size=4)
    expected = capacity.expected_accounting(Scenario.A, bench=bench)
    share = expected.per_symbol[MessageSymbol.HH.value].delivered_share
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


def check_seed_determinism(bench, seed: int) -> CheckResult:
    config = RunConfig(scenario=Scenario.A, n_messages=200, seed=seed)
    first = run_session(config, bench)
    second = run_session(config, bench)
    same = np.array_equal(first.trials.row, second.trials.row) and first.report == second.report
    return _check("seed_determinism", same, f"{len(first.trials)} trials reproduced")


def run_verification(seed: int = 20_260_810, branch_trials: int = 100_000) -> list[CheckResult]:
    """Run every invariant check.

    `branch_trials` sizes both statistical checks: the branch-statistics
    session and the sampling-consistency draws. A seed that is not an
    unsigned 64-bit integer, or fewer than `band_minimum(0.5)` trials, raises
    InvalidConfigError before any check runs.
    """
    check_seed(seed)
    minimum = band_minimum(0.5)
    if branch_trials < minimum:
        raise InvalidConfigError(
            f"{branch_trials} trials is below {minimum}, the fewest at which each "
            f"statistical check can fail at a false-alarm rate of {FALSE_ALARM:g}"
        )
    bench = default_bench()
    return [
        check_unitarity(bench),
        check_composition(bench),
        check_hom_dip(bench),
        check_perpendicular_split(bench),
        check_signatures(bench),
        check_exact_discrimination(bench),
        check_phi_indistinguishable(bench),
        check_branch_probability(bench),
        check_branch_statistics(bench, seed, branch_trials),
        check_sampling_consistency(bench, seed, branch_trials),
        check_capacity_references(bench),
        check_seed_determinism(bench, seed),
    ]


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
