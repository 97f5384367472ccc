"""Self-verification suite: the simulator's physical invariants as checks.

Each check returns a pass/fail with a short numeric detail so the CLI can
print one line per invariant. Everything here is either exact (tolerance
1e-12 on amplitudes and probabilities) or a seeded statistical bound, so at a
fixed seed the result is deterministic and does not flap across runs.

The two statistical checks (branch_statistics, and sampling_consistency on
the kernel's own compiled psi+ table) share one rule, `in_band`: a two-sided
3-sigma binomial band. A correct program fails one with probability about
0.27%, so at a fresh seed the suite raises a false alarm about 0.5% of the
time. Both test probability 1/2; below `band_minimum(0.5)` trials no count
can leave the band, so `run_verification` refuses fewer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import capacity
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
from .session import BRANCHES, InvalidConfigError, RunConfig, run_session

EXACT_TOL = 1e-12
BAND_SIGMAS = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def in_band(count: int, n: int, p: float) -> bool:
    """Whether `count` of `n` lies within BAND_SIGMAS binomial sigmas of n*p, edge included."""
    return (count - n * p) ** 2 <= BAND_SIGMAS**2 * n * p * (1 - p)


def band_minimum(p: float) -> int:
    """The fewest trials at which a count (none or all) can leave the band of p."""
    return next(n for n in itertools.count(1) if not in_band(0, n, p) or not in_band(n, n, p))


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
    result = run_session(config, bench)
    wrong = int(np.count_nonzero(result.trials.branch == BRANCHES.index(Branch.WRONG)))
    freq = wrong / trials
    sigma = math.sqrt(0.25 / trials)
    return _check(
        "branch_statistics",
        in_band(wrong, trials, 0.5),
        f"wrong-branch freq {freq:.4f} over {trials} trials (3σ = {BAND_SIGMAS * sigma:.4f})",
    )


def check_sampling_consistency(bench, seed: int, draws: int) -> CheckResult:
    compiled = bench.compiled
    table = compiled.tables[ALPHABET.index(MessageSymbol.PSI_PLUS)]
    drawn = sample_outcome(table, np.random.default_rng(seed).random(draws))
    counts = np.bincount(drawn, minlength=len(table.outcomes)).tolist()
    counted = {compiled.patterns[code]: n for code, n in zip(table.outcomes, counts)}
    dist = bench.analyze(bench.source_emit())
    worst = 0.0
    ok = True
    for key in counted.keys() | dist.keys():
        count, prob = counted.get(key, 0), dist.get(key, 0.0)
        worst = max(worst, abs(count / draws - prob))
        ok = ok and in_band(count, draws, prob)
    return _check(
        "sampling_consistency",
        ok,
        f"max |freq - p| = {worst:.4f} over {draws} draws",
    )


def check_capacity_references(bench) -> CheckResult:
    dense = capacity.capacity_from_counts(1000, 1000, alphabet_size=3)
    ideal = capacity.capacity_from_counts(1000, 1000, alphabet_size=4)
    expected = capacity.expected_accounting(Scenario.A)
    share = expected.per_symbol[MessageSymbol.HH.value].delivered_share
    checks = [
        abs(dense.bits_per_pair - capacity.DENSE_CODING_BITS) < EXACT_TOL,
        abs(ideal.bits_per_pair - capacity.IDEAL_BITS) < EXACT_TOL,
        abs(expected.efficiency - 2.0 / 3.0) < EXACT_TOL,
        abs(expected.discard_fraction - 1.0 / 3.0) < EXACT_TOL,
        abs(share - 1.0 / 6.0) < EXACT_TOL,
        abs(expected.bits_per_pair - 1.4150) < 5e-4,
        abs(expected.rounded_reference.bits_per_pair - 1.433) < 5e-4,
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
    same = first.trials == second.trials and first.report == second.report
    return _check("seed_determinism", same, f"{len(first.trials)} trials reproduced")


def run_verification(seed: int = 20_260_810, branch_trials: int = 100_000) -> list[CheckResult]:
    """Run every invariant check.

    `branch_trials` sizes both statistical checks: the branch-statistics
    session and the sampling-consistency draws. Fewer than the band's
    minimum for probability 1/2 raises InvalidConfigError.
    """
    minimum = band_minimum(0.5)
    if branch_trials < minimum:
        raise InvalidConfigError(
            f"{branch_trials} trials is below {minimum}, the fewest at which a count "
            f"can leave the {BAND_SIGMAS}σ band of the statistical checks"
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
