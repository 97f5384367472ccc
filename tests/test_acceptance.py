"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every expected number here is either exact physics (amplitude
cancellation, disjoint supports), an analytic expectation, or a seeded
statistical bound.
"""

import math
import time

import pytest

from sdcsim.capacity import (
    capacity_from_counts,
    expected_accounting,
    total_variation_distance,
)
from sdcsim.cli import main as cli_main
from sdcsim.fock import ModeLabel, make_state
from sdcsim.protocol import (
    ALICE,
    ALPHABET,
    BOB,
    Branch,
    MessageSymbol,
    ReferenceState,
    Scenario,
    Verdict,
    default_bench,
)
from sdcsim.session import (
    ACTIONS,
    BRANCHES,
    RunConfig,
    ScenarioAction,
    bob_reconstruction,
    delivered_sequence,
    intended_stream,
    run_session,
)

EXACT = 1e-12


def note(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_01_hom_dip():
    bench = default_bench()
    pair = make_state(bench.registry, [ModeLabel(ALICE, "H"), ModeLabel(BOB, "H")])
    dist = bench.analyze(pair)
    coincidence = sum(
        p
        for pattern, p in dist.items()
        if pattern.count("aH") + pattern.count("aV") == 1
    )
    assert coincidence < EXACT
    note(1, f"HOM coincidence probability {coincidence:.2e} < 1e-12")


def test_criterion_02_perpendicular_split():
    bench = default_bench()
    pair = make_state(bench.registry, [ModeLabel(ALICE, "H"), ModeLabel(BOB, "V")])
    dist = bench.analyze(pair)
    split = sum(
        p
        for pattern, p in dist.items()
        if pattern.count("aH") + pattern.count("aV") == 1
    )
    assert abs(split - 0.5) < EXACT
    assert abs((1.0 - split) - 0.5) < EXACT
    note(2, f"perpendicular photons split {split:.12f} / bunch {1 - split:.12f}")


def test_criterion_03_exact_discrimination():
    bench = default_bench()
    for symbol in ALPHABET:
        controlled = bench.encode_branches(symbol).controlled_state
        decoded_mass = 0.0
        for pattern, prob in bench.analyze(controlled).items():
            outcome = bench.classify(pattern)
            assert outcome.verdict is Verdict.DECODED and outcome.symbol is symbol
            decoded_mass += prob
        assert abs(decoded_mass - 1.0) < EXACT
    note(3, "all four messages decode to themselves with probability 1")


def test_criterion_04_phi_pair_no_go_instance():
    bench = default_bench()
    tvd = total_variation_distance(
        bench.analyze(bench.state_for(ReferenceState.PHI_PLUS)),
        bench.analyze(bench.state_for(ReferenceState.PHI_MINUS)),
    )
    assert tvd < EXACT
    note(4, f"phi+/phi- analyzer TVD {tvd:.2e} < 1e-12")


def test_criterion_05_branch_probability():
    bench = default_bench()
    for symbol in (MessageSymbol.HH, MessageSymbol.VV):
        p = bench.encode_branches(symbol).controlled_probability
        assert abs(p - 0.5) < EXACT

    n = 100_000
    result = run_session(RunConfig(Scenario.B, n, seed=505, messages=(MessageSymbol.HH,)))
    wrong = int((result.trials.branch == BRANCHES.index(Branch.WRONG)).sum())
    sigma = math.sqrt(0.25 / n)
    assert abs(wrong / n - 0.5) < 3 * sigma
    note(
        5,
        f"branch probability exactly 1/2; empirical {wrong / n:.4f} over {n} "
        f"trials (3 sigma = {3 * sigma:.4f})",
    )


def test_criterion_06_capacity_accounting_analytic():
    acc = expected_accounting(Scenario.A)
    assert abs(acc.efficiency - 2.0 / 3.0) < EXACT
    assert abs(acc.discard_fraction - 1.0 / 3.0) < EXACT
    for symbol in ALPHABET:
        delivered = acc.per_symbol_counts[symbol.value].delivered
        assert abs(delivered / acc.pairs_consumed - 1.0 / 6.0) < EXACT
    assert abs(acc.bits_per_pair - 1.4150) < 0.0005
    assert abs(acc.rounded_reference.bits_per_pair - 1.433) < 0.0005
    # three distinguishable messages, each delivered on every pair
    dense = capacity_from_counts({symbol.value: (1000, 0, 0) for symbol in ALPHABET[:3]})
    assert abs(dense.bits_per_pair - 1.585) < 0.001
    note(
        6,
        f"uniform: sent share 1/6, discard 1/3, efficiency 2/3, "
        f"bits/pair {acc.bits_per_pair:.4f} (rounded ref "
        f"{acc.rounded_reference.bits_per_pair:.4f}), dense-coding ref "
        f"{dense.bits_per_pair:.4f}",
    )


def test_criterion_07_capacity_accounting_monte_carlo():
    start = time.perf_counter()
    result = run_session(RunConfig(Scenario.A, 40_000, seed=1))
    elapsed = time.perf_counter() - start
    efficiency = result.report.efficiency
    assert abs(efficiency - 2.0 / 3.0) <= 0.01
    assert elapsed < 10.0
    note(
        7,
        f"scenario a, 40000 uniform messages: efficiency {efficiency:.4f} "
        f"within 2/3 +/- 0.01 in {elapsed:.2f}s",
    )


@pytest.mark.parametrize("seed", [0, 7, 123456])
def test_criterion_08_scenario_b_completeness(seed):
    config = RunConfig(Scenario.B, 1500, seed=seed, classical_delay=4)
    result = run_session(config)
    assert result.report.pairs_consumed == config.n_messages
    assert bob_reconstruction(result.trials, result.notes) == intended_stream(config)
    note(8, f"seed {seed}: corrected sequence equals intended, pairs == messages")


def test_criterion_09_scenario_c_invisibility():
    config = RunConfig(Scenario.C, 3000, seed=77)
    result = run_session(config)
    trials = result.trials
    is_stopped = trials.action == ACTIONS.index(ScenarioAction.PAIR_STOPPED)
    stopped = int(is_stopped.sum())
    assert stopped > 0
    # the receiver's log holds the trials a photon reached him on: none stopped
    assert (trials.pattern[is_stopped] == -1).all()
    assert not is_stopped[trials.pattern >= 0].any()
    assert delivered_sequence(trials) == intended_stream(config)
    note(9, f"{stopped} stopped pairs left no receiver-side entries; delivery exact")


def test_criterion_10_byte_identical_outputs(tmp_path):
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.json"
        log = tmp_path / f"{tag}.csv"
        code = cli_main(
            [
                "simulate",
                "--scenario", "a",
                "--n", "1200",
                "--seed", "99",
                "--out", str(out),
                "--log", str(log),
            ]
        )
        assert code == 0
        blobs.append((out.read_bytes(), log.read_bytes()))
    assert blobs[0] == blobs[1]
    note(10, "identical config+seed reproduced report and log byte for byte")
