import contextlib
import dataclasses
import inspect
import io
import math
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from sdcsim import capacity, fock, protocol, session, verify
from sdcsim.cli import EXIT_CONFIG, main
from sdcsim.fock import ModeUnitary, apply_element, sample_outcome
from sdcsim.protocol import (
    ALPHABET,
    ClonePolicy,
    DetectionPattern,
    MessageSymbol,
    OpticalBench,
    Optics,
    Scenario,
    default_bench,
)
from sdcsim.session import (CHUNK_MESSAGES, InvalidConfigError, RunConfig, check_seed,
                            run_session)
from sdcsim.verify import (
    CHECK_ALARM,
    all_passed,
    band_minimum,
    binomial_tails,
    check_branch_statistics,
    check_capacity_references,
    check_sampling_consistency,
    check_signatures,
    consistent,
    hh_cell_law,
    hh_session,
    negbin_tails,
    run_verification,
    statistical_counts,
)


@pytest.fixture(scope="module")
def results():
    return run_verification(branch_trials=20_000)


def test_fresh_build_passes_every_check(results):
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failing checks: {failed}"
    assert all_passed(results)


def test_check_names_are_stable(results):
    names = [r.name for r in results]
    assert names[0] == "element_unitarity"
    assert "hom_dip" in names
    assert "phi_pair_indistinguishable" in names
    assert "capacity_references" in names
    assert names[-2:] == ["support", "seed_determinism"]
    assert len(names) == len(set(names)) == 13


def test_injected_non_unitary_fails_loudly(monkeypatch):
    suite = verify._element_suite
    with monkeypatch.context() as patch:  # an element built past its constructor's check
        patch.setattr(fock, "UNITARY_TOL", 1.0)
        plate = suite(OpticalBench())[-1]
        # Hermitian, so that the composition check applies it twice instead of
        # building its dagger, which the restored check would refuse
        injected = ModeUnitary(plate.registry, plate.target_modes,
                               np.array([[1.0, 0.1], [0.1, 1.0]]), name="injected")
    monkeypatch.setattr(verify, "_element_suite", lambda bench: [*suite(bench), injected])
    results = run_verification(branch_trials=5_000)
    unitarity = next(r for r in results if r.name == "element_unitarity")
    assert not unitarity.passed
    assert "injected" in unitarity.detail
    assert not all_passed(results)


def test_element_checks_read_the_elements_the_bench_compiled_with(monkeypatch):
    ideal = verify._element_suite(OpticalBench())
    assert [e.name for e in ideal] == [
        "BS(alice,bob)", "PBS(alice,analyzer_out_a)", "PBS(bob,analyzer_out_b)",
        "HWP(0,alice)", "HWP(45,alice)", "pol(H,alice->monitor)", "pol(V,alice->monitor)",
        "HWP(22.5,alice)",
    ]
    analyzer = (("bs",), ("hwp", 10.0), ("pbs", "alice"), ("pbs", "bob"))
    bench = OpticalBench(Optics(psi_minus=(("hwp", 30.0),), analyzer=analyzer))
    elements = verify._element_suite(bench)
    # hh's and vv's plates are equal values, so both checks read one of them
    assert [e.name for e in elements] == [
        "BS(alice,bob)", "HWP(10,alice)", "PBS(alice,analyzer_out_a)", "PBS(bob,analyzer_out_b)",
        "HWP(30,alice)", "HWP(45,alice)", "pol(H,alice->monitor)", "pol(V,alice->monitor)",
        "HWP(22.5,alice)",
    ]
    assert elements[4] is bench.compiled.encoders[ALPHABET.index(MessageSymbol.PSI_MINUS)][0]
    assert verify.check_unitarity(elements).passed
    applied = []

    def spied(state, element):
        applied.append(element)
        return apply_element(state, element)

    monkeypatch.setattr(verify, "apply_element", spied)
    assert verify.check_composition(bench, elements).passed
    # each element once, then its inverse: itself, or the beam splitter's dagger
    assert applied[0::2] == elements
    assert applied[3::2] == elements[1:]
    assert applied[1] is not elements[0]


def test_unequal_elements_that_share_a_name_are_each_checked(monkeypatch):
    bench = OpticalBench(Optics(hh=(("hwp", 45.0), ("polarizer", "H")),
                                vv=(("hwp", 45.0000001), ("polarizer", "V"))))
    encoders = bench.compiled.encoders
    hh = encoders[ALPHABET.index(MessageSymbol.HH)][0]
    vv = encoders[ALPHABET.index(MessageSymbol.VV)][0]
    assert hh.name == vv.name == "HWP(45,alice)"
    assert not np.array_equal(hh.matrix, vv.matrix)
    applied = []

    def spied(state, element):
        applied.append(element)
        return apply_element(state, element)

    monkeypatch.setattr(verify, "apply_element", spied)
    elements = verify._element_suite(bench)
    # element_unitarity reports the largest defect each element kept, over this suite
    worst = max(elements, key=lambda e: e.defect)
    unitarity = verify.check_unitarity(elements)
    assert unitarity.passed
    assert unitarity.detail == f"max ||U†U-I|| = {worst.defect:.2e} ({worst.name})"
    assert verify.check_composition(bench, elements).passed
    for plate in (hh, vv):
        assert any(element is plate for element in elements)
        assert any(element is plate for element in applied)


def _blocks(n):
    """The sizes of n trials cut into blocks of `session.BLOCK`, in order."""
    return [min(session.BLOCK, n - start) for start in range(0, n, session.BLOCK)]


def test_kernel_and_verify_draw_through_one_sampler(monkeypatch):
    calls = []

    def counting(bounds, u, out=None):
        bounds = list(bounds)  # the kernel gathers its boundaries as they are taken
        calls.append((bounds, len(u)))
        return sample_outcome(bounds, u, out)

    def outside_the_kernel(*args, **kwargs):
        raise AssertionError("sample_outcome called outside the session kernel")

    monkeypatch.setattr(session, "sample_outcome", counting)
    monkeypatch.setattr(verify, "sample_outcome", outside_the_kernel)
    monkeypatch.setattr(fock, "sample_outcome", outside_the_kernel)
    bench = OpticalBench()
    config = RunConfig(scenario=Scenario.B, n_messages=CHUNK_MESSAGES + 1, seed=3)
    run_session(config, bench)
    # once per block of each chunk's trials (one per message in scenario b):
    # the sizes, in order, tile chunk 0's trials and then chunk 1's one, each
    # stored boundary gathered per trial
    assert [n for _, n in calls] == _blocks(CHUNK_MESSAGES) + _blocks(1)
    assert all(n <= session.BLOCK for _, n in calls)
    _, _, wired, _ = session.wiring(bench.compiled, Scenario.B, ClonePolicy.SEND_AS_IS, False)
    assert all(len(bounds) == len(wired) for bounds, _ in calls)
    assert all(len(bound) == n for bounds, n in calls for bound in bounds)
    calls.clear()
    # every draw of the suite is the kernel's, a block of one of its sessions at a
    # time: the two-chunk HH session both statistical checks read, then the two
    # one-chunk scenario-a sessions of seed_determinism
    sessions = []
    run = verify.run_session

    def collecting(*args):
        sessions.append(run(*args))
        return sessions[-1]

    monkeypatch.setattr(verify, "run_session", collecting)
    assert all_passed(run_verification(seed=3, branch_trials=CHUNK_MESSAGES + 1))
    assert [r.config.scenario for r in sessions] == [Scenario.B, Scenario.A, Scenario.A]
    assert [n for _, n in calls] == (_blocks(CHUNK_MESSAGES) + _blocks(1)
                                     + _blocks(len(sessions[1].trials))
                                     + _blocks(len(sessions[2].trials)))


def test_support_refuses_a_row_the_optics_cannot_give():
    bench = default_bench()
    drawn = verify.scenario_a_session(bench, 3)
    assert verify.check_support(bench, drawn).passed
    table, row = drawn.trials.table, drawn.trials.row
    width = len(table) // (2 * len(ALPHABET))
    # a psi+ pair never goes wrong, so its wrong cell's first row has probability 0
    psi_plus_wrong = (2 * ALPHABET.index(MessageSymbol.PSI_PLUS) + 1) * width
    forged = session.Trials(np.append(row, np.int16(psi_plus_wrong)), 0, table)
    result = verify.check_support(bench, dataclasses.replace(drawn, trials=forged))
    assert not result.passed
    assert result.detail == "impossible row psi+ wrong None"
    # every row possible, but the stream's last message never sent
    short = dataclasses.replace(drawn, trials=session.Trials(row[:-1], 0, table))
    last = table.fields[row[-1]][0]
    result = verify.check_support(bench, short)
    assert not result.passed and f"{last.value} sent " in result.detail


def test_sampling_check_counts_only_the_hh_cells():
    # a tilted psi- plate widens the wiring's cells past HH's two patterns a branch:
    # HH's rows past them are -1 padding and name no cell, and no other message's
    # row is one
    bench = OpticalBench(Optics(psi_minus=(("hwp", 22.5),)))
    drawn = hh_session(bench, 3, 1_000)
    table = drawn.table
    assert len(table) > 2 * 2 * len(ALPHABET)
    assert (table.pattern[table.intended == ALPHABET.index(MessageSymbol.HH)] == -1).any()
    result = check_sampling_consistency(bench, drawn, hh_cell_law(bench))
    assert result.passed
    assert [part.split()[:2] for part in result.detail.split("; ")] == [
        ["controlled", "aH:2"], ["controlled", "bH:2"], ["wrong", "aV:2"], ["wrong", "bV:2"],
    ]
    assert all(" of 1000 (p = 0.25), " in part for part in result.detail.split("; "))


@pytest.mark.parametrize("optics", [
    Optics(psi_plus=(("hwp", 22.5),)),  # an encoded psi+ that is not the source pair
    Optics(hh=()),  # hh is sent as psi+ and never goes wrong
    Optics(psi_minus=(("hwp", 22.5),)),
], ids=["tilted-psi-plus", "hh-never-wrong", "tilted-psi-minus"])
def test_statistical_checks_hold_on_correct_perturbed_benches(optics):
    # each count is held to the law of the bench it was drawn on
    bench = OpticalBench(optics)
    drawn = hh_session(bench, 3, 100_000)
    assert check_branch_statistics(bench, drawn).passed
    assert check_sampling_consistency(bench, drawn, hh_cell_law(bench)).passed


def test_a_mis_wired_scenario_b_fails_verify(monkeypatch):
    # scenario b's send-as-is wrong branch drawn from the receiver's lone photon
    # instead of the re-emitted pair: its branch count still holds, its cells do not
    wiring = session.wiring

    def mis_wired(compiled, scenario, clone_policy, erase_notes):
        if scenario is Scenario.B:
            branches = tuple(dataclasses.replace(split, resent_law=split.lone_law)
                             for split in compiled.branches)
            compiled = dataclasses.replace(compiled, branches=branches)
        return wiring(compiled, scenario, clone_policy, erase_notes)

    monkeypatch.setattr(session, "wiring", mis_wired)
    results = run_verification(branch_trials=5_000)
    assert [r.name for r in results if not r.passed] == ["sampling_consistency"]


def test_each_law_is_analyzed_once_per_call(monkeypatch):
    # the HOM dip's two pairs, the perpendicular pair and phi+ and phi-, each once;
    # exact_discrimination, the trials minimum and sampling_consistency read the
    # compiled branch laws and analyze nothing; no memo carries one call's laws
    # into the next
    analyze = OpticalBench.analyze
    states = []

    def counting(bench, state):
        states.append(state)
        return analyze(bench, state)

    monkeypatch.setattr(OpticalBench, "analyze", counting)
    branch_states = {id(state) for split in default_bench().compiled.branches
                     for state in (split.controlled_state, split.lone_state, split.resent_state)}
    for _ in range(2):
        states.clear()
        assert all_passed(run_verification(branch_trials=5_000))
        assert len(states) == 2 + 1 + 2
        assert not {id(state) for state in states} & branch_states


@pytest.mark.parametrize("p", [0.5, 0.25, 0.01])
def test_band_minimum_is_the_first_size_a_count_can_leave(p):
    # a branch count at p and the check's rate, and a cell at half of p and a
    # quarter of that rate
    counts = ((p, CHECK_ALARM), (p / 2, CHECK_ALARM / 4))

    def can_fail(m, p, alpha):
        return any(not consistent(k, m, p, alpha) for k in range(m + 1))

    n = band_minimum(counts)
    assert all(can_fail(n, *count) for count in counts)
    assert not any(all(can_fail(m, *count) for count in counts) for m in range(1, n))


def test_band_minimum_of_the_suite():
    bench = OpticalBench()
    counts = statistical_counts(bench, hh_cell_law(bench))
    assert len(counts) == 5  # HH's wrong branches, then its four cells
    assert band_minimum(counts) == 22
    assert band_minimum(counts[1:]) == 12  # the cells alone


def _acceptance_band(n, p, alpha):
    """The fewest and the most of `n` counts that `consistent` accepts at p, each
    found by bisection on its side of the mean."""
    mean = round(n * p)
    fewest = bisect_left(range(mean + 1), True, key=lambda k: consistent(k, n, p, alpha))
    rejected = bisect_left(range(mean, n + 1), True,
                           key=lambda k: not consistent(k, n, p, alpha))
    return fewest, mean + rejected - 1


def _detected(n, p, band, power=0.99):
    """The probability above p at which a count of `n` leaves `band` with `power`."""
    fewest, most = band
    low, high = p, 1.0
    for _ in range(32):
        mid = (low + high) / 2
        leaves = binomial_tails(fewest - 1, n, mid)[0] + binomial_tails(most + 1, n, mid)[1]
        low, high = (mid, high) if leaves < power else (low, mid)
    return high


def test_readme_states_the_suites_bands_and_power():
    # the README's paragraph on `verify`, recomputed at the default trials from
    # the suite's counts and alarm split: the branch check, then one cell
    n = inspect.signature(run_verification).parameters["branch_trials"].default
    assert n == 100_000
    bench = OpticalBench()
    (branch_p, branch_alpha), (cell_p, cell_alpha), *_ = statistical_counts(
        bench, hh_cell_law(bench)
    )
    figures = []
    for p, alpha in ((branch_p, branch_alpha), (cell_p, cell_alpha)):
        fewest, most = _acceptance_band(n, p, alpha)
        sigmas = (most - n * p) / math.sqrt(n * p * (1 - p))
        # the first probability of four decimals detected with at least that power
        detected = math.ceil(_detected(n, p, (fewest, most)) * 10_000) / 10_000
        figures.append((f"{fewest:,} to {most:,}", f"±{sigmas:.2f}σ", f"{detected:.4f}"))
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    readme = " ".join(readme.split())
    (branch_band, branch_width, branch_power), (cell_band, cell_width, cell_power) = figures
    assert (
        f"the branch check accepts {branch_band} wrong branches (about {branch_width}), and "
        f"it detects a wrong-branch probability of {branch_power} instead of 1/2 with power "
        f"0.99; each cell accepts {cell_band} (about {cell_width}), and detects a cell "
        f"probability of {cell_power} instead of 1/4 with power 0.99."
    ) in readme


@pytest.mark.parametrize("p", [0.5, 1 / 3, 1 / 100, 99 / 100])
def test_binomial_tails_match_exact_sums(p):
    a, b = p.as_integer_ratio()  # p exactly, as the float it is
    for n in range(61):
        # b**n * pmf(j), an integer, so each tail below is one exact division
        weights = [math.comb(n, j) * a**j * (b - a) ** (n - j) for j in range(n + 1)]
        for k in range(-1, n + 2):
            lower, upper = sum(weights[: max(k + 1, 0)]), sum(weights[max(k, 0) :])
            exact = (Fraction(lower, b**n), Fraction(upper, b**n))
            for got, want in zip(binomial_tails(k, n, p), exact):
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0), (k, n, got, want)


@pytest.mark.parametrize("p", [0.5, 1 / 3, 1 / 100, 99 / 100])
def test_negbin_tails_match_exact_sums(p):
    q = Fraction(p)  # p exactly, as the float it is
    for m in range(9):
        # P(W = j): j failures, then the m-th success after m - 1 among the first m + j - 1
        pmf = [math.comb(m + j - 1, j) * q**m * (1 - q) ** j if m else Fraction(j == 0)
               for j in range(41)]
        for w in range(40):
            exact = (sum(pmf[: w + 1]), 1 - sum(pmf[:w]))
            for got, want in zip(negbin_tails(w, m, p), exact):
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0), (w, m, got, want)


TAIL_PROBABILITIES = (1e-9, 1 / 3, 1 / 2, 1 - 1e-9)


@st.composite
def tail_cases(draw):
    """(k, n, p): n up to 10^7; k at 0, n, the mean, within 10 sigma of it or anywhere."""
    n = draw(st.integers(1, 100) | st.integers(1, 10**7))
    p = draw(st.sampled_from(TAIL_PROBABILITIES) | st.floats(0.0, 1.0, exclude_min=True,
                                                             exclude_max=True))
    mean, sigma = n * p, math.sqrt(n * p * (1.0 - p))
    near = st.floats(-10.0, 10.0).map(lambda z: min(n, max(0, round(mean + z * sigma))))
    k = draw(st.sampled_from([0, n, round(mean)]) | near | st.integers(0, n))
    return k, n, p


@settings(max_examples=300, deadline=None)
@given(tail_cases())
@example((49984, 100_000, 0.5))  # `verify`'s three tails at its default size
@example((49950, 100_000, 0.4999999999999999))
@example((50050, 100_000, 0.4999999999999999))
# summed upward from below the mean, sized - 1, sized, sized + 1 and
# sized + TAIL_BLOCK + 1 terms, where the first block is sized = 64 + 10 sigma = 5,064
@example((498_939, 1_000_000, 0.5))
@example((498_938, 1_000_000, 0.5))
@example((498_937, 1_000_000, 0.5))
@example((496_888, 1_000_000, 0.5))
@example((6_861, 10_000, 0.5))  # a subnormal first term: the sum stops where it underflows
@example((8, 10, 0.9))  # the sum runs to j = n
def test_block_sum_is_the_scalar_sum_bit_for_bit(case):
    """Past the stop rule no term moves a sum by half an ulp, so the tails alone
    cannot see where the sum stopped; the stop, what a tail costs, is held too.
    A tail starts at or past the mean, where its first block holds every term it
    needs, so the sum upward from k on k's own side is held as well: from below
    the mean it runs through it, into the blocks after the first."""
    k, n, p = case
    assert binomial_tails(k, n, p) == oracle.binomial_tails(k, n, p)
    if 0 < p < 1:
        for start in {oracle.tail_start(k, n, p), oracle.tail_start(k, n, p, mirror=False)}:
            assert verify._outward_sum(*start) == oracle.outward_sum(*start)


def test_the_block_edge_examples_sum_what_they_name():
    n, sized, block = 1_000_000, 64 + 10 * 500, verify.TAIL_BLOCK  # sigma = 500 at p = 1/2
    examples = {sized - 1: 498_939, sized: 498_938, sized + 1: 498_937,
                sized + block + 1: 496_888}
    for terms, k in examples.items():
        first, k, n, odds = oracle.tail_start(k, n, 0.5, mirror=False)
        assert oracle.outward_sum(first, k, n, odds)[1] - k == terms


def test_branch_statistics_counts_its_session_once(monkeypatch):
    calls = []

    def counting(x, *args, **kwargs):
        calls.append(len(x))
        return bincount(x, *args, **kwargs)

    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", counting)
    trials = 3 * session.BLOCK + 1
    bench = OpticalBench()
    drawn = hh_session(bench, 5, trials)
    assert check_branch_statistics(bench, drawn).passed
    assert check_sampling_consistency(bench, drawn, hh_cell_law(bench)).passed
    # one block-wise pass over the session's trials, shared by the tally and both checks
    assert calls == _blocks(trials)


@pytest.mark.parametrize("seed", [218, 579])
def test_statistical_checks_hold_at_seeds_the_normal_band_failed(seed):
    # a two-sided 3-sigma band failed branch_statistics at 218, sampling_consistency at 579
    results = run_verification(seed=seed, branch_trials=5_000)
    assert [r.name for r in results if not r.passed] == []


def test_capacity_references_are_exact(monkeypatch):
    bench = OpticalBench()
    assert check_capacity_references(bench).passed
    expected = capacity.expected_accounting

    def off_by_3e_4(scenario, distribution=None, bench=None):
        return dataclasses.replace(expected(scenario, distribution, bench), bits_per_pair=1.4153)

    monkeypatch.setattr(capacity, "expected_accounting", off_by_3e_4)
    assert not check_capacity_references(bench).passed


def test_capacity_references_read_the_bench_they_check():
    bench = OpticalBench(Optics(hh=()))  # hh is sent as psi+ and never branches
    assert capacity.expected_accounting(Scenario.A, bench=bench).efficiency == 0.8
    result = check_capacity_references(bench)
    assert not result.passed
    assert "bits/pair=1.6781" in result.detail


def test_too_few_trials_for_the_band_is_an_invalid_configuration():
    bench = OpticalBench()
    minimum = band_minimum(statistical_counts(bench, hh_cell_law(bench)))
    with pytest.raises(InvalidConfigError, match=f"below {minimum}"):
        run_verification(branch_trials=minimum - 1)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_bad_seed_is_rejected_before_any_check_runs(seed, monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "check_unitarity", lambda elements: calls.append(elements))
    with pytest.raises(InvalidConfigError, match="seed must be an unsigned 64-bit integer"):
        run_verification(seed=seed)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["verify", "--seed", str(seed)]) == EXIT_CONFIG
    assert "seed must be an unsigned 64-bit integer" in err.getvalue()
    assert calls == []


@pytest.mark.parametrize("seed", [True, False, np.bool_(True)])
def test_a_bool_seed_is_rejected_before_any_check_runs(seed, monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "check_unitarity", lambda elements: calls.append(elements))
    with pytest.raises(InvalidConfigError, match="seed must be an unsigned 64-bit integer"):
        run_verification(seed=seed, branch_trials=5_000)
    with pytest.raises(InvalidConfigError, match="seed must be an unsigned 64-bit integer"):
        check_seed(seed)
    assert calls == []


def test_seed_does_not_change_outcomes():
    for seed in (1, 999):
        assert all_passed(run_verification(seed=seed, branch_trials=20_000))


def test_a_misread_message_fails_exact_discrimination(monkeypatch):
    bench = OpticalBench()
    classify = bench.classify

    def misread(pattern):  # every hh pattern reads as vv
        outcome = classify(pattern)
        if outcome.symbol is MessageSymbol.HH:
            return classify(DetectionPattern.of(aV=2))
        return outcome

    monkeypatch.setattr(bench, "classify", misread)
    result = verify.check_exact_discrimination(bench)
    assert not result.passed
    assert result.detail == "hh decodes with prob 0.000000000000"


def test_overlapping_signatures_fail_the_check():
    for half_waves, detail in [
        # psi- encoded like psi+ shares its detector patterns
        ((), "signatures of psi+ and psi- overlap: ['aH:1,aV:1', 'bH:1,bV:1']"),
        # a 22.5 degree plate sends psi- onto hh's and vv's patterns too
        ((22.5,), "signatures of psi- and hh overlap: ['aH:2', 'bH:2']"),
    ]:
        bench = OpticalBench(Optics(psi_minus=tuple(("hwp", angle) for angle in half_waves)))
        result = check_signatures(bench)
        assert not result.passed
        assert result.detail == detail


def test_signature_check_does_not_hide_other_errors(monkeypatch, fresh_compile_memo):
    def broken(state, analyzer):
        raise TypeError("analyzer bug")

    monkeypatch.setattr(protocol, "_analyze", broken)
    with pytest.raises(TypeError, match="analyzer bug"):
        check_signatures(OpticalBench())
