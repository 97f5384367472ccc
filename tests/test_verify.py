import contextlib
import dataclasses
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from sdcsim import capacity, protocol, session, verify
from sdcsim.cli import EXIT_CONFIG, main
from sdcsim.elements import hwp
from sdcsim.fock import sample_outcome
from sdcsim.protocol import ALICE, ALPHABET, MessageSymbol, OpticalBench, Scenario
from sdcsim.session import CHUNK_MESSAGES, InvalidConfigError, RunConfig, run_session
from sdcsim.verify import (
    CHECK_ALARM,
    all_passed,
    band_minimum,
    binomial_tails,
    check_capacity_references,
    check_sampling_consistency,
    check_signatures,
    consistent,
    run_verification,
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
    assert len(names) == len(set(names))


def test_injected_non_unitary_fails_loudly(monkeypatch):
    suite = verify._element_suite

    def with_defect(bench):
        return {**suite(bench), "injected": np.array([[1.0, 0.1], [0.0, 1.0]])}

    monkeypatch.setattr(verify, "_element_suite", with_defect)
    results = run_verification(branch_trials=5_000)
    unitarity = next(r for r in results if r.name == "element_unitarity")
    assert not unitarity.passed
    assert "injected" in unitarity.detail
    assert not all_passed(results)


def test_kernel_and_verify_draw_through_one_sampler(monkeypatch):
    calls = []

    def counting(bounds, u, out=None):
        bounds = list(bounds)  # the kernel gathers its boundaries as they are taken
        calls.append((bounds, len(u)))
        return sample_outcome(bounds, u, out)

    monkeypatch.setattr(session, "sample_outcome", counting)
    monkeypatch.setattr(verify, "sample_outcome", counting)
    bench = OpticalBench()
    config = RunConfig(scenario=Scenario.B, n_messages=CHUNK_MESSAGES + 1, seed=3)
    run_session(config, bench)
    # once per chunk, for every trial of it (one per message in scenario b),
    # each boundary but the stack's last gathered per trial
    assert [n for _, n in calls] == [CHUNK_MESSAGES, 1]
    width = len(bench.compiled.sums)
    assert all(len(bounds) == width - 1 for bounds, _ in calls)
    assert all(len(bound) == n for bounds, n in calls for bound in bounds)
    calls.clear()
    # one stream, drawn a chunk at a time from the compiled psi+ column's boundaries
    check_sampling_consistency(bench, seed=3, draws=CHUNK_MESSAGES + 1)
    psi_plus = bench.compiled.sums[:-1, ALPHABET.index(MessageSymbol.PSI_PLUS)]
    assert [n for _, n in calls] == [CHUNK_MESSAGES, 1]
    assert all(np.array_equal(bounds, psi_plus) for bounds, _ in calls)


def test_sampling_check_counts_only_the_psi_plus_patterns():
    # a tilted psi- plate widens the compiled stack past psi+'s two patterns;
    # the -1 padding of psi+'s column names no pattern
    bench = OpticalBench()
    bench.encoder[MessageSymbol.PSI_MINUS] = (hwp(bench.registry, 22.5, ALICE),)
    assert len(bench.compiled.codes) > 2
    result = check_sampling_consistency(bench, seed=3, draws=1_000)
    assert result.passed
    assert [part.split()[0] for part in result.detail.split("; ")] == ["aH:1,aV:1", "bH:1,bV:1"]


@pytest.mark.parametrize("p", [0.5, 0.25, 0.01])
def test_band_minimum_is_the_first_size_a_count_can_leave(p):
    # the branch check's rate, and each of the sampling check's two patterns'
    alphas = (CHECK_ALARM, CHECK_ALARM / 2)

    def can_fail(m, alpha):
        return any(not consistent(k, m, p, alpha) for k in range(m + 1))

    n = band_minimum(p)
    assert all(can_fail(n, alpha) for alpha in alphas)
    assert not any(all(can_fail(m, alpha) for alpha in alphas) for m in range(1, n))


def test_band_minimum_of_the_suite():
    assert band_minimum(0.5) == 23  # 22 for the branch check alone


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
    bench = OpticalBench()
    bench.encoder[MessageSymbol.HH] = ()  # hh is sent as psi+ and never branches
    assert capacity.expected_accounting(Scenario.A, bench=bench).efficiency == 0.8
    result = check_capacity_references(bench)
    assert not result.passed
    assert "bits/pair=1.6781" in result.detail


def test_too_few_trials_for_the_band_is_an_invalid_configuration():
    minimum = band_minimum(0.5)
    with pytest.raises(InvalidConfigError, match=f"below {minimum}"):
        run_verification(branch_trials=minimum - 1)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_bad_seed_is_rejected_before_any_check_runs(seed, monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "check_unitarity", lambda bench: calls.append(bench))
    with pytest.raises(InvalidConfigError, match="seed must be an unsigned 64-bit integer"):
        run_verification(seed=seed)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["verify", "--seed", str(seed)]) == EXIT_CONFIG
    assert "seed must be an unsigned 64-bit integer" in err.getvalue()
    assert calls == []


def test_seed_does_not_change_outcomes():
    for seed in (1, 999):
        assert all_passed(run_verification(seed=seed, branch_trials=20_000))


def test_overlapping_signatures_fail_the_check():
    for half_waves, detail in [
        # psi- encoded like psi+ shares its detector patterns
        ((), "signatures of psi+ and psi- overlap: ['aH:1,aV:1', 'bH:1,bV:1']"),
        # a 22.5 degree plate sends psi- onto hh's and vv's patterns too
        ((22.5,), "signatures of psi- and hh overlap: ['aH:2', 'bH:2']"),
    ]:
        bench = OpticalBench()
        encoder = tuple(hwp(bench.registry, angle, ALICE) for angle in half_waves)
        bench.encoder[MessageSymbol.PSI_MINUS] = encoder
        result = check_signatures(bench)
        assert not result.passed
        assert result.detail == detail


def test_signature_check_does_not_hide_other_errors(monkeypatch, fresh_compile_memo):
    def broken(state, analyzer, detectors):
        raise TypeError("analyzer bug")

    monkeypatch.setattr(protocol, "_analyze", broken)
    with pytest.raises(TypeError, match="analyzer bug"):
        check_signatures(OpticalBench())
