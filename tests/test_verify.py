import numpy as np
import pytest

from sdcsim import session, verify
from sdcsim.fock import sample_outcome
from sdcsim.protocol import ALPHABET, MessageSymbol, OpticalBench, Scenario
from sdcsim.session import CHUNK_MESSAGES, InvalidConfigError, RunConfig, run_session
from sdcsim.verify import (
    all_passed,
    band_minimum,
    check_sampling_consistency,
    check_signatures,
    in_band,
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

    def counting(table, u):
        calls.append(table)
        return sample_outcome(table, u)

    monkeypatch.setattr(session, "sample_outcome", counting)
    monkeypatch.setattr(verify, "sample_outcome", counting)
    bench = OpticalBench()
    tables = bench.compiled.tables
    config = RunConfig(scenario=Scenario.B, n_messages=CHUNK_MESSAGES + 1, seed=3)
    run_session(config, bench)
    assert calls == [*tables, *tables]  # once per table per chunk
    calls.clear()
    check_sampling_consistency(bench, seed=3, draws=1_000)
    assert calls == [tables[ALPHABET.index(MessageSymbol.PSI_PLUS)]]


@pytest.mark.parametrize("p", [0.5, 0.25, 0.01])
def test_band_minimum_is_the_first_size_a_count_can_leave(p):
    n = band_minimum(p)
    assert not (in_band(0, n, p) and in_band(n, n, p))
    assert all(in_band(k, m, p) for m in range(1, n) for k in range(m + 1))


def test_too_few_trials_for_the_band_is_an_invalid_configuration():
    minimum = band_minimum(0.5)
    with pytest.raises(InvalidConfigError, match=f"below {minimum}"):
        run_verification(branch_trials=minimum - 1)


def test_seed_does_not_change_outcomes():
    for seed in (1, 999):
        assert all_passed(run_verification(seed=seed, branch_trials=20_000))


def test_overlapping_signatures_fail_the_check(monkeypatch):
    bench = OpticalBench()
    # psi- encoded like psi+ shares its detector patterns
    monkeypatch.setitem(bench.encoder, MessageSymbol.PSI_MINUS, ())
    result = check_signatures(bench)
    assert not result.passed
    assert "psi+ and psi- overlap" in result.detail and "aH:1,aV:1" in result.detail


def test_signature_check_does_not_hide_other_errors(monkeypatch):
    bench = OpticalBench()

    def broken(state):
        raise TypeError("analyzer bug")

    monkeypatch.setattr(bench, "analyze", broken)
    with pytest.raises(TypeError, match="analyzer bug"):
        check_signatures(bench)
