import numpy as np
import pytest

from sdcsim.protocol import MessageSymbol, OpticalBench
from sdcsim.verify import all_passed, check_signatures, run_verification


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


def test_injected_non_unitary_fails_loudly():
    bad = {"injected": np.array([[1.0, 0.1], [0.0, 1.0]])}
    results = run_verification(branch_trials=5_000, extra_matrices=bad)
    unitarity = next(r for r in results if r.name == "element_unitarity")
    assert not unitarity.passed
    assert "injected" in unitarity.detail
    assert not all_passed(results)


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
