import math

import numpy as np
import pytest

from sdcsim.fock import (
    CoverageError,
    ModeLabel,
    ModeRegistry,
    ModeUnitary,
    NonUnitaryError,
    OutcomeTable,
    PureState,
    RegistryError,
    apply_element,
    branch_on_modes,
    make_state,
    outcome_distribution,
    sample_outcome,
    unitarity_defect,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@pytest.fixture
def reg():
    return ModeRegistry.for_paths(["a", "b"])


@pytest.fixture
def bs(reg):
    # symmetric 50/50 splitter on the H pair only; enough for the core math
    block = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
    return ModeUnitary(reg, (ModeLabel("a", "H"), ModeLabel("b", "H")), block)


def amp(state, **occ_by_name):
    """Amplitude of the basis state given as {'a.H': 1, ...} counts."""
    want = [0] * len(state.registry)
    for name, n in occ_by_name.items():
        path, pol = name.split(".")
        want[state.registry.index(ModeLabel(path, pol))] = n
    return state.amplitudes.get(tuple(want), 0j)


class TestRegistry:
    def test_for_paths_orders_modes(self, reg):
        assert [str(m) for m in reg] == ["a.H", "a.V", "b.H", "b.V"]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(RegistryError):
            ModeRegistry([ModeLabel("a", "H"), ModeLabel("a", "H")])

    def test_unknown_label(self, reg):
        with pytest.raises(RegistryError):
            reg.index(ModeLabel("c", "H"))

    def test_bad_polarization(self):
        with pytest.raises(ValueError):
            ModeLabel("a", "D")


class TestMakeState:
    def test_single_product_ket(self, reg):
        state = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "H")])
        assert amp(state, **{"a.H": 1, "b.H": 1}) == 1.0
        assert state.photon_number == 2
        assert state.norm == pytest.approx(1.0, abs=1e-15)

    def test_double_occupation_normalized(self, reg):
        # amplitude must be exactly 1: the 1/sqrt(2!) is internal
        state = make_state(reg, [ModeLabel("a", "H"), ModeLabel("a", "H")])
        assert amp(state, **{"a.H": 2}) == 1.0
        assert state.norm == pytest.approx(1.0, abs=1e-15)

    def test_unknown_mode(self, reg):
        with pytest.raises(RegistryError):
            make_state(reg, [ModeLabel("nope", "H")])


class TestSuperpose:
    def test_bell_states(self, reg):
        from sdcsim.fock import superpose

        hv = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "V")])
        vh = make_state(reg, [ModeLabel("a", "V"), ModeLabel("b", "H")])
        psi_plus = superpose([(INV_SQRT2, hv), (INV_SQRT2, vh)])
        psi_minus = superpose([(INV_SQRT2, hv), (-INV_SQRT2, vh)])
        assert psi_plus.norm == pytest.approx(1.0, abs=1e-12)
        assert amp(psi_plus, **{"a.H": 1, "b.V": 1}) == pytest.approx(INV_SQRT2)
        assert psi_plus.fidelity(psi_minus) == pytest.approx(0.0, abs=1e-15)

    def test_identity_combination(self, reg):
        from sdcsim.fock import superpose

        hh = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "H")])
        vv = make_state(reg, [ModeLabel("a", "V"), ModeLabel("b", "V")])
        out = superpose([(1.0, hh), (0.0, vv)])
        assert out.fidelity(hh) == pytest.approx(1.0, abs=1e-15)

    def test_mixed_registries_rejected(self, reg):
        from sdcsim.fock import superpose

        other = ModeRegistry.for_paths(["a", "c"])
        with pytest.raises(RegistryError):
            superpose(
                [
                    (1.0, make_state(reg, [ModeLabel("a", "H")])),
                    (1.0, make_state(other, [ModeLabel("a", "H")])),
                ]
            )

    def test_zero_vector_rejected(self, reg):
        from sdcsim.fock import superpose

        hh = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "H")])
        with pytest.raises(ValueError):
            superpose([(1.0, hh), (-1.0, hh)])


class TestPureState:
    def test_mixed_photon_number_rejected(self, reg):
        with pytest.raises(ValueError):
            PureState(reg, {(1, 0, 0, 0): INV_SQRT2, (1, 1, 0, 0): INV_SQRT2})

    def test_prunes_tiny_amplitudes(self, reg):
        state = PureState(reg, {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1e-15})
        assert len(state.amplitudes) == 1

    def test_immutable(self, reg):
        state = make_state(reg, [ModeLabel("a", "H")])
        with pytest.raises(AttributeError):
            state.photon_number = 3


class TestModeUnitary:
    def test_rejects_non_unitary(self, reg):
        with pytest.raises(NonUnitaryError):
            ModeUnitary(
                reg,
                (ModeLabel("a", "H"), ModeLabel("a", "V")),
                np.array([[1.0, 0.1], [0.0, 1.0]]),
            )

    def test_rejects_duplicate_targets(self, reg):
        with pytest.raises(RegistryError):
            ModeUnitary(reg, (ModeLabel("a", "H"), ModeLabel("a", "H")), np.eye(2))

    def test_defect_of_identity(self):
        assert unitarity_defect(np.eye(3)) == 0.0


class TestApplyElement:
    def test_identity_matrix_is_noop(self, reg):
        ident = ModeUnitary(reg, tuple(reg.labels), np.eye(4))
        state = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "V")])
        assert apply_element(state, ident).fidelity(state) == pytest.approx(1.0, abs=1e-12)

    def test_hom_bunching(self, reg, bs):
        # two parallel photons from opposite sides: i(|2,0> + |0,2>)/sqrt(2)
        state = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "H")])
        out = apply_element(state, bs)
        assert amp(out, **{"a.H": 2}) == pytest.approx(1j * INV_SQRT2, abs=1e-12)
        assert amp(out, **{"b.H": 2}) == pytest.approx(1j * INV_SQRT2, abs=1e-12)
        assert abs(amp(out, **{"a.H": 1, "b.H": 1})) < 1e-12

    def test_single_photon_splits_evenly(self, reg, bs):
        state = make_state(reg, [ModeLabel("a", "H")])
        out = apply_element(state, bs)
        assert abs(amp(out, **{"a.H": 1})) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(amp(out, **{"b.H": 1})) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_norm_and_photon_number_preserved(self, reg, bs):
        from sdcsim.fock import superpose

        hh = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "H")])
        hv = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "V")])
        state = superpose([(0.6, hh), (0.8j, hv)])
        out = apply_element(state, bs)
        assert out.norm == pytest.approx(1.0, abs=1e-12)
        assert out.photon_number == 2

    def test_composition_with_dagger_restores(self, reg, bs):
        state = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "H")])
        back = apply_element(apply_element(state, bs), bs.dagger())
        assert back.fidelity(state) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_registry_rejected(self, reg, bs):
        other = ModeRegistry.for_paths(["a", "b", "c"])
        state = make_state(other, [ModeLabel("a", "H")])
        with pytest.raises(RegistryError):
            apply_element(state, bs)

    def test_matches_brute_force_expansion(self, reg, bs):
        import oracle

        transfer = oracle.compose([bs], reg)
        i = reg.index(ModeLabel("a", "H"))
        j = reg.index(ModeLabel("b", "H"))
        expected = oracle.two_photon_amplitudes(transfer, i, j)
        out = apply_element(
            make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "H")]), bs
        )
        for occ, amplitude in out.amplitudes.items():
            modes = [k for k, n in enumerate(occ) for _ in range(n)]
            assert expected[tuple(modes)] == pytest.approx(amplitude, abs=1e-12)
        assert len(expected) == len(out.amplitudes)


class TestOutcomeDistribution:
    def test_basis_state_is_certain(self, reg):
        state = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "H")])
        dist = outcome_distribution(state, reg.labels)
        assert dist == {(1, 0, 1, 0): pytest.approx(1.0)}

    def test_probabilities_sum_to_one(self, reg, bs):
        state = apply_element(make_state(reg, [ModeLabel("a", "H")]), bs)
        dist = outcome_distribution(state, reg.labels)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_uncovered_photon_raises(self, reg):
        state = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "V")])
        with pytest.raises(CoverageError):
            outcome_distribution(state, [ModeLabel("a", "H"), ModeLabel("a", "V")])


class TestSampleOutcome:
    def test_point_distribution(self):
        rng = np.random.default_rng(0)
        assert sample_outcome(OutcomeTable({"p": 1.0}), rng) == "p"

    def test_empirical_frequency_matches(self):
        rng = np.random.default_rng(42)
        table = OutcomeTable({"x": 0.5, "y": 0.5})
        n = 100_000
        hits = sum(sample_outcome(table, rng) == "x" for _ in range(n))
        assert abs(hits / n - 0.5) < 0.01

    def test_fixed_seed_reproducible(self):
        table = OutcomeTable({"x": 0.3, "y": 0.7})
        draws = lambda: [sample_outcome(table, np.random.default_rng(7)) for _ in range(5)]
        assert draws() == draws()

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            OutcomeTable({})

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            OutcomeTable({"x": 0.4})

    def test_inverse_cdf_over_sorted_keys(self):
        class FixedDraw:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        # the sum falls short of 1 by less than the tolerance: the last key
        # takes the remainder
        table = OutcomeTable({"z": 0.5 - 1e-10, "x": 0.25, "y": 0.25})
        assert table.outcomes == ["x", "y", "z"]
        for u, expected in ((0.0, "x"), (0.25, "y"), (0.7, "z"), (1.0 - 1e-11, "z")):
            assert sample_outcome(table, FixedDraw(u)) == expected


class TestDetect:
    def test_branches_cover_probability(self, reg, bs):
        state = apply_element(
            make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "H")]), bs
        )
        branches = branch_on_modes(state, [ModeLabel("a", "H")])
        assert sum(p for p, _ in branches.values()) == pytest.approx(1.0, abs=1e-12)
        # detecting both photons on side a leaves the vacuum
        _, remaining = branches[(2,)]
        assert remaining.photon_number == 0

    def test_detect_absorbs_photons(self, reg):
        state = make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "V")])
        branches = branch_on_modes(state, [ModeLabel("a", "H")])
        assert list(branches) == [(1,)]
        prob, remaining = branches[(1,)]
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert remaining.photon_number == 1
        assert amp(remaining, **{"b.V": 1}) == pytest.approx(1.0)
