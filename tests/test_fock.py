import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcsim.fock import (
    CoverageError,
    ModeLabel,
    ModeRegistry,
    ModeUnitary,
    NonUnitaryError,
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


def stacked_column(probs):
    """A law's running sums as a column of a stack laid out like `CompiledBench.sums`:
    without the last sum, then +inf down to a width wider than the law."""
    stack = np.full((len(probs) + 2, 3), np.inf)
    stack[: len(probs) - 1, 1] = np.cumsum(probs)[:-1]
    return stack[:, 1]


# the two layouts the sampler reads: a law's running sums, and its column of a stack
LAYOUTS = (np.cumsum, stacked_column)


class TestSampleOutcome:
    def test_point_distribution(self):
        for sums in (layout([1.0]) for layout in LAYOUTS):
            assert sample_outcome(sums, 0.0) == 0
            assert sample_outcome(sums, 1.0 - 1e-16) == 0

    def test_empirical_frequency_matches(self):
        n = 100_000
        u = np.random.default_rng(42).random(n)
        for sums in (layout([0.5, 0.5]) for layout in LAYOUTS):
            assert abs(np.count_nonzero(sample_outcome(sums, u) == 0) / n - 0.5) < 0.01

    def test_fixed_seed_reproducible(self):
        for sums in (layout([0.3, 0.7]) for layout in LAYOUTS):
            draws = lambda: sample_outcome(sums, np.random.default_rng(7).random(5)).tolist()
            assert draws() == draws()

    def test_inverse_cdf_over_sorted_keys(self):
        # the sum falls short of 1 by less than the tolerance: the last key
        # takes the remainder
        law = {"z": 0.5 - 1e-10, "x": 0.25, "y": 0.25}
        keys = sorted(law)
        cumulative = np.cumsum([law[key] for key in keys])

        def scalar_rule(u):
            for key, c in zip(keys, cumulative):
                if u < c:
                    return key
            return keys[-1]

        # every running sum, the floats either side of it, and u >= the last sum
        probes = [0.0, 1.0 - 1e-11, 1.0, *cumulative.tolist()]
        probes += [np.nextafter(c, side) for c in cumulative.tolist() for side in (0.0, 2.0)]
        expected = [scalar_rule(u) for u in probes]
        for sums in (layout([law[key] for key in keys]) for layout in LAYOUTS):
            for u, key in ((0.0, "x"), (0.25, "y"), (0.7, "z"), (1.0 - 1e-11, "z")):
                assert keys[sample_outcome(sums, u)] == key
            assert [keys[i] for i in sample_outcome(sums, np.array(probes))] == expected
            assert [keys[sample_outcome(sums, u)] for u in probes] == expected

    def test_batched_draws_match_scalar_draws(self):
        u = np.random.default_rng(3).random(1000)
        for sums in (layout([0.3, 0.7 - 1e-12, 1e-12]) for layout in LAYOUTS):
            assert sample_outcome(sums, u).tolist() == [sample_outcome(sums, x) for x in u]


def searchsorted_rule(cumulative, u):
    """The sampling rule as a binary search, the oracle of the running-sum count."""
    last = len(cumulative) - 1
    return np.minimum(np.searchsorted(cumulative, u, side="right"), last)


@st.composite
def laws(draw):
    """1-12 probabilities, some 0, summing to 1 or short of it by under 1e-9."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)
                   .filter(lambda w: sum(w) > 0.0))
    shortfall = draw(st.sampled_from([0.0, 1e-12, 5e-10, 9.9e-10]))
    total = sum(weights)
    return [w / total * (1.0 - shortfall) for w in weights]


def probes(cumulative):
    """0, the largest uniform below 1, every running sum and the floats either side of it."""
    sums = [float(c) for c in cumulative]
    near = [np.nextafter(c, side) for c in sums for side in (0.0, 2.0)]
    return np.array([0.0, 1.0 - 1e-16, *sums, *near])


@settings(max_examples=150, deadline=None)
@given(law=laws(), seed=st.integers(0, 2**32 - 1))
def test_sampler_counts_running_sums_as_a_binary_search_would(law, seed):
    cumulative = np.cumsum(law)
    u = np.concatenate([probes(cumulative), np.random.default_rng(seed).random(64)])
    expected = searchsorted_rule(cumulative, u).tolist()
    for sums in (cumulative, stacked_column(law)):
        assert sample_outcome(sums, u).tolist() == expected
        assert [int(sample_outcome(sums, x)) for x in u] == expected


@settings(max_examples=100, deadline=None)
@given(stacked=st.lists(laws(), min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1))
def test_stacked_tables_each_draw_their_own(stacked, seed):
    # one column per law, laid out like `CompiledBench.sums`: its running sums
    # without the last, then +inf down to the widest law's size
    width = max(map(len, stacked))
    stack = np.full((width, len(stacked)), np.inf)
    for j, law in enumerate(stacked):
        stack[: len(law) - 1, j] = np.cumsum(law)[:-1]
    rng = np.random.default_rng(seed)
    probed = [probes(np.cumsum(law)) for law in stacked]
    which = np.concatenate([np.full(len(p), j) for j, p in enumerate(probed)]
                           + [rng.integers(0, len(stacked), 64)])
    u = np.concatenate([*probed, rng.random(64)])
    order = rng.permutation(len(u))
    which, u = which[order], u[order]
    drawn = sample_outcome(stack[:, which], u)
    expected = [int(searchsorted_rule(np.cumsum(stacked[j]), x)) for j, x in zip(which, u)]
    assert drawn.tolist() == expected


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
