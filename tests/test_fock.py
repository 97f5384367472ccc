import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    raw_thresholds,
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

    def test_equal_paths_give_equal_registries(self, reg, bs):
        # built anew each call: a registry is a value, not a shared instance
        other = ModeRegistry.for_paths(("a", "b"))
        assert other == reg and hash(other) == hash(reg)
        assert other != ModeRegistry.for_paths(["b", "a"])
        state = make_state(other, [ModeLabel("a", "H")])
        out = apply_element(state, bs)  # `bs` was built on `reg`
        assert out.registry is other
        assert abs(amp(out, **{"b.H": 1})) ** 2 == pytest.approx(0.5, abs=1e-12)

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
        from sdcsim.fock import superpose

        one = make_state(reg, [ModeLabel("a", "H")])
        two = make_state(reg, [ModeLabel("a", "H"), ModeLabel("a", "V")])
        with pytest.raises(ValueError, match="mixed photon numbers"):
            superpose([(INV_SQRT2, one), (INV_SQRT2, two)])

    def test_a_pair_is_a_symmetric_matrix(self, reg):
        # |1_aH 1_bV>: A = (e_aH e_bV^T + e_bV e_aH^T) / sqrt(2), read back as amplitude 1
        tensor = np.zeros((4, 4))
        tensor[0, 3] = tensor[3, 0] = INV_SQRT2
        state = PureState(reg, tensor)
        assert state.photon_number == 2
        assert state.fidelity(make_state(reg, [ModeLabel("a", "H"), ModeLabel("b", "V")])) == (
            pytest.approx(1.0, abs=1e-15))
        assert dict(state.amplitudes) == {(1, 0, 0, 1): pytest.approx(1.0, abs=1e-15)}
        assert make_state(reg, []).photon_number == 0

    def test_a_tensor_that_fits_no_registry_or_more_photons_is_refused(self, reg):
        for shape in ((3,), (4, 3), (4, 4, 4)):
            with pytest.raises(RegistryError):
                PureState(reg, np.ones(shape))
        with pytest.raises(ValueError, match="at most two photons"):
            make_state(reg, [ModeLabel("a", "H")] * 3)

    def test_immutable(self, reg):
        state = make_state(reg, [ModeLabel("a", "H")])
        with pytest.raises(AttributeError):
            state.photon_number = 3
        with pytest.raises(ValueError, match="read-only"):
            state.tensor[0] = 0.0
        with pytest.raises(TypeError):
            state.amplitudes[(1, 0, 0, 0)] = 0j


class TestModeUnitary:
    def test_rejects_non_unitary(self, reg):
        with pytest.raises(NonUnitaryError):
            ModeUnitary(
                reg,
                (ModeLabel("a", "H"), ModeLabel("a", "V")),
                np.array([[1.0, 0.1], [0.0, 1.0]]),
            )

    def test_a_matrix_1e9_off_unitary_is_refused_with_its_defect(self, reg):
        # (1 + 1e-9)^2 - 1 = 2e-9 in U†U's corner, far past UNITARY_TOL
        off = np.diag([1.0 + 1e-9, 1.0])
        targets = (ModeLabel("a", "H"), ModeLabel("a", "V"))
        for name, shown in (("plate", "plate"), ("", "element")):
            with pytest.raises(NonUnitaryError) as refused:
                ModeUnitary(reg, targets, off, name=name)
            assert str(refused.value) == f"{shown}: ||U†U - I||_inf = 2.000e-09"

    def test_rejects_duplicate_targets(self, reg):
        with pytest.raises(RegistryError):
            ModeUnitary(reg, (ModeLabel("a", "H"), ModeLabel("a", "H")), np.eye(2))

    def test_defect_of_identity(self):
        assert unitarity_defect(np.eye(3)) == 0.0


class TestApplyElement:
    def test_an_evolved_state_owns_a_read_only_tensor(self, reg, bs):
        for photons in ([], [ModeLabel("a", "H")], [ModeLabel("a", "H"), ModeLabel("b", "H")]):
            state = make_state(reg, photons)
            out = apply_element(state, bs)
            assert out.photon_number == len(photons)
            held = out.tensor  # nor does any array its buffer comes from
            while held is not None:
                assert not held.flags.writeable
                held = held.base
            with pytest.raises(ValueError, match="read-only"):
                out.tensor[...] = 0.0

    def test_a_state_built_from_a_callers_array_copies_it(self, reg):
        vector = np.zeros(len(reg), dtype=complex)
        vector[0] = 1.0
        state = PureState(reg, vector)
        assert vector.flags.writeable and not state.tensor.flags.writeable
        assert not np.shares_memory(vector, state.tensor)
        vector[0] = 0.0
        assert state.tensor[0] == 1.0

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


TOP = 2**64 - 1  # the all-ones raw word, whose uniform is the largest double below 1


def uniform(raw):
    """The double numpy's `Generator.random` makes of each raw word: (raw >> 11) * 2^-53."""
    return (np.asarray(raw, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def word(u):
    """The smallest raw word whose uniform is u, a multiple of 2^-53 in [0, 1)."""
    steps = u * 2.0**53
    assert steps == int(steps) and 0 <= steps < 2**53, u
    return np.uint64(int(steps) << 11)


def stacked_column(probs):
    """A law's thresholds as a cell's column of a stack laid out like the boundary rows
    `session.wiring` builds: its running sums without the last, then +inf down to a
    width wider than the law."""
    stack = np.full((len(probs) + 2, 3), np.inf)
    stack[: len(probs) - 1, 1] = np.cumsum(probs)[:-1]
    return raw_thresholds(stack[:, 1])


def boundaries(probs):
    """A law's outcome thresholds, of the running sums the sampler counts: all but the last."""
    return raw_thresholds(np.cumsum(probs)[:-1])


# the two layouts the sampler reads: a law's thresholds, and its column of a stack
LAYOUTS = (boundaries, stacked_column)


def random_words(seed, n):
    return np.random.default_rng(seed).bit_generator.random_raw(n)


class TestSampleOutcome:
    def test_point_distribution(self):
        for sums in (layout([1.0]) for layout in LAYOUTS):
            assert sample_outcome(sums, np.uint64(0)) == 0
            assert sample_outcome(sums, np.uint64(TOP)) == 0

    def test_empirical_frequency_matches(self):
        n = 100_000
        raw = random_words(42, n)
        for sums in (layout([0.5, 0.5]) for layout in LAYOUTS):
            assert abs(np.count_nonzero(sample_outcome(sums, raw) == 0) / n - 0.5) < 0.01

    def test_fixed_seed_reproducible(self):
        for sums in (layout([0.3, 0.7]) for layout in LAYOUTS):
            draws = lambda: sample_outcome(sums, random_words(7, 5)).tolist()
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

        # every running sum's threshold, the words either side of it, and the
        # all-ones word, whose uniform lies past the last sum
        raw = probes(cumulative)
        expected = [scalar_rule(u) for u in uniform(raw).tolist()]
        for sums in (layout([law[key] for key in keys]) for layout in LAYOUTS):
            for u, key in ((0.0, "x"), (0.25, "y"), (0.7, "z"), (1.0 - 1e-11, "z")):
                assert keys[sample_outcome(sums, word(u))] == key
            assert [keys[i] for i in sample_outcome(sums, raw)] == expected
            assert [keys[sample_outcome(sums, x)] for x in raw] == expected

    def test_batched_draws_match_scalar_draws(self):
        raw = random_words(3, 1000)
        for sums in (layout([0.3, 0.7 - 1e-12, 1e-12]) for layout in LAYOUTS):
            assert sample_outcome(sums, raw).tolist() == [sample_outcome(sums, x) for x in raw]


def searchsorted_rule(cumulative, u):
    """The sampling rule as a binary search, the oracle of the running-sum count."""
    last = len(cumulative) - 1
    return np.minimum(np.searchsorted(cumulative, u, side="right"), last)


@st.composite
def laws(draw):
    """1-12 probabilities, some 0 past the first, summing to 1 or short of it by
    under 1e-9; a law whose first probability is 0 has a boundary at 0, which
    `raw_thresholds` refuses (`test_a_boundary_at_or_below_0_is_refused`)."""
    first = draw(st.floats(0.0, 1.0, exclude_min=True))
    weights = [first, *draw(st.lists(st.floats(0.0, 1.0), max_size=11))]
    shortfall = draw(st.sampled_from([0.0, 1e-12, 5e-10, 9.9e-10]))
    total = sum(weights)
    law = [w / total * (1.0 - shortfall) for w in weights]
    assume(law[0] > 0.0)  # a subnormal first weight can round to 0 here
    return law


def probes(cumulative):
    """0, the all-ones word, and each running sum's threshold and the words either side of it."""
    near = [t + d for t in raw_thresholds(cumulative).tolist() for d in (-1, 0, 1)]
    return np.array([0, TOP, *(min(w, TOP) for w in near)], dtype=np.uint64)


@settings(max_examples=150, deadline=None)
@given(law=laws(), seed=st.integers(0, 2**32 - 1))
def test_sampler_counts_running_sums_as_a_binary_search_would(law, seed):
    cumulative = np.cumsum(law)
    raw = np.concatenate([probes(cumulative), random_words(seed, 64)])
    expected = searchsorted_rule(cumulative, uniform(raw)).tolist()
    for sums in (boundaries(law), stacked_column(law)):
        assert sample_outcome(sums, raw).tolist() == expected
        assert [int(sample_outcome(sums, x)) for x in raw] == expected


@settings(max_examples=100, deadline=None)
@given(stacked=st.lists(laws(), min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1))
def test_stacked_tables_each_draw_their_own(stacked, seed):
    # one column per law, laid out like `session.wiring`'s boundary rows: its running
    # sums without the last, then +inf down to the widest law's size, as thresholds
    width = max(map(len, stacked))
    stack = np.full((width, len(stacked)), np.inf)
    for j, law in enumerate(stacked):
        stack[: len(law) - 1, j] = np.cumsum(law)[:-1]
    stack = raw_thresholds(stack)
    rng = np.random.default_rng(seed)
    probed = [probes(np.cumsum(law)) for law in stacked]
    which = np.concatenate([np.full(len(p), j) for j, p in enumerate(probed)]
                           + [rng.integers(0, len(stacked), 64)])
    raw = np.concatenate([*probed, rng.bit_generator.random_raw(64)])
    order = rng.permutation(len(raw))
    which, raw = which[order], raw[order]
    drawn = sample_outcome(stack[:, which], raw)
    expected = [int(searchsorted_rule(np.cumsum(stacked[j]), u))
                for j, u in zip(which, uniform(raw))]
    assert drawn.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(stacked=st.lists(laws(), min_size=1, max_size=5), padding=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_boundary_rows_added_in_place_match_the_running_sums(stacked, padding, seed):
    # a stack laid out like `session.wiring`'s boundary rows, `padding` rows wider than its
    # widest law; its boundary rows are the thresholds of all but its last row,
    # added per word into an int16 row code as the session kernel does
    width = max(map(len, stacked)) + padding
    stack = np.full((width, len(stacked)), np.inf)
    for j, law in enumerate(stacked):
        stack[: len(law) - 1, j] = np.cumsum(law)[:-1]
    stack = raw_thresholds(stack)
    bounds = tuple(stack[:-1])
    rng = np.random.default_rng(seed)
    probed = [probes(np.cumsum(law)) for law in stacked]  # words on and around each threshold
    which = np.concatenate([np.full(len(p), j) for j, p in enumerate(probed)]
                           + [rng.integers(0, len(stacked), 64)]).astype(np.int16)
    raw = np.concatenate([*probed, rng.bit_generator.random_raw(64)])
    row = which * np.int16(width)
    sample_outcome((bound[which] for bound in bounds), raw, out=row)
    assert row.dtype == np.int16
    expected = [int(searchsorted_rule(np.cumsum(stacked[j]), u))
                for j, u in zip(which, uniform(raw))]
    assert (row - which * width).tolist() == expected
    assert (row - which * width).tolist() == sample_outcome(stack[:, which], raw).tolist()


# boundaries the threshold rule must decide exactly: the top uniform, 1, past
# every uniform, and the smallest positive double
EDGE_BOUNDARIES = (1.0 - 2.0**-53, 1.0, math.inf, 5e-324)


@st.composite
def boundary_and_word(draw):
    """(b, raw): b a running sum of a random law, a multiple of 2^-53 or an edge,
    perhaps moved one double either way; raw on or beside b's threshold, at either
    end of the words or anywhere."""
    b = draw(st.sampled_from(EDGE_BOUNDARIES)
             | laws().flatmap(lambda law: st.sampled_from(np.cumsum(law).tolist()))
             | st.integers(1, 2**53).map(lambda k: k * 2.0**-53))
    b = draw(st.sampled_from([b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)])
             .filter(lambda moved: moved > 0.0))
    threshold = int(raw_thresholds(b))
    near = st.sampled_from([threshold - 1, threshold, threshold + 1]).map(
        lambda w: min(max(w, 0), TOP))
    return b, draw(near | st.sampled_from([0, TOP]) | st.integers(0, TOP))


@settings(max_examples=500, deadline=None)
@given(boundary_and_word())
@example((1.0 - 2.0**-53, TOP))
@example((1.0 - 2.0**-53, TOP - 1))
@example((1.0 - 2.0**-53, TOP - 2**11))
@example((1.0, TOP))
@example((math.inf, TOP))
@example((5e-324, 0))
@example((5e-324, 2**11 - 1))
@example((5e-324, 2**11))
def test_a_word_exceeds_the_threshold_exactly_when_its_uniform_reaches_the_boundary(case):
    b, raw = case
    threshold = raw_thresholds(b)
    assert threshold.dtype == np.uint64
    reaches = (raw >> 11) * 2.0**-53 >= b  # the uniform numpy's `random` makes of raw
    assert (raw > int(threshold)) == reaches
    assert sample_outcome(raw_thresholds([b]), np.uint64(raw)) == reaches


@pytest.mark.parametrize("b", [0.0, -0.0, -5e-324, -1.0, -math.inf, math.nan])
def test_a_boundary_at_or_below_0_is_refused(b):
    # every uniform reaches it, and no uint64 lies below every word
    with pytest.raises(ValueError, match="must be > 0"):
        raw_thresholds(b)
    with pytest.raises(ValueError, match="must be > 0"):
        raw_thresholds([0.5, b, np.inf])
    # a law whose first outcome has probability 0
    with pytest.raises(ValueError, match="must be > 0"):
        boundaries([0.0, 0.5, 0.5])


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
