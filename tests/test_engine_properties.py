"""Property tests of the Fock engine against the dense reference in oracle.py.

Elements are Haar-random unitaries (QR of a complex Gaussian matrix, with the
phases of R's diagonal moved into Q) on a random ordered subset of modes;
inputs are random superpositions of one- or two-photon basis states.

The last properties are physical laws that owe nothing to the implementation:
Hong-Ou-Mandel interference with partially distinguishable photons,
no-signalling from the sender's encoder to the receiver's photon, and the
one-half bound of a linear-optics Bell measurement.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from sdcsim.fock import (
    ModeLabel,
    ModeRegistry,
    ModeUnitary,
    apply_element,
    compose,
    make_state,
    outcome_distribution,
    superpose,
    unitarity_defect,
)
from sdcsim.protocol import (
    ALICE,
    ALPHABET,
    BOB,
    MessageSymbol,
    OpticalBench,
    Optics,
    ProtocolError,
    ReferenceState,
    _element,
)

TOL = 1e-12
REG = ModeRegistry.for_paths(["a", "b", "c"])
LABELS = REG.labels


def haar_unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@st.composite
def elements(draw):
    order = draw(st.permutations(range(len(LABELS))))
    k = draw(st.integers(1, len(LABELS)))
    targets = tuple(LABELS[i] for i in order[:k])
    return ModeUnitary(REG, targets, haar_unitary(k, draw(st.integers(0, 2**32 - 1))))


@st.composite
def states(draw):
    photons = draw(st.integers(1, 2))
    modes = st.lists(st.integers(0, len(LABELS) - 1), min_size=photons, max_size=photons)
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    terms = draw(st.lists(st.tuples(modes, parts, parts), min_size=1, max_size=3))
    try:
        return superpose(
            [(complex(re, im), make_state(REG, [LABELS[i] for i in m])) for m, re, im in terms]
        )
    except ValueError:  # the terms cancel, or every coefficient is (nearly) zero
        return make_state(REG, [LABELS[i] for i in terms[0][0]])


def max_amplitude_gap(a, b) -> float:
    keys = set(a.amplitudes) | set(b.amplitudes)
    return max(abs(a.amplitudes.get(k, 0j) - b.amplitudes.get(k, 0j)) for k in keys)


@settings(max_examples=100, deadline=None)
@given(elements(), states())
def test_distribution_matches_the_oracle(element, state):
    out = apply_element(state, element)
    engine = {oracle.modes_of(occ): p for occ, p in outcome_distribution(out, LABELS).items()}
    reference = oracle.state_distribution(state.amplitudes, oracle.compose([element], REG))
    for key in set(engine) | set(reference):
        assert engine.get(key, 0.0) == pytest.approx(reference.get(key, 0.0), abs=TOL)


@settings(max_examples=100, deadline=None)
@given(elements(), states())
def test_photon_number_and_norm_are_conserved(element, state):
    out = apply_element(state, element)
    assert out.photon_number == state.photon_number
    assert all(sum(occ) == state.photon_number for occ in out.amplitudes)
    assert out.norm == pytest.approx(1.0, abs=TOL)


@settings(max_examples=100, deadline=None)
@given(elements(), states())
def test_dagger_restores_the_state(element, state):
    back = apply_element(apply_element(state, element), element.dagger())
    assert max_amplitude_gap(back, state) <= TOL


@settings(max_examples=100, deadline=None)
@given(st.lists(elements(), min_size=1, max_size=3), states())
def test_composed_element_equals_the_sequence(sequence, state):
    stepwise = state
    for element in sequence:
        stepwise = apply_element(stepwise, element)
    composed = compose(tuple(sequence))
    assert composed.registry == REG
    assert max_amplitude_gap(apply_element(state, composed), stepwise) <= TOL


@settings(max_examples=50, deadline=None)
@given(st.floats(-180.0, 180.0, allow_nan=False))
def test_hom_coincidence_follows_the_overlap(theta):
    """A plate at theta on alice's H photon leaves it overlapping bob's H photon
    by |<a|b>|^2 = cos^2(2 theta), so the pair leaves the 50/50 splitter on
    different paths with probability (1 - cos^2(2 theta)) / 2 = sin^2(2 theta) / 2."""
    bench = OpticalBench(Optics(analyzer=(("hwp", theta), ("bs",), ("pbs", ALICE), ("pbs", BOB))))
    pair = make_state(bench.registry, [ModeLabel(ALICE, "H"), ModeLabel(BOB, "H")])
    coincidence = sum(
        p for pattern, p in bench.analyze(pair).items()
        if pattern.count("aH") + pattern.count("aV") == 1
    )
    assert coincidence == pytest.approx(math.sin(math.radians(2.0 * theta)) ** 2 / 2.0, abs=TOL)


ENCODER_SPECS = st.one_of(
    st.floats(-180.0, 180.0, allow_nan=False).map(lambda theta: ("hwp", theta)),
    st.sampled_from([("polarizer", "H"), ("polarizer", "V")]),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALPHABET), st.lists(ENCODER_SPECS, max_size=3))
def test_the_receivers_photon_alone_carries_no_signal(message, encoder):
    """Whatever the sender puts in her photon's path, the receiver's photon,
    measured alone, reads H with probability 1/2 once her monitor's branches
    are averaged over: the controlled pair with p, her click's lone photon
    with 1 - p."""
    optics = Optics(analyzer=(("pbs", ALICE), ("pbs", BOB)),
                    **{message.name.lower(): tuple(encoder)})
    try:
        bench = OpticalBench(optics)
    except ProtocolError:  # it never transmits, or clicks two ways: no one split
        assume(False)
    split = bench.encode_branches(message)

    def reads_h(state):
        return sum(p for pattern, p in bench.analyze(state).items() if pattern.count("bH"))

    read = split.controlled_probability * reads_h(split.controlled_state)
    if split.lone_state is not None:
        read += split.wrong_probability * reads_h(split.lone_state)
    assert read == pytest.approx(0.5, abs=TOL)


BELL_STATES = (MessageSymbol.PSI_PLUS, MessageSymbol.PSI_MINUS,
               ReferenceState.PHI_PLUS, ReferenceState.PHI_MINUS)
DETECTED = (("pbs", ALICE), ("pbs", BOB))  # every mode reaches a detector
IDEAL_ANALYZER = (("bs",),)
TILTED_ANALYZER = (("hwp", 67.5), ("hwp", 22.5), ("bs",))
ANALYZER_SPECS = st.one_of(
    st.just(("bs",)), st.integers(0, 7).map(lambda k: ("hwp", 22.5 * k))
)


ELEMENT_SPECS = st.one_of(ENCODER_SPECS, ANALYZER_SPECS, st.just(("hwp", 22.5)),
                          st.sampled_from([("pbs", ALICE), ("pbs", BOB)]))


@settings(max_examples=100, deadline=None)
@given(st.lists(ELEMENT_SPECS, min_size=1, max_size=5))
def test_every_element_keeps_the_defect_of_its_matrix(specs):
    """The defect an element keeps from its validation is `unitarity_defect` of its
    matrix, bit for bit: each element an optics record compiles, its dagger, and
    the composition of them all."""
    built = [_element(spec) for spec in specs]
    composed = compose(tuple(built))
    for element in (*built, *(e.dagger() for e in built), composed, composed.dagger()):
        assert element.defect == unitarity_defect(element.matrix)


def bell_identification(analyzer) -> float:
    """The probability that the analyzer, then both PBSs, names a uniformly
    drawn Bell state without ambiguity: its click pattern has nonzero
    probability under that Bell state only."""
    bench = OpticalBench(Optics(analyzer=(*analyzer, *DETECTED)))
    laws = [bench.analyze(bench.state_for(state)) for state in BELL_STATES]

    def possible(law, pattern):
        return law.get(pattern, 0.0) > TOL

    return sum(
        p / len(laws) for law in laws for pattern, p in law.items()
        if sum(possible(other, pattern) for other in laws) == 1
    )


@pytest.mark.parametrize("analyzer", [IDEAL_ANALYZER, TILTED_ANALYZER], ids=["ideal", "tilted"])
def test_a_bell_analyzer_can_reach_one_half(analyzer):
    assert bell_identification(analyzer) == pytest.approx(0.5, abs=TOL)


@settings(max_examples=200, deadline=None)
@given(st.lists(ANALYZER_SPECS, max_size=5))
@example(list(IDEAL_ANALYZER))
@example(list(TILTED_ANALYZER))
def test_no_linear_optics_analyzer_identifies_more_than_half_the_bell_states(analyzer):
    """Beam splitters and plates, then both PBSs, never identify more than half
    of the Bell states unambiguously (Lütkenhaus, Calsamiglia & Suominen,
    PRA 59, 3295, 1999; Vaidman & Yoran, PRA 59, 116, 1999)."""
    assert bell_identification(analyzer) <= 0.5 + TOL
