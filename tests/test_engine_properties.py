"""Property tests of the Fock engine against the dense reference in oracle.py.

Elements are Haar-random unitaries (QR of a complex Gaussian matrix, with the
phases of R's diagonal moved into Q) on a random ordered subset of modes;
inputs are random superpositions of one- or two-photon basis states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from sdcsim.fock import (
    ModeRegistry,
    ModeUnitary,
    apply_element,
    compose,
    make_state,
    outcome_distribution,
    superpose,
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


def modes_of(occ) -> tuple[int, ...]:
    return tuple(i for i, n in enumerate(occ) for _ in range(n))


def max_amplitude_gap(a, b) -> float:
    keys = set(a.amplitudes) | set(b.amplitudes)
    return max(abs(a.amplitudes.get(k, 0j) - b.amplitudes.get(k, 0j)) for k in keys)


def oracle_distribution(state, transfer) -> dict[tuple[int, ...], float]:
    """Output distribution over sorted mode tuples by the dense reference path."""
    if state.photon_number == 1:
        vector = np.zeros(len(REG), dtype=complex)
        for occ, amp in state.amplitudes.items():
            vector[modes_of(occ)[0]] = amp
        out = transfer @ vector
        return {(k,): float(abs(out[k]) ** 2) for k in range(len(out))}
    terms = [(amp, *modes_of(occ)) for occ, amp in state.amplitudes.items()]
    return oracle.superposed_two_photon_distribution(transfer, terms)


@settings(max_examples=100, deadline=None)
@given(elements(), states())
def test_distribution_matches_the_oracle(element, state):
    out = apply_element(state, element)
    engine = {modes_of(occ): p for occ, p in outcome_distribution(out, LABELS).items()}
    reference = oracle_distribution(state, oracle.compose([element], REG))
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
