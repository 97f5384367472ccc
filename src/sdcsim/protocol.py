"""Superdense coding over the mixed message basis.

The four-letter alphabet is two Bell states plus the two parallel-polarized
product states: {psi+, psi-, HH, VV}. The sender encodes by manipulating only
her photon of a shared psi+ pair; the receiver's analyzer is a 50/50 beam
splitter followed by a polarizing beam splitter on each output side, read out
with photon-number-resolving detectors. That analyzer separates all four
alphabet states unambiguously, while the unused Bell pair phi+/phi- stays
indistinguishable (the linear-optics limitation the alphabet routes around).

A bench's optics are one frozen record of element specs (`Optics`), and
compiling is a pure function of it, memoized on its values
(`compile_optics`): it builds the elements from their specs, composes the
analyzer (the beam splitter and both PBSs) into one element, and computes
every law, so benches with equal optics share one read-only `CompiledBench`
and a process builds and compiles each distinct record once. The compiled
laws decode: a pattern reads as its likeliest message, and `verify` checks
that the ideal bench's signatures are disjoint, so none is misread.

Every law a reject-port click leads to comes from the encoder's own click
branch: the receiver's lone photon, and the pair the sender makes by
re-emitting a photon of the polarization her monitor detected
(`EncodeBranches.lone_law`, `.resent_law`). Each branch carries its law, so
the laws have one home; only `session.wiring` lays them out for the sampler.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .elements import beam_splitter, hwp, pbs, polarizer_monitor
from .fock import (
    ModeLabel,
    ModeRegistry,
    ModeUnitary,
    PureState,
    apply_element,
    branch_on_modes,
    compose,
    make_state,
    outcome_distribution,
    superpose,
)

ALICE = "alice"
BOB = "bob"
MONITOR = "monitor"
REFLECT_A = "analyzer_out_a"
REFLECT_B = "analyzer_out_b"

# Fixed detector order; also the canonical key order in serialized patterns.
DETECTOR_NAMES = ("aH", "aV", "bH", "bV")


class MessageSymbol(Enum):
    """The four encodable messages, named by the state that carries them."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    HH = "hh"
    VV = "vv"


class ReferenceState(Enum):
    """Analyzer check states; never encodable."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"


ALPHABET = (
    MessageSymbol.PSI_PLUS,
    MessageSymbol.PSI_MINUS,
    MessageSymbol.HH,
    MessageSymbol.VV,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# each ideal pair state as terms (amplitude, alice's and bob's polarization)
_TERMS = {
    MessageSymbol.PSI_PLUS: ((_INV_SQRT2, "HV"), (_INV_SQRT2, "VH")),
    MessageSymbol.PSI_MINUS: ((_INV_SQRT2, "HV"), (-_INV_SQRT2, "VH")),
    MessageSymbol.HH: ((1.0, "HH"),),
    MessageSymbol.VV: ((1.0, "VV"),),
    ReferenceState.PHI_PLUS: ((_INV_SQRT2, "HH"), (_INV_SQRT2, "VV")),
    ReferenceState.PHI_MINUS: ((_INV_SQRT2, "HH"), (-_INV_SQRT2, "VV")),
}


class Branch(Enum):
    """Whether the encoder's reject-port detector stayed silent."""

    CONTROLLED = "controlled"
    WRONG = "wrong"


class Scenario(Enum):
    """Operating mode on a wrong branch: discard (a), use every pair (b), stop both photons (c)."""

    A = "a"
    B = "b"
    C = "c"


class Owner(Enum):
    """Who holds the photon-pair source; bookkeeping only, the optics are identical."""

    BOB = "bob"
    ANNA = "anna"
    ALICE = "alice"


ALLOWED_OWNERS = {
    Scenario.A: (Owner.BOB, Owner.ANNA),
    Scenario.B: (Owner.ANNA, Owner.BOB),
    Scenario.C: (Owner.ALICE,),
}


class ClonePolicy(Enum):
    """Scenario b: what polarization the re-emitted photon carries on a wrong branch."""

    CLONE_INTENDED = "clone-intended"
    SEND_AS_IS = "send-as-is"


class ProtocolError(RuntimeError):
    """An encoder the protocol cannot use: its monitor always clicks, or clicks two ways."""


@dataclass(frozen=True, order=True)
class DetectionPattern:
    """Photon counts on the named detectors (aH, aV, bH, bV)."""

    counts: tuple[int, int, int, int]

    @classmethod
    def of(cls, **named: int) -> "DetectionPattern":
        unknown = set(named) - set(DETECTOR_NAMES)
        if unknown:
            raise ValueError(f"unknown detector(s): {sorted(unknown)}")
        return cls(tuple(named.get(name, 0) for name in DETECTOR_NAMES))

    def count(self, name: str) -> int:
        return self.counts[DETECTOR_NAMES.index(name)]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_string(self) -> str:
        """Canonical form 'aH:n,aV:n,bH:n,bV:n' with zero entries omitted."""
        return ",".join(
            f"{name}:{n}" for name, n in zip(DETECTOR_NAMES, self.counts) if n
        )

    def __str__(self):
        return self.to_string() or "none"


class Verdict(Enum):
    DECODED = "decoded"
    SINGLE_PHOTON = "single_photon"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class ClassifiedOutcome:
    verdict: Verdict
    symbol: MessageSymbol | None = None

    @classmethod
    def decoded(cls, symbol: MessageSymbol) -> "ClassifiedOutcome":
        return cls(Verdict.DECODED, symbol)

    @property
    def label(self) -> str:
        if self.verdict is Verdict.DECODED:
            return self.symbol.value
        return self.verdict.value


@dataclass(frozen=True)
class EncodeBranches:
    """Exact encoder outcome split: the pair on a silent monitor and, on a click,
    the receiver's lone photon and the pair the sender makes by re-emitting the
    polarization her monitor detected (both None for a message that never goes
    wrong), each with its analyzer law, a read-only mapping that sums to 1."""

    controlled_probability: float
    controlled_state: PureState
    lone_state: PureState | None
    resent_state: PureState | None
    controlled_law: Mapping[DetectionPattern, float]
    lone_law: Mapping[DetectionPattern, float] | None
    resent_law: Mapping[DetectionPattern, float] | None

    @property
    def wrong_probability(self) -> float:
        return 1.0 - self.controlled_probability


@dataclass(frozen=True, eq=False)
class CompiledBench:
    """The exact laws of one optics, computed once per process by `compile_optics`.

    Benches with equal optics share this object, so nothing in it can be
    written: its containers are tuples and a mapping proxy, its arrays are
    read-only. `encoders` holds the elements each message's encoder is built
    from, in ALPHABET order, and `analyzer` the analyzer's, in the order
    they act; `composed_analyzer` is those composed into the one element
    that every law, and `OpticalBench.analyze`, applies. `branches` holds
    each message's encoder split with its laws, in ALPHABET order, and
    `p_controlled` its controlled probability. `patterns` holds every pattern
    a law yields, and `decoded` maps each to the message whose controlled law
    gives it the unique largest positive probability, or else to
    SINGLE_PHOTON or AMBIGUOUS. Every reader reads these fields and derives
    none of them again.
    """

    encoders: tuple[tuple[ModeUnitary, ...], ...]
    analyzer: tuple[ModeUnitary, ...]
    composed_analyzer: ModeUnitary
    branches: tuple[EncodeBranches, ...]
    p_controlled: np.ndarray  # float64, per message, read-only
    signatures: Mapping[MessageSymbol, frozenset[DetectionPattern]]
    patterns: tuple[DetectionPattern, ...]  # every pattern a law yields, sorted
    outcomes: tuple[ClassifiedOutcome, ...]  # the distinct classifications
    decoded: np.ndarray  # int8, pattern code -> `outcomes` code, read-only


# Probabilities within this of the largest tie with it: two laws that give a
# pattern one exact value can compute it a few ulp apart
TIE_TOLERANCE = 1e-12


def _likeliest(laws: list[Mapping], pattern: DetectionPattern) -> ClassifiedOutcome:
    """The message whose controlled law (in ALPHABET order) gives `pattern` the
    unique largest positive probability, else SINGLE_PHOTON or AMBIGUOUS. A
    probability within TIE_TOLERANCE of the largest ties with it."""
    probs = [law.get(pattern, 0.0) for law in laws]
    best = max(probs, default=0.0)
    if best > 0.0 and sum(p >= best - TIE_TOLERANCE for p in probs) == 1:
        return ClassifiedOutcome.decoded(ALPHABET[probs.index(best)])
    return ClassifiedOutcome(Verdict.SINGLE_PHOTON if pattern.total == 1 else Verdict.AMBIGUOUS)


# The bench's modes: the pair lives on (alice, bob); the encoder's polarizer
# reject port goes to (monitor); the analyzer PBSs reflect V onto
# (analyzer_out_a/b).
REGISTRY = ModeRegistry.for_paths((ALICE, BOB, REFLECT_A, REFLECT_B, MONITOR))
MONITOR_MODES = REGISTRY.modes_on_path(MONITOR)
# read in DETECTOR_NAMES order: aH/bH are the transmitted H ports, aV/bV the
# reflected V ports
ANALYZER_DETECTORS = (
    ModeLabel(ALICE, "H"),
    ModeLabel(REFLECT_A, "V"),
    ModeLabel(BOB, "H"),
    ModeLabel(REFLECT_B, "V"),
)
_REFLECTED = {ALICE: REFLECT_A, BOB: REFLECT_B}

# What each kind of element spec builds. A plate and a polarizer act on path
# alice: the sender's photon in her encoder, output arm a in the analyzer.
_BUILDERS = {
    "hwp": lambda degrees: hwp(REGISTRY, degrees, ALICE),
    "polarizer": lambda passed: polarizer_monitor(REGISTRY, ALICE, passed, MONITOR),
    "bs": lambda: beam_splitter(REGISTRY, ALICE, BOB),
    "pbs": lambda path: pbs(REGISTRY, path, _REFLECTED[path]),
}


def _element(spec: tuple) -> ModeUnitary:
    """The element an element spec names, built anew."""
    kind, *args = spec
    try:
        return _BUILDERS[kind](*args)
    except (KeyError, TypeError) as error:
        raise ValueError(f"not an element spec: {spec!r}") from error


@dataclass(frozen=True)
class Optics:
    """The optics of one bench as a frozen, hashable record of element specs.

    Each message's field is what the sender puts in her photon's path, in
    order; `analyzer` is what the pair passes before the detectors. A spec is
    a tuple: ("hwp", degrees), a half-wave plate on path alice;
    ("polarizer", "H" or "V"), a polarizer passing that polarization on
    alice and rerouting the other onto the monitor; ("bs",), the 50/50 beam
    splitter between alice and bob; ("pbs", ALICE or BOB), the polarizing
    beam splitter that reflects that path's V onto its analyzer output.
    `Optics()` is the ideal bench; perturb one with keyword fields, for
    example `Optics(hh=(("hwp", 22.5), ("polarizer", "H")))`. Equal records
    compile once per process (`compile_optics`).
    """

    psi_plus: tuple[tuple, ...] = ()
    psi_minus: tuple[tuple, ...] = (("hwp", 0.0),)
    hh: tuple[tuple, ...] = (("hwp", 45.0), ("polarizer", "H"))
    vv: tuple[tuple, ...] = (("hwp", 45.0), ("polarizer", "V"))
    analyzer: tuple[tuple, ...] = (("bs",), ("pbs", ALICE), ("pbs", BOB))

    @property
    def encoders(self) -> tuple[tuple[tuple, ...], ...]:
        """Each message's encoder specs, in ALPHABET order."""
        return self.psi_plus, self.psi_minus, self.hh, self.vv


class OpticalBench:
    """One bench: its `optics` record and the model they compile to.

    The sender's monitor is read by `encode_branches`, the four analyzer
    detectors by `analyze`.

    A bench holds two plain attributes, `optics` and `compiled`, the latter
    looked up once, at construction, in the memo of `compile_optics`: benches
    with equal optics share one compiled model, and a fresh bench of known
    optics costs one memo lookup. To perturb a bench, build one from another
    record, `OpticalBench(Optics(psi_minus=(("hwp", 22.5),)))`; nothing of a
    bench is assigned after it is built.
    """

    registry = REGISTRY

    def __init__(self, optics: Optics = Optics()):
        self.optics = optics
        self.compiled = compile_optics(optics)

    # ---- state preparation -------------------------------------------------

    def source_emit(self) -> PureState:
        """Fresh pair from the source: psi+ on (alice, bob)."""
        return self.state_for(MessageSymbol.PSI_PLUS)

    def state_for(self, symbol) -> PureState:
        """Ideal pair state for a message symbol or reference state."""
        if symbol not in _TERMS:
            raise ValueError(f"unknown symbol {symbol!r}")
        return _ideal_state(symbol)

    # ---- encoder and analyzer ----------------------------------------------

    def encode_branches(self, message: MessageSymbol) -> EncodeBranches:
        """This bench's compiled encoder split for `message` (see `_encode_branches`)."""
        if not isinstance(message, MessageSymbol):
            raise ValueError(f"cannot encode non-alphabet symbol {message!r}")
        return self.compiled.branches[ALPHABET.index(message)]

    def analyze(self, state: PureState) -> dict[DetectionPattern, float]:
        """Exact detector statistics of this bench's analyzer."""
        return _analyze(state, self.compiled.composed_analyzer)

    # ---- compiled model ----------------------------------------------------

    def signature_table(self) -> Mapping[MessageSymbol, frozenset[DetectionPattern]]:
        """Detector signatures per message, computed from the optics (read-only)."""
        return self.compiled.signatures

    def classify(self, pattern: DetectionPattern) -> ClassifiedOutcome:
        """Decode one detector pattern by the compiled `decoded` table."""
        compiled = self.compiled
        i = bisect_left(compiled.patterns, pattern)
        if i < len(compiled.patterns) and compiled.patterns[i] == pattern:
            return compiled.outcomes[compiled.decoded[i]]
        return _likeliest([], pattern)  # a pattern no law produces


@lru_cache(maxsize=64)
def _ideal_state(symbol) -> PureState:
    return superpose([
        (amp, make_state(REGISTRY, [ModeLabel(ALICE, pols[0]), ModeLabel(BOB, pols[1])]))
        for amp, pols in _TERMS[symbol]
    ])


def _encode_branches(message: MessageSymbol, elements: tuple[ModeUnitary, ...],
                     analyzer: ModeUnitary) -> EncodeBranches:
    """Exact branch split of the encoder `elements` on a fresh source pair, with
    the law `analyzer` gives each state.

    The controlled branch is the transmitted pair after post-selecting on
    a silent monitor. On a monitor click the sender's photon is absorbed
    at her reject port and the receiver's is left alone; re-emitting her
    photon in the polarization that clicked makes the resent pair. An
    encoder that can click its monitor in more than one way has no one
    resent pair, and raises ProtocolError. A law that does not sum to 1
    within 1e-9 raises ValueError.
    """

    def law(state: PureState | None) -> Mapping[DetectionPattern, float] | None:
        if state is None:
            return None
        analyzed = _analyze(state, analyzer)
        total = sum(analyzed.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"a law of {message} sums to {total}, not 1")
        return MappingProxyType(analyzed)

    routed = _ideal_state(MessageSymbol.PSI_PLUS)
    for element in elements:
        routed = apply_element(routed, element)
    branches = branch_on_modes(routed, MONITOR_MODES)
    silent = (0,) * len(MONITOR_MODES)
    if silent not in branches:
        raise ProtocolError(f"encoder for {message} never transmits")
    p_controlled, controlled = branches.pop(silent)
    if p_controlled < 1.0 - 1e-12:
        if len(branches) > 1:
            ways = [{str(m): n for m, n in zip(MONITOR_MODES, clicks) if n} for clicks in branches]
            raise ProtocolError(f"encoder for {message} has {len(ways)} click branches: {ways}")
        ((clicks, (_, lone)),) = branches.items()
        (clicked,) = (m for m, n in zip(MONITOR_MODES, clicks) if n)
        i = REGISTRY.index(ModeLabel(ALICE, clicked.pol))
        # her path is empty after the click, so the pair (e_i v^T + v e_i^T)/sqrt(2) is normalized
        e, v = np.eye(len(REGISTRY))[i], lone.tensor
        resent = PureState(REGISTRY, (np.outer(e, v) + np.outer(v, e)) * _INV_SQRT2)
        return EncodeBranches(p_controlled, controlled, lone, resent,
                              law(controlled), law(lone), law(resent))
    # never goes wrong: exactly 1, not the 1 within rounding the optics give
    return EncodeBranches(1.0, controlled, None, None, law(controlled), None, None)


def _analyze(state: PureState, analyzer: ModeUnitary) -> dict[DetectionPattern, float]:
    mode_dist = outcome_distribution(apply_element(state, analyzer), ANALYZER_DETECTORS)
    return {DetectionPattern(counts): p for counts, p in mode_dist.items()}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=64)
def compile_optics(optics: Optics) -> CompiledBench:
    """The compiled model of one optics record.

    A pure function of the record, memoized on it: equal records compile
    once per process and share one `CompiledBench`. The elements are built
    here, from the specs, so the memo key is the optics' values, never an
    element's identity, and this memo is the one cache of elements and laws.
    """
    encoders = tuple(tuple(map(_element, specs)) for specs in optics.encoders)
    analyzer_elements = tuple(map(_element, optics.analyzer))
    analyzer = compose(analyzer_elements)
    branches = tuple(_encode_branches(m, e, analyzer) for m, e in zip(ALPHABET, encoders))
    controlled = [b.controlled_law for b in branches]
    signatures = {symbol: frozenset(law) for symbol, law in zip(ALPHABET, controlled)}
    laws = [law for b in branches for law in (b.controlled_law, b.lone_law, b.resent_law)
            if law is not None]
    patterns = tuple(sorted(set().union(*laws)))
    classified = [_likeliest(controlled, p) for p in patterns]
    outcomes = tuple(dict.fromkeys(classified))
    decoded = [outcomes.index(c) for c in classified]
    return CompiledBench(
        encoders=encoders,
        analyzer=analyzer_elements,
        composed_analyzer=analyzer,
        branches=branches,
        p_controlled=_read_only(np.array([b.controlled_probability for b in branches])),
        signatures=MappingProxyType(signatures),
        patterns=patterns,
        outcomes=outcomes,
        decoded=_read_only(np.array(decoded, dtype=np.int8)),
    )


@lru_cache(maxsize=1)
def default_bench() -> OpticalBench:
    """Shared ideal bench; a bench is never changed after it is built, so reuse is safe."""
    return OpticalBench()
