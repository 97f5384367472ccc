"""Exact one- and two-photon Fock states on labeled optical modes.

A state of k photons (k <= 2, or 0 for the vacuum a detection leaves) is one
symmetric tensor T over the registry's modes, |psi> = (k!)^-1/2 sum T_i..
a†_i.. |0>: a photon is a vector v, a pair a symmetric matrix A. Its norm is
the tensor's Frobenius norm. A linear element whose single-photon transfer
matrix on the whole registry is U maps v to U v and A to U A U^T (Kok et
al., Rev. Mod. Phys. 79, 135 (2007)), so photon number is conserved and
interference (e.g. the Hong-Ou-Mandel dip) comes out of the matrix product
with no approximation. Detection reads |T|^2: a pair's photons land in modes
i != j with probability 2|A_ij|^2 and both in mode i with |A_ii|^2. An
outcome or branch below PROBABILITY_FLOOR is dropped, once per law; no state
is ever pruned.

All objects are immutable values; every operation returns a new state.
An element measures its unitarity defect once, when it is validated, and
keeps it (`ModeUnitary.defect`); `apply_element` takes the tensor its product
makes as the new state's own, with no copy.
`compose` folds a sequence of elements into one element that evolves a state
like the sequence does. `sample_outcome` is the one sampling rule: it counts
the outcome thresholds (`raw_thresholds`, a law's boundaries as uint64) below each
raw 64-bit word. This module draws no randomness: the sampler's caller passes
the words.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

# the least probability an outcome or a branch keeps: (1e-14)^2, far below any the optics give
PROBABILITY_FLOOR = 1e-28
UNITARY_TOL = 1e-12

Occupation = tuple[int, ...]
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class RegistryError(ValueError):
    """A mode label or registry does not match where it is used."""


class NonUnitaryError(ValueError):
    """A matrix offered as a mode unitary fails U†U = I."""


class CoverageError(ValueError):
    """Photons have support outside the declared detector modes."""


@dataclass(frozen=True)
class ModeLabel:
    """One optical mode: a spatial path carrying one polarization."""

    path: str
    pol: str

    def __post_init__(self):
        if self.pol not in ("H", "V"):
            raise ValueError(f"polarization must be 'H' or 'V', got {self.pol!r}")

    def __str__(self):
        return f"{self.path}.{self.pol}"


class ModeRegistry:
    """Ordered, immutable list of modes; all vectors and matrices index against it."""

    def __init__(self, labels: Iterable[ModeLabel]):
        self._labels = tuple(labels)
        if len(set(self._labels)) != len(self._labels):
            raise RegistryError("duplicate mode labels in registry")
        self._index = {label: i for i, label in enumerate(self._labels)}
        self._hash = hash(self._labels)

    @classmethod
    def for_paths(cls, paths: Sequence[str]) -> "ModeRegistry":
        """Registry with an H and a V mode for every path, in path order.

        Registries are values: equal path lists give equal registries.
        """
        return cls(ModeLabel(p, pol) for p in paths for pol in ("H", "V"))

    @property
    def labels(self) -> tuple[ModeLabel, ...]:
        return self._labels

    def index(self, label: ModeLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise RegistryError(f"mode {label} is not in the registry") from None

    def modes_on_path(self, path: str) -> tuple[ModeLabel, ...]:
        found = tuple(m for m in self._labels if m.path == path)
        if not found:
            raise RegistryError(f"path {path!r} is not in the registry")
        return found

    def __len__(self):
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __eq__(self, other):
        return isinstance(other, ModeRegistry) and self._labels == other._labels

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ModeRegistry({', '.join(map(str, self._labels))})"


class PureState:
    """Normalized pure state of 0, 1 or 2 photons as one read-only symmetric tensor.

    `tensor` has one axis per photon, each over the registry's modes (see the
    module docstring), so its rank is the photon number. `amplitudes` is a
    derived, read-only view of its nonzero Fock-basis coefficients,
    occupation -> amplitude. States are shared by every bench of one optics,
    so nothing of one can be written.
    """

    __slots__ = ("registry", "tensor")

    def __init__(self, registry: ModeRegistry, tensor):
        tensor = np.array(tensor, dtype=complex)
        size = len(registry)
        if tensor.ndim > 2 or tensor.shape != (size,) * tensor.ndim:
            raise RegistryError(f"shape {tensor.shape}: no state of <= 2 photons on {size} modes")
        tensor.flags.writeable = False
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "tensor", tensor)

    @classmethod
    def _adopt(cls, registry: ModeRegistry, tensor: np.ndarray) -> "PureState":
        """The state of `tensor`, a complex array of a valid shape that no caller
        holds a writable reference to, taken as is: no copy and no check, the
        array set read-only."""
        tensor.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "registry", registry)
        object.__setattr__(state, "tensor", tensor)
        return state

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def photon_number(self) -> int:
        return self.tensor.ndim

    @property
    def amplitudes(self) -> Mapping[Occupation, complex]:
        """Each occupation's amplitude: T at its modes, times sqrt(2) for a pair in two modes."""
        size, tensor = len(self.registry), self.tensor
        return MappingProxyType({
            tuple(modes.count(i) for i in range(size)):
                complex(tensor[tuple(modes)]) / (_INV_SQRT2 if len(set(modes)) == 2 else 1.0)
            for modes in np.argwhere(tensor).tolist() if modes == sorted(modes)  # each once
        })

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.registry != other.registry:
            raise RegistryError("overlap between states on different registries")
        if self.photon_number != other.photon_number:
            return 0j
        return complex(np.vdot(self.tensor, other.tensor))

    def fidelity(self, other: "PureState") -> float:
        """|<self|other>|^2 — phase-insensitive state comparison."""
        return abs(self.overlap(other)) ** 2

    def __repr__(self):
        labels = self.registry.labels
        return " + ".join(
            f"({amp:.4g})|{','.join(f'{m}:{n}' for m, n in zip(labels, occ) if n) or 'vac'}>"
            for occ, amp in sorted(self.amplitudes.items())
        )


@dataclass(frozen=True, eq=False)
class ModeUnitary:
    """Unitary scattering matrix on an ordered subset of registry modes.

    ``matrix[k, j]`` is the amplitude for a photon entering target mode j to
    leave in target mode k; modes outside ``target_modes`` are untouched.
    Validated once at construction; ``defect`` keeps the unitarity defect
    that validation measured (`unitarity_defect` of ``matrix``), ``indices``
    holds the registry index of each target mode and ``transfer`` the matrix
    embedded in the identity on the whole registry, read-only.
    """

    registry: ModeRegistry
    target_modes: tuple[ModeLabel, ...]
    matrix: np.ndarray
    name: str = ""
    defect: float = field(init=False, repr=False)
    indices: tuple[int, ...] = field(init=False, repr=False)
    transfer: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(set(self.target_modes)) != len(self.target_modes):
            raise RegistryError("target modes must be distinct")
        indices = tuple(self.registry.index(m) for m in self.target_modes)
        mat = np.asarray(self.matrix, dtype=complex)
        n = len(self.target_modes)
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not match {n} target modes")
        defect = unitarity_defect(mat)
        if defect > UNITARY_TOL:
            raise NonUnitaryError(f"{self.name or 'element'}: ||U†U - I||_inf = {defect:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "defect", defect)
        object.__setattr__(self, "indices", indices)
        transfer = np.eye(len(self.registry), dtype=complex)
        transfer[np.ix_(indices, indices)] = mat
        transfer.flags.writeable = False
        object.__setattr__(self, "transfer", transfer)

    def dagger(self) -> "ModeUnitary":
        return ModeUnitary(
            self.registry,
            self.target_modes,
            self.matrix.conjugate().T,
            name=f"{self.name}†" if self.name else "",
        )


def compose(elements: tuple[ModeUnitary, ...]) -> ModeUnitary:
    """One element that acts like ``elements`` applied in order, first first.

    Its target modes are the union of theirs, in order of first appearance,
    and its matrix is the product of their matrices on that union: each
    element mixes only the rows of its own target modes.
    """
    if not elements:
        raise ValueError("compose needs at least one element")
    registry = elements[0].registry
    targets = tuple(dict.fromkeys(m for e in elements for m in e.target_modes))
    position = {m: k for k, m in enumerate(targets)}
    total = np.eye(len(targets), dtype=complex)
    for element in elements:
        if element.registry != registry:
            raise RegistryError("compose across different registries")
        at = [position[m] for m in element.target_modes]
        total[at] = element.matrix @ total[at]
    return ModeUnitary(registry, targets, total, name=" > ".join(e.name for e in elements))


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity."""
    mat = np.asarray(matrix, dtype=complex)
    return float(np.max(np.abs(mat.conjugate().T @ mat - np.eye(mat.shape[0]))))


def make_state(registry: ModeRegistry, creation_list: Sequence[ModeLabel]) -> PureState:
    """Normalized Fock state with one photon created per listed mode, at most two.

    Repeated labels stack photons in one mode, and the Fock-basis amplitude
    is exactly 1: a pair in modes i != j is the matrix (e_i e_j^T + e_j e_i^T)/sqrt(2),
    both in mode i is e_i e_i^T.
    """
    modes = [registry.index(label) for label in creation_list]
    if len(modes) > 2:
        raise ValueError(f"a state holds at most two photons, not {len(modes)}")
    tensor = np.zeros((len(registry),) * len(modes), dtype=complex)
    for order in itertools.permutations(modes):
        tensor[order] = _INV_SQRT2 if len(set(modes)) == 2 else 1.0
    return PureState(registry, tensor)


def superpose(terms: Sequence[tuple[complex, PureState]]) -> PureState:
    """Normalized linear combination of states of one photon number on one registry."""
    if not terms:
        raise ValueError("superpose needs at least one term")
    registry, numbers = terms[0][1].registry, {state.photon_number for _, state in terms}
    if any(state.registry != registry for _, state in terms):
        raise RegistryError("superpose across different registries")
    if len(numbers) > 1:
        raise ValueError(f"mixed photon numbers in one state: {sorted(numbers)}")
    combined = sum(coeff * state.tensor for coeff, state in terms)
    norm = np.linalg.norm(combined)
    if norm <= 1e-12:
        raise ValueError("superposition cancels to the zero vector")
    return PureState(registry, combined / norm)


def apply_element(state: PureState, element: ModeUnitary) -> PureState:
    """Evolve a state through one linear element: its transfer matrix U acts on
    every photon's axis, v -> U v and A -> U A U^T. Norm is preserved by unitarity.
    The new state owns the fresh product (the vacuum shares its read-only tensor)."""
    registry = state.registry
    if element.registry is not registry and element.registry != registry:
        raise RegistryError("element built for a different registry")
    u, tensor = element.transfer, state.tensor
    if tensor.ndim:
        tensor = u @ tensor @ u.T if tensor.ndim == 2 else u @ tensor
    return PureState._adopt(registry, tensor)


def outcome_distribution(
    state: PureState, detector_modes: Sequence[ModeLabel]
) -> dict[Occupation, float]:
    """Exact photon-count distribution over number-resolving detectors.

    Keys are count tuples aligned with ``detector_modes``; a count below
    PROBABILITY_FLOOR is dropped. The detectors must cover every mode the
    state has photons in, so probabilities sum to 1.
    """
    registry, k = state.registry, state.photon_number
    detected = [registry.index(m) for m in detector_modes]
    probability = block = np.abs(state.tensor) ** 2
    for axis in range(k):  # the entries with every photon on a detector
        block = block.take(detected, axis=axis)
    if k:  # a mode's photon density is its row of |T|^2
        density = probability.reshape(len(registry), -1).sum(axis=1)
        for i in np.flatnonzero(density >= PROBABILITY_FLOOR).tolist():
            if i not in detected:
                raise CoverageError(f"photon support on undetected mode {registry.labels[i]}")
    dist: dict[Occupation, float] = {}
    for counts, p in zip(_counts(len(detected), k), block.ravel().tolist()):
        dist[counts] = dist.get(counts, 0.0) + p
    return {counts: p for counts, p in dist.items() if p >= PROBABILITY_FLOOR}


@functools.lru_cache(maxsize=None)
def _counts(detectors: int, photons: int) -> tuple[Occupation, ...]:
    """The detector counts each entry of a detected block of `photons` axes reads as,
    in row-major order: one count per axis, at that axis's index."""
    cells = itertools.product(range(detectors), repeat=photons)
    return tuple(tuple(cell.count(d) for d in range(detectors)) for cell in cells)


def raw_thresholds(bounds) -> np.ndarray:
    """Each outcome boundary b as the uint64 threshold T = ceil(b * 2^53) * 2^11 - 1.

    numpy's `Generator.random` makes its double from a raw word as
    (raw >> 11) * 2^-53, and that double is >= b exactly when raw > T, so a rule
    that compares raw words with T draws what one that compares those doubles
    with b draws. A boundary at or above 1, +inf included, maps to 2^64 - 1,
    which no word exceeds. A boundary at or below 0, or NaN, raises ValueError:
    every double is >= it, and no uint64 lies below every word.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    if not (bounds > 0.0).all():
        raise ValueError(f"an outcome boundary must be > 0, not {bounds[~(bounds > 0.0)][0]}")
    # ceil(b * 2^53) is an integer from 1 to 2^53, exact in a double, and the
    # threshold is (it - 1) * 2^11 + 2^11 - 1, so 2^53 reaches 2^64 - 1 without
    # wrapping; every operand is a uint64, so no numpy promotes the words to float
    steps = np.ceil(np.minimum(bounds, 1.0) * 2.0**53).astype(np.uint64)
    return (steps - np.uint64(1)) << np.uint64(11) | np.uint64(2**11 - 1)


def sample_outcome(thresholds, raw, out=None):
    """The sampling rule, for a raw 64-bit word or an array of them: the number of
    outcome thresholds below the word, added into `out` if given.

    A law's thresholds are those (`raw_thresholds`) of its boundaries, its running
    sums without the last, so the count is the index of the first outcome whose
    running sum exceeds the word's uniform, (raw >> 11) * 2^-53, else the last
    outcome's. Each threshold is a uint64 or an array that matches `raw`, so that
    thresholds gathered per word from several laws each draw their own;
    `thresholds` may be any iterable, taken one threshold at a time. A law that
    is padded past its last outcome pads with 2^64 - 1, which no word exceeds.
    """
    drawn = np.zeros(np.shape(raw), dtype=np.intp) if out is None else out
    for threshold in thresholds:
        drawn += raw > threshold
    return drawn[()]


def branch_on_modes(
    state: PureState, modes: Sequence[ModeLabel]
) -> dict[Occupation, tuple[float, PureState]]:
    """All photodetection branches for measuring a subset of modes.

    Returns ``counts -> (probability, post-detection state)``, a branch below
    PROBABILITY_FLOOR dropped, where the detected photons are absorbed and the
    rest renormalized. A photon detected in mode m leaves v[m] of a lone photon
    v and sqrt(2) A[m] of a pair A; a pair detected in modes m != n leaves
    sqrt(2) A[m, n], both in mode m A[m, m]. What is left is kept off the
    measured modes. Measuring every photon leaves the vacuum.
    """
    registry, tensor = state.registry, state.tensor
    measured = [registry.index(m) for m in modes]
    kept = np.ones(len(registry))
    kept[measured] = 0.0
    branches: dict[Occupation, tuple[float, PureState]] = {}
    for clicks in itertools.chain.from_iterable(
        itertools.combinations_with_replacement(measured, n) for n in range(tensor.ndim + 1)
    ):
        sqrt2 = tensor.ndim == 2 and 0 < len(clicks) == len(set(clicks))
        left = tensor[clicks] / (_INV_SQRT2 if sqrt2 else 1.0)
        for axis in range(left.ndim):  # nothing left on a measured mode, along each axis
            left = left * kept.reshape((-1,) + (1,) * axis)
        prob = float(np.linalg.norm(left)) ** 2
        if prob >= PROBABILITY_FLOOR:
            counts = tuple(clicks.count(m) for m in measured)
            branches[counts] = (prob, PureState(registry, left / math.sqrt(prob)))
    return branches
