"""Exact few-photon Fock states on labeled optical modes.

States are sparse maps from occupation vectors to complex amplitudes, which
is exact and cheap for the one- and two-photon circuits simulated here.
Linear elements act by substituting creation operators, a†_j -> sum_k U_kj a†_k,
so photon number is conserved and interference (e.g. the Hong-Ou-Mandel dip)
comes out of the amplitude algebra with no approximation.

All objects are immutable values; every operation returns a new state.
`compose` folds a sequence of elements into one element that evolves a state
like the sequence does. `sample_outcome` is the one sampling rule: it counts
the outcome thresholds (`raw_thresholds`, a law's boundaries as uint64) below each
raw 64-bit word. This module draws no randomness: the sampler's caller passes
the words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

AMPLITUDE_PRUNE = 1e-14
UNITARY_TOL = 1e-12

Occupation = tuple[int, ...]


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


def _sqrt_factorial(occ: Occupation) -> float:
    if max(occ) < 2:
        return 1.0
    out = 1.0
    for n in occ:
        if n > 1:
            out *= math.sqrt(math.factorial(n))
    return out


class PureState:
    """Normalized pure state as a sparse amplitude map over occupation vectors.

    Every basis state carries the same total photon number; amplitudes with
    magnitude below ``AMPLITUDE_PRUNE`` are dropped at construction. The map
    is read-only, since memoized states are shared by every bench.
    """

    __slots__ = ("registry", "amplitudes", "photon_number")

    def __init__(self, registry: ModeRegistry, amplitudes: Mapping[Occupation, complex]):
        pruned: dict[Occupation, complex] = {}
        numbers = set()
        size = len(registry)
        for occ, amp in amplitudes.items():
            if abs(amp) < AMPLITUDE_PRUNE:
                continue
            if len(occ) != size:
                raise RegistryError(f"occupation length {len(occ)} != registry size {size}")
            if min(occ) < 0:
                raise ValueError("negative occupation number")
            numbers.add(sum(occ))
            pruned[occ] = complex(amp)
        if not pruned:
            raise ValueError("state has no amplitude left after pruning")
        if len(numbers) > 1:
            raise ValueError(f"mixed photon numbers in one state: {sorted(numbers)}")
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "amplitudes", MappingProxyType(pruned))
        object.__setattr__(self, "photon_number", numbers.pop())

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.registry != other.registry:
            raise RegistryError("overlap between states on different registries")
        mine = self.amplitudes
        return sum(
            mine[occ].conjugate() * amp
            for occ, amp in other.amplitudes.items()
            if occ in mine
        )

    def fidelity(self, other: "PureState") -> float:
        """|<self|other>|^2 — phase-insensitive state comparison."""
        return abs(self.overlap(other)) ** 2

    def __repr__(self):
        terms = []
        for occ in sorted(self.amplitudes):
            amp = self.amplitudes[occ]
            ket = ",".join(
                f"{label}:{n}" for label, n in zip(self.registry.labels, occ) if n
            )
            terms.append(f"({amp:.4g})|{ket or 'vac'}>")
        return " + ".join(terms)


@dataclass(frozen=True, eq=False)
class ModeUnitary:
    """Unitary scattering matrix on an ordered subset of registry modes.

    ``matrix[k, j]`` is the amplitude for a photon entering target mode j to
    leave in target mode k; modes outside ``target_modes`` are untouched.
    Validated once at construction; ``indices`` holds the registry index of
    each target mode and ``columns[j]`` the ``(registry index, amplitude)``
    pairs of column j's nonzero entries, in row order.
    """

    registry: ModeRegistry
    target_modes: tuple[ModeLabel, ...]
    matrix: np.ndarray
    name: str = ""
    indices: tuple[int, ...] = field(init=False, repr=False)
    columns: tuple[tuple[tuple[int, complex], ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(set(self.target_modes)) != len(self.target_modes):
            raise RegistryError("target modes must be distinct")
        indices = tuple(self.registry.index(m) for m in self.target_modes)
        mat = np.asarray(self.matrix, dtype=complex)
        n = len(self.target_modes)
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not match {n} target modes")
        if unitarity_defect(mat) > UNITARY_TOL:
            raise NonUnitaryError(
                f"{self.name or 'element'}: ||U†U - I||_inf = {unitarity_defect(mat):.3e}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "indices", indices)
        columns = tuple(
            tuple((i, complex(u)) for i, u in zip(indices, mat[:, col].tolist()) if u != 0)
            for col in range(n)
        )
        object.__setattr__(self, "columns", columns)

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
    """Normalized Fock state with one photon created per listed mode.

    Repeated labels stack photons in one mode; the bosonic 1/sqrt(n!) factors
    are absorbed so the returned basis amplitude is exactly 1.
    """
    occ = [0] * len(registry)
    for label in creation_list:
        occ[registry.index(label)] += 1
    return PureState(registry, {tuple(occ): 1.0})


def superpose(terms: Sequence[tuple[complex, PureState]]) -> PureState:
    """Normalized linear combination of states on one registry."""
    if not terms:
        raise ValueError("superpose needs at least one term")
    registry = terms[0][1].registry
    combined: dict[Occupation, complex] = {}
    for coeff, state in terms:
        if state.registry != registry:
            raise RegistryError("superpose across different registries")
        for occ, amp in state.amplitudes.items():
            combined[occ] = combined.get(occ, 0j) + coeff * amp
    norm = math.sqrt(sum(abs(a) ** 2 for a in combined.values()))
    if norm <= 1e-12:
        raise ValueError("superposition cancels to the zero vector")
    return PureState(registry, {occ: a / norm for occ, a in combined.items()})


def apply_element(state: PureState, element: ModeUnitary) -> PureState:
    """Evolve a state through one linear element.

    Each creation operator on a target mode is replaced by the corresponding
    column combination of output creation operators; the amplitude map is then
    recombined over the Fock basis. Norm is preserved by unitarity.
    """
    if element.registry != state.registry:
        raise RegistryError("element built for a different registry")
    idxs, columns = element.indices, element.columns
    out: dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        coeff = amp / _sqrt_factorial(occ)
        base = list(occ)
        counts = []
        for i in idxs:
            counts.append(base[i])
            base[i] = 0
        poly: dict[Occupation, complex] = {tuple(base): coeff}
        for column, count in zip(columns, counts):
            for _ in range(count):
                grown: dict[Occupation, complex] = {}
                for mono, c in poly.items():
                    for i_out, u in column:
                        lifted = list(mono)
                        lifted[i_out] += 1
                        key = tuple(lifted)
                        grown[key] = grown.get(key, 0j) + c * u
                poly = grown
        for mono, c in poly.items():
            out[mono] = out.get(mono, 0j) + c * _sqrt_factorial(mono)
    return PureState(state.registry, out)


def outcome_distribution(
    state: PureState, detector_modes: Sequence[ModeLabel]
) -> dict[Occupation, float]:
    """Exact photon-count distribution over number-resolving detectors.

    Keys are count tuples aligned with ``detector_modes``. The detectors must
    cover every mode the state has photons in, so probabilities sum to 1.
    """
    registry = state.registry
    det_idx = [registry.index(m) for m in detector_modes]
    det_set = frozenset(det_idx)
    dist: dict[Occupation, float] = {}
    for occ, amp in state.amplitudes.items():
        for i, n in enumerate(occ):
            if n and i not in det_set:
                raise CoverageError(
                    f"photon support on undetected mode {registry.labels[i]}"
                )
        pattern = tuple(occ[i] for i in det_idx)
        dist[pattern] = dist.get(pattern, 0.0) + abs(amp) ** 2
    return dist


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

    Returns ``counts -> (probability, post-detection state)`` where the
    detected photons are absorbed (measured modes zeroed) and the remaining
    state renormalized. Measuring every photon leaves the vacuum.
    """
    registry = state.registry
    idxs = [registry.index(m) for m in modes]
    groups: dict[Occupation, dict[Occupation, complex]] = {}
    for occ, amp in state.amplitudes.items():
        key = tuple(occ[i] for i in idxs)
        groups.setdefault(key, {})[occ] = amp
    branches: dict[Occupation, tuple[float, PureState]] = {}
    for key, sub in groups.items():
        prob = sum(abs(a) ** 2 for a in sub.values())
        norm = math.sqrt(prob)
        collapsed: dict[Occupation, complex] = {}
        for occ, amp in sub.items():
            cleared = list(occ)
            for i in idxs:
                cleared[i] = 0
            collapsed[tuple(cleared)] = amp / norm
        branches[key] = (prob, PureState(registry, collapsed))
    return branches

