"""Constructors for the linear-optics elements used by the protocol.

All elements are polarization-preserving except the half-wave plate, which
mixes H and V on one path. The symmetric beam-splitter convention is
a† -> (a† + i b†)/sqrt(2); any unitary gauge gives the same count statistics.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import ModeLabel, ModeRegistry, ModeUnitary

# 2x2 symmetric 50/50 splitter, applied per polarization.
_BS_BLOCK = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)


def beam_splitter(registry: ModeRegistry, path_a: str, path_b: str) -> ModeUnitary:
    """50/50 polarization-preserving beam splitter between two paths."""
    if path_a == path_b:
        raise ValueError("beam splitter needs two distinct paths")
    targets = (
        ModeLabel(path_a, "H"),
        ModeLabel(path_b, "H"),
        ModeLabel(path_a, "V"),
        ModeLabel(path_b, "V"),
    )
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0:2, 0:2] = _BS_BLOCK
    matrix[2:4, 2:4] = _BS_BLOCK
    return ModeUnitary(registry, targets, matrix, name=f"BS({path_a},{path_b})")


def pbs(registry: ModeRegistry, path_1: str, path_2: str) -> ModeUnitary:
    """Polarizing beam splitter: H transmits (stays on path), V swaps paths."""
    if path_1 == path_2:
        raise ValueError("PBS needs two distinct paths")
    targets = (
        ModeLabel(path_1, "H"),
        ModeLabel(path_2, "H"),
        ModeLabel(path_1, "V"),
        ModeLabel(path_2, "V"),
    )
    matrix = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    return ModeUnitary(registry, targets, matrix, name=f"PBS({path_1},{path_2})")


def hwp(registry: ModeRegistry, theta_degrees: float, path: str) -> ModeUnitary:
    """Half-wave plate at angle theta on one path.

    Jones matrix [[cos2t, sin2t], [sin2t, -cos2t]] on (H, V): at 0 deg it
    flips the sign of V, at 45 deg it exchanges H and V.
    """
    theta = math.radians(theta_degrees)
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    targets = (ModeLabel(path, "H"), ModeLabel(path, "V"))
    matrix = np.array([[c, s], [s, -c]], dtype=complex)
    return ModeUnitary(registry, targets, matrix, name=f"HWP({theta_degrees:g},{path})")


def polarizer_monitor(
    registry: ModeRegistry, path: str, orientation: str, monitor_path: str
) -> ModeUnitary:
    """PBS-type polarizer with a monitored reject port.

    The component matching ``orientation`` continues on ``path``; the
    orthogonal component is rerouted to ``monitor_path``, where a later
    photodetection registers the sender's reject-port click. Keeping the
    reroute unitary keeps the global state normalized until measurement.
    """
    if orientation not in ("H", "V"):
        raise ValueError(f"orientation must be 'H' or 'V', got {orientation!r}")
    if monitor_path == path:
        raise ValueError("monitor path must differ from the input path")
    rejected = "V" if orientation == "H" else "H"
    targets = (ModeLabel(path, rejected), ModeLabel(monitor_path, rejected))
    matrix = np.array([[0, 1], [1, 0]], dtype=complex)
    return ModeUnitary(
        registry, targets, matrix, name=f"pol({orientation},{path}->{monitor_path})"
    )

