"""Complex-baseband types and the two equivalent forms of the received signal.

A dual-polarized reflective surface with N cells transmits 2N baseband
values (one per cell per polarization).  The receive side sees

    y = sqrt(P) * H2 * Phi(x) * H1 * c + w          (full form)
    y = sqrt(P) * H2 * E * x + w                    (reduced form)

where E = diag(H1 @ c) folds the deterministic feed illumination into a
per-cell attenuation.  Both forms are implemented here and their exact
equivalence is a tested invariant.

Vector layout everywhere: all polarization-0 entries first, then all
polarization-1 entries.  Complex values are double precision; matrices are
dense (desk-scale N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

_AMPLITUDE_SLACK = 1e-9
_CARRIER_NORM_TOL = 1e-9


class Polarization(IntEnum):
    """The two orthogonal polarizations, used as block index everywhere."""

    POL0 = 0
    POL1 = 1


def _norm(c: np.ndarray) -> float:
    """Euclidean norm of a vector; NaN or inf when an entry is not finite."""
    return math.hypot(*map(abs, c.tolist()))


def _frozen_complex_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ReflectionVector:
    """Length-2N vector of normalized reflection coefficients.

    Entry magnitudes are amplitude coefficients in [0, 1]; the layout is the
    polarization-0 block (cells 1..N) followed by the polarization-1 block.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_vector(self.entries, "entries")
        if arr.size == 0 or arr.size % 2 != 0:
            raise ValueError(f"entries must have even positive length, got {arr.size}")
        max_mag = float(np.abs(arr).max())
        if not max_mag <= 1.0 + _AMPLITUDE_SLACK:
            raise ValueError(f"reflection amplitude {max_mag} exceeds 1")
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class ChannelSet:
    """Feed-side channel H1 (2N x 2), receive-side H2 (2K x 2N), carrier split c.

    `c` is the unit-norm decomposition of the feed carrier over the two
    polarizations; `carrier_power_watts` is the single-tone carrier power P.
    """

    h1: np.ndarray
    h2: np.ndarray
    c: np.ndarray
    carrier_power_watts: float = 1.0
    k_rx: int = 1

    def __post_init__(self):
        h1 = np.array(self.h1, dtype=np.complex128)
        h2 = np.array(self.h2, dtype=np.complex128)
        c = _frozen_complex_vector(self.c, "c")
        if h1.ndim != 2 or h1.shape[1] != 2 or h1.shape[0] % 2 != 0:
            raise ValueError(f"h1 must be (2N, 2), got {h1.shape}")
        if h2.ndim != 2 or h2.shape != (2 * self.k_rx, h1.shape[0]):
            raise ValueError(
                f"h2 must be (2K, 2N) = ({2 * self.k_rx}, {h1.shape[0]}), got {h2.shape}"
            )
        if c.shape != (2,):
            raise ValueError(f"c must be a 2-vector, got shape {c.shape}")
        norm = _norm(c)
        if not abs(norm - 1.0) <= _CARRIER_NORM_TOL:
            raise ValueError(f"carrier decomposition must be unit norm, |c| = {norm}")
        if not self.carrier_power_watts > 0:
            raise ValueError("carrier_power_watts must be positive")
        if self.k_rx < 1:
            raise ValueError("k_rx must be a positive integer")
        h1.setflags(write=False)
        h2.setflags(write=False)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "c", c)

    @property
    def n_cells(self) -> int:
        return self.h1.shape[0] // 2


@dataclass(frozen=True)
class ReceivedVector:
    """Length-2K received baseband vector, pol-0 antennas first."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex_vector(self.entries, "entries")
        if arr.size % 2 != 0:
            raise ValueError(f"received vector length must be even, got {arr.size}")
        object.__setattr__(self, "entries", arr)


def build_phi(x: ReflectionVector) -> np.ndarray:
    """Embed a reflection vector as the diagonal matrix diag(Phi0, Phi1)."""
    n = x.entries.size
    phi = np.zeros((n, n), dtype=np.complex128)
    phi.flat[:: n + 1] = x.entries
    return phi


def attenuation_from(channels: ChannelSet) -> np.ndarray:
    """Compute E's diagonal, entry i = (H1 @ c)_i, as a read-only complex vector of length 2N.

    Rejects a malformed carrier decomposition (norm off unity by more than
    1e-9); depends only on H1 and c, never on the reflection state.
    """
    norm = _norm(channels.c)
    if not abs(norm - 1.0) <= _CARRIER_NORM_TOL:
        raise ValueError(f"carrier decomposition norm {norm} deviates from 1")
    return _frozen_complex_vector(channels.h1.dot(channels.c), "attenuation")


def _check_noise(channels: ChannelSet, noise) -> np.ndarray:
    w = np.asarray(noise, dtype=np.complex128)
    if w.shape != (2 * channels.k_rx,):
        raise ValueError(f"noise must have shape ({2 * channels.k_rx},), got {w.shape}")
    return w


def received_full(channels: ChannelSet, x: ReflectionVector, noise) -> ReceivedVector:
    """Full-form received vector: sqrt(P) * H2 * Phi(x) * H1 * c + w."""
    if x.entries.size != 2 * channels.n_cells:
        raise ValueError(
            f"reflection vector length {x.entries.size} does not match 2N = {2 * channels.n_cells}"
        )
    w = _check_noise(channels, noise)
    amp = math.sqrt(channels.carrier_power_watts)
    # ndarray.dot makes the same BLAS matrix-vector call as @, at less cost per call.
    y = amp * (channels.h2.dot(build_phi(x).dot(channels.h1.dot(channels.c)))) + w
    return ReceivedVector(y)


def received_reduced(channels: ChannelSet, e: np.ndarray, x: ReflectionVector, noise) -> ReceivedVector:
    """Reduced-form received vector: sqrt(P) * H2 * E * x + w, with ``e`` E's diagonal."""
    if x.entries.size != 2 * channels.n_cells:
        raise ValueError(
            f"reflection vector length {x.entries.size} does not match 2N = {2 * channels.n_cells}"
        )
    if e.shape != (2 * channels.n_cells,):
        raise ValueError(f"attenuation shape {e.shape} does not match (2N,) = ({2 * channels.n_cells},)")
    w = _check_noise(channels, noise)
    amp = math.sqrt(channels.carrier_power_watts)
    y = amp * (channels.h2.dot(e * x.entries)) + w
    return ReceivedVector(y)
