"""Channel construction: feed illumination, surface-to-receiver paths, AWGN.

The feed-to-surface channel is a deterministic line-of-sight map with a
Friis-style scalar kernel g(d) = (lambda / (4*pi*d)) * exp(-j*2*pi*d/lambda)
per cell and ideal polarization purity (the feed's cross blocks are zero).
The surface-to-receiver channel is either the same geometric kernel or a
seeded i.i.d. Rayleigh draw, with an optional cross-polarization
discrimination knob scaling the cross blocks.

Every randomized constructor takes an explicit seed or generator; nothing
touches global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .model import ChannelSet
from .modulation import QAM16_BITS_PER_SYMBOL, QAM16_SYMBOL_ENERGY, TWO_PI

SPEED_OF_LIGHT = 299792458.0

H2Kind = Literal["los_geometric", "iid_rayleigh"]
# A 1000 x 1000 grid builds a link engine in about 0.6 s at 250 MiB peak RSS
# (2 vCPUs); every per-cell array grows with the product, so much larger
# grids exhaust memory.
MAX_CELLS = 1_000_000


@dataclass(frozen=True)
class Geometry:
    """Prototype-scale placement: feed, cell grid, and receive antennas.

    Defaults mirror the bench setup: a 2.7 GHz carrier, a 12 x 12 grid of
    36 mm x 25 mm cells, the feed on boresight at 0.8 m with its linear
    polarization at 45 degrees, and both dual-polarized receive ports
    co-located on boresight at 1.6 m.
    """

    carrier_frequency_hz: float = 2.7e9
    feed_distance_m: float = 0.8
    rx_distance_m: float = 1.6
    feed_polarization_angle_deg: float = 45.0
    cells_x: int = 12
    cells_y: int = 12
    pitch_x_m: float = 0.036
    pitch_y_m: float = 0.025
    rx_positions_m: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self):
        if self.carrier_frequency_hz <= 0:
            raise ValueError("carrier_frequency_hz must be positive")
        for name in ("feed_distance_m", "rx_distance_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.feed_polarization_angle_deg <= 90.0:
            raise ValueError("feed_polarization_angle_deg must lie in [0, 90]")
        for name in ("cells_x", "cells_y"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.cells_x * self.cells_y > MAX_CELLS:
            raise ValueError(
                f"cell grid {self.cells_x} x {self.cells_y} exceeds {MAX_CELLS} cells"
            )
        if self.rx_positions_m is not None:
            pos = tuple(tuple(float(v) for v in p) for p in self.rx_positions_m)
            if any(len(p) != 3 for p in pos) or not pos:
                raise ValueError("rx_positions_m must be a non-empty list of xyz triples")
            object.__setattr__(self, "rx_positions_m", pos)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def n_cells(self) -> int:
        return self.cells_x * self.cells_y

    @property
    def k_rx(self) -> int:
        return len(self.rx_positions())

    def cell_positions(self) -> np.ndarray:
        """Cell centers on the z = 0 plane, row-major, grid centered at origin."""
        xs = (np.arange(self.cells_x) - (self.cells_x - 1) / 2.0) * self.pitch_x_m
        ys = (np.arange(self.cells_y) - (self.cells_y - 1) / 2.0) * self.pitch_y_m
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([xx.ravel(), yy.ravel(), np.zeros(self.n_cells)], axis=1)

    def feed_position(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.feed_distance_m])

    def rx_positions(self) -> np.ndarray:
        if self.rx_positions_m is None:
            return np.array([[0.0, 0.0, self.rx_distance_m]])
        return np.asarray(self.rx_positions_m, dtype=float)


@dataclass(frozen=True)
class ChannelModelSpec:
    """Receive-side channel flavor.

    ``cross_polarization_discrimination_db = None`` means infinite XPD
    (cross blocks exactly zero), the default: the only cross-polarization
    impairment the bench actually measured is the control-voltage coupling,
    which lives in the hardware module.
    """

    h2_kind: H2Kind = "los_geometric"
    cross_polarization_discrimination_db: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.h2_kind not in get_args(H2Kind):
            raise ValueError(f"h2_kind must be one of {get_args(H2Kind)}, got {self.h2_kind!r}")
        if (
            self.cross_polarization_discrimination_db is not None
            and self.cross_polarization_discrimination_db < 0
        ):
            raise ValueError("cross_polarization_discrimination_db must be >= 0 or None")

    @property
    def cross_scale(self) -> float:
        if self.cross_polarization_discrimination_db is None:
            return 0.0
        return float(10.0 ** (-self.cross_polarization_discrimination_db / 20.0))


def carrier_decomposition(angle_deg: float) -> np.ndarray:
    """Unit-norm split of the feed carrier over the two polarizations."""
    if not 0.0 <= angle_deg <= 90.0:
        raise ValueError(f"feed angle must lie in [0, 90] degrees, got {angle_deg}")
    theta = np.deg2rad(angle_deg)
    return np.array([np.cos(theta), np.sin(theta)], dtype=np.complex128)


def los_kernel(distances, wavelength_m: float) -> np.ndarray:
    """Scalar free-space kernel per path: amplitude lambda/(4*pi*d), phase -2*pi*d/lambda."""
    d = np.asarray(distances, dtype=float)
    return (wavelength_m / (4.0 * np.pi * d)) * np.exp(-1j * TWO_PI * d / wavelength_m)


def build_h1_los(geometry: Geometry) -> np.ndarray:
    """Deterministic feed-to-surface channel, shape (2N, 2).

    Co-polarized blocks carry the per-cell kernel; cross blocks are zero
    (ideal feed purity).  Pure function of the geometry, no RNG.
    """
    dists = np.linalg.norm(geometry.cell_positions() - geometry.feed_position(), axis=1)
    kernel = los_kernel(dists, geometry.wavelength_m)
    n = geometry.n_cells
    h1 = np.zeros((2 * n, 2), dtype=np.complex128)
    h1[:n, 0] = kernel
    h1[n:, 1] = kernel
    return h1


def build_h2(geometry: Geometry, spec: ChannelModelSpec) -> np.ndarray:
    """Surface-to-receiver channel, shape (2K, 2N).

    ``los_geometric`` reuses the free-space kernel per cell-to-antenna path;
    ``iid_rayleigh`` draws unit-variance circular Gaussians from the seed in
    ``spec``.  Cross-polarized blocks are scaled by the XPD factor (exactly
    zero at infinite XPD).
    """
    n = geometry.n_cells
    k = geometry.k_rx
    if spec.h2_kind == "los_geometric":
        dists = np.linalg.norm(
            geometry.rx_positions()[:, None, :] - geometry.cell_positions()[None, :, :], axis=2
        )
        block = los_kernel(dists, geometry.wavelength_m)  # (K, N)
        blocks = {(p, q): block for p in (0, 1) for q in (0, 1)}
    else:
        rng = np.random.default_rng(spec.rng_seed)
        blocks = {}
        for p in (0, 1):
            for q in (0, 1):
                re = rng.standard_normal((k, n))
                im = rng.standard_normal((k, n))
                blocks[(p, q)] = (re + 1j * im) / np.sqrt(2.0)
    h2 = np.zeros((2 * k, 2 * n), dtype=np.complex128)
    cross = spec.cross_scale
    for p in (0, 1):
        for q in (0, 1):
            scale = 1.0 if p == q else cross
            if scale == 0.0:
                continue
            h2[p * k:(p + 1) * k, q * n:(q + 1) * n] = scale * blocks[(p, q)]
    return h2


def channel_set_from(geometry: Geometry, spec: ChannelModelSpec) -> ChannelSet:
    """Assemble the full ChannelSet for a geometry and channel flavor, at a 1 W carrier."""
    return ChannelSet(
        h1=build_h1_los(geometry),
        h2=build_h2(geometry, spec),
        c=carrier_decomposition(geometry.feed_polarization_angle_deg),
        k_rx=geometry.k_rx,
    )


def effective_stream_channel(h2: np.ndarray, e: np.ndarray, carrier_power_watts: float = 1.0) -> np.ndarray:
    """Aggregate per-stream channel G, shape (2K, 2), from H2 and E's diagonal ``e``.

    With every cell of polarization q carrying one common stream symbol, the
    2N-dimensional reduced model collapses to y = G @ [s0, s1]^T + w where
    column q of G sums sqrt(P) * H2 * E over the polarization-q cell block.
    """
    h2 = np.asarray(h2, dtype=np.complex128)
    if h2.ndim != 2 or e.shape != (h2.shape[1],) or h2.shape[1] % 2 != 0:
        raise ValueError(f"h2 columns ({h2.shape}) must match attenuation shape {e.shape}")
    n = e.size // 2
    weighted = h2 * e[None, :]
    g = np.stack([weighted[:, :n].sum(axis=1), weighted[:, n:].sum(axis=1)], axis=1)
    return np.sqrt(carrier_power_watts) * g


def awgn(
    length: int,
    noise_power: float,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Circular complex Gaussian noise, per-entry variance = noise_power.

    Draws ``2 * length`` standard normals, the real parts first, then the
    imaginary parts; zero power draws nothing.  ``out`` (complex128,
    ``length`` entries) receives the noise and ``scratch`` (float64, at
    least ``2 * length`` entries) holds the draws; each is allocated when
    omitted.
    """
    if noise_power < 0:
        raise ValueError("noise_power must be non-negative")
    if out is None:
        out = np.empty(length, dtype=np.complex128)
    if noise_power == 0.0:
        out.fill(0.0)
        return out
    scale = np.sqrt(noise_power / 2.0)
    draws = np.empty(2 * length) if scratch is None else scratch[: 2 * length]
    rng.standard_normal(out=draws)
    np.multiply(draws[:length], scale, out=out.real)
    np.multiply(draws[length:], scale, out=out.imag)
    return out


def mean_row_energy(g: np.ndarray) -> float:
    """Mean over the receive ports of each row's energy, sum_q |G[k, q]|^2."""
    return float(np.mean(np.sum(np.abs(np.asarray(g)) ** 2, axis=1)))


def noise_power_for_ebn0(g: np.ndarray, ebn0_db: float) -> float:
    """Receive-port noise power realizing a requested Eb/N0.

    The frozen SNR reference: per-port signal power is the mean row energy
    of G times the 16-QAM symbol energy; Eb/N0 divides that by the 4 bits
    per symbol.  At the symmetric default geometry both rows carry the
    same energy, making the reference exact per port.  Where 10^(Eb/N0 / 10)
    leaves the float range the power is what it rounds to: 0 at +inf dB or
    an overflow, inf at -inf dB or an underflow to 0.
    """
    try:
        gamma = 10.0 ** (ebn0_db / 10.0)
    except OverflowError:
        gamma = math.inf
    if gamma == 0.0:
        return math.inf
    return mean_row_energy(g) * QAM16_SYMBOL_ENERGY / (QAM16_BITS_PER_SYMBOL * gamma)
