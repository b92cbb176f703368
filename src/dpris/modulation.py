"""Nonlinear time modulation of a phase-only reflective cell.

A cell's reflection phase is driven as a periodic linear ramp with slope
``delta_phi / Ts`` and a cyclic time shift ``t`` inside the symbol period.
The ramp concentrates energy on the first lower harmonic at ``fc - 1/Ts``;
its complex amplitude is controllable through (delta_phi, t), which is what
turns a constant-envelope reflector into a QAM transmitter.

This module provides:

* :func:`waveform`            sampled unimodular ramp waveform
* :func:`harmonic_closed_form` closed-form amplitude/phase of the -1st harmonic
* :func:`exact_coefficient_table` exact Fourier coefficients of many ramps
                              at once, by closed-form integration of the
                              one linear-phase period that starts at the
                              wrap point (the oracle the closed form is
                              checked against; :func:`exact_coefficients`
                              for one ramp)
* :func:`qam_to_tm_table`     inverse mapping from target constellation
                              points to ramp parameters (:func:`qam_to_tm`
                              for one point)
* :func:`map_bits_to_qam`     the frozen Gray-coded 16-QAM table

Conventions fixed by the exact oracle (kept as regression tests): the sinc
is unnormalized sin(u)/u, the unit step is 0 at argument 0, and the
remainder is non-negative.  Phases are reduced to (-pi, pi] at API
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

QAM16_BITS_PER_SYMBOL = 4

# Gray-coded 4-PAM: bit pair (b_hi, b_lo) -> level, adjacent levels differ
# in one bit.  Indexed by (b_hi << 1) | b_lo.
_GRAY_PAM_LEVELS = np.array([-3.0, -1.0, 3.0, 1.0])

# Outer corner (+-3, +-3) normalized to amplitude exactly 1.
QAM16_SCALE = 1.0 / np.sqrt(18.0)

# Symbol index is the 4-bit word b0 b1 b2 b3: b0 b1 select the I level,
# b2 b3 the Q level.  CONSTELLATION16[idx] is the transmitted point.
CONSTELLATION16 = np.array(
    [
        (_GRAY_PAM_LEVELS[idx >> 2] + 1j * _GRAY_PAM_LEVELS[idx & 3]) * QAM16_SCALE
        for idx in range(16)
    ]
)
CONSTELLATION16.setflags(write=False)

QAM16_SYMBOL_ENERGY = float(np.mean(np.abs(CONSTELLATION16) ** 2))  # = 5/9
HARMONIC_AMPLITUDE_BOUND = 1.0 + 1e-9  # a unimodular waveform's largest |harmonic|, plus rounding slack


def wrap_phase(phase):
    """Reduce a phase (scalar or array) to the interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(phase), TWO_PI)


def unnormalized_sinc(u):
    """sin(u)/u with the removable singularity filled in: sinc(0) = 1.

    A float takes a scalar lane: one ``np.sin`` on the float and the same
    IEEE division as an array lane, so both give the same bits.
    """
    if isinstance(u, float):
        return float(np.sin(u) / u) if abs(u) > 0 else 1.0
    u = np.asarray(u, dtype=float)
    out = np.divide(np.sin(u), u, out=np.ones_like(u), where=np.abs(u) > 0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TmSymbolParams:
    """One nonlinear-modulation symbol: total phase drop and cyclic shift.

    ``delta_phi`` in (0, 2*pi]; a zero drop would give a constant waveform
    with no harmonic content and is rejected (cells that must go dark use
    amplitude control at the hardware layer instead).
    """

    delta_phi: float
    t_shift_s: float
    symbol_period_s: float

    def __post_init__(self):
        if not self.symbol_period_s > 0:
            raise ValueError("symbol_period_s must be positive")
        if not 0.0 < self.delta_phi <= TWO_PI:
            raise ValueError(f"delta_phi must lie in (0, 2*pi], got {self.delta_phi}")
        if not 0.0 <= self.t_shift_s < self.symbol_period_s:
            raise ValueError(
                f"t_shift_s must lie in [0, Ts), got {self.t_shift_s} with Ts = {self.symbol_period_s}"
            )


@dataclass(frozen=True)
class HarmonicCoefficient:
    """Complex -1st harmonic coefficient of the ramp waveform, with |value|
    at most :data:`HARMONIC_AMPLITUDE_BOUND`."""

    value: complex

    def __post_init__(self):
        if abs(self.value) > HARMONIC_AMPLITUDE_BOUND:
            raise ValueError(f"harmonic amplitude {abs(self.value)} exceeds 1")

    @property
    def amplitude(self) -> float:
        return abs(self.value)

    @property
    def phase(self) -> float:
        return float(wrap_phase(np.angle(self.value)))


def ramp_phase(delta_phi, t_shift_s, symbol_period_s, t):
    """Instantaneous ramp phase at times ``t`` in [0, Ts] (array-capable).

    The phase falls linearly with slope delta_phi/Ts and wraps up by
    delta_phi at Ts - t_shift (the cyclic shift point).
    """
    ts = symbol_period_s
    slope = delta_phi / ts
    t = np.asarray(t, dtype=float)
    return np.where(
        t <= ts - t_shift_s,
        slope * (ts - t_shift_s - t),
        slope * (2.0 * ts - t_shift_s - t),
    )


def waveform(params: TmSymbolParams, sample_count: int) -> np.ndarray:
    """Sample the unimodular ramp waveform at t_m = m * Ts / M, m = 0..M-1."""
    if sample_count < 2:
        raise ValueError(f"sample_count must be at least 2, got {sample_count}")
    t = np.arange(sample_count) * (params.symbol_period_s / sample_count)
    return np.exp(1j * ramp_phase(params.delta_phi, params.t_shift_s, params.symbol_period_s, t))


def ramp_harmonic_amplitude(delta_phi):
    """Amplitude of the -1st harmonic: |sinc(delta_phi/2 - pi)|.

    Strictly increasing on (0, 2*pi] from 0 to 1, which makes the inverse
    mapping in :func:`qam_to_tm` a plain bisection.  A float gives a float.
    """
    if isinstance(delta_phi, float):
        return abs(unnormalized_sinc(delta_phi / 2.0 - np.pi))
    return np.abs(unnormalized_sinc(np.asarray(delta_phi) / 2.0 - np.pi))


def _zero_shift_phase(delta_phi):
    """-1st harmonic phase at zero time shift.

    delta_phi/2 + step(2*pi - delta_phi)*pi + mod(floor(delta_phi/(2*pi) - 1), 2)*pi - pi
    with step(0) = 0 and a non-negative remainder.
    """
    delta_phi = np.asarray(delta_phi, dtype=float)
    step_term = np.where(TWO_PI - delta_phi > 0, 1.0, 0.0)
    mod_term = np.mod(np.floor(delta_phi / TWO_PI - 1.0), 2.0)
    return delta_phi / 2.0 + step_term * np.pi + mod_term * np.pi - np.pi


def closed_form_value(delta_phi, t_shift_s, symbol_period_s):
    """Closed-form -1st harmonic coefficient (array-capable core)."""
    amp = ramp_harmonic_amplitude(delta_phi)
    phase = -TWO_PI * np.asarray(t_shift_s) / symbol_period_s + _zero_shift_phase(delta_phi)
    return amp * np.exp(1j * wrap_phase(phase))


def harmonic_closed_form(params: TmSymbolParams) -> HarmonicCoefficient:
    """Closed-form amplitude and phase of the -1st order harmonic."""
    value = complex(closed_form_value(params.delta_phi, params.t_shift_s, params.symbol_period_s))
    return HarmonicCoefficient(value=value)


def exact_coefficient_table(delta_phi, t_shift_s, symbol_period_s, orders) -> np.ndarray:
    """Exact Fourier coefficients of n ramps, shape (n, len(orders)) (array-capable core).

    c_k = (1/Ts) * integral of x(t) e^{-j2pikt/Ts} over any one period.  The
    period [Ts - t_shift, 2Ts - t_shift] starts at the wrap point, so on it
    the integrand is the single linear-phase segment e^{j(a + beta*t)}, with
    a = delta_phi/Ts * (2Ts - t_shift) and beta = -(delta_phi + 2*pi*k)/Ts,
    which integrates in closed form to  e^{j(a + beta*mid)} * sinc(beta*Ts/2),
    mid = 1.5Ts - t_shift.  That is exact for every beta, including the
    resonant beta -> 0.  Splitting [0, Ts] at the wrap point instead gives two
    O(1) segments that cancel to the small coefficients of a short ramp and
    lose their phase to rounding.
    """
    ts = symbol_period_s
    delta_phi = np.asarray(delta_phi, dtype=float).reshape(-1, 1)
    t_shift_s = np.asarray(t_shift_s, dtype=float).reshape(-1, 1)
    a = delta_phi / ts * (2.0 * ts - t_shift_s)
    mid = 1.5 * ts - t_shift_s
    beta = -(delta_phi + TWO_PI * np.asarray(orders, dtype=float)) / ts
    return np.exp(1j * (a + beta * mid)) * unnormalized_sinc(0.5 * beta * ts)


def exact_coefficients(params: TmSymbolParams, orders) -> np.ndarray:
    """Exact Fourier coefficients of one ramp at ``orders``; see :func:`exact_coefficient_table`."""
    return exact_coefficient_table(params.delta_phi, params.t_shift_s, params.symbol_period_s, orders)[0]


def qam_to_tm_table(targets, symbol_period_s: float) -> tuple[TmSymbolParams, ...]:
    """Invert the closed form: find (delta_phi, t_shift) hitting each QAM target.

    An amplitude of 1 or more maps to delta_phi = 2*pi.  Every distinct
    amplitude below 1 (16-QAM has two such rings) is recovered by bisecting
    the strictly increasing harmonic amplitude on [1e-12, 2*pi], for at most
    200 steps, as a loop on Python floats: a ring takes about 55 steps, too
    few for numpy's per-call cost to pay off.  The loop stops early once
    the midpoint equals lo or hi (adjacent doubles): from there every further
    step leaves the final midpoint unchanged, so the result is the full
    200-step one, and each target's result is the one a single-target call
    gives.  The amplitude still comes from ``np.sin``, through the scalar
    lane of :func:`unnormalized_sinc`, not from ``math.sin``: the C
    library's sine need not round as numpy's does, and one sine keeps the
    result bit-identical to an array evaluation.
    Amplitudes come from Python's ``abs(complex(t))`` on purpose: ``np.abs``
    differs by one ulp on the 16-QAM middle ring, which moves delta_phi.
    The time shifts then follow in closed form from the phase relation, in
    one array expression, and are wrapped into [0, Ts).
    """
    points = [complex(t) for t in targets]
    amps = [abs(p) for p in points]
    for amp in amps:
        if amp == 0.0:
            raise ValueError(
                "zero amplitude is unreachable (harmonic vanishes only as delta_phi -> 0)"
            )
        if amp > 1.0 + 1e-12:
            raise ValueError(f"target amplitude {amp} exceeds the reachable maximum 1")
    ring_drops = {}
    for amp in {amp for amp in amps if amp < 1.0}:
        lo, hi = 1e-12, TWO_PI
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if ramp_harmonic_amplitude(mid) < amp:
                lo = mid
            else:
                hi = mid
        ring_drops[amp] = 0.5 * (lo + hi)
    delta_phis = np.array([ring_drops.get(amp, TWO_PI) for amp in amps])
    t_shifts = (
        (_zero_shift_phase(delta_phis) - np.angle(points)) / TWO_PI * symbol_period_s
    ) % symbol_period_s
    t_shifts[t_shifts >= symbol_period_s] = 0.0  # fold the t == Ts rounding corner
    return tuple(
        TmSymbolParams(delta_phi=delta_phi, t_shift_s=t_shift, symbol_period_s=symbol_period_s)
        for delta_phi, t_shift in zip(delta_phis.tolist(), t_shifts.tolist())
    )


def qam_to_tm(target, symbol_period_s: float) -> TmSymbolParams:
    """Ramp parameters for one QAM target; see :func:`qam_to_tm_table`."""
    return qam_to_tm_table([target], symbol_period_s)[0]


def bits_to_symbol_indices(bits) -> np.ndarray:
    """Pack a bit sequence (multiple of 4) into 4-bit symbol indices."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1 or bits.size % QAM16_BITS_PER_SYMBOL != 0:
        raise ValueError(f"bit count must be a positive multiple of 4, got {bits.size}")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    groups = bits.reshape(-1, QAM16_BITS_PER_SYMBOL)
    return (groups[:, 0] << 3) | (groups[:, 1] << 2) | (groups[:, 2] << 1) | groups[:, 3]


def symbol_indices_to_bits(indices) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.int64)
    out = np.empty((indices.size, QAM16_BITS_PER_SYMBOL), dtype=np.int64)
    out[:, 0] = (indices >> 3) & 1
    out[:, 1] = (indices >> 2) & 1
    out[:, 2] = (indices >> 1) & 1
    out[:, 3] = indices & 1
    return out.reshape(-1)


def bytes_to_symbol_indices(data) -> np.ndarray:
    """Split a uint8 byte array into 4-bit symbol indices, high nibble first.

    Same order as :func:`bits_to_symbol_indices` on the MSB-first
    ``np.unpackbits`` of the bytes, without materializing the bits.
    """
    data = np.asarray(data, dtype=np.uint8).reshape(-1)
    out = np.empty(2 * data.size, dtype=np.uint8)
    out[0::2] = data >> 4
    out[1::2] = data & 0x0F
    return out


def symbol_indices_to_bytes(indices) -> np.ndarray:
    """Inverse of :func:`bytes_to_symbol_indices` for indices in 0..15."""
    indices = np.asarray(indices, dtype=np.uint8).reshape(-1)
    if indices.size % 2 != 0:
        raise ValueError(f"symbol count must be even, got {indices.size}")
    return (indices[0::2] << 4) | indices[1::2]


def map_bits_to_qam(bits) -> np.ndarray:
    """Gray-coded 16-QAM mapping, outer-corner amplitude exactly 1.

    The frozen table lives in CONSTELLATION16; see the README for the full
    bit-pattern listing.  Ring amplitudes are 1/3, sqrt(10)/sqrt(18), 1.
    """
    return CONSTELLATION16[bits_to_symbol_indices(bits)]
