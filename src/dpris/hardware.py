"""Control-path hardware model for the dual-polarized reflective surface.

The physical path from a wanted reflection phase to the realized reflection
value is: phase -> bias voltage (inverse transfer curve) -> DAC ->
inter-polarization voltage coupling -> realized phase (forward curve),
with the reflection amplitude set by the cell efficiency plus a small
bias-dependent ripple.

The measured transfer curves of a real surface are loaded from CSV; the
built-in defaults are synthetic tanh-shaped curves (monotone, full 2*pi
span, deliberately different between the polarizations) and must never be
presented as measured data.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import Polarization
from .modulation import TWO_PI, ramp_phase

DEFAULT_VOLTAGE_RANGE = (0.0, 20.0)
_DEFAULT_LUT_POINTS = 4097
# Synthetic default curve shapes: tanh center / slope in volts per
# polarization.  Different on purpose: the two polarizations of a real cell
# respond differently because the cell is not rotationally symmetric.
_DEFAULT_TANH = {Polarization.POL0: (10.0, 4.0), Polarization.POL1: (8.0, 5.0)}
# The quantizer divides the voltage span by 2**bits - 1 levels, which must
# be a finite float.
MAX_DAC_BITS = 1023


class PhaseRangeError(ValueError):
    """A requested phase is outside the span the transfer curve can realize."""


@dataclass(frozen=True)
class PhaseVoltageLut:
    """Per-polarization monotone bias-voltage <-> phase-shift transfer curves.

    Both coordinate lists are strictly increasing, which makes the curve
    invertible by swapping interpolation axes.
    """

    voltages: tuple[np.ndarray, np.ndarray]
    phases: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        volts = []
        phases = []
        for pol in Polarization:
            v = np.array(self.voltages[pol], dtype=float)
            p = np.array(self.phases[pol], dtype=float)
            if v.ndim != 1 or v.size < 2 or v.shape != p.shape:
                raise ValueError("each polarization needs matching 1-d tables with >= 2 points")
            if not (np.all(np.isfinite(v)) and np.all(np.isfinite(p))):
                raise ValueError(f"voltages and phases for polarization {int(pol)} must be finite")
            # Neighbours are compared, not subtracted: a finite span can overflow.
            if not np.all(v[1:] > v[:-1]):
                raise ValueError(f"voltages for polarization {int(pol)} must be strictly increasing")
            if not np.all(p[1:] > p[:-1]):
                raise ValueError(f"phases for polarization {int(pol)} must be strictly increasing")
            v.setflags(write=False)
            p.setflags(write=False)
            volts.append(v)
            phases.append(p)
        object.__setattr__(self, "voltages", tuple(volts))
        object.__setattr__(self, "phases", tuple(phases))

    def voltage_span(self, pol: Polarization) -> tuple[float, float]:
        v = self.voltages[pol]
        return float(v[0]), float(v[-1])

    def phase_span(self, pol: Polarization) -> tuple[float, float]:
        p = self.phases[pol]
        return float(p[0]), float(p[-1])

    def count_out_of_range(self, volts, pol: Polarization, axis=None):
        """Voltages beyond the rails: an int, or counts along ``axis``."""
        lo, hi = self.voltage_span(pol)
        v = np.asarray(volts, dtype=float)
        counts = np.count_nonzero((v < lo) | (v > hi), axis=axis)
        return int(counts) if axis is None else counts


@functools.cache
def default_lut() -> PhaseVoltageLut:
    """Synthetic default transfer curves over 0..20 V.

    Normalized tanh shapes spanning exactly [0, 2*pi] so every ramp phase is
    realizable.  Synthetic stand-ins for unpublished measured curves.  Built
    once per process: every call returns the same object, whose arrays are
    read-only.
    """
    v_lo, v_hi = DEFAULT_VOLTAGE_RANGE
    grid = np.linspace(v_lo, v_hi, _DEFAULT_LUT_POINTS)
    volts = []
    phases = []
    for pol in Polarization:
        center, slope = _DEFAULT_TANH[pol]
        shape = 0.5 * (1.0 + np.tanh((grid - center) / slope))
        lo = 0.5 * (1.0 + np.tanh((v_lo - center) / slope))
        hi = 0.5 * (1.0 + np.tanh((v_hi - center) / slope))
        volts.append(grid)
        phases.append(TWO_PI * (shape - lo) / (hi - lo))
    return PhaseVoltageLut(voltages=tuple(volts), phases=tuple(phases))


def load_lut_csv(path) -> PhaseVoltageLut:
    """Load measured transfer curves.

    Expected CSV header: polarization, voltage_volts, phase_degrees.  Rows
    may appear in any order; voltage must be strictly increasing within each
    polarization (validated by the constructor).
    """
    rows: dict[int, list[tuple[float, float]]] = {0: [], 1: []}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"polarization", "voltage_volts", "phase_degrees"}
        try:
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(
                    f"LUT CSV must have columns {sorted(required)}, got {reader.fieldnames}"
                )
            for i, row in enumerate(reader):
                try:
                    pol = int(row["polarization"])
                    volt = float(row["voltage_volts"])
                    phase = float(row["phase_degrees"])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"bad LUT row {i + 2}: {row}") from exc
                if pol not in (0, 1):
                    raise ValueError(f"polarization must be 0 or 1, got {pol} at row {i + 2}")
                rows[pol].append((volt, np.deg2rad(phase)))
        # The csv module's own errors (a field over its size limit) are malformed input too.
        except csv.Error as exc:
            raise ValueError(f"malformed LUT CSV at line {reader.line_num}: {exc}") from exc
    tables = []
    for pol in (0, 1):
        if len(rows[pol]) < 2:
            raise ValueError(f"polarization {pol} needs at least 2 LUT points")
        pairs = sorted(rows[pol])
        tables.append((np.array([v for v, _ in pairs]), np.array([p for _, p in pairs])))
    return PhaseVoltageLut(
        voltages=(tables[0][0], tables[1][0]), phases=(tables[0][1], tables[1][1])
    )


@dataclass(frozen=True)
class HardwareConfig:
    """Impairment knobs for the control path.

    Defaults follow the prototype-scale numbers: 16 dB inter-polarization
    isolation, ideal DAC, 1 dB peak-to-peak amplitude ripple, and a base
    reflection amplitude of 0.84 (about -1.5 dB, comfortably above the 70%
    cell efficiency floor).
    """

    isolation_db: float = 16.0
    dac_bits: int | None = None          # None = ideal converter
    amplitude_ripple_db: float = 1.0
    base_reflection_amplitude: float = 0.84

    def __post_init__(self):
        if not self.isolation_db > 0:
            raise ValueError("isolation_db must be positive")
        if self.dac_bits is not None and not 1 <= self.dac_bits <= MAX_DAC_BITS:
            raise ValueError(
                f"dac_bits must lie in [1, {MAX_DAC_BITS}] or be None for ideal, got {self.dac_bits}"
            )
        if self.amplitude_ripple_db < 0:
            raise ValueError("amplitude_ripple_db must be non-negative")
        if not 0.0 < self.base_reflection_amplitude <= 1.0:
            raise ValueError("base_reflection_amplitude must lie in (0, 1]")
        # A passive cell reflects at most what it receives: the ripple peak,
        # base * 10^(ripple/40), must not exceed 1.  Compared in dB, so no
        # ripple can overflow the check.
        max_ripple_db = -40.0 * math.log10(self.base_reflection_amplitude)
        if not self.amplitude_ripple_db <= max_ripple_db:
            raise ValueError(
                f"amplitude_ripple_db {self.amplitude_ripple_db!r} lifts the reflection amplitude "
                f"above 1; base_reflection_amplitude {self.base_reflection_amplitude!r} allows "
                f"at most {max_ripple_db:.6g} dB"
            )


def ideal_hardware() -> HardwareConfig:
    """Impairment-free configuration: no coupling, ideal DAC, flat unit amplitude."""
    return HardwareConfig(
        isolation_db=float("inf"),
        dac_bits=None,
        amplitude_ripple_db=0.0,
        base_reflection_amplitude=1.0,
    )


def coupling_factor(isolation_db: float) -> float:
    """Linear voltage coupling factor kappa = 10^(-isolation/20); inf -> 0."""
    return float(10.0 ** (-isolation_db / 20.0))


def phase_to_voltage(phase, pol: Polarization, lut: PhaseVoltageLut):
    """Bias voltage realizing a phase, by inverse piecewise-linear interpolation.

    The phase is first reduced modulo 2*pi; a reduced phase outside the
    curve's covered span raises :class:`PhaseRangeError`.
    """
    phases = lut.phases[pol]
    reduced = np.mod(phase, TWO_PI)
    lo, hi = lut.phase_span(pol)
    bad = (np.asarray(reduced) < lo - 1e-12) | (np.asarray(reduced) > hi + 1e-12)
    if np.any(bad):
        raise PhaseRangeError(
            f"phase outside realizable span [{lo:.6f}, {hi:.6f}] rad for polarization {int(pol)}"
        )
    out = np.interp(reduced, phases, lut.voltages[pol])
    return float(out) if np.isscalar(phase) else out


def voltage_to_phase(v, pol: Polarization, lut: PhaseVoltageLut):
    """Realized phase for a bias voltage; out-of-range voltages saturate.

    Saturation mirrors a DAC/driver hitting its rails; use
    :meth:`PhaseVoltageLut.count_out_of_range` for the clip diagnostic.
    """
    out = np.interp(v, lut.voltages[pol], lut.phases[pol])
    return float(out) if np.isscalar(v) else out


def apply_coupling(v0, v1, isolation_db: float):
    """Mutually couple two bias-voltage blocks at the given isolation.

    Each line picks up kappa times the AC component (sample minus block
    mean) of the other line, matching how the coupled waveform rides on top
    of the victim line's own signal rather than shifting its DC level.
    Blocks are coupled as given; callers wanting per-symbol AC references
    pass one symbol at a time (or rows of a (n_symbols, samples) array).
    """
    v0 = np.asarray(v0, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    if v0.shape != v1.shape:
        raise ValueError(f"voltage blocks must have equal shapes, got {v0.shape} and {v1.shape}")
    kappa = coupling_factor(isolation_db)
    ac0 = v0 - v0.mean(axis=-1, keepdims=True)
    ac1 = v1 - v1.mean(axis=-1, keepdims=True)
    return v0 + kappa * ac1, v1 + kappa * ac0


def quantize_dac(v, bits: int | None, v_min: float, v_max: float):
    """Uniform mid-tread quantizer over [v_min, v_max]; None passes through."""
    if bits is None:
        return v
    levels = (1 << bits) - 1
    step = (v_max - v_min) / levels
    return v_min + np.round((np.asarray(v, dtype=float) - v_min) / step) * step


def reflection_amplitude(v, pol: Polarization, lut: PhaseVoltageLut, hw: HardwareConfig):
    """Reflection magnitude at a bias voltage: base amplitude plus dB ripple.

    The ripple is a deterministic sinusoid of the voltage with peak-to-peak
    excursion ``amplitude_ripple_db``, bounding the fluctuation without
    inventing a stochastic model.
    """
    lo, hi = lut.voltage_span(pol)
    ripple_db = 0.5 * hw.amplitude_ripple_db * np.sin(TWO_PI * (np.asarray(v) - lo) / (hi - lo))
    return hw.base_reflection_amplitude * 10.0 ** (ripple_db / 20.0)


@dataclass(frozen=True)
class DistortionResult:
    """Realized per-polarization reflection waveforms plus clip diagnostics."""

    wave0: np.ndarray            # (n_symbols, samples) complex
    wave1: np.ndarray
    clipped0: int                # post-coupling samples beyond the voltage rails
    clipped1: int


def distort_reflection(
    stream0_params, stream1_params, lut: PhaseVoltageLut, hw: HardwareConfig, samples: int
) -> DistortionResult:
    """Run two per-polarization symbol streams through the control path.

    Pipeline per sample: wanted ramp phase -> inverse curve -> DAC ->
    mutual coupling (per-symbol AC) -> rail clipping -> forward curve ->
    base amplitude with ripple.  With coupling off, an ideal DAC and zero
    ripple this reduces to ``base_amplitude * waveform(params)`` exactly up
    to curve interpolation rounding.

    The stages before coupling see one polarization alone, so they run once
    per distinct symbol of each stream, and their rows are then gathered into
    symbol order.  Symbols are told apart by object identity, so a stream
    drawn from a 16-entry params table needs 16 rows, however long it is.
    Coupling and every later stage run once per symbol pair, unless the
    coupling factor kappa is exactly 0 (coupling off, or an isolation so high
    that kappa underflows): then each polarization depends on its own symbol
    alone, and every stage runs once per distinct symbol.  Every stage is
    elementwise along its row, so a gathered row is the same IEEE result as
    one computed in place.
    """
    if len(stream0_params) != len(stream1_params):
        raise ValueError("streams must carry the same number of symbols")
    if samples < 2:
        raise ValueError("samples must be at least 2")

    def dac_rows(params_seq, pol):
        # One row per distinct params object, in first-seen order, and each
        # symbol's row among them.
        distinct = dict(zip(map(id, params_seq), params_seq))
        row_of = dict(zip(distinct, range(len(distinct))))
        index = np.fromiter(
            map(row_of.__getitem__, map(id, params_seq)), dtype=np.intp, count=len(params_seq)
        )
        ramps = np.array([(p.delta_phi, p.t_shift_s, p.symbol_period_s) for p in distinct.values()])
        delta_phi, t_shift, period = ramps.reshape(-1, 3).T[:, :, None]  # (k, 1) columns
        t = np.arange(samples) * (period / samples)
        volts = phase_to_voltage(ramp_phase(delta_phi, t_shift, period, t), pol, lut)
        lo, hi = lut.voltage_span(pol)
        return quantize_dac(volts, hw.dac_bits, lo, hi), index

    def reflect(v, pol, index):
        # Rail clipping (in place: v is a temporary of this call), forward
        # curve and amplitude on the rows of v; symbol i takes row index[i],
        # or row i when index is None.
        row_clips = lut.count_out_of_range(v, pol, axis=-1)
        if index is None:
            clipped = int(row_clips.sum())
        else:
            clipped = int(np.bincount(index, minlength=len(v)) @ row_clips)
        np.clip(v, *lut.voltage_span(pol), out=v)
        wave = reflection_amplitude(v, pol, lut, hw) * np.exp(1j * voltage_to_phase(v, pol, lut))
        return (wave if index is None else wave[index]), clipped

    v0, index0 = dac_rows(stream0_params, Polarization.POL0)
    v1, index1 = dac_rows(stream1_params, Polarization.POL1)
    if coupling_factor(hw.isolation_db) != 0.0:
        v0, v1 = apply_coupling(v0[index0], v1[index1], hw.isolation_db)
        index0 = index1 = None
    wave0, clipped0 = reflect(v0, Polarization.POL0, index0)
    wave1, clipped1 = reflect(v1, Polarization.POL1, index1)
    return DistortionResult(wave0=wave0, wave1=wave1, clipped0=clipped0, clipped1=clipped1)
