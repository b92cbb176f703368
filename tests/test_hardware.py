"""Control-path hardware: transfer curves, coupling, the distortion pipeline."""

import numpy as np
import pytest

from dpris import campaign, hardware
from dpris.campaign import LinkEngine
from dpris.config import CampaignConfig
from dpris.hardware import (
    DEFAULT_VOLTAGE_RANGE,
    HardwareConfig,
    PhaseRangeError,
    PhaseVoltageLut,
    apply_coupling,
    coupling_factor,
    default_lut,
    distort_reflection,
    load_lut_csv,
    phase_to_voltage,
    quantize_dac,
    reflection_amplitude,
    voltage_to_phase,
)
from dpris.model import Polarization
from dpris.modulation import (
    CONSTELLATION16,
    TWO_PI,
    TmSymbolParams,
    qam_to_tm,
    ramp_phase,
    waveform,
)
from dpris.receiver import demap_indices, estimate_channel, extract_harmonic, mix2

TS = 4e-7
P0 = Polarization.POL0
P1 = Polarization.POL1
# Impairment-free hardware: no coupling, ideal DAC, flat unit amplitude.
IDEAL_HARDWARE = HardwareConfig(
    isolation_db=float("inf"), dac_bits=None, amplitude_ripple_db=0.0, base_reflection_amplitude=1.0
)


def symmetric_lut():
    """Both polarizations share the pol-0 curve (isolates coupling symmetry)."""
    lut = default_lut()
    return PhaseVoltageLut(
        voltages=(lut.voltages[0], lut.voltages[0]), phases=(lut.phases[0], lut.phases[0])
    )


# -- transfer curves -----------------------------------------------------------


def test_default_lut_monotone_and_full_span():
    lut = default_lut()
    for pol in (P0, P1):
        assert np.all(np.diff(lut.voltages[pol]) > 0)
        assert np.all(np.diff(lut.phases[pol]) > 0)
        lo, hi = lut.phase_span(pol)
        assert lo == 0.0 and abs(hi - TWO_PI) < 1e-12


def test_default_lut_is_built_once_with_read_only_curves():
    lut = default_lut()
    assert default_lut() is lut
    fresh = default_lut.__wrapped__()
    for cached, built in ((lut.voltages, fresh.voltages), (lut.phases, fresh.phases)):
        for pol in (P0, P1):
            assert np.array_equal(cached[pol], built[pol])
            with pytest.raises(ValueError, match="read-only"):
                cached[pol][0] = 1.0


def test_phase_to_voltage_at_breakpoint():
    lut = default_lut()
    k = 1234
    phase = lut.phases[P0][k]
    assert abs(phase_to_voltage(phase, P0, lut) - lut.voltages[P0][k]) < 1e-12


def test_phase_voltage_round_trip():
    lut = default_lut()
    rng = np.random.default_rng(17)
    phases = rng.uniform(1e-3, TWO_PI - 1e-3, 100)
    for pol in (P0, P1):
        volts = phase_to_voltage(phases, pol, lut)
        back = voltage_to_phase(volts, pol, lut)
        assert np.max(np.abs(back - phases)) < 1e-9


def _unsorted_block(rng, size, points, specials):
    """``size`` unsorted values over ``points`` and beyond, with runs of repeats and every special value."""
    lo, hi = points[0], points[-1]
    values = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), size)
    values[rng.integers(0, size, size // 4)] = rng.choice(points, size // 4)  # breakpoints
    values[rng.integers(0, size, 64)] = rng.choice(specials, 64)
    values[size // 3 : size // 3 + 50] = values[0]  # a run of repeats
    return values


# Columns, rows and 1-D blocks, with totals around 2**14 samples.
_LOOKUP_SHAPES = [
    (4095, 1),
    (4096, 1),
    (2**14 - 1, 1),
    (2**14, 1),
    (2**14 + 1, 1),
    (2 * 2**14 + 3, 1),
    (256, 64),
    (129, 127),
    (2**14 + 1,),
]


@pytest.mark.parametrize("shape", _LOOKUP_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
def test_curve_lookups_match_np_interp_bit_for_bit(shape):
    lut = default_lut()
    rng = np.random.default_rng(list(shape))
    size = int(np.prod(shape))
    for pol in (P0, P1):
        volts, phases = lut.voltages[pol], lut.phases[pol]
        lo, hi = lut.voltage_span(pol)
        v = _unsorted_block(rng, size, volts, [np.nan, np.inf, -np.inf, lo, hi, -0.0, 0.0]).reshape(shape)
        got = voltage_to_phase(v, pol, lut)
        assert got.shape == shape
        assert got.tobytes() == np.interp(v, volts, phases).tobytes()
        # Phases reduce modulo 2*pi first: NaN and the infinities reduce to
        # NaN, which the span check lets through.
        p = _unsorted_block(rng, size, phases, [np.nan, np.inf, -np.inf, TWO_PI, -0.0, 0.0]).reshape(shape)
        with np.errstate(invalid="ignore"):
            got = phase_to_voltage(p, pol, lut)
            want = np.interp(np.mod(p, TWO_PI), phases, volts)
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()


def test_default_curve_half_turn_voltage_matches_analytic_bisection():
    # independent oracle: bisect the analytic normalized tanh shape directly
    lut = default_lut()
    v_lo, v_hi = DEFAULT_VOLTAGE_RANGE
    center, slope = 10.0, 4.0

    def analytic_phase(v):
        raw = 0.5 * (1.0 + np.tanh((v - center) / slope))
        lo = 0.5 * (1.0 + np.tanh((v_lo - center) / slope))
        hi = 0.5 * (1.0 + np.tanh((v_hi - center) / slope))
        return TWO_PI * (raw - lo) / (hi - lo)

    lo, hi = v_lo, v_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if analytic_phase(mid) < np.pi:
            lo = mid
        else:
            hi = mid
    v_oracle = 0.5 * (lo + hi)
    assert abs(phase_to_voltage(np.pi, P0, lut) - v_oracle) < 1e-4


def test_voltage_out_of_range_clips_and_counts():
    lut = default_lut()
    v = np.array([-5.0, 10.0, 25.0])
    phases = voltage_to_phase(v, P0, lut)
    assert phases[0] == lut.phases[P0][0]
    assert phases[2] == lut.phases[P0][-1]
    assert lut.count_out_of_range(v, P0) == 2


def test_phase_outside_narrow_curve_raises():
    volts = np.linspace(0.0, 20.0, 64)
    phases = np.linspace(0.3, 5.9, 64)  # covers less than a full turn
    lut = PhaseVoltageLut(voltages=(volts, volts), phases=(phases, phases))
    assert lut.phase_span(P0) == (0.3, 5.9)  # short of a full turn at both ends
    with pytest.raises(PhaseRangeError):
        phase_to_voltage(0.1, P0, lut)
    # interior phases still invert fine
    assert abs(voltage_to_phase(phase_to_voltage(3.0, P0, lut), P0, lut) - 3.0) < 1e-9


def test_lut_constructor_rejects_non_monotone():
    v = np.array([0.0, 1.0, 0.5])
    p = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        PhaseVoltageLut(voltages=(v, v), phases=(p, p))
    v2 = np.array([0.0, 1.0, 2.0])
    p2 = np.array([0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        PhaseVoltageLut(voltages=(v2, v2), phases=(p2, p2))


def test_lut_csv_loader(tmp_path):
    path = tmp_path / "curves.csv"
    rows = ["polarization,voltage_volts,phase_degrees"]
    for pol in (0, 1):
        for i in range(8):
            v = 2.5 * i
            deg = 360.0 * i / 7 + pol * 1.0
            rows.append(f"{pol},{v},{deg}")
    path.write_text("\n".join(rows) + "\n")
    lut = load_lut_csv(path)
    assert lut.voltages[0].size == 8
    assert abs(lut.phases[0][-1] - np.deg2rad(360.0)) < 1e-12

    bad = tmp_path / "bad.csv"
    bad.write_text("polarization,voltage_volts\n0,1\n")
    with pytest.raises(ValueError):
        load_lut_csv(bad)

    nonmono = tmp_path / "nonmono.csv"
    nonmono.write_text(
        "polarization,voltage_volts,phase_degrees\n"
        "0,0,0\n0,1,50\n0,2,40\n1,0,0\n1,1,10\n"
    )
    with pytest.raises(ValueError):
        load_lut_csv(nonmono)


# -- coupling -----------------------------------------------------------------


def test_coupling_factor_values():
    assert coupling_factor(float("inf")) == 0.0
    assert abs(coupling_factor(16.0) - 10 ** (-0.8)) < 1e-15


def test_apply_coupling_identity_without_coupling():
    rng = np.random.default_rng(5)
    v0 = rng.uniform(0, 20, 64)
    v1 = rng.uniform(0, 20, 64)
    out0, out1 = apply_coupling(v0, v1, float("inf"))
    assert np.array_equal(out0, v0)
    assert np.array_equal(out1, v1)


def test_apply_coupling_reproduces_bench_reading():
    # 6.6 V peak AC on line 0, quiet line 1: coupled peak must land within
    # 5% of the 1.01 V bench reading behind the quoted 16 dB isolation
    t = np.linspace(0.0, 1.0, 512, endpoint=False)
    v0 = 10.0 + 6.6 * np.sin(TWO_PI * 3 * t)
    v1 = np.full_like(v0, 10.0)
    _, out1 = apply_coupling(v0, v1, 16.0)
    peak = np.max(np.abs(out1 - 10.0))
    assert abs(peak - 1.01) / 1.01 < 0.05


def test_apply_coupling_symmetric_inputs_stay_equal():
    rng = np.random.default_rng(8)
    v = rng.uniform(0, 20, 128)
    out0, out1 = apply_coupling(v, v.copy(), 16.0)
    assert np.array_equal(out0, out1)


def test_apply_coupling_is_linear():
    rng = np.random.default_rng(21)
    a0, a1 = rng.uniform(0, 20, 32), rng.uniform(0, 20, 32)
    b0, b1 = rng.uniform(0, 20, 32), rng.uniform(0, 20, 32)
    alpha, beta = 0.7, -1.3
    direct = apply_coupling(alpha * a0 + beta * b0, alpha * a1 + beta * b1, 16.0)
    parts_a = apply_coupling(a0, a1, 16.0)
    parts_b = apply_coupling(b0, b1, 16.0)
    assert np.max(np.abs(direct[0] - (alpha * parts_a[0] + beta * parts_b[0]))) < 1e-9
    assert np.max(np.abs(direct[1] - (alpha * parts_a[1] + beta * parts_b[1]))) < 1e-9


def test_apply_coupling_rejects_length_mismatch():
    with pytest.raises(ValueError):
        apply_coupling(np.zeros(4), np.zeros(5), 16.0)


# -- DAC ----------------------------------------------------------------------


def test_dac_quantizer():
    assert quantize_dac(7.3, None, 0.0, 20.0) == 7.3
    assert quantize_dac(7.3, 1, 0.0, 20.0) == 0.0
    assert quantize_dac(12.0, 1, 0.0, 20.0) == 20.0
    q = quantize_dac(np.array([7.3]), 8, 0.0, 20.0)[0]
    step = 20.0 / 255
    assert abs(q / step - round(q / step)) < 1e-9
    assert abs(q - 7.3) <= step / 2 + 1e-12


@pytest.mark.parametrize("bits", [4, 5, 6])
def test_dac_quantizer_picks_the_nearest_level(bits):
    v_min, v_max = DEFAULT_VOLTAGE_RANGE
    tol = 2 * np.spacing(v_max)
    levels = v_min + np.arange(2**bits) * (v_max - v_min) / (2**bits - 1)
    v = np.concatenate([[v_min, v_max], np.random.default_rng(bits).uniform(v_min, v_max, 10_000)])
    q = quantize_dac(v, bits, v_min, v_max)
    # Brute force: the level nearest each input.
    assert np.max(np.abs(q - levels[np.argmin(np.abs(v[:, None] - levels), axis=1)])) <= tol
    assert np.max(np.min(np.abs(q[:, None] - levels), axis=1)) <= tol
    assert np.max(np.abs(q[:2] - v[:2])) <= tol
    assert np.max(np.abs(q - v)) <= (v_max - v_min) / (2**bits - 1) / 2 + tol


# -- distortion pipeline ---------------------------------------------------------


def park_params(n, seed):
    rng = np.random.default_rng(seed)
    return [qam_to_tm(CONSTELLATION16[i], TS) for i in rng.integers(0, 16, n)]


def test_distortion_impairment_free_reduction():
    lut = default_lut()
    hw = HardwareConfig(
        isolation_db=float("inf"),
        dac_bits=None,
        amplitude_ripple_db=0.0,
        base_reflection_amplitude=0.7,
    )
    params0 = park_params(24, 1)
    params1 = park_params(24, 2)
    result = distort_reflection(params0, params1, lut, hw, 64)
    assert result.clipped0 == 0 and result.clipped1 == 0
    ideal0 = np.stack([waveform(p, 64) for p in params0])
    ideal1 = np.stack([waveform(p, 64) for p in params1])
    assert np.max(np.abs(result.wave0 - 0.7 * ideal0)) < 1e-9
    assert np.max(np.abs(result.wave1 - 0.7 * ideal1)) < 1e-9


def test_distortion_identical_streams_symmetric_lut():
    # coupling is symmetric: identical streams through identical curves stay identical
    lut = symmetric_lut()
    hw = HardwareConfig(isolation_db=16.0, amplitude_ripple_db=1.0)
    params = park_params(16, 3)
    result = distort_reflection(params, list(params), lut, hw, 64)
    assert np.array_equal(result.wave0, result.wave1)


def test_distortion_coupling_creates_constellation_error():
    lut = default_lut()
    hw = HardwareConfig(isolation_db=16.0, amplitude_ripple_db=0.0, base_reflection_amplitude=1.0)
    params0 = park_params(64, 5)
    params1 = park_params(64, 6)
    coupled = distort_reflection(params0, params1, lut, hw, 64)
    clean_hw = HardwareConfig(
        isolation_db=float("inf"), amplitude_ripple_db=0.0, base_reflection_amplitude=1.0
    )
    clean = distort_reflection(params0, params1, lut, clean_hw, 64)
    sym_coupled = extract_harmonic(coupled.wave0)
    sym_clean = extract_harmonic(clean.wave0)
    evm = np.sqrt(np.mean(np.abs(sym_coupled - sym_clean) ** 2))
    assert evm > 1e-3


def test_distortion_modulus_respects_ripple_band():
    lut = default_lut()
    hw = HardwareConfig(isolation_db=16.0, amplitude_ripple_db=1.0, base_reflection_amplitude=0.84)
    params0 = park_params(32, 7)
    params1 = park_params(32, 8)
    result = distort_reflection(params0, params1, lut, hw, 64)
    for wave in (result.wave0, result.wave1):
        ripple_db = 20.0 * np.log10(np.abs(wave) / hw.base_reflection_amplitude)
        assert np.max(np.abs(ripple_db)) <= 0.5 + 1e-9


def test_distortion_continuous_in_isolation():
    # output must vary smoothly with the coupling strength
    lut = default_lut()
    params0 = park_params(16, 9)
    params1 = park_params(16, 10)
    waves = {}
    for iso in (16.0, 16.001):
        hw = HardwareConfig(isolation_db=iso, amplitude_ripple_db=0.0)
        waves[iso] = distort_reflection(params0, params1, lut, hw, 64).wave0
    assert 0 < np.max(np.abs(waves[16.0] - waves[16.001])) < 1e-3


def reference_distort_reflection(stream0_params, stream1_params, lut, hw, samples):
    """The control path with the intended phases built one symbol row at a time."""
    volts = []
    for params_seq, pol in ((stream0_params, P0), (stream1_params, P1)):
        phases = np.empty((len(params_seq), samples))
        for i, p in enumerate(params_seq):
            t = np.arange(samples) * (p.symbol_period_s / samples)
            phases[i] = ramp_phase(p.delta_phi, p.t_shift_s, p.symbol_period_s, t)
        lo, hi = lut.voltage_span(pol)
        volts.append(quantize_dac(phase_to_voltage(phases, pol, lut), hw.dac_bits, lo, hi))
    volts = apply_coupling(volts[0], volts[1], hw.isolation_db)
    out = []
    for v, pol in zip(volts, (P0, P1)):
        clipped = lut.count_out_of_range(v, pol)
        v = np.clip(v, *lut.voltage_span(pol))
        wave = reflection_amplitude(v, pol, lut, hw) * np.exp(1j * voltage_to_phase(v, pol, lut))
        out += [wave, clipped]
    return out


def rail_overshoot_lut():
    """Default curves on 0..3.9 V rails: a 2-bit DAC's top level, 3 * (3.9 / 3),
    rounds to just above 3.9 V, so samples clip even without coupling."""
    phases = default_lut().phases
    volts = np.linspace(0.0, 3.9, phases[P0].size)
    return PhaseVoltageLut(voltages=(volts, volts), phases=phases)


# (hardware, curves, whether the streams of the two tests below clip on both polarizations)
DISTORTION_CASES = [
    pytest.param(
        HardwareConfig(isolation_db=16.0, dac_bits=6, amplitude_ripple_db=1.0),
        default_lut(),
        True,
        id="coupled-dac6-ripple",
    ),
    pytest.param(IDEAL_HARDWARE, default_lut(), False, id="ideal"),
    pytest.param(
        HardwareConfig(isolation_db=float("inf"), dac_bits=6, amplitude_ripple_db=1.0),
        default_lut(),
        False,
        id="uncoupled-dac6-ripple",
    ),
    pytest.param(
        HardwareConfig(isolation_db=float("inf"), dac_bits=2, amplitude_ripple_db=1.0),
        rail_overshoot_lut(),
        True,
        id="uncoupled-dac2-rail-overshoot",
    ),
]


@pytest.mark.parametrize("hw, lut, clips", DISTORTION_CASES)
def test_distortion_bit_identical_to_per_row_loop(hw, lut, clips):
    # The pair streams share 16 params objects, as LinkEngine's do; the mixed
    # streams hold a new object per symbol.
    table = [qam_to_tm(p, TS) for p in CONSTELLATION16]
    pair0 = [table[i] for i in range(16) for _ in range(16)]
    pair1 = [table[j] for _ in range(16) for j in range(16)]
    # rows with two different symbol periods exercise the per-row time axis
    mixed0 = park_params(40, 11) + [qam_to_tm(p, 2 * TS) for p in CONSTELLATION16]
    mixed1 = park_params(40, 12) + [qam_to_tm(p, 2 * TS) for p in CONSTELLATION16[::-1]]
    for params0, params1 in ((pair0, pair1), (mixed0, mixed1), ([], [])):
        result = distort_reflection(params0, params1, lut, hw, 64)
        wave0, clipped0, wave1, clipped1 = reference_distort_reflection(params0, params1, lut, hw, 64)
        assert np.array_equal(result.wave0, wave0)
        assert np.array_equal(result.wave1, wave1)
        assert (result.clipped0, result.clipped1) == (clipped0, clipped1)
        if params0 is pair0:
            assert (clipped0 > 0 and clipped1 > 0) == clips


@pytest.mark.parametrize("hw, lut, clips", DISTORTION_CASES)
def test_distortion_of_repeated_params_bit_identical_to_per_row_loop(hw, lut, clips):
    # Each stream repeats its params out of order, and a shift of -0.0 sits
    # next to an equal-valued one of 0.0: stages computed once per distinct
    # params must still land on every row unchanged, and each clip count
    # must weigh a row by how often it occurs.
    a, b, c = (qam_to_tm(CONSTELLATION16[i], TS) for i in (0, 5, 10))
    zero = TmSymbolParams(delta_phi=TWO_PI, t_shift_s=0.0, symbol_period_s=TS)
    neg_zero = TmSymbolParams(delta_phi=TWO_PI, t_shift_s=-0.0, symbol_period_s=TS)
    params0 = [a, b, zero, neg_zero, a, c, b, neg_zero, a]
    params1 = [neg_zero, c, c, a, zero, b, neg_zero, a, zero]
    result = distort_reflection(params0, params1, lut, hw, 64)
    wave0, clipped0, wave1, clipped1 = reference_distort_reflection(params0, params1, lut, hw, 64)
    assert np.array_equal(result.wave0, wave0)
    assert np.array_equal(result.wave1, wave1)
    assert (result.clipped0, result.clipped1) == (clipped0, clipped1)
    assert (clipped0 > 0 and clipped1 > 0) == clips


def per_pair_reference_tables(cfg, hw):
    """The (2, 256) pair tables through the per-row control path and the correlator."""
    pair0 = [qam_to_tm(CONSTELLATION16[i], cfg.symbol_period_s) for i in range(16) for _ in range(16)]
    pair1 = [qam_to_tm(CONSTELLATION16[j], cfg.symbol_period_s) for _ in range(16) for j in range(16)]
    wave0, _, wave1, _ = reference_distort_reflection(pair0, pair1, default_lut(), hw, cfg.samples_per_symbol)
    m = cfg.samples_per_symbol
    probe = np.exp(1j * TWO_PI * np.arange(m) / m) / m  # the single-bin correlator
    return np.stack([wave0 @ probe, wave1 @ probe])


@pytest.mark.parametrize(
    "coupling, hw, samples",
    [
        (True, HardwareConfig(isolation_db=16.0, dac_bits=6, amplitude_ripple_db=1.0), 64),
        (False, HardwareConfig(), 64),
        # Not a power of two: dividing by M before or after the sum rounds differently.
        (True, HardwareConfig(isolation_db=16.0, dac_bits=6, amplitude_ripple_db=1.0), 50),
        # 256 x 257 samples span five blocks of distinct levels; 3 bits repeat most voltages.
        (True, HardwareConfig(isolation_db=16.0), 257),
        (True, HardwareConfig(isolation_db=16.0, dac_bits=3), 257),
    ],
    ids=["coupled-dac6-ripple", "coupling-off", "coupled-dac6-ripple-m50", "coupled-ideal-m257", "coupled-dac3-m257"],
)
def test_engine_pair_tables_bit_identical_to_per_pair_reference(coupling, hw, samples):
    cfg = CampaignConfig(fidelity="B", coupling=coupling, hardware=hw, samples_per_symbol=samples)
    engine = LinkEngine(cfg)
    reference = per_pair_reference_tables(cfg, engine.hw_active)
    assert np.array_equal(engine.table_b0, reference[0].reshape(16, 16))
    assert np.array_equal(engine.table_b1, reference[1].reshape(16, 16))


@pytest.mark.parametrize(
    "coupling, rows, full_table_rows",
    # Coupled: the 16 pairs (s, s) and the pilot's (2, 8) and (8, 2), then
    # the full table afresh at each read.  Uncoupled: the 16 pairs (s, s),
    # which the full table is read from.
    [(True, 18, [256, 256]), (False, 16, [])],
    ids=["coupled", "coupling-off"],
)
def test_identical_stream_engine_builds_its_rows_bit_identical_to_the_full_table(
    monkeypatch, coupling, rows, full_table_rows
):
    hw = HardwareConfig(isolation_db=16.0, dac_bits=6, amplitude_ripple_db=1.0)
    cfg = CampaignConfig(
        fidelity="B",
        coupling=coupling,
        hardware=hw,
        samples_per_symbol=50,
        stream_relation="identical",
        csi="calibrated",
    )
    builds = []

    def spy(params0, params1, *args):
        builds.append(len(params0))
        return distort_reflection(params0, params1, *args)

    monkeypatch.setattr(campaign, "distort_reflection", spy)
    engine = LinkEngine(cfg)
    reference = per_pair_reference_tables(cfg, engine.hw_active)
    assert builds == [rows]
    s = np.arange(16)
    assert np.array_equal(engine.tx_symbols(s, s, "B"), reference[:, 17 * s])
    pilot0, pilot1 = (demap_indices(row) for row in engine.pilot.symbols)
    pilot_rx = mix2(engine.g, reference)[:, 16 * pilot0 + pilot1]
    assert np.array_equal(engine.ghat_for_point(0, 0.0), estimate_channel(engine.pilot, pilot_rx))
    assert builds == [rows]
    # The full tables, computed on request and not stored.
    assert np.array_equal(engine.table_b0, reference[0].reshape(16, 16))
    assert np.array_equal(engine.table_b1, reference[1].reshape(16, 16))
    assert builds == [rows, *full_table_rows]


@pytest.mark.parametrize("coupling", [True, False], ids=["coupled", "coupling-off"])
def test_identical_stream_pair_tables_equal_the_independent_ones(coupling):
    hw = HardwareConfig(isolation_db=16.0, dac_bits=6, amplitude_ripple_db=1.0)
    independent, identical = (
        LinkEngine(CampaignConfig(fidelity="B", coupling=coupling, hardware=hw, stream_relation=relation))
        for relation in ("independent", "identical")
    )
    assert np.array_equal(identical.table_b0, independent.table_b0)
    assert np.array_equal(identical.table_b1, independent.table_b1)


@pytest.mark.parametrize("relation", ["independent", "identical"])
def test_one_stream_passed_twice_reads_the_same_symbols_as_the_pair_tables(relation):
    hw = HardwareConfig(isolation_db=16.0, dac_bits=6, amplitude_ripple_db=1.0)
    engine = LinkEngine(CampaignConfig(fidelity="B", coupling=True, hardware=hw, stream_relation=relation))
    s = np.random.default_rng(3).integers(0, 16, 500)
    assert np.array_equal(engine.tx_symbols(s, s, "B"), engine.tx_symbols(s, s.copy(), "B"))


@pytest.mark.parametrize(
    "coupling, isolation_db, relation, rows",
    [
        (False, 16.0, "independent", 16),
        (False, 16.0, "identical", 16),
        (True, 16.0, "independent", 256),
        (True, 7000.0, "independent", 16),
        (True, 16.0, "identical", 18),
    ],
    ids=["coupling-off", "coupling-off-identical", "coupled", "coupled-kappa-underflows", "coupled-identical"],
)
def test_engine_forward_curve_runs_once_per_distinct_voltage_of_its_rows(
    monkeypatch, coupling, isolation_db, relation, rows
):
    # The forward curve sees each block's sorted distinct coupled voltages:
    # at most one per sample of the engine's rows (16 symbols uncoupled),
    # and on the 256 coupled pairs strictly fewer, since pairs repeat levels.
    sizes = {P0: [], P1: []}

    def spy(v, pol, lut):
        assert v.ndim == 1 and 0 < v.size <= 2**14
        assert np.all(v[1:] > v[:-1])
        sizes[pol].append(v.size)
        return voltage_to_phase(v, pol, lut)

    monkeypatch.setattr(hardware, "voltage_to_phase", spy)
    hw = HardwareConfig(isolation_db=isolation_db)
    LinkEngine(CampaignConfig(fidelity="B", coupling=coupling, hardware=hw, stream_relation=relation))
    for calls in sizes.values():
        assert len(calls) == 1  # rows * 64 samples fit in one block
        assert sum(calls) <= rows * 64
        if rows == 256:
            assert sum(calls) < rows * 64


def test_isolation_whose_coupling_factor_underflows_builds_the_uncoupled_tables():
    assert coupling_factor(7000.0) == 0.0
    hw = HardwareConfig(isolation_db=7000.0, dac_bits=6)
    high = LinkEngine(CampaignConfig(fidelity="B", coupling=True, hardware=hw))
    off = LinkEngine(CampaignConfig(fidelity="B", coupling=False, hardware=hw))
    assert np.array_equal(high.table_b0, off.table_b0)
    assert np.array_equal(high.table_b1, off.table_b1)


def test_distortion_rejects_mismatched_streams():
    lut = default_lut()
    with pytest.raises(ValueError):
        distort_reflection(park_params(3, 1), park_params(4, 1), lut, IDEAL_HARDWARE, 64)


def test_ideal_hardware_is_transparent():
    hw = IDEAL_HARDWARE
    assert coupling_factor(hw.isolation_db) == 0.0
    assert hw.amplitude_ripple_db == 0.0
    assert hw.base_reflection_amplitude == 1.0
    assert hw.dac_bits is None
    # zero ripple leaves exactly the base amplitude at every voltage
    lut = default_lut()
    v = np.random.default_rng(13).uniform(*DEFAULT_VOLTAGE_RANGE, (64, 32))
    for base in (1.0, 0.84, 0.7):
        flat = HardwareConfig(isolation_db=16.0, amplitude_ripple_db=0.0, base_reflection_amplitude=base)
        for pol in Polarization:
            assert np.array_equal(reflection_amplitude(v, pol, lut, flat), np.full(v.shape, base))


def _geometric_sum(theta, start, stop):
    """The sum of e^{j theta n} over start <= n < stop, as a Dirichlet kernel,
    so no large power rounds; its term count where theta = 0."""
    count = np.asarray(stop - start, dtype=float)
    half = np.sin(theta / 2)
    ratio = np.divide(np.sin(count * theta / 2), half, out=count.copy(), where=half != 0)
    return np.exp(0.5j * theta * (start + stop - 1)) * ratio


def ideal_correlator(params_seq, m):
    """The single-bin correlator of each ramp sampled at M = ``m`` points, exactly.

    The ramp falls linearly and wraps up by delta_phi once, at the first
    sample k past Ts - t_shift, so the correlator is two geometric series in
    r = e^{j(2 pi - delta_phi)/M}:
    e^{j delta_phi (Ts - t_shift)/Ts} / M * [sum_{n<k} r^n + e^{j delta_phi} sum_{n>=k} r^n].
    """
    delta_phi, t_shift, period = np.array([(p.delta_phi, p.t_shift_s, p.symbol_period_s) for p in params_seq]).T
    t = np.arange(m) * (period[:, None] / m)  # the sample times distort_reflection takes
    k = np.count_nonzero(t <= (period - t_shift)[:, None], axis=1)
    theta = (TWO_PI - delta_phi) / m
    lead = np.exp(1j * delta_phi * (period - t_shift) / period) / m
    return lead * (_geometric_sum(theta, 0, k) + np.exp(1j * delta_phi) * _geometric_sum(theta, k, m))


def _power_law_curves(path):
    """Transfer curves unlike the defaults: 360 (i/32)^p degrees at 20 i/32 V, p = 1.3 and 0.8."""
    rows = ["polarization,voltage_volts,phase_degrees"]
    for pol, power in ((0, 1.3), (1, 0.8)):
        rows += [f"{pol},{20.0 * i / 32!r},{360.0 * (i / 32) ** power!r}" for i in range(33)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("curves", ["default", "csv"])
@pytest.mark.parametrize("m", [2, 3, 16, 64, 257, 4096, 16384])
def test_ideal_fidelity_b_table_is_the_sampled_ramp_in_closed_form(tmp_path, m, curves):
    # At ideal hardware the control path returns each sampled ramp, through
    # the inverse curve, the DAC, the clip and the forward curve; the table
    # is its correlator at every M, not only in C7's M -> inf limit.
    lut_csv = _power_law_curves(tmp_path / "curves.csv") if curves == "csv" else None
    # coupling=False runs the control path at infinite isolation.
    hw = HardwareConfig(dac_bits=None, amplitude_ripple_db=0.0, base_reflection_amplitude=1.0)
    cfg = CampaignConfig(fidelity="B", coupling=False, samples_per_symbol=m, hardware=hw, lut_csv=lut_csv)
    engine = LinkEngine(cfg)
    symbols = np.arange(16)
    table = engine.tx_symbols(symbols, symbols, "B")
    assert np.max(np.abs(table - ideal_correlator(engine.params16, m))) <= 1e-12  # both polarizations


@pytest.mark.parametrize(
    "base, ripple_db, allowed",
    [
        (0.84, 1.0, True),  # the default: peak 0.890
        (1.0, 0.0, True),  # IDEAL_HARDWARE
        (0.84, 3.0288, True),  # just below -40 log10(0.84) = 3.02883 dB
        (0.84, 3.03, False),
        (1.0, 1e-9, False),
        (1.0, 1.0, False),
        (0.84, 12000.0, False),
        (1e-300, 1e300, False),
    ],
)
def test_ripple_may_not_lift_a_passive_cell_above_unit_amplitude(base, ripple_db, allowed):
    if not allowed:
        with pytest.raises(ValueError, match="amplitude_ripple_db"):
            HardwareConfig(amplitude_ripple_db=ripple_db, base_reflection_amplitude=base)
        return
    hw = HardwareConfig(amplitude_ripple_db=ripple_db, base_reflection_amplitude=base)
    v = np.linspace(*DEFAULT_VOLTAGE_RANGE, 4097)  # holds the ripple's peak, 5 V
    for pol in Polarization:
        peak = np.max(reflection_amplitude(v, pol, default_lut(), hw))
        assert peak == pytest.approx(base * 10.0 ** (ripple_db / 40.0), abs=1e-12) and peak <= 1.0
