"""Ramp modulation: waveforms, harmonics, the exact oracle, QAM mapping."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpris.modulation import (
    CONSTELLATION16,
    QAM16_SCALE,
    TWO_PI,
    TmSymbolParams,
    bits_to_symbol_indices,
    bytes_to_symbol_indices,
    closed_form_value,
    exact_coefficient_table,
    exact_coefficients,
    harmonic_closed_form,
    _zero_shift_phase,
    map_bits_to_qam,
    qam_to_tm,
    qam_to_tm_table,
    ramp_harmonic_amplitude,
    symbol_indices_to_bytes,
    unnormalized_sinc,
    waveform,
    wrap_phase,
)

TS = 4e-7  # 2.5 MSps symbol period

params_strategy = st.tuples(
    st.floats(min_value=1e-6, max_value=TWO_PI, exclude_min=False),
    st.floats(min_value=0.0, max_value=0.999999),
)


def make_params(delta_phi, shift_fraction):
    return TmSymbolParams(delta_phi=delta_phi, t_shift_s=shift_fraction * TS, symbol_period_s=TS)


def phases_equal(a, b, tol=1e-9):
    return abs(float(wrap_phase(a - b))) <= tol


# -- waveform -----------------------------------------------------------------


def test_pure_tone_waveform_is_descending_roots_of_unity():
    wave = waveform(make_params(TWO_PI, 0.0), 8)
    expected = np.exp(-2j * np.pi * np.arange(8) / 8)
    assert np.max(np.abs(wave - expected)) < 1e-12


def test_waveform_rejects_tiny_sample_count():
    with pytest.raises(ValueError):
        waveform(make_params(np.pi, 0.0), 1)


@given(params_strategy)
@settings(max_examples=200, deadline=None)
def test_waveform_is_unimodular(args):
    wave = waveform(make_params(*args), 64)
    assert np.max(np.abs(np.abs(wave) - 1.0)) < 1e-12


def test_waveform_matches_two_branch_evaluation():
    # independent per-sample evaluation of the two branches
    params = make_params(np.pi, 0.5)
    m = 1024
    wave = waveform(params, m)
    slope = params.delta_phi / TS
    for i in range(0, m, 37):
        t = i * TS / m
        if t <= TS - params.t_shift_s:
            expected = np.exp(1j * slope * (TS - params.t_shift_s - t))
        else:
            expected = np.exp(1j * slope * (2 * TS - params.t_shift_s - t))
        assert abs(wave[i] - expected) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        TmSymbolParams(delta_phi=0.0, t_shift_s=0.0, symbol_period_s=TS)
    with pytest.raises(ValueError):
        TmSymbolParams(delta_phi=2 * TWO_PI, t_shift_s=0.0, symbol_period_s=TS)
    with pytest.raises(ValueError):
        TmSymbolParams(delta_phi=np.pi, t_shift_s=TS, symbol_period_s=TS)


# -- closed form vs exact oracle ----------------------------------------------


def test_closed_form_pure_tone():
    coeff = harmonic_closed_form(make_params(TWO_PI, 0.0))
    assert abs(coeff.amplitude - 1.0) < 1e-12
    assert phases_equal(coeff.phase, 0.0, 1e-12)
    assert abs(closed_form_value(TWO_PI, 0.0, TS) - 1.0) < 1e-12


def test_closed_form_half_turn_ramp():
    # piecewise-analytic integral gives c_{-1} = -2j/pi for a pi ramp
    coeff = harmonic_closed_form(make_params(np.pi, 0.0))
    assert abs(coeff.amplitude - 2.0 / np.pi) < 1e-12
    assert phases_equal(coeff.phase, -np.pi / 2, 1e-12)
    assert abs(coeff.value - (-2j / np.pi)) < 1e-12
    assert abs(closed_form_value(np.pi, 0.0, TS) - (-2j / np.pi)) < 1e-12


def test_closed_form_quarter_shift_pins_step_convention():
    # analytic coefficient e^{-j pi/2}; also fixes step(0) = 0 in the phase formula
    coeff = harmonic_closed_form(make_params(TWO_PI, 0.25))
    assert abs(coeff.amplitude - 1.0) < 1e-12
    assert phases_equal(coeff.phase, -np.pi / 2, 1e-12)


def test_exact_oracle_pure_tone_cases():
    params = make_params(TWO_PI, 0.0)
    minus_one, zero = exact_coefficients(params, [-1.0, 0.0])
    assert abs(minus_one - 1.0) < 1e-12
    assert abs(zero) < 1e-12


def test_closed_form_matches_exact_oracle_bulk():
    rng = np.random.default_rng(123)
    worst_amp = worst_phase = 0.0
    for _ in range(300):
        params = make_params(rng.uniform(1e-9, TWO_PI), rng.uniform(0.0, 0.999999))
        cf = harmonic_closed_form(params)
        ex = exact_coefficients(params, [-1.0])[0]
        worst_amp = max(worst_amp, abs(cf.amplitude - abs(ex)))
        worst_phase = max(worst_phase, abs(float(wrap_phase(cf.phase - np.angle(ex)))))
    assert worst_amp < 1e-9
    assert worst_phase < 1e-9


def reference_exact_coefficients(params, orders):
    """One ramp at a time: one segment at zero shift, else two."""
    orders = np.asarray(orders, dtype=float)
    ts = params.symbol_period_s
    slope = params.delta_phi / ts
    if params.t_shift_s > 0:
        bounds = [(0.0, ts - params.t_shift_s), (ts - params.t_shift_s, ts)]
        offsets = [slope * (ts - params.t_shift_s), slope * (2.0 * ts - params.t_shift_s)]
    else:
        bounds = [(0.0, ts)]
        offsets = [slope * ts]
    beta = -(params.delta_phi + TWO_PI * orders) / ts
    total = np.zeros(orders.shape, dtype=np.complex128)
    for (t0, t1), a in zip(bounds, offsets):
        dur = t1 - t0
        total += np.exp(1j * (a + beta * (0.5 * (t0 + t1)))) * dur * unnormalized_sinc(0.5 * beta * dur)
    return total / ts


@pytest.mark.parametrize("ts", [TS, 1.0, 3.3e-3, 1e-9])
def test_exact_coefficient_table_rows_equal_exact_coefficients(ts):
    # The table integrates one period from the wrap point; the reference
    # splits [0, Ts] there, so the two agree to rounding, not to the byte.
    rng = np.random.default_rng(31)
    delta_phis = rng.uniform(0.0, TWO_PI, 75)
    shifts = rng.uniform(0.0, ts, 75)
    delta_phis[:5] = TWO_PI
    delta_phis[5:10] = 1e-12
    shifts[::4] = 0.0
    shifts[10] = np.nextafter(ts, 0.0)
    for orders in (np.array([-1.0]), np.arange(-200.0, 201.0), [0.0, 3.0, -1.0]):
        table = exact_coefficient_table(delta_phis, shifts, ts, orders)
        assert table.shape == (75, len(orders))
        for row, dp, sh in zip(table, delta_phis, shifts):
            params = TmSymbolParams(delta_phi=float(dp), t_shift_s=float(sh), symbol_period_s=ts)
            assert np.max(np.abs(row - reference_exact_coefficients(params, orders))) <= 1e-14
            assert exact_coefficients(params, orders).tobytes() == row.tobytes()


def test_closed_form_value_elements_equal_harmonic_closed_form():
    rng = np.random.default_rng(32)
    delta_phis = rng.uniform(0.0, TWO_PI, 100)
    shifts = rng.uniform(0.0, TS, 100)
    delta_phis[:3] = TWO_PI
    shifts[::5] = 0.0
    values = closed_form_value(delta_phis, shifts, TS)
    phases = wrap_phase(np.angle(values))
    for value, phase, dp, sh in zip(values, phases, delta_phis, shifts):
        coeff = harmonic_closed_form(TmSymbolParams(float(dp), float(sh), TS))
        assert complex(value) == coeff.value
        assert float(phase) == coeff.phase


@given(params_strategy)
@example((1e-06, 0.37696951021342917))
@settings(max_examples=150, deadline=None)
def test_closed_form_matches_exact_oracle_property(args):
    params = make_params(*args)
    cf = harmonic_closed_form(params)
    ex = exact_coefficients(params, [-1.0])[0]
    assert abs(cf.amplitude - abs(ex)) < 1e-9
    assert phases_equal(cf.phase, np.angle(ex))


@pytest.mark.parametrize("delta_phi", [1e-9, 1e-6])
def test_exact_oracle_keeps_the_phase_of_short_ramps(delta_phi):
    # A short ramp's -1st-order coefficient is about delta_phi / (2*pi): two
    # O(1) segments summing to it would lose its phase to cancellation.
    shifts = np.linspace(0.0, 300.0 / 301.0, 301) * TS
    delta_phis = np.full(shifts.shape, delta_phi)
    ex = exact_coefficient_table(delta_phis, shifts, TS, [-1.0])[:, 0]
    cf = closed_form_value(delta_phis, shifts, TS)
    assert np.max(np.abs(wrap_phase(np.angle(cf) - np.angle(ex)))) <= 1e-12


@given(params_strategy)
@settings(max_examples=60, deadline=None)
def test_window_energy_matches_true_tail(args):
    # Energy of the unimodular waveform is exactly 1; outside |k| <= 200 the
    # true worst-case tail is sin^2(delta_phi/2) * sum 1/(delta_phi/2+pi k)^2,
    # which peaks at 1.011e-3 near delta_phi = pi.  The window sum must land
    # in [1 - 1.02e-3, 1 + 1e-6]; the acceptance suite carries the original
    # (infeasibly tight) 0.999 variant of this bound as a strict xfail.
    params = make_params(*args)
    orders = np.arange(-200.0, 201.0)
    total = float(np.sum(np.abs(exact_coefficients(params, orders)) ** 2))
    assert 1.0 - 1.02e-3 <= total <= 1.0 + 1e-6


def test_window_energy_worst_case_regression():
    # frozen worst case at delta_phi = pi: tail 1.011e-3 regardless of shift
    params = make_params(np.pi, 0.3)
    orders = np.arange(-200.0, 201.0)
    total = float(np.sum(np.abs(exact_coefficients(params, orders)) ** 2))
    assert abs(total - 0.9989893113) < 1e-9


@given(
    st.floats(min_value=1e-3, max_value=TWO_PI),
    st.floats(min_value=0.0, max_value=0.49),
    st.floats(min_value=1e-3, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
def test_time_shift_rotates_harmonic(delta_phi, base_frac, delta_frac):
    # shifting by delta rotates c_{-1} by e^{-j 2 pi delta / Ts}, amplitude fixed
    a = harmonic_closed_form(make_params(delta_phi, base_frac)).value
    b = harmonic_closed_form(make_params(delta_phi, base_frac + delta_frac)).value
    assert abs(abs(a) - abs(b)) < 1e-12
    rotated = a * np.exp(-1j * TWO_PI * delta_frac)
    assert abs(b - rotated) < 1e-9


def test_float_lane_matches_array_lanes_bit_for_bit():
    # A float takes the scalar lane of the sinc; it must give the array's bits.
    rng = np.random.default_rng(15)
    u = [0.0, -0.0, 5e-324, -np.pi, np.pi, *rng.uniform(-TWO_PI, TWO_PI, 2000)]
    lanes = [unnormalized_sinc(x) for x in u]
    assert all(type(x) is float for x in lanes)
    assert lanes == unnormalized_sinc(np.array(u)).tolist()
    drops = [1e-12, np.pi, TWO_PI, *rng.uniform(0.0, TWO_PI, 2000)]
    assert [ramp_harmonic_amplitude(x) for x in drops] == ramp_harmonic_amplitude(np.array(drops)).tolist()


def test_sinc_array_lane_matches_the_masked_form_bit_for_bit():
    # One masked divide: sin(u)/u wherever |u| > 0, 1.0 elsewhere, NaN included.
    u = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308, -1e308, np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        masked = np.ones_like(u)
        nz = np.abs(u) > 0
        masked[nz] = np.sin(u[nz]) / u[nz]
        lane = unnormalized_sinc(u)
    assert lane.tobytes() == masked.tobytes()
    assert lane[-1] == 1.0 and np.isnan(lane[-3:-1]).all()


def test_amplitude_strictly_increasing():
    grid = np.linspace(1e-4, TWO_PI, 4001)
    amps = ramp_harmonic_amplitude(grid)
    assert np.all(np.diff(amps) > 0)
    assert abs(amps[-1] - 1.0) < 1e-12


# -- inverse mapping ------------------------------------------------------------


def test_qam_to_tm_pure_tone_inverse():
    params = qam_to_tm(1.0 + 0j, TS)
    assert abs(params.delta_phi - TWO_PI) < 1e-9
    assert abs(params.t_shift_s) < 1e-15 or abs(params.t_shift_s - TS) < 1e-15


def test_qam_to_tm_half_turn_inverse():
    target = (2.0 / np.pi) * np.exp(-1j * np.pi / 2)
    params = qam_to_tm(target, TS)
    assert abs(params.delta_phi - np.pi) < 1e-9
    assert min(params.t_shift_s, TS - params.t_shift_s) < 1e-12 * TS + 1e-20


def test_qam_to_tm_inner_ring_bisection():
    params = qam_to_tm((1.0 / 3.0) + 0j, TS)
    assert abs(ramp_harmonic_amplitude(params.delta_phi) - 1.0 / 3.0) < 1e-12


def test_qam_to_tm_rejects_unreachable():
    with pytest.raises(ValueError):
        qam_to_tm(0j, TS)
    with pytest.raises(ValueError):
        qam_to_tm(1.5 + 0j, TS)


def test_qam_to_tm_round_trip_constellation():
    for point in CONSTELLATION16:
        params = qam_to_tm(point, TS)
        value = harmonic_closed_form(params).value
        assert abs(value - point) < 1e-9


def reference_qam_to_tm(target, ts):
    """The fixed 200-step bisection, one target at a time.

    The amplitude is evaluated on a one-element array, not on a float, so the
    reference stays independent of the scalar lane the table bisects on.
    """
    point = complex(target)
    amp = abs(point)
    if amp >= 1.0:
        delta_phi = TWO_PI
    else:
        lo, hi = 1e-12, TWO_PI
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ramp_harmonic_amplitude(np.array([mid]))[0] < amp:
                lo = mid
            else:
                hi = mid
        delta_phi = 0.5 * (lo + hi)
    t_shift = ((_zero_shift_phase(delta_phi) - np.angle(point)) / TWO_PI * ts) % ts
    if t_shift >= ts:
        t_shift = 0.0
    return float(delta_phi), float(t_shift)


def test_qam_to_tm_table_lanes_bit_identical_to_fixed_step_bisection():
    # One call bisects each distinct amplitude below 1 once; repeated
    # amplitudes at other phases, the rings of 16-QAM and the targets at or
    # past amplitude 1 must all come out as the one-target reference, and so
    # must the adjacent doubles on both sides of the two inner rings.  Each
    # target's one-target qam_to_tm call must match the same reference.
    rng = np.random.default_rng(2021)
    randoms = rng.uniform(0.0, 1.0, 200) * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
    repeated = 0.4 * np.exp(1j * np.array([-3.0, -1.0, 0.0, 2.0, 3.0]))
    rings = sorted({abs(complex(p)) for p in CONSTELLATION16} - {1.0})
    assert len(rings) == 2
    neighbours = [np.nextafter(ring, way) for ring in rings for way in (0.0, 1.0)]
    targets = [
        *CONSTELLATION16, *randoms, *repeated, 1.0, 1.0 + 1e-13, 1e-9, *CONSTELLATION16[::3], *neighbours
    ]
    for ts in (TS, 1e-6):
        table = qam_to_tm_table(targets, ts)
        for target, params in zip(targets, table, strict=True):
            want = reference_qam_to_tm(target, ts)
            assert (params.delta_phi, params.t_shift_s) == want, target
            single = qam_to_tm(target, ts)
            assert (single.delta_phi, single.t_shift_s) == want, target


def test_qam_to_tm_table_matches_pointwise_calls():
    table = qam_to_tm_table(CONSTELLATION16, TS)
    assert table == tuple(qam_to_tm(point, TS) for point in CONSTELLATION16)
    with pytest.raises(ValueError, match="exceeds"):
        qam_to_tm_table([0.5, 1.5], TS)


@given(
    st.floats(min_value=0.02, max_value=1.0),
    st.floats(min_value=-np.pi + 1e-9, max_value=np.pi),
)
@settings(max_examples=150, deadline=None)
def test_qam_to_tm_round_trip_property(amplitude, phase):
    target = amplitude * np.exp(1j * phase)
    value = harmonic_closed_form(qam_to_tm(target, TS)).value
    assert abs(value - target) < 1e-9


# -- bit mapping ------------------------------------------------------------


def test_gray_map_documented_corners():
    assert abs(map_bits_to_qam([0, 0, 0, 0])[0] - (-3 - 3j) * QAM16_SCALE) < 1e-15
    outer = map_bits_to_qam([1, 0, 1, 0])[0]
    assert abs(outer - (3 + 3j) * QAM16_SCALE) < 1e-15
    assert abs(abs(outer) - 1.0) < 1e-12


def test_gray_map_all_points_distinct_and_normalized():
    bits = [int(b) for idx in range(16) for b in f"{idx:04b}"]
    points = map_bits_to_qam(bits)
    assert len(set(np.round(points, 12))) == 16
    rings = sorted(set(np.round(np.abs(points), 9)))
    assert np.allclose(rings, [1.0 / 3.0, np.sqrt(10.0 / 18.0), 1.0], atol=1e-9)


def test_gray_map_adjacent_points_differ_in_one_bit():
    bits = [int(b) for idx in range(16) for b in f"{idx:04b}"]
    points = map_bits_to_qam(bits)
    min_dist = 2.0 * QAM16_SCALE
    for i in range(16):
        for j in range(i + 1, 16):
            if abs(points[i] - points[j]) < min_dist * 1.001:
                assert bin(i ^ j).count("1") == 1


def test_gray_map_rejects_ragged_bits():
    with pytest.raises(ValueError):
        map_bits_to_qam([0, 1, 0])
    with pytest.raises(ValueError):
        map_bits_to_qam([0, 1, 0, 2])


def test_byte_nibbles_match_msb_first_bit_packing():
    data = np.random.default_rng(3).integers(0, 256, 1001, dtype=np.uint8)
    idx = bytes_to_symbol_indices(data)
    assert np.array_equal(idx, bits_to_symbol_indices(np.unpackbits(data)))
    assert np.array_equal(symbol_indices_to_bytes(idx), data)
    assert bytes_to_symbol_indices(np.array([0xA5], np.uint8)).tolist() == [0xA, 0x5]
    assert symbol_indices_to_bytes(np.empty(0, np.uint8)).size == 0
    with pytest.raises(ValueError):
        symbol_indices_to_bytes([1, 2, 3])

