"""Channel constructors: carrier split, LoS kernels, Rayleigh, AWGN."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpris.channel import (
    ChannelModelSpec,
    Geometry,
    awgn,
    build_h1_los,
    build_h2,
    carrier_decomposition,
    channel_set_from,
    effective_stream_channel,
    noise_power_for_ebn0,
)
from dpris.model import ChannelSet, ReflectionVector, attenuation_from, received_reduced

WAVELENGTH_27 = 299792458.0 / 2.7e9


def test_carrier_split_45_degrees():
    c = carrier_decomposition(45.0)
    assert np.max(np.abs(c - np.sqrt(0.5))) < 1e-15


def test_carrier_split_axis_cases():
    assert np.allclose(carrier_decomposition(0.0), [1.0, 0.0], atol=1e-16)
    c = carrier_decomposition(30.0)
    assert abs(c[0] - np.sqrt(3.0) / 2.0) < 1e-15
    assert abs(c[1] - 0.5) < 1e-15
    assert abs(np.linalg.norm(c) - 1.0) < 1e-15


@given(st.floats(min_value=0.0, max_value=90.0))
@settings(max_examples=100, deadline=None)
def test_carrier_split_unit_norm(angle):
    assert abs(np.linalg.norm(carrier_decomposition(angle)) - 1.0) < 1e-12


def test_carrier_split_rejects_out_of_range():
    with pytest.raises(ValueError):
        carrier_decomposition(-1.0)
    with pytest.raises(ValueError):
        carrier_decomposition(90.5)


# -- H1 -------------------------------------------------------------------------


def test_single_cell_at_one_wavelength():
    geo = Geometry(cells_x=1, cells_y=1, feed_distance_m=WAVELENGTH_27)
    h1 = build_h1_los(geo)
    assert h1.shape == (2, 2)
    entry = h1[0, 0]
    assert abs(abs(entry) - 1.0 / (4.0 * np.pi)) < 1e-12
    assert abs(np.angle(entry)) < 1e-9  # phase 0 mod 2*pi at d = lambda
    assert h1[0, 1] == 0 and h1[1, 0] == 0


def test_doubling_distance_halves_amplitude():
    near = build_h1_los(Geometry(cells_x=1, cells_y=1, feed_distance_m=0.8))
    far = build_h1_los(Geometry(cells_x=1, cells_y=1, feed_distance_m=1.6))
    assert abs(abs(far[0, 0]) - abs(near[0, 0]) / 2.0) < 1e-12


def test_h1_full_grid_matches_distance_loop_oracle():
    geo = Geometry()
    h1 = build_h1_los(geo)
    lam = geo.wavelength_m
    n = geo.n_cells
    # independent brute-force recomputation, cell by cell
    for idx in (0, 7, 55, 143):
        ix, iy = divmod(idx, geo.cells_y)
        x = (ix - (geo.cells_x - 1) / 2.0) * geo.pitch_x_m
        y = (iy - (geo.cells_y - 1) / 2.0) * geo.pitch_y_m
        d = np.sqrt(x * x + y * y + geo.feed_distance_m**2)
        expected = (lam / (4.0 * np.pi * d)) * np.exp(-2j * np.pi * d / lam)
        assert abs(h1[idx, 0] - expected) < 1e-12
        assert abs(h1[n + idx, 1] - expected) < 1e-12
        assert h1[idx, 1] == 0 and h1[n + idx, 0] == 0


def test_h1_deterministic_bit_identical():
    geo = Geometry()
    assert np.array_equal(build_h1_los(geo), build_h1_los(geo))


# -- H2 -------------------------------------------------------------------------


def test_h2_infinite_xpd_zeroes_cross_blocks():
    geo = Geometry(cells_x=2, cells_y=2)
    n, k = geo.n_cells, geo.k_rx
    # None (the default) and an explicit infinite discrimination alike
    for spec in (ChannelModelSpec(), ChannelModelSpec(cross_polarization_discrimination_db=float("inf"))):
        assert spec.cross_scale == 0.0
        h2 = build_h2(geo, spec)
        assert np.all(h2[:k, n:] == 0)
        assert np.all(h2[k:, :n] == 0)
        assert np.all(h2[:k, :n] != 0)


def test_h2_finite_xpd_scales_cross_blocks():
    geo = Geometry(cells_x=2, cells_y=2)
    spec = ChannelModelSpec(cross_polarization_discrimination_db=20.0)
    h2 = build_h2(geo, spec)
    n, k = geo.n_cells, geo.k_rx
    assert np.max(np.abs(h2[:k, n:] - 0.1 * h2[:k, :n])) < 1e-15


def test_h2_rayleigh_seeded_determinism():
    geo = Geometry(cells_x=3, cells_y=3)
    spec = ChannelModelSpec(h2_kind="iid_rayleigh", rng_seed=77)
    assert np.array_equal(build_h2(geo, spec), build_h2(geo, spec))
    other = ChannelModelSpec(h2_kind="iid_rayleigh", rng_seed=78)
    assert not np.array_equal(build_h2(geo, spec), build_h2(geo, other))


def test_h2_rayleigh_unit_variance():
    geo = Geometry(cells_x=25, cells_y=10, rx_positions_m=tuple((0.0, 0.0, 1.0 + i) for i in range(200)))
    spec = ChannelModelSpec(h2_kind="iid_rayleigh", rng_seed=5)
    h2 = build_h2(geo, spec)
    n, k = geo.n_cells, geo.k_rx
    co = h2[:k, :n].ravel()
    assert co.size >= 10**4
    assert abs(np.mean(np.abs(co) ** 2) - 1.0) < 0.02


def test_channel_model_spec_validation():
    with pytest.raises(ValueError):
        ChannelModelSpec(h2_kind="rician")
    with pytest.raises(ValueError):
        ChannelModelSpec(cross_polarization_discrimination_db=-3.0)


# -- effective stream channel -----------------------------------------------------


def test_effective_channel_single_cell_passthrough():
    h2 = np.eye(2, dtype=complex)
    e = np.array([1.0, 1.0], dtype=complex)
    g = effective_stream_channel(h2, e, 1.0)
    assert np.allclose(g, np.eye(2), atol=1e-15)


def test_effective_channel_matches_replicated_reduced_model():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(1, 33))
        k = int(rng.integers(1, 4))
        h1 = rng.standard_normal((2 * n, 2)) + 1j * rng.standard_normal((2 * n, 2))
        h2 = rng.standard_normal((2 * k, 2 * n)) + 1j * rng.standard_normal((2 * k, 2 * n))
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c /= np.linalg.norm(c)
        power = float(rng.uniform(0.2, 5.0))
        channels = ChannelSet(h1=h1, h2=h2, c=c, carrier_power_watts=power, k_rx=k)
        e = attenuation_from(channels)
        g = effective_stream_channel(h2, e, power)
        s = rng.standard_normal(2) * 0.4 + 1j * rng.standard_normal(2) * 0.4
        s = s / max(1.0, np.max(np.abs(s)))
        replicated = ReflectionVector(np.concatenate([np.full(n, s[0]), np.full(n, s[1])]))
        direct = received_reduced(channels, e, replicated, np.zeros(2 * k))
        assert np.max(np.abs(direct.entries - g @ s)) < 1e-12


def test_effective_channel_linear_in_cell_count():
    e1 = np.array([0.5 + 0.1j, 0.3 - 0.2j])
    h2_1 = np.array([[1.0 + 0j, 2.0], [3.0, 4.0]])
    g1 = effective_stream_channel(h2_1, e1, 1.0)
    # duplicate every cell with identical entries
    e2 = np.array([0.5 + 0.1j] * 2 + [0.3 - 0.2j] * 2)
    h2_2 = np.array([[1.0 + 0j, 1.0, 2.0, 2.0], [3.0, 3.0, 4.0, 4.0]])
    g2 = effective_stream_channel(h2_2, e2, 1.0)
    assert np.max(np.abs(g2 - 2.0 * g1)) < 1e-14


def test_effective_channel_dimension_mismatch():
    with pytest.raises(ValueError):
        effective_stream_channel(np.eye(2), np.ones(4, dtype=complex), 1.0)
    # E is a diagonal: a 2-D array of the right size is refused too.
    with pytest.raises(ValueError):
        effective_stream_channel(np.eye(2), np.ones((1, 2), dtype=complex), 1.0)


# -- AWGN -------------------------------------------------------------------------


def test_awgn_zero_power_is_zero_vector():
    rng = np.random.default_rng(0)
    assert np.array_equal(awgn(8, 0.0, rng), np.zeros(8, dtype=complex))


def test_awgn_seeded_reproducibility():
    a = awgn(64, 2.0, np.random.default_rng(42))
    b = awgn(64, 2.0, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_awgn_variance_accuracy():
    rng = np.random.default_rng(12345)
    samples = awgn(10**6, 3.0, rng)
    measured = np.mean(np.abs(samples) ** 2)
    assert abs(measured - 3.0) / 3.0 < 0.005


@pytest.mark.parametrize("length", [1, 7, 16384, 32768, 40001])
def test_awgn_bytes_and_rng_state_match_two_draw_formula(length):
    # The real parts are one standard_normal(length) call and the imaginary
    # parts the next; awgn must give those bytes and leave the generator in
    # the same state, with or without caller buffers (reused, so stale).
    out = np.full(length + 3, np.nan + 1j)
    scratch = np.full(2 * length + 5, np.nan)
    for power in (2.0, 1e-9):
        ref_rng = np.random.default_rng(length)
        scale = np.sqrt(power / 2.0)
        want = scale * (ref_rng.standard_normal(length) + 1j * ref_rng.standard_normal(length))
        for kwargs in ({}, {"out": out[:length], "scratch": scratch}):
            rng = np.random.default_rng(length)
            assert awgn(length, power, rng, **kwargs).tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
    rng = np.random.default_rng(length)
    before = rng.bit_generator.state
    assert not np.any(awgn(length, 0.0, rng, out=out[:length]))
    assert rng.bit_generator.state == before


def test_awgn_rejects_negative_power():
    with pytest.raises(ValueError):
        awgn(4, -1.0, np.random.default_rng(0))


def test_noise_power_for_ebn0_matches_hand_computation():
    g = np.array([[2.0 + 0j, 0.0], [0.0, 2.0]])
    # row energy 4, Es = 5/9, 4 bits/symbol, 10 dB
    expected = 4.0 * (5.0 / 9.0) / (4.0 * 10.0)
    assert abs(noise_power_for_ebn0(g, 10.0) - expected) < 1e-15
    assert noise_power_for_ebn0(g, float("inf")) == 0.0


def test_noise_power_at_minus_infinite_ebn0_is_infinite():
    # No signal energy per bit needs infinite noise, not a noiseless link.
    g = np.array([[2.0 + 0j, 0.0], [0.0, 2.0]])
    assert noise_power_for_ebn0(g, float("-inf")) == float("inf")


def test_channel_set_from_assembles_consistent_shapes():
    geo = Geometry(cells_x=3, cells_y=2)
    channels = channel_set_from(geo, ChannelModelSpec())
    assert channels.h1.shape == (12, 2)
    assert channels.h2.shape == (2, 12)
    assert channels.carrier_power_watts == 1.0
