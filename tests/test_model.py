"""Baseband model types and the full/reduced received-signal identity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpris.model import (
    AttenuationDiagonal,
    ChannelSet,
    ReflectionVector,
    attenuation_from,
    build_phi,
    received_full,
    received_reduced,
)


def random_instance(rng, n_cells=None, k_rx=None):
    n = n_cells or int(rng.integers(1, 65))
    k = k_rx or int(rng.integers(1, 5))
    h1 = rng.standard_normal((2 * n, 2)) + 1j * rng.standard_normal((2 * n, 2))
    h2 = rng.standard_normal((2 * k, 2 * n)) + 1j * rng.standard_normal((2 * k, 2 * n))
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c /= np.linalg.norm(c)
    power = float(rng.uniform(0.1, 10.0))
    x = ReflectionVector(
        rng.uniform(0, 1, 2 * n) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2 * n))
    )
    noise = rng.standard_normal(2 * k) + 1j * rng.standard_normal(2 * k)
    channels = ChannelSet(h1=h1, h2=h2, c=c, carrier_power_watts=power, k_rx=k)
    return channels, x, noise


def test_build_phi_identity_reflection():
    x = ReflectionVector([1.0, 1.0])
    assert np.array_equal(build_phi(x), np.diag([1.0 + 0j, 1.0 + 0j]))


def test_build_phi_embeds_entries():
    x = ReflectionVector([1j, -1.0])
    phi = build_phi(x)
    assert phi[0, 0] == 1j and phi[1, 1] == -1.0
    assert phi[0, 1] == 0 and phi[1, 0] == 0


def test_build_phi_round_trip_exact():
    rng = np.random.default_rng(7)
    x = ReflectionVector(rng.uniform(0, 1, 8) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
    assert np.array_equal(np.diagonal(build_phi(x)), x.entries)


def test_reflection_vector_rejects_over_unit():
    with pytest.raises(ValueError):
        ReflectionVector([1.5, 0.0])
    with pytest.raises(ValueError):
        ReflectionVector([0.1, 0.2, 0.3])  # odd length


def test_attenuation_identity_channel():
    channels = ChannelSet(h1=np.eye(2), h2=np.eye(2), c=[1.0, 0.0], k_rx=1)
    e = attenuation_from(channels)
    assert np.allclose(e.entries, [1.0, 0.0], atol=0)


def test_attenuation_permutation():
    channels = ChannelSet(h1=[[0, 1], [1, 0]], h2=np.eye(2), c=[1.0, 0.0], k_rx=1)
    assert np.allclose(attenuation_from(channels).entries, [0.0, 1.0], atol=0)


def test_attenuation_matches_loop_oracle():
    rng = np.random.default_rng(11)
    channels, _, _ = random_instance(rng)
    e = attenuation_from(channels)
    # independent element-by-element recomputation
    expected = np.array(
        [
            channels.h1[i, 0] * channels.c[0] + channels.h1[i, 1] * channels.c[1]
            for i in range(channels.h1.shape[0])
        ]
    )
    assert np.max(np.abs(e.entries - expected)) < 1e-12


def test_attenuation_rejects_bad_carrier_norm():
    with pytest.raises(ValueError):
        ChannelSet(h1=np.eye(2), h2=np.eye(2), c=[1.0, 0.5], k_rx=1)
    channels = ChannelSet(h1=np.eye(2), h2=np.eye(2), c=[1.0, 0.0], k_rx=1)
    object.__setattr__(channels, "c", np.array([1.0 + 0j, 1e-3]))  # corrupt past validation
    with pytest.raises(ValueError):
        attenuation_from(channels)


# Each bound check reads "not (value <= bound)", so NaN, which compares
# false with everything, is rejected rather than let through.


def test_reflection_vector_rejects_nan_amplitude():
    with pytest.raises(ValueError, match="exceeds 1"):
        ReflectionVector([np.nan, 0.0])


def test_channel_set_rejects_nan_carrier():
    with pytest.raises(ValueError, match="unit norm"):
        ChannelSet(h1=np.eye(2), h2=np.eye(2), c=[np.nan, 0.0], k_rx=1)


def test_attenuation_rejects_nan_carrier():
    channels = ChannelSet(h1=np.eye(2), h2=np.eye(2), c=[1.0, 0.0], k_rx=1)
    object.__setattr__(channels, "c", np.array([np.nan + 0j, 0.0]))  # corrupt past validation
    with pytest.raises(ValueError, match="deviates from 1"):
        attenuation_from(channels)


def test_received_full_identity_tiny_system():
    channels = ChannelSet(h1=np.eye(2), h2=np.eye(2), c=[1.0, 0.0], k_rx=1)
    y = received_full(channels, ReflectionVector([1.0, 1.0]), np.zeros(2))
    assert np.allclose(y.entries, channels.h2 @ (channels.h1 @ channels.c), atol=0)


def test_received_full_zero_reflection_gives_noise():
    rng = np.random.default_rng(3)
    channels, _, noise = random_instance(rng, n_cells=4, k_rx=2)
    x = ReflectionVector(np.zeros(8, dtype=complex))
    y = received_full(channels, x, noise)
    assert np.array_equal(y.entries, noise.astype(complex))


def test_received_dimension_mismatch_rejected():
    channels = ChannelSet(h1=np.eye(2), h2=np.eye(2), c=[1.0, 0.0], k_rx=1)
    with pytest.raises(ValueError):
        received_full(channels, ReflectionVector([1.0, 1.0, 1.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        received_full(channels, ReflectionVector([1.0, 1.0]), np.zeros(4))


def test_full_equals_reduced_on_random_instances():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        channels, x, noise = random_instance(rng)
        e = attenuation_from(channels)
        full = received_full(channels, x, noise)
        reduced = received_reduced(channels, e, x, noise)
        worst = max(worst, float(np.max(np.abs(full.entries - reduced.entries))))
    assert worst < 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_full_equals_reduced_property(seed):
    rng = np.random.default_rng(seed)
    channels, x, noise = random_instance(rng, n_cells=int(rng.integers(1, 17)))
    e = attenuation_from(channels)
    full = received_full(channels, x, noise)
    reduced = received_reduced(channels, e, x, noise)
    assert np.max(np.abs(full.entries - reduced.entries)) < 1e-12


@given(st.integers(min_value=-6, max_value=6))
@settings(max_examples=13, deadline=None)
def test_power_scaling_is_exact_for_binary_alpha(exponent):
    # sqrt(alpha^2 * P) == alpha * sqrt(P) exactly when alpha is a power of two
    alpha = 2.0 ** exponent
    rng = np.random.default_rng(5)
    channels, x, _ = random_instance(rng, n_cells=3, k_rx=1)
    zero = np.zeros(2)
    base = received_full(channels, x, zero)
    scaled_set = ChannelSet(
        h1=channels.h1,
        h2=channels.h2,
        c=channels.c,
        carrier_power_watts=channels.carrier_power_watts * alpha**2,
        k_rx=channels.k_rx,
    )
    scaled = received_full(scaled_set, x, zero)
    assert np.array_equal(scaled.entries, alpha * base.entries)


def test_attenuation_independent_of_reflection_state():
    rng = np.random.default_rng(9)
    channels, _, _ = random_instance(rng, n_cells=5, k_rx=1)
    first = attenuation_from(channels).entries
    second = attenuation_from(channels).entries
    assert np.array_equal(first, second)
    assert isinstance(attenuation_from(channels), AttenuationDiagonal)
