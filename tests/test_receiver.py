"""Receiver chain: correlator, estimation, equalization, demapping, BER math."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpris
from dpris.campaign import _ber_record, _confusions, _fmt
from dpris.config import CampaignConfig
from dpris.modulation import (
    CONSTELLATION16,
    TWO_PI,
    TmSymbolParams,
    exact_coefficients,
    symbol_indices_to_bits,
    waveform,
)
from dpris.receiver import (
    BerRecord,
    PilotBlock,
    SingularChannelError,
    default_pilot_block,
    demap_indices,
    estimate_channel,
    extract_harmonic,
    mix2,
    slicer_demap_indices,
    theoretical_ber_16qam,
    wilson_interval_halfwidth,
    zf_equalize,
    zf_matrix,
)
from dpris.modulation import QAM16_SCALE

TS = 4e-7
LIMIT = CampaignConfig.zf_condition_limit


# -- harmonic extraction -----------------------------------------------------


def test_extract_matched_tone():
    m = 64
    rx = np.exp(-2j * np.pi * np.arange(m) / m)
    assert abs(extract_harmonic(rx) - 1.0) < 1e-12


def test_extract_constant_is_orthogonal():
    assert abs(extract_harmonic(np.ones(16))) < 1e-12


def test_extract_convergence_to_exact_oracle():
    rng = np.random.default_rng(2718)
    cases = [
        TmSymbolParams(
            delta_phi=rng.uniform(1e-6, TWO_PI),
            t_shift_s=rng.uniform(0.0, TS * 0.999999),
            symbol_period_s=TS,
        )
        for _ in range(200)
    ]
    bounds = {64: 2e-2, 256: 6e-3, 1024: 1.5e-3, 4096: 3e-4}
    worst = {}
    for m in bounds:
        err = 0.0
        for params in cases:
            est = extract_harmonic(waveform(params, m))
            err = max(err, abs(est - exact_coefficients(params, [-1.0])[0]))
        worst[m] = err
        assert err <= bounds[m], f"M={m}: {err:.3e} > {bounds[m]:.0e}"
    # O(1/M): strictly decreasing, and 64 -> 4096 improves by at least 16x
    assert worst[64] > worst[256] > worst[1024] > worst[4096]
    assert worst[64] / worst[4096] >= 16.0


# -- channel estimation -----------------------------------------------------


def test_default_pilot_block_is_orthogonal_full_rank():
    pilot = default_pilot_block(CampaignConfig.pilot_length)
    s = pilot.symbols
    gram = s @ s.conj().T
    assert abs(gram[0, 1]) < 1e-14
    assert abs(gram[1, 0]) < 1e-14
    assert np.all(np.abs(np.abs(s) - 1.0) < 1e-12)  # unit-amplitude corners
    # every pilot entry is a legal constellation point
    dist = np.min(np.abs(s.reshape(-1)[:, None] - CONSTELLATION16[None, :]), axis=1)
    assert np.max(dist) < 1e-12


def test_estimate_channel_noiseless_recovery():
    rng = np.random.default_rng(10)
    pilot = default_pilot_block(CampaignConfig.pilot_length)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g_hat = estimate_channel(pilot, g @ pilot.symbols)
    assert np.max(np.abs(g_hat - g)) < 1e-10


def test_estimate_channel_identity_case():
    pilot = default_pilot_block(8)
    g_hat = estimate_channel(pilot, pilot.symbols)
    assert np.max(np.abs(g_hat - np.eye(2))) < 1e-12


def test_estimate_channel_rejects_rank_deficient_pilots():
    s = np.ones((2, 8), dtype=complex)  # identical rows
    with pytest.raises(ValueError):
        PilotBlock(symbols=s)


def test_estimate_channel_error_scales_inverse_with_length():
    # LS theory: E||G_hat - G||_F^2 = 4 * sigma^2 / L for these unit pilots
    rng = np.random.default_rng(31337)
    g = np.array([[1.0 + 0.2j, 0.1], [0.05j, 0.9 - 0.1j]])
    sigma2 = 0.1
    mean_err = {}
    for length in (8, 32, 128):
        pilot = default_pilot_block(length)
        errs = []
        for _ in range(400):
            noise = np.sqrt(sigma2 / 2) * (
                rng.standard_normal((2, length)) + 1j * rng.standard_normal((2, length))
            )
            g_hat = estimate_channel(pilot, g @ pilot.symbols + noise)
            errs.append(np.sum(np.abs(g_hat - g) ** 2))
        mean_err[length] = np.mean(errs)
        expected = 4.0 * sigma2 / length
        assert abs(mean_err[length] - expected) / expected < 0.25
    assert 3.0 < mean_err[8] / mean_err[32] < 5.4
    assert 3.0 < mean_err[32] / mean_err[128] < 5.4


# -- 2x2 mixing ---------------------------------------------------------------


@pytest.mark.parametrize("shape", [(2,), (2, 1), (2, 16_384), (2, 0)], ids=str)
@pytest.mark.parametrize("buffers", [False, True], ids=["allocating", "caller-buffers"])
def test_mix2_matches_matmul(shape, buffers):
    rng = np.random.default_rng(2024)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x_before = x.copy()
    if buffers:
        out = np.full(shape, np.nan + 0j)
        scratch = np.full(shape[1:], np.nan + 0j)
        got = mix2(m, x, out=out, scratch=scratch)
        assert got is out
    else:
        got = mix2(m, x)
    assert got.shape == shape and got.dtype == np.complex128
    np.testing.assert_allclose(got, m @ x, rtol=1e-14, atol=0)
    assert np.array_equal(x, x_before)


def test_mix2_rejects_shapes_that_are_not_2x2_by_2():
    for m, x in ((np.eye(2), np.ones(3)), (np.eye(2), np.ones((3, 4))), (np.eye(3), np.ones(2))):
        with pytest.raises(ValueError, match="mix2"):
            mix2(m, x)


# -- zero forcing -------------------------------------------------------------


def test_zf_identity_and_scaling():
    y = np.array([1.0 + 1j, 2.0 - 1j])
    assert np.array_equal(zf_equalize(np.eye(2), y, LIMIT), y)
    assert np.max(np.abs(zf_equalize(2.0 * np.eye(2), y, LIMIT) - y / 2.0)) < 1e-15


def test_zf_recovers_streams():
    rng = np.random.default_rng(44)
    for _ in range(50):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if np.linalg.cond(g) > 1e6:
            continue
        s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.max(np.abs(zf_equalize(g, g @ s, LIMIT) - s)) < 1e-10


def test_zf_rejects_near_singular():
    g = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    for call in (lambda: zf_equalize(g, np.ones(2), LIMIT), lambda: zf_matrix(g, LIMIT)):
        with pytest.raises(SingularChannelError) as err:
            call()
        assert err.value.condition > 1e8


def test_zf_equalize_matches_solve_within_conditioning_bound():
    # The inverse multiply and an LU solve each land within a small multiple
    # of eps * cond(G) * |s| of the exact s, so they differ by at most that
    # sum; 16 eps * cond(G) covers both for a 2x2 with margin.
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(8)
    for target in (1.0, 1e2, 1e4, 1e6):
        for _ in range(20):
            u, _, vh = np.linalg.svd(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            g = u @ np.diag([1.0, 1.0 / target]) @ vh * rng.uniform(0.1, 10.0)
            y = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
            ref = np.linalg.solve(g, y)
            err = np.linalg.norm(zf_equalize(g, y, LIMIT) - ref, axis=0)
            assert np.all(err <= 16.0 * eps * np.linalg.cond(g) * np.linalg.norm(ref, axis=0))


# -- demapping -----------------------------------------------------------------


def test_demap_exact_points_round_trip():
    idx = demap_indices(CONSTELLATION16)
    assert np.array_equal(idx, np.arange(16))
    bits = symbol_indices_to_bits(idx).reshape(16, 4)
    assert np.array_equal(bits, [[(i >> k) & 1 for k in (3, 2, 1, 0)] for i in range(16)])


def test_demap_origin_tie_breaks_to_lowest_index():
    idx = demap_indices(0j)
    assert idx.tolist() == [5]  # lowest-index inner point
    assert np.array_equal(symbol_indices_to_bits(idx), [0, 1, 0, 1])


def test_slicer_matches_nearest_point_demap():
    rng = np.random.default_rng(3)
    pts = 1.4 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
    assert np.array_equal(slicer_demap_indices(pts), demap_indices(pts))


def _slicer_reference(points):
    """The per-dimension slicer written bit by bit, one stream at a time."""
    re = points.real / QAM16_SCALE
    im = points.imag / QAM16_SCALE
    b0 = (re > 0).astype(np.int64)
    b1 = (np.abs(re) < 2.0).astype(np.int64)
    b2 = (im > 0).astype(np.int64)
    b3 = (np.abs(im) < 2.0).astype(np.int64)
    return (b0 << 3) | (b1 << 2) | (b2 << 1) | b3


def test_slicer_scratch_matches_reference_on_thresholds():
    # Exact decision thresholds, both zero signs, a denormal and NaN, then
    # random blocks sliced through one reused scratch buffer: stale
    # contents from a longer block must not leak into a shorter one.
    edges = np.array([0.0, -0.0, 2.0, -2.0, 5e-324, -5e-324, np.nan, 3.0, -1.0]) * QAM16_SCALE
    special = (edges[:, None] + 1j * edges[None, :]).reshape(-1)
    assert np.array_equal(slicer_demap_indices(special), _slicer_reference(special))
    rng = np.random.default_rng(12)
    scratch = np.empty(30000)
    for n in (5000, 17, 5000, 0):
        block = 1.4 * (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
        got = slicer_demap_indices(block, scratch=scratch)
        want = np.concatenate([_slicer_reference(block[0]), _slicer_reference(block[1])])
        assert np.array_equal(got, want)


# -- theoretical BER ------------------------------------------------------------


def test_theory_limits():
    assert theoretical_ber_16qam(60.0) < 1e-30
    assert abs(theoretical_ber_16qam(-60.0) - 0.5) < 1e-3
    assert theoretical_ber_16qam(4000.0) == 0.0  # 10 ** 400 leaves the float range


@pytest.mark.parametrize(
    "ebn0_db, cell",
    [
        (4.0, "0.0586237372834"),
        (6.0, "0.0278713278452"),
        (8.0, "0.00924721374147"),
        (10.0, "0.00175415061789"),
        (12.0, "0.000138658688813"),
        (14.0, "2.76320800169e-06"),
        (16.0, "6.25020082774e-09"),
        # Deep-tail cells where the last digit depends on the erfc: each equals
        # the three-term sum with erfc taken to 60 digits at the same arguments.
        (23.19, "1.41593861755e-38"),
        (28.68, "7.99097200605e-131"),
        (31.89, "3.10016807075e-271"),
        (32.5, "9.55757177916e-312"),  # a subnormal, not flushed to 0
    ],
)
def test_theory_csv_cells_pinned(ebn0_db, cell):
    assert _fmt(theoretical_ber_16qam(ebn0_db)) == cell


def test_package_imports_and_theory_curve_need_no_scipy():
    code = (
        "import importlib, pkgutil, sys\n"
        "import dpris\n"
        "for mod in pkgutil.iter_modules(dpris.__path__):\n"
        "    importlib.import_module('dpris.' + mod.name)\n"
        "from dpris.receiver import theoretical_ber_16qam\n"
        "assert isinstance(theoretical_ber_16qam(8.0), float)\n"
        "assert theoretical_ber_16qam([4.0, 8.0]).shape == (2,)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(dpris.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_theory_monotone_decreasing():
    grid = np.linspace(-10.0, 20.0, 301)
    vals = theoretical_ber_16qam(grid)
    assert np.all(np.diff(vals) < 0)


def test_theory_matches_scalar_awgn_monte_carlo():
    # 1e7-symbol scalar AWGN oracle at 10 dB, compared within 3 Wilson SE
    ebn0_db = 10.0
    es = float(np.mean(np.abs(CONSTELLATION16) ** 2))
    n0 = es / (4.0 * 10 ** (ebn0_db / 10.0))
    rng = np.random.default_rng(987654321)
    total_syms = 10**7
    errors = 0
    pop = np.array([bin(i).count("1") for i in range(16)])
    for _ in range(10):
        n = total_syms // 10
        sym = rng.integers(0, 16, n)
        noise = np.sqrt(n0 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rx = slicer_demap_indices(CONSTELLATION16[sym] + noise)
        errors += int(pop[rx ^ sym].sum())
    bits = 4 * total_syms
    mc_ber = errors / bits
    se = wilson_interval_halfwidth(errors, bits) / 1.959963984540054
    assert abs(mc_ber - theoretical_ber_16qam(ebn0_db)) <= 3.0 * se


# -- BER accounting ---------------------------------------------------------------


def _random_streams():
    rng = np.random.default_rng(55)
    return rng.integers(0, 16, 1000), rng.integers(0, 16, 1000)


def _record(rx0, rx1, sym0, sym1):
    return _ber_record(8.0, _confusions(16 * sym0 + sym1, rx0, rx1))


def test_ber_count_identical_streams():
    sym0, sym1 = _random_streams()
    record = _record(sym0.copy(), sym1.copy(), sym0, sym1)
    assert record.ebn0_db == 8.0 and record.bits_sent == 8000
    assert (record.bit_errors, record.symbol_errors) == (0, 0)
    assert record.ber == 0.0 and record.wilson_interval_halfwidth > 0.0


def test_ber_count_complemented_stream():
    # every bit and every symbol wrong
    sym0, sym1 = _random_streams()
    record = _record(sym0 ^ 15, sym1 ^ 15, sym0, sym1)
    assert (record.bit_errors, record.symbol_errors) == (8000, 2000)
    assert record.ber == 1.0


def test_ber_count_scripted_corruption():
    # scripted flips: 1 + 2 + 3 + 1 bits in stream 0, 4 + 2 bits in stream 1
    sym0, sym1 = _random_streams()
    rx0, rx1 = sym0.copy(), sym1.copy()
    for pos, mask in ((3, 0b1000), (17, 0b0101), (400, 0b1011), (999, 0b0001)):
        rx0[pos] ^= mask
    for pos, mask in ((3, 0b1111), (250, 0b0110)):
        rx1[pos] ^= mask
    record = _record(rx0, rx1, sym0, sym1)
    assert (record.bit_errors, record.symbol_errors) == (13, 6)
    assert record.ber == 13 / 8000 and record.bits_sent == 8000


def test_wilson_halfwidth_behaves():
    assert wilson_interval_halfwidth(0, 1000) > 0.0
    assert wilson_interval_halfwidth(10, 1000) > wilson_interval_halfwidth(1, 1000)
    assert isinstance(BerRecord(0.0, 10, 1, 1, 0.1, 0.05), BerRecord)
