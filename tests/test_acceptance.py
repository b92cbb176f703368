"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the quantitative coupling report.

Criterion 2 is implemented exactly as stated and is expected to fail: a
lower bound of 0.999 on the +-200-harmonic energy window is infeasible for
ramps near delta_phi = pi, whose true out-of-window tail is 1.011e-3 (about
6.6% of uniform parameter draws land there).  The strict xfail marker keeps
that analysis loud without hiding it; see tests/test_modulation.py for the
corrected-bound property.
"""

import contextlib
import csv
import io
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from dpris.campaign import LinkEngine, run_ber_sweep, write_ber_csv
from dpris.cli import main
from dpris.config import CampaignConfig
from dpris.hardware import HardwareConfig
from dpris.model import ChannelSet, ReflectionVector, attenuation_from, received_full, received_reduced
from dpris.modulation import (
    TWO_PI,
    TmSymbolParams,
    exact_coefficients,
    harmonic_closed_form,
    wrap_phase,
)
from dpris.receiver import zf_equalize, WILSON_Z

TS = 4e-7


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] {criterion}: {status} ({detail})", flush=True)


def test_c1_closed_form_matches_exact_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(0xAC, 1)))
    worst_amp = worst_phase = 0.0
    for _ in range(1000):
        dp = rng.uniform(0.0, TWO_PI)
        if dp == 0.0:
            dp = TWO_PI
        params = TmSymbolParams(
            delta_phi=dp, t_shift_s=rng.uniform(0.0, TS * (1 - 1e-12)), symbol_period_s=TS
        )
        cf = harmonic_closed_form(params)
        ex = exact_coefficients(params, [-1.0])[0]
        worst_amp = max(worst_amp, abs(cf.amplitude - abs(ex)))
        worst_phase = max(worst_phase, abs(float(wrap_phase(cf.phase - np.angle(ex)))))
    elapsed = time.perf_counter() - started
    ok = worst_amp <= 1e-9 and worst_phase <= 1e-9 and elapsed < 5.0
    report(
        "C1 closed-form vs exact harmonic",
        ok,
        f"1000 cases, max amp err {worst_amp:.2e}, max phase err {worst_phase:.2e}, {elapsed:.2f} s",
    )
    assert worst_amp <= 1e-9
    assert worst_phase <= 1e-9
    assert elapsed < 5.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "infeasible criterion: a window-energy lower bound of 0.999 cannot hold; "
        "the true worst-case tail beyond |k|=200 is 1.011e-3 at delta_phi = pi, "
        "so ~6.6% of uniform draws fall below the bound (measured minimum "
        "0.998989).  The mathematically correct bound 1 - 1.02e-3 is enforced "
        "in test_modulation.py::test_window_energy_matches_true_tail."
    ),
)
def test_c2_parseval_window_as_stated():
    started = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(0xAC, 2)))
    orders = np.arange(-200.0, 201.0)
    lo, hi = 1.0, 1.0
    for _ in range(100):
        dp = rng.uniform(0.0, TWO_PI)
        if dp == 0.0:
            dp = TWO_PI
        params = TmSymbolParams(
            delta_phi=dp, t_shift_s=rng.uniform(0.0, TS * (1 - 1e-12)), symbol_period_s=TS
        )
        total = float(np.sum(np.abs(exact_coefficients(params, orders)) ** 2))
        lo, hi = min(lo, total), max(hi, total)
    elapsed = time.perf_counter() - started
    ok = lo >= 0.999 and hi <= 1.0 + 1e-6 and elapsed < 30.0
    report(
        "C2 Parseval window [0.999, 1+1e-6] as stated",
        ok,
        f"100 cases, window sum range [{lo:.9f}, {hi:.9f}], {elapsed:.2f} s",
    )
    assert lo >= 0.999, f"window sum {lo:.9f} below the stated 0.999 bound"
    assert hi <= 1.0 + 1e-6
    assert elapsed < 30.0


def test_c3_model_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(0xAC, 3)))
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, 5))
        h1 = rng.standard_normal((2 * n, 2)) + 1j * rng.standard_normal((2 * n, 2))
        h2 = rng.standard_normal((2 * k, 2 * n)) + 1j * rng.standard_normal((2 * k, 2 * n))
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c /= np.linalg.norm(c)
        x = ReflectionVector(
            rng.uniform(0, 1, 2 * n) * np.exp(1j * rng.uniform(0, TWO_PI, 2 * n))
        )
        noise = rng.standard_normal(2 * k) + 1j * rng.standard_normal(2 * k)
        channels = ChannelSet(
            h1=h1, h2=h2, c=c, carrier_power_watts=float(rng.uniform(0.1, 10.0)), k_rx=k
        )
        e = attenuation_from(channels)
        full = received_full(channels, x, noise)
        reduced = received_reduced(channels, e, x, noise)
        worst = max(worst, float(np.max(np.abs(full.entries - reduced.entries))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    report(
        "C3 full/reduced model identity",
        ok,
        f"1000 instances (N<=64, K<=4), max |diff| {worst:.2e}, {elapsed:.2f} s",
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_c4_noiseless_loopback_zero_errors():
    started = time.perf_counter()
    cfg = CampaignConfig(csi="perfect", seed=1)
    engine = LinkEngine(cfg)
    (record,) = engine.run_points((float("inf"),), 800_000)  # 1e5 symbols per stream
    elapsed = time.perf_counter() - started
    ok = record.bit_errors == 0 and record.symbol_errors == 0 and elapsed < 10.0
    report(
        "C4 noiseless loopback",
        ok,
        f"{record.bits_sent} bits, {record.bit_errors} bit errors, "
        f"{record.symbol_errors} symbol errors, {elapsed:.2f} s",
    )
    assert record.bit_errors == 0
    assert record.symbol_errors == 0
    assert elapsed < 10.0


def test_c5_awgn_fidelity_matches_theory():
    started = time.perf_counter()
    grid = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
    cfg = CampaignConfig(ebn0_grid_db=grid, bits_per_point=2_000_000, seed=1)
    result = run_ber_sweep(cfg, threads=4)
    elapsed = time.perf_counter() - started
    ok = True
    rows = []
    for record, theory in zip(result.records, result.theoretical):
        se = record.wilson_interval_halfwidth / WILSON_Z
        dev = abs(record.ber - theory)
        point_ok = dev <= 3.0 * se
        ok = ok and point_ok
        rows.append(
            f"{record.ebn0_db:g} dB: ber {record.ber:.4e} theory {theory:.4e} "
            f"|dev| {dev:.2e} <= 3SE {3 * se:.2e} {'ok' if point_ok else 'VIOLATION'}"
        )
    report("C5 AWGN fidelity vs exact theory", ok, f"{len(grid)} points, {elapsed:.1f} s")
    for row in rows:
        print("   ", row, flush=True)
    for record, theory in zip(result.records, result.theoretical):
        se = record.wilson_interval_halfwidth / WILSON_Z
        assert abs(record.ber - theory) <= 3.0 * se, f"point {record.ebn0_db} dB off theory"


def test_c6_coupling_penalty_ordering(tmp_path):
    started = time.perf_counter()
    cfg = tmp_path / "c6.json"
    cfg.write_text(json.dumps({"bits_per_point": 1_000_000, "seed": 1}))
    out_dir = tmp_path / "res"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["coupling-penalty", "--config", str(cfg), "--threads", "4", "--out-dir", str(out_dir)])
    elapsed = time.perf_counter() - started
    theory, independent, identical, ordering = stdout.getvalue().splitlines()[-4:]
    report("C6 coupling degradation ordering", code == 0, f"{independent}; {identical}; {theory}; {elapsed:.1f} s")
    print(
        "    quantitative report (synthetic transfer curves; values for inspection, "
        "only the ordering gates):",
        flush=True,
    )
    for label in ("independent", "identical"):
        with open(out_dir / f"ber_coupled_{label}.csv", newline="") as fh:
            for row in csv.DictReader(line for line in fh if not line.startswith("#")):
                print(
                    f"      {label:12s} {float(row['ebn0_db']):5.1f} dB  ber {float(row['ber']):.3e} "
                    f"(+-{float(row['ci_halfwidth']):.1e})",
                    flush=True,
                )
    assert code == 0
    assert ordering == "ordering independent > identical > 0: True"


def test_c7_cross_fidelity_agreement():
    started = time.perf_counter()
    cfg = CampaignConfig(
        fidelity="B",
        coupling=False,
        samples_per_symbol=4096,
        csi="perfect",
        seed=1,
        # coupling=False already runs the control path at infinite isolation.
        hardware=HardwareConfig(
            dac_bits=None,
            amplitude_ripple_db=0.0,
            base_reflection_amplitude=1.0,
        ),
    )
    engine = LinkEngine(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(0xAC, 7)))
    sym0 = rng.integers(0, 16, 10_000)
    sym1 = rng.integers(0, 16, 10_000)
    # noiseless post-equalizer symbol estimates through both fidelities
    est = {}
    for fidelity in ("A", "B"):
        y = engine.g @ engine.tx_symbols(sym0, sym1, fidelity)
        est[fidelity] = zf_equalize(engine.g, y, cfg.zf_condition_limit)
    worst = float(np.max(np.abs(est["B"] - est["A"])))
    elapsed = time.perf_counter() - started
    ok = worst <= 3e-4
    report(
        "C7 cross-fidelity agreement at M=4096",
        ok,
        f"10^4 symbols, max |estimate diff| {worst:.2e} <= 3e-4, {elapsed:.1f} s",
    )
    assert worst <= 3e-4


def test_c8_campaign_determinism_across_threads(tmp_path):
    started = time.perf_counter()
    cfg = CampaignConfig(
        ebn0_grid_db=(6.0, 10.0, 14.0),
        bits_per_point=40_000,
        fidelity="B",
        coupling=True,
        seed=1,
    )
    outputs = {}
    for threads in (1, 8):
        path = tmp_path / f"threads{threads}.csv"
        write_ber_csv(run_ber_sweep(cfg, threads=threads), cfg, path)
        outputs[threads] = path.read_bytes()
    rerun = tmp_path / "rerun.csv"
    write_ber_csv(run_ber_sweep(cfg, threads=8), cfg, rerun)
    elapsed = time.perf_counter() - started
    identical = outputs[1] == outputs[8] == rerun.read_bytes()
    report(
        "C8 determinism across worker counts",
        identical,
        f"1 vs 8 threads plus rerun byte-identical: {identical}, {elapsed:.1f} s",
    )
    assert identical


def test_c9_throughput_bookkeeping():
    cfg = CampaignConfig()
    result = run_ber_sweep(replace(cfg, ebn0_grid_db=(10.0,), bits_per_point=10_000))
    ok = cfg.throughput_bps == 20e6 == result.throughput_bps
    report(
        "C9 throughput bookkeeping",
        ok,
        f"2 streams x 4 bits x {cfg.symbol_rate_sps:g} Sps = {result.throughput_bps:g} bps",
    )
    assert cfg.throughput_bps == 20e6
    assert result.throughput_bps == 20e6
