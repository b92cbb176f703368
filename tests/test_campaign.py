"""Campaign plumbing: config schema, engine routes, CLI, loopback, export."""

import json
import subprocess
import sys
from concurrent import futures
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dpris import campaign
from dpris.campaign import (
    CHUNK_SYMBOLS,
    LinkEngine,
    _map_chunks,
    ebn0_at_ber,
    export_waveform,
    run_ber_sweep,
    run_file_loopback,
    run_oracle_check,
    theory_crossing,
    write_ber_csv,
)
from dpris.cli import main
from dpris.config import (
    MAX_ORACLE_CASES,
    CampaignConfig,
    ConfigError,
    config_from_dict,
    config_hash,
    load_config,
)
from dpris.channel import awgn
from dpris.model import received_reduced
from dpris.modulation import (
    CONSTELLATION16,
    TWO_PI,
    TmSymbolParams,
    closed_form_value,
    exact_coefficients,
    harmonic_closed_form,
    qam_to_tm,
    wrap_phase,
)
from dpris.receiver import slicer_demap_indices, theoretical_ber_16qam, zf_equalize


def small_config(**overrides):
    base = dict(
        ebn0_grid_db=(6.0, 10.0),
        bits_per_point=20_000,
        seed=7,
    )
    base.update(overrides)
    return CampaignConfig(**base)


# -- config schema ------------------------------------------------------------


def test_empty_config_gives_paper_scale_defaults():
    cfg = config_from_dict({})
    assert cfg.geometry.carrier_frequency_hz == 2.7e9
    assert cfg.geometry.cells_x == 12 and cfg.geometry.cells_y == 12
    assert cfg.geometry.feed_distance_m == 0.8
    assert cfg.symbol_rate_sps == 2.5e6
    assert cfg.hardware.isolation_db == 16.0
    assert cfg.ebn0_grid_db == (4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
    assert cfg.oracle.harmonic_cases == 1000
    assert cfg.oracle.parseval_cases == 1000
    assert cfg.oracle.model_identity_cases == 1000


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"geometry": {"feed_distance": 0.8}})
    assert "geometry.feed_distance" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"modee": "ber_sweep"})
    assert "modee" in str(err.value)


def test_config_type_and_range_errors_carry_paths():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"bits_per_point": 5})
    assert "bits_per_point" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"ebn0_grid_db": []})
    with pytest.raises(ConfigError):
        config_from_dict({"ebn0_grid_db": "4,6"})
    with pytest.raises(ConfigError):
        config_from_dict({"fidelity": "C"})
    with pytest.raises(ConfigError) as err:
        config_from_dict({"coupling": True, "fidelity": "A"})
    assert "coupling" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"hardware": {"dac_bits": 3.5}})
    assert "hardware.dac_bits" in str(err.value)
    # section values are type-checked too; JSON's NaN/Infinity literals are
    # rejected wherever they appear
    for text, path in (
        ('{"geometry": {"cells_x": 2.5}}', "geometry.cells_x"),
        ('{"geometry": {"cells_x": 1e400}}', "geometry.cells_x"),
        ('{"oracle": {"harmonic_cases": true}}', "oracle.harmonic_cases"),
        ('{"channel": {"rng_seed": 1.5}}', "channel.rng_seed"),
        ('{"symbol_rate_sps": Infinity}', "symbol_rate_sps"),
        ('{"ebn0_grid_db": [4.0, NaN]}', "ebn0_grid_db[1]"),
    ):
        with pytest.raises(ConfigError) as err:
            config_from_dict(json.loads(text))
        assert err.value.path == path, text


@pytest.mark.parametrize(
    "bad",
    [
        {"mode": "sweep"},
        {"fidelity": "C"},
        {"stream_relation": "crossed"},
        {"csi": "bogus"},
        {"ebn0_grid_db": ()},
        {"bits_per_point": 5},
        {"symbol_rate_sps": 0.0},
        {"samples_per_symbol": 1},
        {"pilot_length": 3},
        {"coupling": True, "fidelity": "A"},
        {"seed": -1},
        {"carrier_power_watts": 0.0},
        # The annotation checks: type and finiteness, as on the JSON path.
        pytest.param({"ebn0_grid_db": (float("nan"),)}, id="ebn0_grid_db-nan"),
        pytest.param({"bits_per_point": 20_000.5}, id="bits_per_point-fraction"),
        pytest.param({"seed": "x"}, id="seed-string"),
        pytest.param({"symbol_rate_sps": 1e-310}, id="symbol_rate_sps-period-overflow"),
        pytest.param({"symbol_rate_sps": 1e308}, id="symbol_rate_sps-sample-spacing-underflow"),
    ],
    ids=lambda bad: next(iter(bad)) if len(bad) == 1 else "coupling-fidelity-a",
)
def test_root_rules_hold_however_the_config_is_built(bad):
    errors = []
    for build in (
        lambda: config_from_dict(bad),
        lambda: CampaignConfig(**bad),
        lambda: replace(CampaignConfig(), **bad),
    ):
        with pytest.raises(ConfigError) as err:
            build()
        errors.append((err.value.path, str(err.value)))
    assert errors[0][0].partition("[")[0] == next(iter(bad))  # an entry's path adds its index
    assert errors[1] == errors[0] and errors[2] == errors[0]


def test_python_built_values_are_stored_as_json_would_store_them():
    # A copy of the default geometry is not the default object, so it is checked.
    built = CampaignConfig(ebn0_grid_db=[4, 6], geometry=replace(CampaignConfig().geometry))
    assert built.ebn0_grid_db == (4.0, 6.0)
    assert config_hash(built) == config_hash(config_from_dict({"ebn0_grid_db": [4, 6]}))
    assert config_hash(CampaignConfig()) == config_hash(config_from_dict({})) == "9803877346666a6b"
    with pytest.raises(ConfigError) as err:
        CampaignConfig(geometry=replace(CampaignConfig().geometry, cells_x=2.5))
    assert err.value.path == "geometry.cells_x"


def test_dac_bits_accepts_ideal_string():
    cfg = config_from_dict({"hardware": {"dac_bits": "ideal"}})
    assert cfg.hardware.dac_bits is None
    cfg = config_from_dict({"hardware": {"dac_bits": 8}})
    assert cfg.hardware.dac_bits == 8


def test_rx_positions_parse_from_json():
    cfg = config_from_dict({"geometry": {"rx_positions_m": [[0.1, -0.2, 2.0]]}})
    assert cfg.geometry.rx_positions_m == ((0.1, -0.2, 2.0),)
    assert cfg.geometry.k_rx == 1
    with pytest.raises(ConfigError) as err:
        config_from_dict({"geometry": {"rx_positions_m": [[0.1, 2.0]]}})
    assert "geometry" in str(err.value)


def test_config_hash_is_order_insensitive(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"seed": 3, "fidelity": "A", "bits_per_point": 40000}))
    b.write_text(json.dumps({"bits_per_point": 40000, "seed": 3, "fidelity": "A"}))
    assert config_hash(load_config(str(a))) == config_hash(load_config(str(b)))
    assert config_hash(load_config(str(a))) != config_hash(load_config(None))


def test_throughput_reports_twenty_megabits():
    cfg = CampaignConfig()
    assert cfg.throughput_bps == 20e6


# -- engine routes -----------------------------------------------------------


def test_pair_table_matches_direct_waveform_route():
    # the 256-pair shortcut must be the same math as the per-symbol pipeline
    from dpris.hardware import HardwareConfig

    variants = (
        small_config(fidelity="B", coupling=False),
        small_config(fidelity="B", coupling=True),
        small_config(
            fidelity="B",
            coupling=True,
            hardware=HardwareConfig(isolation_db=16.0, dac_bits=6, amplitude_ripple_db=1.0),
        ),
    )
    for cfg in variants:
        engine = LinkEngine(cfg)
        rng = np.random.default_rng(11)
        sym0 = rng.integers(0, 16, 200)
        sym1 = rng.integers(0, 16, 200)
        table = engine.tx_symbols(sym0, sym1, "B")
        direct = engine.waveform_tx_symbols(sym0, sym1)
        assert np.max(np.abs(table - direct)) < 1e-12


def test_engine_params16_match_pointwise_qam_to_tm():
    for cfg in (small_config(), small_config(fidelity="B", coupling=True, symbol_rate_sps=1e6)):
        engine = LinkEngine(cfg)
        ts = cfg.symbol_period_s
        assert engine.params16 == tuple(qam_to_tm(p, ts) for p in CONSTELLATION16)


def _public_stages(engine, sym0, sym1, rng, noise_power, ghat):
    """One chunk through the public stage functions, as the benchmark replays it."""
    n = sym0.size
    tx = engine.tx_symbols(sym0, sym1, engine.cfg.fidelity)
    noise = awgn(2 * n, noise_power, rng).reshape(2, n)
    s_hat = zf_equalize(ghat, engine.g @ tx + noise, engine.cfg.zf_condition_limit)
    return slicer_demap_indices(s_hat[0]), slicer_demap_indices(s_hat[1])


@pytest.mark.parametrize("relation", ["independent", "identical"])
@pytest.mark.parametrize("fidelity", ["A", "B"])
@pytest.mark.parametrize("ebn0_db", [float("inf"), 4.0])
def test_detect_chunk_equals_public_stage_composition(fidelity, relation, ebn0_db):
    cfg = small_config(fidelity=fidelity, coupling=fidelity == "B", stream_relation=relation)
    engine = LinkEngine(cfg)
    noise_power = engine.noise_power(ebn0_db)
    assert (noise_power == 0.0) == (ebn0_db == float("inf"))
    ghat = engine.ghat_for_point(0, noise_power)
    w = engine.zf_for_point(0, ebn0_db, noise_power)
    # Full, short, full on one engine, so stale buffer contents would show.
    for chunk, n in enumerate((CHUNK_SYMBOLS, 1001, CHUNK_SYMBOLS)):
        draw = np.random.default_rng([5, chunk])
        sym0 = draw.integers(0, 16, n)
        sym1 = sym0 if relation == "identical" else draw.integers(0, 16, n)
        rng, ref_rng = np.random.default_rng([9, chunk]), np.random.default_rng([9, chunk])
        got = engine.detect_chunk(sym0, sym1, rng, noise_power, w)
        want = _public_stages(engine, sym0, sym1, ref_rng, noise_power, ghat)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[0].dtype == want[0].dtype == np.int64
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # Loopback feeds payload nibbles as uint8.
        payload = engine.detect_chunk(
            sym0.astype(np.uint8), sym1.astype(np.uint8), np.random.default_rng([9, chunk]), noise_power, w
        )
        assert np.array_equal(payload[0], want[0]) and np.array_equal(payload[1], want[1])
        buffers = engine._buffers()
        for rx in got:
            for buf in (buffers.tx, buffers.y, buffers.work):
                assert not np.shares_memory(rx, buf)


def test_zf_matrix_runs_once_per_grid_point(monkeypatch, tmp_path):
    calls = []
    real = campaign.zf_matrix

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(campaign, "zf_matrix", counting)
    cfg = small_config(ebn0_grid_db=(6.0, 8.0, 10.0), bits_per_point=300_000)  # 3 chunks a point
    run_ber_sweep(cfg, threads=2)
    assert len(calls) == 3
    src = tmp_path / "payload.bin"
    src.write_bytes(np.random.default_rng(1).bytes(20_000))  # 3 chunks
    run_file_loopback(src, tmp_path / "out.bin", cfg, threads=2)
    assert len(calls) == 4


def test_a_sweep_starts_one_worker_pool(monkeypatch):
    pools = []

    class CountingPool(futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(campaign, "futures", SimpleNamespace(ThreadPoolExecutor=CountingPool))
    cfg = small_config(ebn0_grid_db=(6.0, 8.0, 10.0), bits_per_point=300_000)  # 3 chunks a point
    run_ber_sweep(cfg, threads=2)
    assert len(pools) == 1


def test_pilot_estimate_error_comes_before_any_chunk(monkeypatch):
    monkeypatch.setattr(LinkEngine, "detect_chunk", lambda *args: pytest.fail("a chunk ran"))
    # Only the second point's noisy estimate exceeds the limit (cond(G) = 1).
    cfg = small_config(csi="pilot", ebn0_grid_db=(20.0, -10.0), zf_condition_limit=1.5)
    with pytest.raises(campaign.PilotEstimateError, match="Eb/N0 -10 dB"):
        run_ber_sweep(cfg, threads=2)


@pytest.mark.parametrize(
    "overrides, counts",
    [
        ({"ebn0_grid_db": (4.0, 8.0)}, [(8627, 8119), (1354, 1343)]),
        (
            {"fidelity": "B", "coupling": True, "csi": "pilot", "ebn0_grid_db": (6.0, 12.0)},
            [(9412, 8817), (1075, 1068)],
        ),
        (
            {
                "fidelity": "B",
                "coupling": True,
                "stream_relation": "identical",
                "csi": "perfect",
                "ebn0_grid_db": (6.0, 12.0),
            },
            [(7615, 7163), (734, 726)],
        ),
    ],
    ids=["A-calibrated", "B-pilot-independent", "B-identical-perfect"],
)
def test_sweep_error_counts_are_frozen(overrides, counts):
    # Two chunks a point, the second one short.  A change to the seed
    # substreams, the chunk split or the kernel's arithmetic moves these.
    result = run_ber_sweep(small_config(bits_per_point=150_000, **overrides), threads=2)
    assert [(r.bit_errors, r.symbol_errors) for r in result.records] == counts
    assert [r.bits_sent for r in result.records] == [150_000, 150_000]


def test_map_chunks_keeps_order_and_runs_one_chunk_inline():
    import threading

    def job(c):
        return c, threading.current_thread()

    (only,) = _map_chunks(job, 1, threads=4)
    assert only == (0, threading.current_thread())
    assert [c for c, _ in _map_chunks(job, 5, threads=8)] == list(range(5))
    assert _map_chunks(job, 0, threads=2) == []


def test_fidelity_a_small_sweep_tracks_theory():
    cfg = small_config(ebn0_grid_db=(8.0,), bits_per_point=200_000)
    result = run_ber_sweep(cfg)
    record = result.records[0]
    theory = theoretical_ber_16qam(8.0)
    se = record.wilson_interval_halfwidth / 1.959963984540054
    assert abs(record.ber - theory) <= 4.0 * se


def test_identical_relation_transmits_same_symbols():
    cfg = small_config(stream_relation="identical", ebn0_grid_db=(30.0,))
    result = run_ber_sweep(cfg)
    assert result.records[0].bit_errors == 0


def test_csi_modes_agree_at_fidelity_a():
    records = {}
    for csi in ("perfect", "calibrated"):
        cfg = small_config(csi=csi, ebn0_grid_db=(10.0,), bits_per_point=50_000)
        records[csi] = run_ber_sweep(cfg).records[0]
    assert records["perfect"].bit_errors == records["calibrated"].bit_errors


def test_pilot_csi_runs_and_degrades_gracefully():
    cfg = small_config(csi="pilot", ebn0_grid_db=(12.0,), bits_per_point=50_000)
    record = run_ber_sweep(cfg).records[0]
    assert 0 <= record.ber < 0.5


def test_sweep_rejects_multi_antenna_geometry():
    geo_kwargs = {"rx_positions_m": ((0.0, 0.0, 1.6), (0.1, 0.0, 1.6))}
    cfg = small_config(geometry=replace(CampaignConfig().geometry, **geo_kwargs))
    with pytest.raises(ConfigError):
        LinkEngine(cfg)


def test_custom_lut_csv_feeds_fidelity_b(tmp_path):
    # measured-curve substitution path: config -> loader -> waveform tables
    path = tmp_path / "curves.csv"
    volts = np.linspace(0.0, 20.0, 201)
    lines = ["polarization,voltage_volts,phase_degrees"]
    for pol, gamma in ((0, 1.0), (1, 1.3)):
        degs = 360.0 * (volts / 20.0) ** gamma
        lines += [f"{pol},{v:.6f},{d:.9f}" for v, d in zip(volts, degs)]
    path.write_text("\n".join(lines) + "\n")
    cfg = small_config(fidelity="B", lut_csv=str(path), ebn0_grid_db=(30.0,))
    record = run_ber_sweep(cfg).records[0]
    assert record.ber < 1e-3  # clean high-SNR link through the custom curves


BAD_ROW_LUT = ["0,0,0", "0,x,180", "0,20,360", "1,0,0", "1,20,360"]


@pytest.mark.parametrize(
    "command, fidelity, rows, code",
    [
        # polarization 0 spans only half a turn: the ramp phases cannot be realized
        ("ber-sweep", "B", ["0,0,0", "0,20,180", "1,0,0", "1,20,360"], 2),
        ("ber-sweep", "B", BAD_ROW_LUT, 2),
        ("ber-sweep", "B", None, 4),  # no file at all: an I/O error, not a config error
        # fidelity A never uses the curves, but a named LUT is still checked
        ("ber-sweep", "A", BAD_ROW_LUT, 2),
        ("ber-sweep", "A", None, 4),
        # nor do these commands, which check it all the same
        ("oracle-check", "A", BAD_ROW_LUT, 2),
        ("oracle-check", "A", None, 4),
        ("export-waveform", "A", BAD_ROW_LUT, 2),
        ("export-waveform", "A", None, 4),
    ],
    ids=[
        "narrow",
        "bad-row",
        "missing",
        "bad-row-fidelity-a",
        "missing-fidelity-a",
        "bad-row-oracle-check",
        "missing-oracle-check",
        "bad-row-export-waveform",
        "missing-export-waveform",
    ],
)
def test_cli_bad_lut_csv_exit_code(tmp_path, capsys, command, fidelity, rows, code):
    lut = tmp_path / "curves.csv"
    if rows is not None:
        lut.write_text("\n".join(["polarization,voltage_volts,phase_degrees", *rows]) + "\n")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(
        json.dumps({"fidelity": fidelity, "lut_csv": str(lut), "ebn0_grid_db": [20.0], "bits_per_point": 20000})
    )
    argv = [command, "--config", str(cfgfile)]
    if command != "oracle-check":
        argv += ["--out", str(tmp_path / "o.csv")]
    assert main(argv) == code
    assert not (tmp_path / "o.csv").exists()
    err = capsys.readouterr().err
    assert ("lut_csv" in err) if code == 2 else err.startswith("i/o error:")


INF_VOLTAGE_LUT = ["0,0,0", "0,inf,360", "1,0,0", "1,20,360"]
# A 1e-300 V span over 1000 DAC bits: the quantizer step underflows to zero,
# so the control path divides by zero.
TINY_SPAN_LUT = ["0,0,0", "0,1e-300,360", "1,0,0", "1,20,360"]


@pytest.mark.parametrize(
    "overrides, rows, key",
    [
        ({"hardware": {"amplitude_ripple_db": 1e300}}, None, "amplitude_ripple_db"),
        ({"hardware": {"amplitude_ripple_db": 1e300}, "csi": "perfect"}, None, "amplitude_ripple_db"),
        ({"symbol_rate_sps": 1e308}, None, "symbol_rate_sps"),
        ({"symbol_rate_sps": 1e308, "csi": "perfect"}, None, "symbol_rate_sps"),
        ({}, INF_VOLTAGE_LUT, "lut_csv"),
        ({"fidelity": "A"}, INF_VOLTAGE_LUT, "lut_csv"),
        ({"hardware": {"dac_bits": 1000}, "csi": "perfect"}, TINY_SPAN_LUT, "lut_csv"),
    ],
    ids=[
        "ripple",
        "ripple-perfect-csi",
        "rate",
        "rate-perfect-csi",
        "inf-voltage-lut",
        "inf-voltage-lut-fidelity-a",
        "control-path-divides-by-zero",
    ],
)
def test_cli_input_leaving_the_float_range_is_a_config_error(tmp_path, capsys, overrides, rows, key):
    cfg = {"fidelity": "B", "ebn0_grid_db": [10.0], "bits_per_point": 20000, **overrides}
    if rows is not None:
        lut = tmp_path / "curves.csv"
        lut.write_text("\n".join(["polarization,voltage_volts,phase_degrees", *rows]) + "\n")
        cfg["lut_csv"] = str(lut)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    assert main(["ber-sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


# -- determinism ---------------------------------------------------------------


def test_csv_byte_identical_across_thread_counts(tmp_path):
    # Three chunks a point, so two and eight threads each slice with their
    # own chunk buffers.
    cfg = small_config(fidelity="B", coupling=True, bits_per_point=300_000)
    paths = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}.csv"
        write_ber_csv(run_ber_sweep(cfg, threads=threads), cfg, out)
        paths.append(out.read_bytes())
    assert paths[0] == paths[1] == paths[2]


def test_csv_contains_provenance_and_columns(tmp_path):
    cfg = small_config()
    out = tmp_path / "sweep.csv"
    result = run_ber_sweep(cfg)
    write_ber_csv(result, cfg, out)
    text = out.read_text().splitlines()
    assert text[0] == f"# config_hash={config_hash(cfg)}"
    assert text[1] == f"# seed={cfg.seed}"
    assert any(line.startswith("# throughput_bps=") for line in text[:4])
    header = text[4].split(",")
    assert header == [
        "ebn0_db",
        "fidelity",
        "coupling_db",
        "stream_relation",
        "bits",
        "bit_errors",
        "ber",
        "ci_halfwidth",
        "theoretical_ber",
    ]
    assert len(text) == 5 + len(cfg.ebn0_grid_db)


def test_csv_overwrite_refused_without_force(tmp_path):
    cfg = small_config(ebn0_grid_db=(10.0,))
    out = tmp_path / "sweep.csv"
    result = run_ber_sweep(cfg)
    write_ber_csv(result, cfg, out)
    with pytest.raises(FileExistsError):
        write_ber_csv(result, cfg, out)
    write_ber_csv(result, cfg, out, force=True)


# -- oracle check ---------------------------------------------------------------


def test_oracle_check_passes_on_correct_build():
    cfg = small_config()
    report = run_oracle_check(cfg)
    assert report.ok
    assert [s.name for s in report.suites] == [
        "harmonic_closed_form_vs_exact",
        "parseval_window_energy",
        "model_identity_full_vs_reduced",
    ]


def test_oracle_check_detects_phase_sign_corruption():
    cfg = small_config()

    def corrupted(delta_phi, t_shift_s, symbol_period_s):
        return np.conj(closed_form_value(delta_phi, t_shift_s, symbol_period_s))

    report = run_oracle_check(cfg, closed_form_fn=corrupted)
    assert not report.ok
    assert not report.suites[0].passed


def test_oracle_check_rejects_closed_form_above_unit_amplitude():
    def inflated(delta_phi, t_shift_s, symbol_period_s):
        return 2.0 * closed_form_value(delta_phi, t_shift_s, symbol_period_s)

    with pytest.raises(ValueError, match="exceeds 1"):
        run_oracle_check(small_config(), closed_form_fn=inflated)


def reference_oracle_details(cfg):
    """The harmonic and Parseval suites case by case through the scalar
    public functions, then the model identity suite on the same stream."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0xAC, 0)))
    ts = cfg.symbol_period_s
    n = cfg.oracle.harmonic_cases
    delta_phis = rng.uniform(0.0, TWO_PI, n)
    delta_phis[delta_phis == 0.0] = TWO_PI
    shifts = rng.uniform(0.0, ts, n)
    worst_amp = worst_phase = 0.0
    for dp, sh in zip(delta_phis, shifts):
        params = TmSymbolParams(delta_phi=dp, t_shift_s=sh, symbol_period_s=ts)
        cf = harmonic_closed_form(params)
        ex = exact_coefficients(params, np.array([-1.0]))[0]
        worst_amp = max(worst_amp, abs(cf.amplitude - abs(ex)))
        worst_phase = max(worst_phase, abs(float(wrap_phase(cf.phase - np.angle(ex)))))
    orders = np.arange(-200.0, 201.0)
    lo = hi = 1.0
    for _ in range(cfg.oracle.parseval_cases):
        dp = rng.uniform(0.0, TWO_PI)
        if dp == 0.0:
            dp = TWO_PI
        sh = rng.uniform(0.0, ts)
        params = TmSymbolParams(delta_phi=dp, t_shift_s=sh, symbol_period_s=ts)
        total = float(np.sum(np.abs(exact_coefficients(params, orders)) ** 2))
        lo = min(lo, total)
        hi = max(hi, total)
    identity = campaign._suite_model_identity(cfg, rng, received_reduced)
    return [
        f"max amplitude err {worst_amp:.3e}, max phase err {worst_phase:.3e} (tol 1e-9)",
        f"window sum in [{lo:.9f}, {hi:.9f}]",
        identity.detail,
    ]


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_oracle_blocks_match_per_case_reference_loop(seed):
    # Several full blocks and a partial one.  At 501 cases, seed 0's printed
    # worst amplitude error moves if np.abs replaces Python's abs.
    assert 501 % campaign.ORACLE_BLOCK and 77 % campaign.ORACLE_BLOCK
    cases = {"harmonic_cases": 501, "parseval_cases": 77, "model_identity_cases": 9}
    cfg = config_from_dict({"seed": seed, "oracle": cases})
    report = run_oracle_check(cfg)
    assert report.ok
    want = reference_oracle_details(cfg)
    assert report.suites[0].detail == want[0]
    assert report.suites[1].detail.startswith(want[1])
    assert report.suites[2].detail == want[2]


def test_oracle_check_suite_sizes_follow_config():
    cfg = config_from_dict({"oracle": {"harmonic_cases": 50, "parseval_cases": 5, "model_identity_cases": 20}})
    report = run_oracle_check(cfg)
    assert [s.cases for s in report.suites] == [50, 5, 20]


def test_cli_oracle_failure_exit_code(monkeypatch, tmp_path):
    import dpris.cli as cli
    from dpris.campaign import OracleReport, SuiteResult

    failing = OracleReport(
        suites=(SuiteResult(name="harmonic_closed_form_vs_exact", cases=1, passed=False, detail="forced"),)
    )
    monkeypatch.setattr(cli, "run_oracle_check", lambda config: failing)
    assert main(["oracle-check"]) == 3


# -- crossing helper ---------------------------------------------------------------


def test_ebn0_crossing_interpolation():
    grid = [8.0, 10.0, 12.0]
    assert abs(ebn0_at_ber(grid, [1e-3, 1e-4, 1e-5], 10**6) - 10.0) < 1e-12
    assert abs(ebn0_at_ber(grid, [1e-3, 1e-3, 1e-5], 10**6) - 11.0) < 0.51
    assert ebn0_at_ber(grid, [1e-3, 9e-4, 8e-4], 10**6) == float("inf")
    assert np.isfinite(ebn0_at_ber(grid, [1e-3, 1e-4, 0.0], 10**6))
    assert 12.1 < theory_crossing() < 12.3


# -- file loopback -----------------------------------------------------------------


def test_file_loopback_clean_link_is_byte_exact(tmp_path):
    # 1 MiB random payload, 30 dB, no coupling: output must be byte-identical
    rng = np.random.default_rng(1)
    payload = rng.integers(0, 256, 2**20, dtype=np.uint8).tobytes()
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(payload)
    cfg = small_config(fidelity="B", loopback_ebn0_db=30.0)
    result = run_file_loopback(src, dst, cfg, threads=2)
    assert result.record.bit_errors == 0
    assert result.record.bits_sent == 8 * 2**20
    assert dst.read_bytes() == payload


def test_file_loopback_empty_file(tmp_path):
    src = tmp_path / "empty.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(b"")
    result = run_file_loopback(src, dst, small_config())
    assert result.record is None
    assert dst.read_bytes() == b""


def test_file_loopback_odd_length(tmp_path):
    payload = bytes(range(251))
    src = tmp_path / "odd.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(payload)
    result = run_file_loopback(src, dst, small_config(loopback_ebn0_db=30.0))
    assert dst.read_bytes() == payload
    assert result.bytes_out == 251


def test_file_loopback_coupled_low_snr_corrupts(tmp_path):
    # odd length: stream 1 is one byte short and zero-padded inside the link;
    # three chunks, so the worker pool has work to split
    rng = np.random.default_rng(2)
    payload = rng.integers(0, 256, 40001, dtype=np.uint8).tobytes()
    src = tmp_path / "in.bin"
    src.write_bytes(payload)
    cfg = small_config(fidelity="B", coupling=True, loopback_ebn0_db=6.0)
    outputs = []
    for threads in (1, 2):
        dst = tmp_path / f"out{threads}.bin"
        result = run_file_loopback(src, dst, cfg, threads=threads)
        outputs.append(dst.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == len(payload) and outputs[0] != payload
    diff = np.bitwise_xor(np.frombuffer(payload, np.uint8), np.frombuffer(outputs[0], np.uint8))
    assert result.record.bit_errors == int(np.unpackbits(diff).sum()) > 0
    assert result.record.bits_sent == 8 * len(payload)


def test_file_loopback_overwrite_refused(tmp_path):
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(b"ab")
    dst.write_bytes(b"keep")
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        run_file_loopback(src, dst, small_config())
    assert dst.read_bytes() == b"keep"


# -- waveform export -----------------------------------------------------------------


def test_export_pure_tone_harmonics(tmp_path):
    cfg = config_from_dict(
        {"waveform_export": {"delta_phi_rad": 2 * np.pi, "t_shift_fraction": 0.0, "samples": 64}}
    )
    out = tmp_path / "wave.csv"
    export = export_waveform(cfg, out)
    at = {int(k): v for k, v in zip(export.orders, export.coefficients)}
    assert abs(at[-1] - 1.0) < 1e-12
    for order, coeff in at.items():
        if order != -1:
            assert abs(coeff) < 1e-12
    assert export.window_energy <= 1.0 + 1e-9
    lines = out.read_text().splitlines()
    assert lines[3] == "sample_index,t_seconds,re,im"
    assert len(lines) == 4 + 64


def test_export_closed_form_agrees(tmp_path):
    cfg = config_from_dict({"waveform_export": {"delta_phi_rad": 3.1, "t_shift_fraction": 0.3}})
    export = export_waveform(cfg, tmp_path / "w.csv")
    exact_m1 = export.coefficients[list(export.orders).index(-1.0)]
    assert abs(export.closed_form_minus1 - exact_m1) < 1e-9
    assert export.window_energy <= 1.0 + 1e-9


# -- CLI ------------------------------------------------------------------------------


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"fidelity": "Z"}')
    assert main(["ber-sweep", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    bad.write_text('{"oracle": {"harmonic_cases": true}}')
    assert main(["oracle-check", "--config", str(bad)]) == 2
    assert "oracle.harmonic_cases" in capsys.readouterr().err


def test_cli_pilot_estimate_error_names_the_point(tmp_path, capsys):
    # cond(G) = 1 at the default geometry; only the noisy -10 dB pilot
    # estimate exceeds the 1.5 limit.
    path = tmp_path / "pilot.json"
    out = str(tmp_path / "o.csv")
    pilot = {"csi": "pilot", "ebn0_grid_db": [-10.0], "zf_condition_limit": 1.5, "bits_per_point": 20000}
    path.write_text(json.dumps(pilot))
    assert main(["ber-sweep", "--config", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("estimation error: noisy pilot estimate at Eb/N0 -10 dB is ill-conditioned")
    assert "not a bad channel" in err
    # A limit the configured channel itself exceeds keeps the channel message,
    # for pilot CSI and for the static estimates.
    for csi in ("pilot", "calibrated", "perfect"):
        path.write_text(json.dumps({**pilot, "csi": csi, "zf_condition_limit": 0.5}))
        assert main(["ber-sweep", "--config", str(path), "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error: configured channel cannot be equalized")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 5000 + b"]" * 5000, b'{"seed": ' + b"9" * 5000 + b"}"],
    ids=["not-utf8", "nested-5000", "long-integer"],
)
def test_cli_unparsable_config_file_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["oracle-check", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: <file>: invalid JSON in {path}")


def test_oracle_case_counts_are_bounded(tmp_path, capsys):
    cases = {"harmonic_cases": MAX_ORACLE_CASES, "parseval_cases": 1, "model_identity_cases": 1}
    assert config_from_dict({"oracle": cases}).oracle.harmonic_cases == MAX_ORACLE_CASES
    for key in cases:
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"oracle": {key: MAX_ORACLE_CASES + 1}})
    path = tmp_path / "cfg.json"
    path.write_text('{"oracle": {"harmonic_cases": 10000000000000}}')
    assert main(["oracle-check", "--config", str(path)]) == 2
    assert "harmonic_cases" in capsys.readouterr().err


def test_cli_ber_sweep_requires_out():
    assert main(["ber-sweep"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-check", "--out", "x"],
        ["oracle-check", "--force"],
        ["export-waveform", "--out", "w.csv", "--threads", "2"],
    ],
)
def test_cli_rejects_flags_the_command_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_ber_sweep_and_oracle(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"ebn0_grid_db": [8.0], "bits_per_point": 20000, "seed": 3}))
    out = tmp_path / "sweep.csv"
    assert main(["ber-sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert out.exists()
    # overwrite refusal surfaces as I/O error
    assert main(["ber-sweep", "--config", str(cfgfile), "--out", str(out)]) == 4
    assert main(["ber-sweep", "--config", str(cfgfile), "--out", str(out), "--force"]) == 0

    small = tmp_path / "small.json"
    small.write_text(
        json.dumps({"oracle": {"harmonic_cases": 40, "parseval_cases": 4, "model_identity_cases": 10}})
    )
    assert main(["oracle-check", "--config", str(small)]) == 0
    captured = capsys.readouterr()
    assert "PASS harmonic_closed_form_vs_exact" in captured.out


def test_cli_refused_overwrite_fails_before_running(monkeypatch, tmp_path, capsys):
    import dpris.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("the run started although its output may not be written")

    monkeypatch.setattr(cli, "run_ber_sweep", must_not_run)
    monkeypatch.setattr(cli, "run_file_loopback", must_not_run)
    src = tmp_path / "payload.bin"
    src.write_bytes(b"payload")
    out = tmp_path / "existing.out"
    out.write_bytes(b"keep")
    for argv in (["ber-sweep"], ["file-loopback", str(src)]):
        assert main([*argv, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"refusing to overwrite {out} (pass --force to allow)" in err
        assert out.read_bytes() == b"keep"


def test_cli_loopback_and_export(tmp_path):
    src = tmp_path / "payload.bin"
    src.write_bytes(b"hello dual polarization")
    out = tmp_path / "rx.bin"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"bits_per_point": 20000, "seed": 5}))
    assert main(["file-loopback", str(src), "--config", str(cfgfile), "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()
    assert main(["file-loopback", str(tmp_path / "missing.bin"), "--out", str(tmp_path / "x.bin")]) == 4

    wave = tmp_path / "wave.csv"
    assert main(["export-waveform", "--config", str(cfgfile), "--out", str(wave)]) == 0
    assert wave.exists()


def test_cli_seed_override_changes_output(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"ebn0_grid_db": [8.0], "bits_per_point": 20000}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["ber-sweep", "--config", str(cfgfile), "--out", str(out1), "--seed", "1"]) == 0
    assert main(["ber-sweep", "--config", str(cfgfile), "--out", str(out2), "--seed", "2"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_cli_entrypoint_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "dpris.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "ber-sweep" in proc.stdout


def test_default_campaign_script_writes_curves_and_penalty(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_default_campaign.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path), "--bits", "20000", "--threads", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ber_coupled_identical.csv",
        "ber_coupled_independent.csv",
        "ber_fidelity_a.csv",
    ]
    assert "theoretical 16-QAM curve reaches 1e-4 at" in proc.stdout
    assert "independent streams: crossing" in proc.stdout
    assert "identical streams:   crossing" in proc.stdout
    assert "ordering independent > identical > 0: True" in proc.stdout

    # too few bits a point: a config error before any sweep runs or CSV is written
    bad_dir = tmp_path / "bad"
    proc = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(bad_dir), "--bits", "5", "--threads", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: bits_per_point: must be at least 10000")
    assert not bad_dir.exists()
