"""Campaign plumbing: config schema, engine routes, CLI, loopback, export."""

import errno
import hashlib
import json
import subprocess
import sys
import tracemalloc
from concurrent import futures
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    MAX_EXPORT_SAMPLES,
    MAX_HARMONIC_SPAN,
    MAX_ORACLE_CASES,
    MAX_PILOT_LENGTH,
    MAX_SAMPLES_PER_SYMBOL,
    CampaignConfig,
    ConfigError,
    config_from_dict,
    config_hash,
    load_config,
)
from dpris.channel import MAX_CELLS, awgn
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
        pytest.param({"samples_per_symbol": MAX_SAMPLES_PER_SYMBOL + 1}, id="samples_per_symbol-above-cap"),
        pytest.param({"pilot_length": MAX_PILOT_LENGTH + 2}, id="pilot_length-above-cap"),
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
    # One float rule: a float field spelled as a JSON integer stores a float,
    # at the root and in a section, so equal configs hash equally.
    for as_int, as_float in (
        ({"carrier_power_watts": 1}, {}),
        ({"hardware": {"isolation_db": 16}}, {}),
        ({"loopback_ebn0_db": 12}, {"loopback_ebn0_db": 12.0}),
    ):
        assert config_hash(config_from_dict(as_int)) == config_hash(config_from_dict(as_float))
    with pytest.raises(ConfigError) as err:
        CampaignConfig(geometry=replace(CampaignConfig().geometry, cells_x=2.5))
    assert err.value.path == "geometry.cells_x"


def test_each_json_section_is_built_once_per_load(tmp_path, monkeypatch):
    sections = {
        "geometry": {"cells_x": 4},
        "channel": {"rng_seed": 3},
        "hardware": {"dac_bits": 8},
        "oracle": {"harmonic_cases": 5},
        "waveform_export": {"samples": 8},
    }
    classes = [type(getattr(CampaignConfig(), name)) for name in sections]
    built = []
    for cls in classes:
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, init=cls.__post_init__: (built.append(type(self)), init(self))[1]
        )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(sections))
    cfg = load_config(str(path))
    assert sorted(built, key=str) == sorted(classes, key=str)
    assert cfg.geometry.cells_x == 4 and cfg.waveform_export.samples == 8


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # json.loads also yields NaN and +-Infinity
    | st.sampled_from(["", "x", "ideal", "inf", "A", "B", "identical", "pilot", "iid_rayleigh"])
)
_JSON_VALUES = (
    _JSON_SCALARS
    | st.lists(_JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3), max_size=3)
    | st.dictionaries(st.text("abxy_", max_size=3), _JSON_SCALARS, max_size=2)
)


def _json_objects(cls):
    """JSON objects holding any subset of the fields of dataclass ``cls``, each
    set to its default (a section's: such an object of its own fields) or to
    any JSON value, so that some draws get past the first field they set."""

    values = {
        f.name: _json_objects(type(f.default)) | _JSON_VALUES
        if is_dataclass(f.default)
        else st.just(json.loads(json.dumps(f.default))) | _JSON_VALUES
        for f in fields(cls)
    }
    return st.lists(st.sampled_from(sorted(values)), unique=True, max_size=5).flatmap(
        lambda keys: st.fixed_dictionaries({key: values[key] for key in keys})
    )


@given(_json_objects(CampaignConfig))
@example(None)
@example([{"seed": 1}])
@settings(max_examples=200, deadline=None)
def test_any_json_value_is_a_config_or_a_config_error(raw):
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    assert len(config_hash(config)) == 16


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
    # the 256-pair shortcut must be the same math as the per-symbol pipeline,
    # through the same correlator, so the two routes agree bit for bit
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
        assert np.array_equal(table, direct)


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
# Polarization 0 spans only half a turn: the ramp phases cannot be realized.
HALF_TURN_LUT = ["0,0,0", "0,20,180", "1,0,0", "1,20,360"]
# A field longer than the csv module's 131,072-character limit.
LONG_FIELD_LUT = ["0,0,0", "0," + "1" * 200_000 + ",0"]


@pytest.mark.parametrize(
    "command, fidelity, rows, code",
    [
        ("ber-sweep", "B", HALF_TURN_LUT, 2),
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
        # the span is checked at load, whether or not the command uses the curves
        ("ber-sweep", "A", HALF_TURN_LUT, 2),
        ("oracle-check", "A", HALF_TURN_LUT, 2),
        ("export-waveform", "A", HALF_TURN_LUT, 2),
        ("ber-sweep", "B", LONG_FIELD_LUT, 2),
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
        "narrow-fidelity-a",
        "narrow-oracle-check",
        "narrow-export-waveform",
        "field-over-csv-limit",
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


_LUT_NUMBERS = (
    st.sampled_from(["0", "20", "360", "-1", "1e308", "-1e308", "1e-320", "inf", "nan"])
    | st.floats().map(repr)
    | st.integers(-400, 400).map(str)
)
# Any text of CSV and number characters, or the column header and rows of a
# polarization and two numbers.  A fixed alphabet keeps hypothesis from
# building its Unicode tables, about 2 s on a fresh checkout.
_LUT_TEXTS = st.text(',"\r\n 0123456789.eE+-infaxyé\x00') | st.lists(
    st.tuples(st.sampled_from(["0", "1"]), _LUT_NUMBERS, _LUT_NUMBERS), max_size=8
).map(lambda rows: "\n".join(["polarization,voltage_volts,phase_degrees", *map(",".join, rows)]) + "\n")


@given(_LUT_TEXTS)
@example("polarization,voltage_volts,phase_degrees\n0,0,0\n0,20,360\n1,0,0\n1,20,360\n")
@settings(max_examples=200, deadline=None)
def test_any_lut_csv_text_is_curves_or_a_config_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed-curves.csv"
    path.write_text(text, encoding="utf-8")
    try:
        lut = campaign._named_lut(CampaignConfig(lut_csv=str(path)))
    except ConfigError:
        return
    for pol in (0, 1):
        assert np.all(np.isfinite(lut.voltages[pol])) and np.all(np.isfinite(lut.phases[pol]))


INF_VOLTAGE_LUT = ["0,0,0", "0,inf,360", "1,0,0", "1,20,360"]
# A 1e-300 V span over 1000 DAC bits: the quantizer step underflows to zero,
# so the control path divides by zero.
TINY_SPAN_LUT = ["0,0,0", "0,1e-300,360", "1,0,0", "1,20,360"]
# Finite voltages whose span, 2e308 V, overflows when subtracted.
OVERFLOWING_SPAN_LUT = ["0,-1e308,0", "0,1e308,360", "1,0,0", "1,20,360"]


@pytest.mark.parametrize(
    "command, overrides, rows, key",
    [
        ("ber-sweep", {"hardware": {"amplitude_ripple_db": 1e300}}, None, "amplitude_ripple_db"),
        ("ber-sweep", {"hardware": {"amplitude_ripple_db": 1e300}, "csi": "perfect"}, None, "amplitude_ripple_db"),
        ("ber-sweep", {"symbol_rate_sps": 1e308}, None, "symbol_rate_sps"),
        ("ber-sweep", {"symbol_rate_sps": 1e308, "csi": "perfect"}, None, "symbol_rate_sps"),
        ("ber-sweep", {}, INF_VOLTAGE_LUT, "lut_csv"),
        ("ber-sweep", {"fidelity": "A"}, INF_VOLTAGE_LUT, "lut_csv"),
        ("ber-sweep", {"hardware": {"dac_bits": 1000}, "csi": "perfect"}, TINY_SPAN_LUT, "lut_csv"),
        ("ber-sweep", {"hardware": {"dac_bits": 2000}}, None, "hardware"),
        ("ber-sweep", {}, OVERFLOWING_SPAN_LUT, "lut_csv"),
        # Noise powers: 10^(Eb/N0 / 10) overflows, or underflows to zero, or
        # a huge carrier power makes the noise power at -60 dB infinite.
        ("ber-sweep", {"ebn0_grid_db": [1e308]}, None, "ebn0_grid_db[0]"),
        ("ber-sweep", {"ebn0_grid_db": [-1e308]}, None, "ebn0_grid_db[0]"),
        (
            "ber-sweep",
            {"fidelity": "A", "carrier_power_watts": 1e308, "ebn0_grid_db": [-60, 10], "bits_per_point": 10000},
            None,
            "ebn0_grid_db[0]",
        ),
        ("file-loopback", {"loopback_ebn0_db": 1e308}, None, "loopback_ebn0_db"),
        # Geometries whose channel leaves the float range: a wavelength that
        # overflows, cell distances whose squares overflow, a feed distance
        # whose square underflows, so the path loss divides by zero.
        ("ber-sweep", {"geometry": {"carrier_frequency_hz": 1e-300}}, None, "geometry"),
        ("ber-sweep", {"geometry": {"pitch_x_m": 1e200}}, None, "geometry"),
        ("file-loopback", {"geometry": {"pitch_x_m": 1e200}}, None, "geometry"),
        ("ber-sweep", {"geometry": {"cells_x": 1, "cells_y": 1, "feed_distance_m": 1e-320}}, None, "geometry"),
        # Channels whose gain underflows, so that no Eb/N0 has a noise power:
        # the path loss at 1e300 Hz rounds G to zero, and so does sqrt(1e-320 W).
        ("ber-sweep", {"geometry": {"carrier_frequency_hz": 1e300}}, None, "geometry"),
        ("file-loopback", {"geometry": {"carrier_frequency_hz": 1e300}}, None, "geometry"),
        ("ber-sweep", {"fidelity": "A", "carrier_power_watts": 1e-320}, None, "carrier_power_watts"),
        ("file-loopback", {"fidelity": "A", "carrier_power_watts": 1e-320}, None, "carrier_power_watts"),
    ],
    ids=[
        "ripple",
        "ripple-perfect-csi",
        "rate",
        "rate-perfect-csi",
        "inf-voltage-lut",
        "inf-voltage-lut-fidelity-a",
        "control-path-divides-by-zero",
        "dac-levels-overflow",
        "lut-span-overflows",
        "ebn0-noise-power-underflows",
        "ebn0-noise-power-overflows",
        "carrier-noise-power-overflows",
        "loopback-ebn0-noise-power-underflows",
        "wavelength-overflows",
        "cell-distance-overflows",
        "loopback-cell-distance-overflows",
        "path-loss-divides-by-zero",
        "path-loss-underflows-g",
        "loopback-path-loss-underflows-g",
        "carrier-power-underflows-g",
        "loopback-carrier-power-underflows-g",
    ],
)
def test_cli_input_leaving_the_float_range_is_a_config_error(tmp_path, capsys, command, overrides, rows, key):
    cfg = {"fidelity": "B", "ebn0_grid_db": [10.0], "bits_per_point": 20000, **overrides}
    if rows is not None:
        lut = tmp_path / "curves.csv"
        lut.write_text("\n".join(["polarization,voltage_volts,phase_degrees", *rows]) + "\n")
        cfg["lut_csv"] = str(lut)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "file-loopback":
        payload = tmp_path / "payload.bin"
        payload.write_bytes(bytes(range(256)))
        argv.insert(1, str(payload))
    assert main(argv) == 2
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
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]  # no temporary file left


class _FullDiskWriter:
    """A file whose first write stores half its data, then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


@pytest.mark.parametrize("old", [None, b"old output\n"], ids=["new-file", "forced-over-old-file"])
@pytest.mark.parametrize("output", ["csv", "loopback-payload"])
def test_write_failing_midway_leaves_no_file_or_the_old_one(monkeypatch, tmp_path, output, old):
    cfg = small_config(ebn0_grid_db=(10.0,))
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(range(256)) * 8)
    out = tmp_path / "out"
    if old is not None:
        out.write_bytes(old)

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _FullDiskWriter(fh) if "x" in mode or "w" in mode else fh

    result = run_ber_sweep(cfg) if output == "csv" else None
    monkeypatch.setattr(campaign, "open", full_disk_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        if output == "csv":
            write_ber_csv(result, cfg, out, force=old is not None)
        else:
            run_file_loopback(src, out, cfg, force=old is not None)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["in.bin"] + ([] if old is None else ["out"])
    )
    if old is not None:
        assert out.read_bytes() == old


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


# Payload np.random.default_rng(size).bytes(size), seed 4, 6 dB.  The sizes
# end inside a chunk (16384 payload bytes), on its end and just past it, and
# two of them on an odd byte.  size: (bits sent, bit errors, symbol errors,
# output sha256), recorded from the whole-payload loopback.
LOOPBACK_PINS = {
    3: (24, 1, 1, "e7035cb41bc308de1b013fcde2f12ed76604974b0cc3888bb31fd34e06583883"),
    16384: (131072, 6196, 5921, "1af6d4fa18aa446ec37d0005fc4db09252d6cafa4f71261d85e9eff8d3186eb2"),
    16385: (131080, 6247, 5951, "527d14db195611b7cd20c180dfdc8048cce22445d5ef72668972f54da36955a1"),
    40001: (320008, 15199, 14487, "f8c90f239cdfc570c90e5f367b3cc0e2a32429915736affffe51eb5f3a1e0d63"),
}


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("size", sorted(LOOPBACK_PINS))
def test_file_loopback_output_is_pinned(tmp_path, size, threads):
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(np.random.default_rng(size).bytes(size))
    cfg = config_from_dict({"seed": 4, "loopback_ebn0_db": 6.0})
    record = run_file_loopback(src, dst, cfg, threads=threads).record
    bits, bit_errors, symbol_errors, sha = LOOPBACK_PINS[size]
    assert (record.bits_sent, record.bit_errors, record.symbol_errors) == (bits, bit_errors, symbol_errors)
    assert hashlib.sha256(dst.read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("threads", [1, 2])
def test_file_loopback_memory_grows_about_two_bytes_per_payload_byte(tmp_path, threads):
    # The payload and the output are the only payload-sized arrays; every
    # other array is one chunk's, so the traced peak grows by about 2 B per
    # extra payload byte.
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    cfg = small_config(loopback_ebn0_db=6.0)
    src.write_bytes(bytes(range(256)))
    run_file_loopback(src, dst, cfg, threads=threads, force=True)  # first-call allocations
    sizes = (256 * 1024, 2 * 1024 * 1024)
    peaks = []
    for size in sizes:
        src.write_bytes(np.random.default_rng(size).bytes(size))
        tracemalloc.start()
        try:
            run_file_loopback(src, dst, cfg, threads=threads, force=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_byte = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
    assert per_byte < 3.0, f"traced peak grows {per_byte:.2f} B per payload byte"


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
    # A ripple that fits in a float but lifts the amplitude of a passive cell above 1.
    bad.write_text('{"fidelity": "B", "hardware": {"amplitude_ripple_db": 12000}}')
    assert main(["ber-sweep", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: hardware:") and "amplitude_ripple_db" in err


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


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cli_unreadable_config_file_is_an_io_error(tmp_path, capsys, kind):
    # Like an unreadable payload or lut_csv, exit 4, before any output exists.
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    out = tmp_path / "o.csv"
    assert main(["ber-sweep", "--config", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(path) in err
    assert not out.exists()


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


def test_cell_grid_is_bounded():
    cfg = config_from_dict({"geometry": {"cells_x": 1000, "cells_y": 1000}})
    assert cfg.geometry.n_cells == MAX_CELLS
    # Checked before anything is built: a 1e9 x 1e9 grid would exhaust memory.
    for cells_x, cells_y in ((1001, 1000), (10**9, 10**9)):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"geometry": {"cells_x": cells_x, "cells_y": cells_y}})
        assert err.value.path == "geometry"


@pytest.mark.parametrize(
    "command, section, key, cap, huge",
    [
        ("ber-sweep", None, "samples_per_symbol", MAX_SAMPLES_PER_SYMBOL, 10**15),
        ("export-waveform", "waveform_export", "samples", MAX_EXPORT_SAMPLES, 10**15),
        ("export-waveform", "waveform_export", "harmonic_span", MAX_HARMONIC_SPAN, 10**15),
        ("ber-sweep", None, "pilot_length", MAX_PILOT_LENGTH, 10**10),
    ],
    ids=["samples_per_symbol", "waveform_export.samples", "waveform_export.harmonic_span", "pilot_length"],
)
def test_cli_size_inputs_are_bounded(tmp_path, capsys, command, section, key, cap, huge):
    def setting(value):
        return {key: value} if section is None else {section: {key: value}}

    path = f"{section}: {key}" if section else key  # a section error names the field
    assert config_from_dict(setting(cap))
    with pytest.raises(ConfigError, match=f"^{path}"):
        config_from_dict(setting(cap + 2))
    # Uncapped, each value ends in a numpy or Python MemoryError.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fidelity": "B", **setting(huge)}))
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}")
    assert not out.exists()


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


def test_cli_parser_is_built_once_and_parses_each_call_afresh(monkeypatch, tmp_path, capsys):
    import dpris.cli as cli

    builds = []
    build_parser = cli.build_parser

    def counted_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build_parser)
    cli._parser.cache_clear()
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"ebn0_grid_db": [8.0], "bits_per_point": 20000}))
    sweep, wave = tmp_path / "sweep.csv", tmp_path / "wave.csv"
    sweep.write_bytes(b"old")
    wave.write_bytes(b"keep")
    argv = ["ber-sweep", "--config", str(cfgfile), "--out", str(sweep), "--seed", "3", "--threads", "2"]
    assert main([*argv, "--force"]) == 0
    assert sweep.read_bytes() != b"old"
    # --force of the first call must not carry over to the second.
    assert main(["export-waveform", "--out", str(wave)]) == 4
    assert f"refusing to overwrite {wave}" in capsys.readouterr().err
    assert wave.read_bytes() == b"keep"
    assert len(builds) == 1


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


# sha256 of the three CSVs and the four penalty lines at {"bits_per_point": 20000},
# as written by the experiment's earlier stand-alone script.
PENALTY_PINS = {
    1: (
        {
            "ber_fidelity_a.csv": "372107449ac5b065eef1443e6dc5ffd7e4fca43edfcd2c5851375436856e17f6",
            "ber_coupled_independent.csv": "8c5772916647855c9f603c6dac511620ab37000bc736bae0155cf603b0054d40",
            "ber_coupled_identical.csv": "2cc33cece7d5dd5a5fa1c4b6969c49c6902848f0f1d95d4279a9debd960f687f",
        },
        [
            "theoretical 16-QAM curve reaches 1e-4 at 12.20 dB",
            "independent streams: crossing 22.74 dB, penalty 10.53 dB",
            "identical streams:   crossing 17.04 dB, penalty 4.84 dB",
            "ordering independent > identical > 0: True",
        ],
    ),
    7: (
        {
            "ber_fidelity_a.csv": "aeba6768445f81bad8dccc47539b466760990fa47a8e8e1068e9a061fd892c05",
            "ber_coupled_independent.csv": "1169081be9cd2830538b83321d6c862460a990ecfd7793a7256d9b03f24c64ff",
            "ber_coupled_identical.csv": "dcb18eaae12e81c434a29fef8a2adc6df7b17a40c6d11cd95b9011e05846bb08",
        },
        [
            "theoretical 16-QAM curve reaches 1e-4 at 12.20 dB",
            "independent streams: crossing 24.00 dB, penalty 11.80 dB",
            "identical streams:   crossing 18.00 dB, penalty 5.80 dB",
            "ordering independent > identical > 0: True",
        ],
    ),
}


def _bits_config(tmp_path, bits=20000):
    path = tmp_path / "bits.json"
    path.write_text(json.dumps({"bits_per_point": bits}))
    return str(path)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("seed", [1, 7])
def test_coupling_penalty_writes_curves_and_penalty(tmp_path, capsys, seed, threads):
    out_dir = tmp_path / "res"
    argv = ["coupling-penalty", "--config", _bits_config(tmp_path), "--seed", str(seed)]
    assert main([*argv, "--threads", threads, "--out-dir", str(out_dir)]) == 0
    digests, lines = PENALTY_PINS[seed]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()} == digests
    out = capsys.readouterr().out.splitlines()
    assert out[-4:] == lines
    # Each sweep is reported as ber-sweep reports its one.
    assert [line for line in out if line.startswith("wrote ")] == [
        f"wrote {out_dir / name}" for name in digests
    ]


def test_coupling_penalty_config_error_creates_nothing(tmp_path, capsys):
    out_dir = tmp_path / "res"
    argv = ["coupling-penalty", "--config", _bits_config(tmp_path, bits=5), "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: bits_per_point: must be at least 10000")
    assert not out_dir.exists()


def test_coupling_penalty_refuses_existing_output_before_any_sweep(tmp_path, monkeypatch, capsys):
    import dpris.cli as cli

    kept = tmp_path / "ber_coupled_identical.csv"
    kept.write_text("keep")

    def must_not_run(*args, **kwargs):
        raise AssertionError("a sweep ran although an output is refused")

    monkeypatch.setattr(cli, "run_ber_sweep", must_not_run)
    monkeypatch.setattr(cli, "coupling_penalty_report", must_not_run)
    assert main(["coupling-penalty", "--out-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("i/o error: refusing to overwrite")
    assert kept.read_text() == "keep"
    assert [p.name for p in tmp_path.iterdir()] == [kept.name]


def test_coupling_penalty_failed_ordering_exits_3_and_keeps_the_curves(tmp_path, monkeypatch, capsys):
    import dpris.cli as cli

    def reversed_penalties(config, threads):
        report = campaign.coupling_penalty_report(config, threads)
        return replace(
            report,
            penalty_independent_db=report.penalty_identical_db,
            penalty_identical_db=report.penalty_independent_db,
        )

    monkeypatch.setattr(cli, "coupling_penalty_report", reversed_penalties)
    out_dir = tmp_path / "res"
    argv = ["coupling-penalty", "--config", _bits_config(tmp_path, bits=10000), "--out-dir", str(out_dir)]
    assert main(argv) == 3
    assert capsys.readouterr().out.endswith("ordering independent > identical > 0: False\n")
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(PENALTY_PINS[1][0])


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", ["ber-sweep", "file-loopback", "oracle-check", "coupling-penalty"])
def test_cli_rejects_threads_below_one(tmp_path, capsys, command, threads):
    out = tmp_path / "out"
    argv = {
        "ber-sweep": ["ber-sweep", "--out", str(out)],
        "file-loopback": ["file-loopback", __file__, "--out", str(out)],
        "oracle-check": ["oracle-check"],
        "coupling-penalty": ["coupling-penalty", "--out-dir", str(out)],
    }[command]
    assert main([*argv, "--threads", threads]) == 2
    assert capsys.readouterr().err == f"config error: --threads: must be at least 1, got {threads}\n"
    assert list(tmp_path.iterdir()) == []
