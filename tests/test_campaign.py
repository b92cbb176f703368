"""Campaign plumbing: config schema, engine routes, CLI, loopback, export."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from concurrent import futures
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpris import campaign
from dpris.campaign import (
    CHUNK_SYMBOLS,
    LinkEngine,
    _CHUNKS_PER_WORKER,
    _map_chunks,
    ebn0_at_ber,
    export_waveform,
    run_ber_sweep,
    run_file_loopback,
    run_oracle_check,
    theory_crossing,
    write_ber_csv,
)
from dpris.cli import MAX_THREADS, PENALTY_CSVS, main
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
from dpris.channel import MAX_CELLS, ChannelModelSpec, H2Kind, awgn
from dpris.model import (
    ChannelSet,
    ReceivedVector,
    ReflectionVector,
    attenuation_from,
    received_full,
    received_reduced,
)
from dpris.modulation import (
    CONSTELLATION16,
    TWO_PI,
    TmSymbolParams,
    bytes_to_symbol_indices,
    closed_form_value,
    exact_coefficients,
    harmonic_closed_form,
    qam_to_tm,
    wrap_phase,
)
from dpris.receiver import mix2, slicer_demap_indices, theoretical_ber_16qam, zf_equalize


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
        # The annotation checks: type and finiteness, as on the JSON path.
        pytest.param({"ebn0_grid_db": (float("nan"),)}, id="ebn0_grid_db-nan"),
        pytest.param({"zf_condition_limit": float("inf")}, id="zf_condition_limit-inf"),
        pytest.param({"loopback_ebn0_db": "x"}, id="loopback_ebn0_db-string"),
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


@pytest.mark.parametrize(
    "bad, path, message",
    [
        ({"fidelity": "C"}, "fidelity", "must be one of ('A', 'B'), got 'C'"),
        ({"stream_relation": 2}, "stream_relation", "expected a string, got 2"),
        ({"csi": None}, "csi", "expected a string, got None"),
        (
            {"channel": {"h2_kind": "rician"}},
            "channel.h2_kind",
            "must be one of ('los_geometric', 'iid_rayleigh'), got 'rician'",
        ),
        ({"channel": {"h2_kind": True}}, "channel.h2_kind", "expected a string, got True"),
    ],
    ids=lambda v: v if isinstance(v, str) and "." not in v and " " not in v else None,
)
def test_choice_fields_take_only_the_values_their_annotation_lists(bad, path, message):
    for build in (
        config_from_dict,
        lambda raw: CampaignConfig(**raw),
        lambda raw: replace(CampaignConfig(), **raw),
    ):
        with pytest.raises(ConfigError) as err:
            build(bad)
        assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


def test_every_listed_choice_builds_a_config():
    hints = get_type_hints(CampaignConfig)
    choices = {name: get_args(tp) for name, tp in hints.items() if get_origin(tp) is Literal}
    assert sorted(choices) == ["csi", "fidelity", "stream_relation"]
    for name, values in choices.items():
        for value in values:
            assert getattr(config_from_dict({name: value}), name) == value
    for kind in get_args(H2Kind):
        assert config_from_dict({"channel": {"h2_kind": kind}}).channel == ChannelModelSpec(h2_kind=kind)


@pytest.mark.parametrize("key", ["mode", "carrier_power_watts"])
def test_retired_root_key_of_any_value_is_ignored(tmp_path, key):
    # A root key of an old schema is dropped on load, and changes neither the
    # config, its hash nor a byte of output: the subcommand selects the run,
    # and G is normalized to a 1 W carrier.  Some values once exited 2.
    values = ["ber_sweep", "oracle_check", "waveform_export", "file_loopback", 1, 4, 5, 0, -1, 1e-320, 1e308, "x", None]
    raws = [{"bits_per_point": 10_000, key: value} for value in values] + [{"bits_per_point": 10_000}]
    configs, hashes, csvs = [], set(), set()
    for i, raw in enumerate(raws):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(raw))
        configs.append(load_config(str(path)))
        hashes.add(config_hash(configs[-1]))
        assert main(["ber-sweep", "--config", str(path), "--out", str(tmp_path / f"out{i}.csv")]) == 0
        csvs.add((tmp_path / f"out{i}.csv").read_bytes())
    assert all(config == configs[-1] for config in configs)
    assert len(hashes) == 1 and len(csvs) == 1
    with pytest.raises(TypeError):
        CampaignConfig(**{key: 1.0})


def test_carrier_power_is_a_constant_outside_the_schema_and_hash():
    # The benchmark replay reads CampaignConfig.carrier_power_watts; as a
    # class constant, not a field, it is neither settable nor hashed.
    assert "carrier_power_watts" not in {f.name for f in fields(CampaignConfig)}
    assert CampaignConfig.carrier_power_watts == CampaignConfig().carrier_power_watts == 1.0
    assert "carrier_power_watts" not in asdict(CampaignConfig())


@pytest.mark.parametrize(
    "raw, path",
    [
        ({"geometry": {"rx_distance_m": 0.0}}, "geometry.rx_distance_m"),
        ({"channel": {"h2_kind": "x"}}, "channel.h2_kind"),
        ({"hardware": {"isolation_db": -1}}, "hardware.isolation_db"),
        ({"oracle": {"parseval_cases": 0}}, "oracle.parseval_cases"),
        ({"waveform_export": {"t_shift_fraction": 1.0}}, "waveform_export.t_shift_fraction"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_section_rule_on_one_field_names_its_key_path(raw, path):
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}: ") and str(err.value).count(path.split(".")[1]) == 1


def test_noise_power_of_minus_infinite_ebn0_is_a_config_error_naming_it():
    engine = LinkEngine(small_config())
    with pytest.raises(ConfigError, match=r"ebn0_grid_db\[0\]: Eb/N0 -inf dB needs a noise power of inf W"):
        engine.run_points([float("-inf")], 10_000)


def test_python_built_values_are_stored_as_json_would_store_them():
    # A copy of the default geometry is not the default object, so it is checked.
    built = CampaignConfig(ebn0_grid_db=[4, 6], geometry=replace(CampaignConfig().geometry))
    assert built.ebn0_grid_db == (4.0, 6.0)
    assert config_hash(built) == config_hash(config_from_dict({"ebn0_grid_db": [4, 6]}))
    assert config_hash(CampaignConfig()) == config_hash(config_from_dict({})) == "b255dd0700c46652"
    # One float rule: a float field spelled as a JSON integer stores a float,
    # at the root and in a section, so equal configs hash equally.
    for as_int, as_float in (
        ({"zf_condition_limit": 100_000_000}, {}),
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


def test_identical_stream_engine_checks_its_full_table_at_first_use(monkeypatch):
    # Built with the engine, the 18 sent pairs are finite; a full table that
    # leaves the float range is the same config error when first asked for,
    # raised by the one control-path route every table goes through.
    engine = LinkEngine(small_config(fidelity="B", coupling=True, stream_relation="identical"))
    monkeypatch.setattr(campaign, "extract_harmonic", lambda rows: np.full(len(rows), np.inf + 0j))
    s = np.arange(16)
    assert np.isfinite(engine.tx_symbols(s, s, "B")).all()
    for ask in (lambda: engine.table_b0, lambda: engine.table_b1, lambda: engine.waveform_tx_symbols(s, s)):
        with pytest.raises(ConfigError, match="hardware: the control path leaves the float range"):
            ask()


def test_identical_stream_engine_answers_racing_threads_with_the_full_table():
    # The full table is computed afresh at each read and never stored, so
    # threads that read it at once share no build.
    engine = LinkEngine(small_config(fidelity="B", coupling=True, stream_relation="identical"))
    want = LinkEngine(small_config(fidelity="B", coupling=True))._tx.reshape(2, 16, 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with futures.ThreadPoolExecutor(max_workers=8) as pool:
            jobs = [pool.submit(getattr, engine, f"table_b{k % 2}") for k in range(16)]
            results = [job.result(timeout=60) for job in jobs]
    finally:
        sys.setswitchinterval(interval)
    assert all(same_bits(r, want[k % 2]) for k, r in enumerate(results))


@pytest.mark.parametrize(
    "relation, pair, refusal",
    [
        pytest.param("identical", (0, 1), "holds only the pairs", id="held-pair-unheld"),
        *(
            pytest.param(relation, pair, "lie in 0..15", id=f"{name}-{pair[0]},{pair[1]}")
            for relation, name in (("independent", "256-pair"), ("identical", "held-pair"))
            for pair in ((16, 0), (-1, 3), (1, -1))
        ),
        pytest.param("independent", (3.0, 3), "lie in 0..15", id="256-pair-float-index"),
    ],
)
def test_identical_stream_kernel_and_tx_symbols_refuse_a_pair_the_engine_does_not_hold(
    monkeypatch, relation, pair, refusal
):
    # One route from symbol indices to pair codes, the one whose codes the
    # kernel reads: a non-integer index, an index outside 0..15, and on a
    # held-pair engine a pair it does not hold, raise the same ValueError in
    # the route and tx_symbols at either fidelity, and build nothing; only
    # table_b0/table_b1 rebuild the full table, and never store it.  A bad
    # index is refused, not clipped: (1, -1) is not code 15.
    engine = LinkEngine(small_config(fidelity="B", coupling=True, stream_relation=relation))
    tables = (engine._tx, engine._rx, engine._sent)
    built = [t.copy() for t in tables]
    builds = []
    real = campaign.distort_reflection

    def spy(params0, *args):
        builds.append(len(params0))
        return real(params0, *args)

    monkeypatch.setattr(campaign, "distort_reflection", spy)
    # A float in either position makes that whole array float.
    sym0, sym1 = (np.array([pair[q] if i == 3 else i for i in range(16)]) for q in (0, 1))
    refusals = []
    for ask in (
        lambda: engine._pair_codes(sym0, sym1),
        lambda: engine.tx_symbols(sym0, sym1, "B"),
        lambda: engine.tx_symbols(sym0, sym1, "A"),
    ):
        with pytest.raises(ValueError, match=refusal) as caught:
            ask()
        refusals.append(str(caught.value))
    assert len(set(refusals)) == 1 and builds == []
    assert engine.table_b0 is not None and builds == ([256] if relation == "identical" else [])
    assert all(now is was for now, was in zip((engine._tx, engine._rx, engine._sent), tables))
    assert all(same_bits(t, b) for t, b in zip(tables, built))


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"fidelity": "B"},
        {"fidelity": "B", "coupling": True},
        {"fidelity": "B", "coupling": True, "stream_relation": "identical"},
        {"pilot_length": 64},
    ],
    ids=["fidelity-a", "uncoupled", "coupled", "coupled-identical", "pilot-64"],
)
def test_pilot_block_is_read_from_the_pair_table(overrides):
    # The pilot's noiseless block is the entries of G·T the data reads, so
    # calibrated and pilot CSI estimate G from the values every chunk sees.
    engine = LinkEngine(small_config(**overrides))
    pilot0, pilot1 = slicer_demap_indices(engine.pilot.symbols).reshape(2, -1)
    assert same_bits(engine._pilot_rx, engine._rx[:, 16 * pilot0 + pilot1])
    assert same_bits(engine._pilot_rx, mix2(engine.g, engine.tx_symbols(pilot0, pilot1, engine.cfg.fidelity)))


@pytest.mark.parametrize(
    "fidelity, coupling, relation",
    [("A", False, "independent"), ("B", False, "independent"), ("B", True, "independent"), ("B", True, "identical")],
    ids=["fidelity-a", "uncoupled", "coupled", "coupled-identical"],
)
@pytest.mark.parametrize("n", [1, 1001, CHUNK_SYMBOLS])
def test_pair_table_holds_g_times_each_pairs_symbols(fidelity, coupling, relation, n):
    # The chunk kernel adds noise to G·T read by pair code; each entry must be
    # the 2x2 product of its pair's symbols, as the kernel used to form it.
    engine = LinkEngine(small_config(fidelity=fidelity, coupling=coupling, stream_relation=relation))
    draw = np.random.default_rng(n)
    sym0 = draw.integers(0, 16, n)
    sym1 = sym0.copy() if relation == "identical" else draw.integers(0, 16, n)
    want = mix2(engine.g, engine.tx_symbols(sym0, sym1, fidelity))
    assert same_bits(engine._rx[:, 16 * sym0 + sym1], want)


def test_fidelity_a_engine_has_no_fidelity_b_symbols():
    engine = LinkEngine(small_config())
    assert engine.table_b0 is None and engine.table_b1 is None
    with pytest.raises(ValueError, match="fidelity-A engine"):
        engine.tx_symbols(np.arange(16), np.arange(16), "B")


def test_identical_stream_engine_reads_the_pairs_it_sent_without_building_the_rest(monkeypatch):
    builds = []
    real = campaign.distort_reflection

    def spy(params0, *args):
        builds.append(len(params0))
        return real(params0, *args)

    monkeypatch.setattr(campaign, "distort_reflection", spy)
    engine = LinkEngine(small_config(fidelity="B", coupling=True, stream_relation="identical"))
    s = np.random.default_rng(4).integers(0, 16, 1000)
    got = engine.tx_symbols(s, s.copy(), "B")
    assert builds == [18]
    assert same_bits(got, engine.waveform_tx_symbols(s, s))


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
    noise_power, w = engine.receiver_for_point(0, ebn0_db, "ebn0_grid_db[0]")
    assert (noise_power == 0.0) == (ebn0_db == float("inf"))
    ghat = engine.ghat_for_point(0, noise_power)
    # Full, short, full on one engine, so stale buffer contents would show.
    for chunk, n in enumerate((CHUNK_SYMBOLS, 1001, CHUNK_SYMBOLS)):
        draw = np.random.default_rng([5, chunk])
        sym0 = draw.integers(0, 16, n)
        sym1 = sym0 if relation == "identical" else draw.integers(0, 16, n)
        rng, ref_rng = np.random.default_rng([9, chunk]), np.random.default_rng([9, chunk])
        code = engine._pair_codes(sym0, sym1)
        got = engine.detect_chunk(code, rng, noise_power, w)
        want = _public_stages(engine, sym0, sym1, ref_rng, noise_power, ghat)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[0].dtype == want[0].dtype == np.int64
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # Loopback feeds payload nibbles as uint8: the same int64 codes, so the same detections.
        payload_code = engine._pair_codes(sym0.astype(np.uint8), sym1.astype(np.uint8))
        assert payload_code.dtype == code.dtype == np.int64 and np.array_equal(payload_code, code)
        payload = engine.detect_chunk(payload_code, np.random.default_rng([9, chunk]), noise_power, w)
        assert np.array_equal(payload[0], want[0]) and np.array_equal(payload[1], want[1])
        buffers = engine._buffers()
        for rx in got:
            for buf in (buffers.s_hat, buffers.y, buffers.work):
                assert not np.shares_memory(rx, buf)


# numpy casts a strided array through 8,192-element buffers: 64 KiB of the
# slack.  Any per-chunk temporary of 8 bytes a symbol (128 KiB) exceeds it.
_CHUNK_SLACK_BYTES = 96 * 1024


@pytest.mark.parametrize("fidelity", ["A", "B"])
def test_detect_chunk_allocates_only_its_result_after_a_threads_first_chunk(fidelity):
    engine = LinkEngine(small_config(fidelity=fidelity, coupling=fidelity == "B"))
    noise_power, w = engine.receiver_for_point(0, 4.0, "ebn0_grid_db[0]")

    def traced_peaks():
        peaks = []
        for chunk, n in enumerate((CHUNK_SYMBOLS, CHUNK_SYMBOLS, 1001)):
            draw = np.random.default_rng([5, chunk])
            code = engine._pair_codes(draw.integers(0, 16, n), draw.integers(0, 16, n))
            tracemalloc.start()
            try:
                engine.detect_chunk(code, draw, noise_power, w)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    with futures.ThreadPoolExecutor(1) as pool:
        first, full, short = pool.submit(traced_peaks).result()
    assert first > 1_000_000  # the thread's buffers
    # Later chunks allocate only the detected indices, 2 n int64.
    assert full <= 2 * CHUNK_SYMBOLS * 8 + _CHUNK_SLACK_BYTES
    assert short <= 2 * 1001 * 8 + _CHUNK_SLACK_BYTES


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
    # Points resolve in grid order, so the first failing one is reported:
    # a pilot estimate before a noise power that overflows, and the reverse.
    with pytest.raises(campaign.PilotEstimateError, match="Eb/N0 -10 dB"):
        run_ber_sweep(replace(cfg, ebn0_grid_db=(20.0, -10.0, -1e308)))
    with pytest.raises(ConfigError, match=r"ebn0_grid_db\[1\]"):
        run_ber_sweep(replace(cfg, ebn0_grid_db=(20.0, -1e308, -10.0)))


@pytest.mark.parametrize("csi", ["perfect", "calibrated", "pilot"])
def test_run_points_computes_each_point_noise_power_once(monkeypatch, csi):
    calls = []
    noise_power = LinkEngine.noise_power

    def counted_noise_power(self, ebn0_db):
        calls.append(ebn0_db)
        return noise_power(self, ebn0_db)

    monkeypatch.setattr(LinkEngine, "noise_power", counted_noise_power)
    LinkEngine(small_config(csi=csi)).run_points((4.0, 8.0, 12.0), 10_000)
    assert calls == [4.0, 8.0, 12.0]


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
        (
            {
                "fidelity": "B",
                "coupling": True,
                "stream_relation": "identical",
                "csi": "pilot",
                "ebn0_grid_db": (6.0, 12.0),
            },
            [(8019, 7604), (1058, 1055)],
        ),
    ],
    ids=["A-calibrated", "B-pilot-independent", "B-identical-perfect", "B-identical-pilot-coupled"],
)
def test_sweep_error_counts_are_frozen(overrides, counts):
    # Two chunks a point, the second one short.  A change to the seed
    # substreams, the chunk split or the kernel's arithmetic moves these.
    result = run_ber_sweep(small_config(bits_per_point=150_000, **overrides), threads=2)
    assert [(r.bit_errors, r.symbol_errors) for r in result.records] == counts
    assert [r.bits_sent for r in result.records] == [150_000, 150_000]


def _bit_and_symbol_errors(sent, detected):
    """XOR and popcount of 4-bit symbols, and the count of symbols that differ."""
    diff = np.bitwise_xor(sent, detected).astype(np.uint8)
    return int(np.unpackbits(diff).sum()), int(np.count_nonzero(diff))


@pytest.mark.parametrize("run", ["sweep", "loopback"])
def test_error_counts_fold_from_confusions_as_xor_and_popcount(monkeypatch, tmp_path, run):
    # Every chunk returns per-stream (pair code, detected symbol) counts; the
    # record folds them.  The sweep's second chunk is short; the loopback's
    # last block is odd, so stream 1 is one byte short there and its padding
    # must count for nothing.
    chunks = []
    real = LinkEngine.detect_chunk

    def spy(self, code, *args):
        rx = real(self, code, *args)
        chunks.append((np.concatenate(np.divmod(code, 16)), np.concatenate(rx)))
        return rx

    monkeypatch.setattr(LinkEngine, "detect_chunk", spy)
    cfg = small_config(fidelity="B", coupling=True, bits_per_point=150_000, ebn0_grid_db=(4.0,), loopback_ebn0_db=4.0)
    if run == "sweep":
        (record,) = run_ber_sweep(cfg, threads=2).records
        sent, detected = (np.concatenate(side) for side in zip(*chunks))
    else:
        payload = np.random.default_rng(3).bytes(CHUNK_SYMBOLS + 1001)
        (tmp_path / "in.bin").write_bytes(payload)
        record = run_file_loopback(tmp_path / "in.bin", tmp_path / "out.bin", cfg, threads=2).record
        assert len(chunks) == 2
        sent, detected = (
            bytes_to_symbol_indices(np.frombuffer(data, np.uint8))
            for data in (payload, (tmp_path / "out.bin").read_bytes())
        )
    assert record.bits_sent == 4 * sent.size
    assert (record.bit_errors, record.symbol_errors) == _bit_and_symbol_errors(sent, detected)
    assert record.symbol_errors > 1000


@pytest.mark.parametrize("run", ["sweep", "loopback"])
def test_each_chunk_takes_the_pair_code_route_once(monkeypatch, tmp_path, run):
    # The job's codes feed both the kernel and the counts.  The engine's own
    # call, for the pilot's codes, comes first; then one call per chunk, of
    # its length: two points of two chunks, or a loopback whose last block
    # is odd.
    calls = []
    real = LinkEngine._pair_codes

    def spy(self, sym0, *args, **kwargs):
        calls.append(np.size(sym0))
        return real(self, sym0, *args, **kwargs)

    monkeypatch.setattr(LinkEngine, "_pair_codes", spy)
    cfg = small_config(fidelity="B", coupling=True, bits_per_point=150_000, ebn0_grid_db=(4.0, 8.0))
    if run == "sweep":
        run_ber_sweep(cfg, threads=2)
        chunk_sizes = [CHUNK_SYMBOLS, 150_000 // 8 - CHUNK_SYMBOLS] * 2
    else:
        (tmp_path / "in.bin").write_bytes(np.random.default_rng(3).bytes(CHUNK_SYMBOLS + 1001))
        run_file_loopback(tmp_path / "in.bin", tmp_path / "out.bin", cfg, threads=2)
        chunk_sizes = [CHUNK_SYMBOLS, 1002]  # stream 0 of the odd block: 501 bytes, 2 symbols each
    assert calls[0] == cfg.pilot_length
    assert sorted(calls[1:]) == sorted(chunk_sizes)


def test_map_chunks_keeps_order_and_runs_one_chunk_inline():
    import threading

    def job(c):
        return c, threading.current_thread()

    (only,) = _map_chunks(job, 1, threads=4)
    assert only == (0, threading.current_thread())
    assert [c for c, _ in _map_chunks(job, 5, threads=8)] == list(range(5))
    assert list(_map_chunks(job, 0, threads=2)) == []


@pytest.mark.parametrize("n_chunks", [2, 7, 64, 1000])
@pytest.mark.parametrize("threads", [2, 3])
def test_map_chunks_holds_a_bounded_number_of_chunks_in_flight(monkeypatch, threads, n_chunks):
    # Submitted chunks not yet handed to the caller, counted at each submit:
    # the bound holds however long the run.
    submitted, in_flight = [], []
    yielded = 0

    class CountingPool(futures.ThreadPoolExecutor):
        def submit(self, fn, chunk):
            submitted.append(chunk)
            in_flight.append(len(submitted) - yielded)
            return super().submit(fn, chunk)

    monkeypatch.setattr(campaign, "futures", SimpleNamespace(ThreadPoolExecutor=CountingPool))
    for chunk in _map_chunks(lambda c: c, n_chunks, threads):
        assert chunk == yielded
        yielded += 1
    assert submitted == list(range(n_chunks))
    assert max(in_flight) <= _CHUNKS_PER_WORKER * min(threads, n_chunks)


def test_map_chunks_failure_cancels_the_chunks_not_yet_started():
    ran = []

    def job(c):
        ran.append(c)
        if c == 0:
            raise RuntimeError("chunk 0 failed")
        return c

    with pytest.raises(RuntimeError, match="chunk 0 failed"):
        list(_map_chunks(job, 1000, threads=2))
    assert len(ran) <= 2 * _CHUNKS_PER_WORKER


def test_run_points_shuts_its_pool_down_when_a_fold_fails(monkeypatch):
    # ``failure`` holds the error's traceback, which keeps run_points' frame,
    # and with it the chunk generator, alive: the pool must still be shut
    # down before the error leaves run_points.
    shutdowns = []

    class RecordingPool(futures.ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            shutdowns.append(self)

    def failing_fold(ebn0_db, counts):
        raise RuntimeError("fold failed")

    engine = LinkEngine(small_config())
    monkeypatch.setattr(campaign, "futures", SimpleNamespace(ThreadPoolExecutor=RecordingPool))
    monkeypatch.setattr(campaign, "_ber_record", failing_fold)
    with pytest.raises(RuntimeError, match="fold failed") as failure:
        engine.run_points((4.0, 6.0, 8.0), 10_000, threads=2)
    assert len(shutdowns) == 1


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


# What stands at the fuzzed output path before the run; "empty" passes "" as the path.
_OUTPUT_KINDS = (
    "fresh", "file", "directory", "symlink-to-directory", "missing-parent", "parent-is-a-file", "empty"
)


def _make_output(work: Path, kind: str) -> Path:
    """The output path of ``kind`` under the empty directory ``work``."""
    out = work / "out"
    if kind == "file":
        out.write_bytes(b"old")
    elif kind == "directory":
        out.mkdir()
        (out / "inside").write_bytes(b"old")
    elif kind == "symlink-to-directory":
        (work / "target").mkdir()
        (work / "target" / "inside").write_bytes(b"old")
        out.symlink_to(work / "target")
    elif kind == "missing-parent":
        out = work / "missing" / "out"
    elif kind == "parent-is-a-file":
        (work / "file").write_bytes(b"old")
        out = work / "file" / "out"
    return out


def _tree(root: Path) -> dict:
    """Every path under ``root`` with its kind and bytes; symlinks are not followed."""
    tree = {}
    for head, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(head, name)
            if os.path.islink(path):
                tree[path] = ("link", os.readlink(path))
            elif os.path.isdir(path):
                tree[path] = ("dir",)
            else:
                tree[path] = ("file", Path(path).read_bytes())
    return tree


# How Python and numpy print a non-finite number: nan, inf, -inf, nanj, infj.
_NON_FINITE = re.compile(r"(?<![a-z])(?:nan|inf)", re.IGNORECASE)


@st.composite
def _valid_lut_texts(draw):
    """A LUT CSV that loads and whose curves cover the ramp phases [0, 2*pi)."""
    rows = []
    for pol in "01":
        volts = draw(st.sets(st.floats(-50.0, 50.0), min_size=2, max_size=6))
        if pol == "0" and draw(st.booleans()):
            # An extreme rail: most such runs leave the float range, a config error.
            volts.add(draw(st.sampled_from([-1e308, 1e-300, 1e308])))
        volts = sorted(volts)
        start = draw(st.sampled_from([0.0, -1e-9, -90.0]))
        stop = draw(st.sampled_from([360.0, 360.5, 720.0]))
        # Strictly increasing: each step is at least 1/60 of the rise.
        n_steps = len(volts) - 1
        steps = np.cumsum(draw(st.lists(st.floats(0.1, 1.0), min_size=n_steps, max_size=n_steps)))
        phases = [start, *(start + (stop - start) * steps[:-1] / steps[-1]).tolist(), stop]
        rows += [f"{pol},{v!r},{p!r}" for v, p in zip(volts, phases)]
    return "\n".join(["polarization,voltage_volts,phase_degrees", *draw(st.permutations(rows))]) + "\n"


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
        # Noise powers: 10^(Eb/N0 / 10) overflows, or underflows to zero.
        ("ber-sweep", {"ebn0_grid_db": [1e308]}, None, "ebn0_grid_db[0]"),
        ("ber-sweep", {"ebn0_grid_db": [-1e308]}, None, "ebn0_grid_db[0]"),
        ("file-loopback", {"loopback_ebn0_db": 1e308}, None, "loopback_ebn0_db"),
        # Geometries whose channel leaves the float range: a wavelength that
        # overflows, cell distances whose squares overflow, a feed distance
        # whose square underflows, so the path loss divides by zero.
        ("ber-sweep", {"geometry": {"carrier_frequency_hz": 1e-300}}, None, "geometry"),
        ("ber-sweep", {"geometry": {"pitch_x_m": 1e200}}, None, "geometry"),
        ("file-loopback", {"geometry": {"pitch_x_m": 1e200}}, None, "geometry"),
        ("ber-sweep", {"geometry": {"cells_x": 1, "cells_y": 1, "feed_distance_m": 1e-320}}, None, "geometry"),
        # A channel whose gain underflows, so that no Eb/N0 has a noise power:
        # the path loss at 1e300 Hz rounds G to zero.
        ("ber-sweep", {"geometry": {"carrier_frequency_hz": 1e300}}, None, "geometry"),
        ("file-loopback", {"geometry": {"carrier_frequency_hz": 1e300}}, None, "geometry"),
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
        "loopback-ebn0-noise-power-underflows",
        "wavelength-overflows",
        "cell-distance-overflows",
        "loopback-cell-distance-overflows",
        "path-loss-divides-by-zero",
        "path-loss-underflows-g",
        "loopback-path-loss-underflows-g",
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


_COMMANDS = ("ber-sweep", "file-loopback", "oracle-check", "export-waveform", "coupling-penalty")
# Every command runs in milliseconds on this base.
_E2E_BASE = {
    "bits_per_point": 10_000,
    "samples_per_symbol": 16,
    "ebn0_grid_db": [4.0, 20.0],
    "oracle": {"harmonic_cases": 2, "parseval_cases": 2, "model_identity_cases": 2},
    "waveform_export": {"samples": 16, "harmonic_span": 4},
}
# Each fuzzed key's values: some refused by the schema or by the link, most not.
_E2E_VALUES = {
    "fidelity": ["A", "B", "C"],
    "coupling": [False, True, 1],
    "stream_relation": ["independent", "identical"],
    "csi": ["perfect", "calibrated", "pilot"],
    "seed": [0, 2**64 - 1, 2**70, -1],
    "ebn0_grid_db": [[-1e308, 10.0], [-60.0, 30.0], [1e308], []],
    "loopback_ebn0_db": [-1e308, 4.0, "x"],
    "carrier_power_watts": [1e-320, 1e308],  # a retired key, dropped on load
    "samples_per_symbol": [2, 1],
    "geometry.carrier_frequency_hz": [1e300, 1e-300],
    "hardware.dac_bits": ["ideal", 1, 6, 1023, 2000],
    "hardware.isolation_db": [16.0, 7.0, 7000.0, 1e-300],
    "hardware.amplitude_ripple_db": [0.0, 12000.0],
    "oracle.harmonic_cases": [1, 5],
    "oracle.parseval_cases": [1, 5, 0],
    "oracle.model_identity_cases": [1, 5],
    "waveform_export.delta_phi_rad": [5e-324, 1e-300, 0.5, math.pi, 2 * math.pi, 7.0],
    "waveform_export.t_shift_fraction": [0.999999999, 1.0],
    "waveform_export.samples": [2, 3, 64],
    "waveform_export.harmonic_span": [1, 4, 100],
}
_E2E_OVERRIDES = st.lists(st.sampled_from(sorted(_E2E_VALUES)), unique=True, max_size=4).flatmap(
    lambda keys: st.fixed_dictionaries({key: st.sampled_from(_E2E_VALUES[key]) for key in keys})
)
# A root "mode" or payload that is not there, or a lut_csv naming no file.
_ABSENT = "absent"


def _e2e_case(command, overrides=None, **flags):
    """The arguments of the end-to-end fuzz: a valid run of ``command`` unless changed."""
    case = dict(mode=_ABSENT, lut=None, payload=b"abc", threads=None, seed=None, kind="fresh", force=False)
    return {"command": command, "overrides": overrides or {}, **case, **flags}


def _lut_text(rows):
    return "\n".join(["polarization,voltage_volts,phase_degrees", *rows]) + "\n"


@given(
    command=st.sampled_from(_COMMANDS),
    overrides=_E2E_OVERRIDES,
    mode=st.just(_ABSENT) | _JSON_VALUES,
    # Repeats weight the draws towards inputs that run, so that about a
    # fifth of the examples reach their command's outputs.
    lut=st.sampled_from([None, None, _ABSENT]) | _valid_lut_texts() | _LUT_TEXTS,
    payload=st.sampled_from([b"", b"\x00\xff", _ABSENT]) | st.binary(max_size=64),
    threads=st.sampled_from([None, None, 1, 2, 2, 0, MAX_THREADS + 1]),
    seed=st.sampled_from([None, None, 3, -1]),
    kind=st.sampled_from(("fresh",) * 4 + _OUTPUT_KINDS),
    force=st.booleans(),
)
# Inputs that once crashed, lied or ran before failing: a -inf dB grid point,
# 2000 DAC bits, an inf-voltage LUT, a LUT whose rails overflow the coupled
# sweeps, a named LUT that does not exist, a ripple above unity gain, a
# channel that underflows, --out in a missing directory or on a directory,
# --threads 257 and below 1, a coupling too weak to order the penalties
# (exit 3), a subnormal ramp, and the root "mode" an old schema had.  Then
# coupled identical streams with pilot CSI at an isolation whose coupling
# factor underflows, uncoupled identical streams, a noise power that
# underflows, forced runs over a directory and over a symlink to one, the
# smallest export, a suite size the schema refuses, and an empty --out.
@example(**_e2e_case("ber-sweep", {"ebn0_grid_db": [-1e308, 10.0]}))
@example(**_e2e_case("ber-sweep", {"fidelity": "B", "hardware.dac_bits": 2000}))
@example(**_e2e_case("ber-sweep", {"fidelity": "A"}, lut=_lut_text(INF_VOLTAGE_LUT)))
@example(**_e2e_case("coupling-penalty", lut=_lut_text(OVERFLOWING_SPAN_LUT)))
@example(**_e2e_case("export-waveform", lut=_ABSENT))
@example(**_e2e_case("file-loopback", {"fidelity": "B", "hardware.amplitude_ripple_db": 12000.0}))
@example(**_e2e_case("file-loopback", {"geometry.carrier_frequency_hz": 1e300}))
@example(**_e2e_case("ber-sweep", kind="missing-parent"))
@example(**_e2e_case("ber-sweep", kind="directory", force=True))
@example(**_e2e_case("file-loopback", threads=MAX_THREADS + 1))
@example(**_e2e_case("oracle-check", threads=0))
@example(**_e2e_case("coupling-penalty", {"hardware.isolation_db": 7000.0}, mode=5, threads=2))
@example(**_e2e_case("export-waveform", {"waveform_export.delta_phi_rad": 5e-324}, mode="oracle_check"))
@example(**_e2e_case("oracle-check", {"seed": 2**70}, mode=None))
@example(
    **_e2e_case(
        "ber-sweep",
        {
            "fidelity": "B",
            "coupling": True,
            "stream_relation": "identical",
            "csi": "pilot",
            "hardware.dac_bits": 6,
            "hardware.isolation_db": 7000.0,
            "ebn0_grid_db": [4.0, 10.0],
        },
        payload=b"",
        threads=2,
    )
)
@example(
    **_e2e_case(
        "file-loopback",
        {
            "fidelity": "B",
            "coupling": False,
            "stream_relation": "identical",
            "csi": "calibrated",
            "hardware.dac_bits": 1023,
            "loopback_ebn0_db": 30.0,
        },
        payload=b"\x00\xff",
        threads=2,
    )
)
@example(
    **_e2e_case(
        "ber-sweep",
        {
            "fidelity": "B",
            "coupling": True,
            "csi": "pilot",
            "hardware.dac_bits": 1,
            "hardware.isolation_db": 1e-300,
            "ebn0_grid_db": [-1e308, 10.0],
        },
        threads=1,
    )
)
@example(**_e2e_case("ber-sweep", {"fidelity": "A", "coupling": False, "csi": "perfect"}, kind="directory", force=True))
@example(
    **_e2e_case(
        "file-loopback",
        {"fidelity": "B", "coupling": True, "csi": "perfect", "hardware.dac_bits": 6, "loopback_ebn0_db": 4.0},
        payload=b"ab",
        threads=2,
        kind="symlink-to-directory",
        force=True,
    )
)
@example(
    **_e2e_case(
        "export-waveform",
        {
            "seed": 1,
            "oracle.harmonic_cases": 1,
            "oracle.parseval_cases": 1,
            "oracle.model_identity_cases": 1,
            "waveform_export.delta_phi_rad": 5e-324,
            "waveform_export.t_shift_fraction": 0.0,
            "waveform_export.samples": 2,
            "waveform_export.harmonic_span": 1,
        },
    )
)
@example(
    **_e2e_case(
        "oracle-check",
        {
            "seed": 2**70,
            "oracle.harmonic_cases": 5,
            "oracle.parseval_cases": 0,
            "oracle.model_identity_cases": 5,
            "waveform_export.delta_phi_rad": math.pi,
            "waveform_export.t_shift_fraction": 0.25,
            "waveform_export.samples": 64,
        },
    )
)
@example(**_e2e_case("ber-sweep", kind="empty", force=True))
@settings(max_examples=200, deadline=None)
def test_any_input_to_any_command_exits_with_a_documented_code(
    tmp_path_factory, command, overrides, mode, lut, payload, threads, seed, kind, force
):
    base = tmp_path_factory.getbasetemp()
    cfg = json.loads(json.dumps(_E2E_BASE))
    for key, value in overrides.items():
        section, _, field = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[field] = value
    if mode != _ABSENT:
        cfg["mode"] = mode
    if lut is not None:
        cfg["lut_csv"] = str(base / "fuzzed-any-curves.csv")
        if lut == _ABSENT:
            Path(cfg["lut_csv"]).unlink(missing_ok=True)
        else:
            Path(cfg["lut_csv"]).write_text(lut, encoding="utf-8")
    (base / "fuzzed-any.json").write_text(json.dumps(cfg))
    source = base / "fuzzed-any-payload.bin"
    source.unlink(missing_ok=True)
    if payload != _ABSENT:
        source.write_bytes(payload)
    work = base / "fuzzed-any-outputs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    out = _make_output(work, kind)
    out_arg = "" if kind == "empty" else str(out)
    argv = [command, "--config", str(base / "fuzzed-any.json")]
    argv += [str(source)] if command == "file-loopback" else []
    argv += ["--seed", str(seed)] if seed is not None else []
    argv += ["--threads", str(threads)] if threads is not None and command != "export-waveform" else []
    argv += ["--force"] if force and command != "oracle-check" else []
    # The outputs, and whether the command must refuse them before any chunk runs.
    if command == "coupling-penalty":
        argv += ["--out-dir", out_arg]
        outputs = [out / name for name in PENALTY_CSVS]
        refused = kind in ("file", "parent-is-a-file", "empty")
    elif command != "oracle-check":
        argv += ["--out", out_arg]
        outputs = [out]
        refused = kind in ("directory", "missing-parent", "parent-is-a-file", "empty") or (
            kind != "fresh" and not force
        )
    else:
        outputs = []
        refused = False
    # Regular files and links only: coupling-penalty makes its directory before the checks.
    before = {path: entry for path, entry in _tree(work).items() if entry[0] != "dir"}
    chunks = []
    detect_chunk = LinkEngine.detect_chunk

    def counted_detect_chunk(*args):
        chunks.append(1)
        return detect_chunk(*args)

    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()) as captured:
        patch.setattr(LinkEngine, "detect_chunk", counted_detect_chunk)
        code = main(argv)
    stdout = captured.getvalue()
    assert code in (0, 2, 3, 4)
    assert not _NON_FINITE.search(stdout.replace(str(base), "")), stdout
    if refused:
        assert code in (2, 4) and chunks == []
    elif lut != _ABSENT and not (command == "file-loopback" and payload == _ABSENT):
        assert code != 4  # every input is readable and every output writable
    if command == "oracle-check":
        # Every suite reports exactly when the config was valid; all pass exactly on exit 0.
        lines = stdout.splitlines()
        assert (code in (0, 3)) == (len(lines) == 3)
        assert (code == 0) == (len(lines) == 3 and all(line.startswith("PASS ") for line in lines))
    elif command != "coupling-penalty":
        assert bool(stdout) == (code == 0)  # a report only once the output is written
    after = {path: entry for path, entry in _tree(work).items() if entry[0] != "dir"}
    if not (code == 0 or (code == 3 and command == "coupling-penalty")):
        assert after == before
        return
    written = {os.path.realpath(path) for path in outputs}
    assert all(path.is_file() for path in outputs)
    assert {path for path in after.keys() | before.keys() if after.get(path) != before.get(path)} <= written
    for path in outputs:
        if command == "file-loopback":
            assert len(path.read_bytes()) == len(payload)
            continue
        rows = [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]
        header, values = rows[0], rows[1:]
        numeric = ("ebn0_db", "ber", "ci_halfwidth", "theoretical_ber") if "ber" in header else header
        assert values and all(math.isfinite(float(row[header.index(k)])) for row in values for k in numeric)
        assert "ber" not in header or all(0.0 <= float(row[header.index("ber")]) <= 1.0 for row in values)


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


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"fidelity": "B", "coupling": True, "csi": "pilot"},
        {"fidelity": "B", "coupling": True, "stream_relation": "identical", "csi": "pilot"},
        {"fidelity": "B"},
        {"channel": ChannelModelSpec(h2_kind="iid_rayleigh")},
    ],
    ids=["fidelity-a", "coupled-pilot", "coupled-identical-pilot", "uncoupled", "rayleigh-calibrated"],
)
def test_carrier_power_cancels_out_of_every_ber_row(tmp_path, monkeypatch, overrides):
    # G is normalized to a 1 W carrier; effective_stream_channel still takes
    # a carrier power.  The SNR reference scales the noise power with G's row
    # energy, so a 4 W G, where G, the noise and the channel estimate all
    # scale by exact powers of two, writes the same rows.
    cfg = small_config(samples_per_symbol=16, **overrides)
    unscaled = campaign.effective_stream_channel
    rows, gains = [], []
    for watts in (1.0, 4.0):
        monkeypatch.setattr(campaign, "effective_stream_channel", lambda h2, e, watts=watts: unscaled(h2, e, watts))
        gains.append(LinkEngine(cfg).g)
        out = tmp_path / f"{watts}.csv"
        write_ber_csv(run_ber_sweep(cfg), cfg, out)
        rows.append([line for line in out.read_text().splitlines() if not line.startswith("#")])
    assert np.array_equal(gains[1], 2.0 * gains[0])
    assert rows[0] == rows[1]


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


def test_csv_theory_column_is_the_per_point_call(tmp_path):
    # On an array, theoretical_ber_16qam can round apart from a per-point
    # call (at 25.0 dB by hundreds of ulps), so a vectorized column could
    # move the CSV's bytes.
    cfg = small_config(ebn0_grid_db=(24.5, 25.0), bits_per_point=10_000)
    out = tmp_path / "sweep.csv"
    result = run_ber_sweep(cfg)
    write_ber_csv(result, cfg, out)
    header, *rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
    column = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    assert column["ebn0_db"][1] == campaign._fmt(25.0)
    assert column["theoretical_ber"][1] == campaign._fmt(theoretical_ber_16qam(25.0))
    assert result.theoretical[1] == theoretical_ber_16qam(25.0)


def test_csv_overwrite_refused_without_force(tmp_path):
    cfg = small_config(ebn0_grid_db=(10.0,))
    out = tmp_path / "sweep.csv"
    result = run_ber_sweep(cfg)
    write_ber_csv(result, cfg, out)
    with pytest.raises(FileExistsError):
        write_ber_csv(result, cfg, out)
    write_ber_csv(result, cfg, out, force=True)
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]  # no temporary file left


@pytest.mark.parametrize(
    "code", [errno.EPERM, errno.ENOTSUP, errno.EOPNOTSUPP], ids=["EPERM", "ENOTSUP", "EOPNOTSUPP"]
)
def test_outputs_are_published_without_hard_links(monkeypatch, tmp_path, code):
    cfg = small_config(ebn0_grid_db=(10.0,))
    result = run_ber_sweep(cfg)
    write_ber_csv(result, cfg, tmp_path / "linked.csv")
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(range(256)))

    def no_link(src, dst):
        raise OSError(code, "hard links not supported")

    monkeypatch.setattr(campaign.os, "link", no_link)
    write_ber_csv(result, cfg, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "linked.csv").read_bytes()
    run_file_loopback(src, tmp_path / "out.bin", cfg)
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()
    # An existing output is still refused and left as it was.
    (tmp_path / "sweep.csv").write_bytes(b"keep")
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        write_ber_csv(result, cfg, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == b"keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin", "linked.csv", "out.bin", "sweep.csv"]


def test_an_output_whose_link_fails_otherwise_is_an_error_naming_it(monkeypatch, tmp_path):
    cfg = small_config(ebn0_grid_db=(10.0,))
    result = run_ber_sweep(cfg)

    def denied(src, dst):
        raise OSError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(campaign.os, "link", denied)
    with pytest.raises(OSError, match="Permission denied") as err:
        write_ber_csv(result, cfg, tmp_path / "sweep.csv")
    assert err.value.filename == str(tmp_path / "sweep.csv")
    assert list(tmp_path.iterdir()) == []


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


def reference_model_cases(rng, n):
    """The model identity suite's draws, 13 RNG calls a case (the loop the
    suite's merged draws must reproduce): n_cells, k_rx, then H1, H2, c,
    P, x and the noise."""
    for _ in range(n):
        n_cells = int(rng.integers(1, 65))
        k_rx = int(rng.integers(1, 5))
        h1 = rng.standard_normal((2 * n_cells, 2)) + 1j * rng.standard_normal((2 * n_cells, 2))
        h2 = rng.standard_normal((2 * k_rx, 2 * n_cells)) + 1j * rng.standard_normal(
            (2 * k_rx, 2 * n_cells)
        )
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = c / np.linalg.norm(c)
        power = float(rng.uniform(0.1, 10.0))
        mags = rng.uniform(0.0, 1.0, 2 * n_cells)
        phases = rng.uniform(0.0, TWO_PI, 2 * n_cells)
        x = mags * np.exp(1j * phases)
        noise = rng.standard_normal(2 * k_rx) + 1j * rng.standard_normal(2 * k_rx)
        yield k_rx, h1, h2, c, power, x, noise


def reference_oracle_details(cfg):
    """All three suites case by case through the scalar public functions,
    on one stream drawn call by call."""
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
    worst = 0.0
    for k_rx, h1, h2, c, power, x, noise in reference_model_cases(rng, cfg.oracle.model_identity_cases):
        channels = ChannelSet(h1=h1, h2=h2, c=c, carrier_power_watts=power, k_rx=k_rx)
        reflection = ReflectionVector(x)
        full = received_full(channels, reflection, noise)
        reduced = received_reduced(channels, attenuation_from(channels), reflection, noise)
        worst = max(worst, float(np.max(np.abs(full.entries - reduced.entries))))
    return [
        f"max amplitude err {worst_amp:.3e}, max phase err {worst_phase:.3e} (tol 1e-9)",
        f"window sum in [{lo:.9f}, {hi:.9f}]",
        f"max |full - reduced| = {worst:.3e} (tol 1e-12)",
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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_cases", [1, 9, 4000])
@pytest.mark.parametrize("seed", [0, 3, 2024])
def test_model_identity_draws_are_the_call_by_call_draws(monkeypatch, n_cases, seed):
    # Every value the merged draws hand to the public forms, and the
    # generator state they leave, equal those of 13 calls a case.
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    reference = reference_model_cases(reference_rng, n_cases)
    seen = []

    def checked_full(channels, x, noise):
        k_rx, h1, h2, c, power, entries, want_noise = next(reference)
        assert channels.k_rx == k_rx
        assert same_bits(channels.h1, h1) and same_bits(channels.h2, h2) and same_bits(channels.c, c)
        assert channels.carrier_power_watts.hex() == power.hex()
        assert same_bits(x.entries, entries) and same_bits(noise, want_noise)
        seen.append(k_rx)
        return received_full(channels, x, noise)

    monkeypatch.setattr(campaign, "received_full", checked_full)
    cfg = config_from_dict({"seed": seed, "oracle": {"model_identity_cases": n_cases}})
    assert campaign._suite_model_identity(cfg, rng, received_reduced).passed
    assert len(seen) == n_cases
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_oracle_check_detects_reduced_form_off_by_one_part_in_a_billion():
    def scaled(channels, e, x, noise):
        return ReceivedVector(received_reduced(channels, e, x, noise).entries * (1.0 + 1e-9))

    report = run_oracle_check(small_config(), reduced_fn=scaled)
    assert not report.ok
    assert [(s.name, s.passed) for s in report.suites] == [
        ("harmonic_closed_form_vs_exact", True),
        ("parseval_window_energy", True),
        ("model_identity_full_vs_reduced", False),
    ]


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_oracle_check_fails_a_reduced_form_with_non_finite_entries(bad):
    # Python's max(worst, nan) keeps worst, which let all-NaN entries pass
    # with a worst error of 0.
    def broken(channels, e, x, noise):
        return ReceivedVector(np.full(2 * channels.k_rx, complex(bad, bad)))

    report = run_oracle_check(small_config(), reduced_fn=broken)
    assert not report.ok
    identity = report.suites[2]
    assert (identity.name, identity.passed) == ("model_identity_full_vs_reduced", False)
    assert identity.detail == f"max |full - reduced| = {float(bad):.3e} (tol 1e-12)"


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


def test_mc_and_theory_crossings_share_one_interpolation_rule():
    # A coupling penalty is an MC crossing (ebn0_at_ber) minus theory_crossing(),
    # so both must read one crossing off the theory's own 0.01 dB grid: the same
    # log-linear rule, apart from rounding.
    grid = np.linspace(0.0, 20.0, 2001)
    crossing = ebn0_at_ber(grid, theoretical_ber_16qam(grid), 10**6)
    assert abs(crossing - theory_crossing()) < 1e-9


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


@pytest.mark.parametrize("payload", [b"", b"abc"], ids=["empty", "3-bytes"])
def test_file_loopback_refuses_an_unequalizable_link_whatever_the_payload_length(tmp_path, capsys, payload):
    src = tmp_path / "in.bin"
    src.write_bytes(payload)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"zf_condition_limit": 1.0}))
    dst = tmp_path / "out.bin"
    assert main(["file-loopback", str(src), "--config", str(cfgfile), "--out", str(dst)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: configured channel cannot be equalized")
    assert captured.out == "" and not dst.exists()


def test_file_loopback_odd_length(tmp_path):
    payload = bytes(range(251))
    src = tmp_path / "odd.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(payload)
    result = run_file_loopback(src, dst, small_config(loopback_ebn0_db=30.0))
    assert dst.read_bytes() == payload
    assert result.bytes_in == 251


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
def test_file_loopback_is_the_same_under_either_stream_relation(monkeypatch, tmp_path, capsys, threads):
    # The payload's two streams always differ, so loopback builds all 256
    # pairs up front, once, whatever the configured relation.
    builds = []
    real = campaign.distort_reflection

    def spy(params0, *args):
        builds.append(len(params0))
        return real(params0, *args)

    monkeypatch.setattr(campaign, "distort_reflection", spy)
    src = tmp_path / "in.bin"
    src.write_bytes(np.random.default_rng(300).bytes(300_000))
    outputs = {}
    for relation in ("independent", "identical"):
        raw = {"seed": 4, "loopback_ebn0_db": 6.0, "fidelity": "B", "coupling": True}
        raw["stream_relation"] = relation
        cfgfile = tmp_path / f"{relation}.json"
        cfgfile.write_text(json.dumps(raw))
        dst = tmp_path / f"{relation}.bin"
        argv = ["file-loopback", str(src), "--config", str(cfgfile), "--out", str(dst)]
        assert main([*argv, "--threads", str(threads)]) == 0
        stdout = capsys.readouterr().out
        # The printed hash stays the configured one.
        digest = config_hash(config_from_dict(raw))
        assert f"config_hash={digest}" in stdout
        outputs[relation] = dst.read_bytes(), stdout.replace(digest, "HASH")
    assert outputs["identical"] == outputs["independent"]
    assert builds == [256, 256]


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


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_memory_grows_under_4_kib_per_grid_point(threads):
    # Each point folds its chunks' counts as they arrive, so an extra grid
    # point adds its record and its ZF matrix, far less than one (2, 256, 16)
    # int64 count table (64 KiB).  The bound was fixed before the first run.
    engine = LinkEngine(small_config())
    engine.run_points((6.0,), 10_000, threads)  # first-call allocations
    sizes = (20, 400)
    peaks = []
    for size in sizes:
        grid = np.linspace(0.0, 20.0, size).tolist()
        tracemalloc.start()
        try:
            engine.run_points(grid, 10_000, threads)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_point = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
    assert per_point < 4096, f"traced peak grows {per_point:.0f} B per grid point"


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

    path = f"{section}.{key}" if section else key
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


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["no-force", "force"])
@pytest.mark.parametrize(
    "where, code",
    [
        ("missing/out.csv", errno.ENOENT),
        ("existing.txt/out.csv", errno.ENOTDIR),
        ("existing-dir", errno.EISDIR),
        ("", errno.ENOENT),
    ],
    ids=["missing-dir", "under-a-file", "a-directory", "empty"],
)
def test_cli_output_in_a_directory_that_cannot_hold_it_fails_before_running(
    monkeypatch, tmp_path, capsys, where, code, force
):
    import dpris.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("the run started although its output cannot be written")

    for name in ("run_ber_sweep", "run_file_loopback", "export_waveform"):
        monkeypatch.setattr(cli, name, must_not_run)
    src = tmp_path / "payload.bin"
    src.write_bytes(b"payload")
    (tmp_path / "existing.txt").write_text("keep")
    (tmp_path / "existing-dir").mkdir()
    before = sorted(tmp_path.iterdir())
    out = str(tmp_path / where) if where else ""
    for argv in (["ber-sweep"], ["file-loopback", str(src)], ["export-waveform"]):
        assert main([*argv, "--out", out, *force]) == 4
        assert capsys.readouterr().err == f"i/o error: [Errno {code}] {os.strerror(code)}: {out!r}\n"
    assert sorted(tmp_path.iterdir()) == before
    assert list((tmp_path / "existing-dir").iterdir()) == []


def test_cli_forced_output_replaces_a_symlink_to_a_directory(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"ebn0_grid_db": [8.0], "bits_per_point": 10000}))
    src = tmp_path / "payload.bin"
    src.write_bytes(b"payload")
    target = tmp_path / "target"
    target.mkdir()
    (target / "inside").write_bytes(b"keep")
    link = tmp_path / "link"
    for argv in (["ber-sweep"], ["file-loopback", str(src)], ["export-waveform"]):
        link.symlink_to(target)
        assert main([*argv, "--config", str(cfgfile), "--out", str(link), "--force"]) == 0
        assert link.is_file() and not link.is_symlink()
        assert [p.name for p in target.iterdir()] == ["inside"]
        assert (target / "inside").read_bytes() == b"keep"
        link.unlink()
    assert "i/o error" not in capsys.readouterr().err


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


# sha256 of the three CSVs and the four penalty lines at {"bits_per_point": 20000}.
# Apart from their "# config_hash=" lines, the CSVs are those the
# experiment's earlier stand-alone script wrote.
PENALTY_PINS = {
    1: (
        {
            "ber_fidelity_a.csv": "cd19a5e004ce7fa378fcad137fc1743867b9f74983a96c7a8f8f7d3b1a40c5f1",
            "ber_coupled_independent.csv": "135e72eac2e7c58fc9b0df0208e9cdd863bc2be1b25a1588a4c5fb5d29157add",
            "ber_coupled_identical.csv": "e4d209e663ff2a86cefe6179e06bf3512d14eb8317e421497b5350afd303524b",
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
            "ber_fidelity_a.csv": "ca6a566feea34f6b18430affce95f3cffb117a2a6030c9467eb72fa2ed393bde",
            "ber_coupled_independent.csv": "2dd7059116efa6aebd89d682ac10c364e39a1fae6ed24c3f4537dc34d8733f17",
            "ber_coupled_identical.csv": "0bdfadd9cefd9dde2f17d097e02f3ac1771d1c86cd38d760994209b5f82f3cc2",
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


def test_coupling_penalty_reports_a_curve_that_never_crosses_as_a_bound(tmp_path, capsys):
    # At 16 samples a symbol with perfect CSI, the independent-stream curve
    # stays above 1e-4 over the whole 8-28 dB grid.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bits_per_point": 10000, "samples_per_symbol": 16, "csi": "perfect"}))
    assert main(["coupling-penalty", "--config", str(cfg), "--out-dir", str(tmp_path / "res")]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "independent streams: crossing above 28.00 dB, penalty above 15.80 dB",
        "identical streams:   crossing 17.40 dB, penalty 5.19 dB",
        "ordering independent > identical > 0: True",
    ]


def test_coupling_penalty_config_error_creates_nothing(tmp_path, capsys):
    out_dir = tmp_path / "res"
    argv = ["coupling-penalty", "--config", _bits_config(tmp_path, bits=5), "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: bits_per_point: must be at least 10000")
    assert not out_dir.exists()


def test_coupling_penalty_control_path_failure_leaves_no_csv(tmp_path, capsys):
    # The fidelity-A sweep runs with these curves; the coupled control path
    # overflows.  Every sweep runs before the first write.
    lut = tmp_path / "curves.csv"
    lut.write_text("\n".join(["polarization,voltage_volts,phase_degrees", *OVERFLOWING_SPAN_LUT]) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bits_per_point": 10000, "lut_csv": str(lut)}))
    out_dir = tmp_path / "res"
    assert main(["coupling-penalty", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: lut_csv: the control path leaves the float range")
    assert captured.out == ""
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "name, force",
    [("ber_coupled_identical.csv", [])] + [(name, ["--force"]) for name in PENALTY_CSVS],
    ids=["existing-file", *(f"directory-{name}" for name in PENALTY_CSVS)],
)
def test_coupling_penalty_refuses_existing_output_before_any_sweep(tmp_path, monkeypatch, capsys, name, force):
    import dpris.cli as cli

    kept = tmp_path / name
    if force:  # no --force writes over a directory
        kept.mkdir()
        expected = f"i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(kept)!r}\n"
    else:
        kept.write_text("keep")
        expected = f"i/o error: refusing to overwrite {kept} (pass --force to allow)\n"

    def must_not_run(*args, **kwargs):
        raise AssertionError("a sweep ran although an output is refused")

    monkeypatch.setattr(cli, "run_ber_sweep", must_not_run)
    assert main(["coupling-penalty", "--out-dir", str(tmp_path), *force]) == 4
    assert capsys.readouterr().err == expected
    assert list(kept.iterdir()) == [] if force else kept.read_text() == "keep"
    assert [p.name for p in tmp_path.iterdir()] == [kept.name]


def test_coupling_penalty_failed_ordering_exits_3_and_keeps_the_curves(tmp_path, monkeypatch, capsys):
    import dpris.cli as cli

    # A reference past both coupled crossings: both penalties are negative.
    monkeypatch.setattr(cli, "theory_crossing", lambda: 40.0)
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


def test_cli_rejects_threads_above_the_cap_before_any_chunk(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(LinkEngine, "detect_chunk", lambda *args: pytest.fail("a chunk ran"))
    out = tmp_path / "out.csv"
    argv = ["ber-sweep", "--config", _bits_config(tmp_path, bits=10000), "--out", str(out)]
    assert main([*argv, "--threads", str(MAX_THREADS + 1)]) == 2
    assert capsys.readouterr().err == (
        f"config error: --threads: must be at most {MAX_THREADS}, got {MAX_THREADS + 1}\n"
    )
    assert not out.exists()
    # At the cap a run goes ahead; it starts one worker per chunk, here two.
    monkeypatch.undo()
    assert main([*argv, "--threads", str(MAX_THREADS)]) == 0


# Each bad flag of each subcommand, and what it ends in: an argparse usage
# error (exit 2 by SystemExit) where the subcommand has no such flag.
_BAD_FLAGS = {
    "threads-0": ["--threads", "0"],
    "threads-minus-1": ["--threads", "-1"],
    "threads-over-cap": ["--threads", str(MAX_THREADS + 1)],
    "seed-minus-1": ["--seed", "-1"],
    "out-in-missing-dir": ["--out", "{tmp}/missing/out.csv"],
    "out-existing-file": ["--out", "{tmp}/existing.txt"],
    "out-existing-dir": ["--out", "{tmp}/existing-dir"],
    "out-existing-dir-force": ["--out", "{tmp}/existing-dir", "--force"],
    "out-dir-is-a-file": ["--out-dir", "{tmp}/existing.txt"],
}


@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command in ("ber-sweep", "oracle-check", "file-loopback", "export-waveform", "coupling-penalty")
        for flag in sorted(_BAD_FLAGS)
    ],
)
def test_every_bad_flag_of_every_subcommand_exits_with_a_documented_code(
    tmp_path, capfd, monkeypatch, command, flag
):
    import dpris.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("the run started although a flag is bad")

    runs = ("run_ber_sweep", "run_oracle_check", "run_file_loopback", "export_waveform")
    for name in runs:
        monkeypatch.setattr(cli, name, must_not_run)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bits_per_point": 10000, "ebn0_grid_db": [10.0], "oracle": {
        "harmonic_cases": 2, "parseval_cases": 2, "model_identity_cases": 2}}))
    payload = tmp_path / "payload.bin"
    payload.write_bytes(b"dpris")
    existing = tmp_path / "existing.txt"
    existing.write_text("keep")
    (tmp_path / "existing-dir").mkdir()
    before = sorted(tmp_path.iterdir())
    argv = [command, *([str(payload)] if command == "file-loopback" else []), "--config", str(cfg)]
    argv += [arg.format(tmp=tmp_path) for arg in _BAD_FLAGS[flag]]
    if command in ("ber-sweep", "file-loopback", "export-waveform") and "--out" not in argv:
        argv += ["--out", str(tmp_path / "out.csv")]
    if command == "coupling-penalty" and "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path / "res")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: a flag the subcommand does not take
        code = exc.code
    err = capfd.readouterr().err
    assert code in (2, 4), err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before
    assert existing.read_text() == "keep"
    assert list((tmp_path / "existing-dir").iterdir()) == []
