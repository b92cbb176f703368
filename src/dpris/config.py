"""Campaign configuration: schema, defaults, JSON loading, hashing.

One JSON file drives everything.  Every key has a default mirroring the
bench prototype (2.7 GHz, 12 x 12 cells, 0.8 m feed / 1.6 m receive, 45
degree feed, 2.5 MSps, 16 dB isolation), so an empty config reproduces the
bench-scale scenario with one command.  Every JSON value is checked against
the annotation of the dataclass field it sets, in the root and every
section; violations are reported with their full key path and exit the CLI
with code 2.  Every dataclass checks its own ranges and cross-field rules in
``__post_init__``.  ``CampaignConfig.__post_init__`` is the one pass over
the root: it runs the annotation checks over its fields and builds each
section from its JSON object, so a config built in Python, directly or
through ``dataclasses.replace``, is held to the same rules as one loaded
from JSON, and the JSON loader only drops the retired legacy keys and
rejects unknown keys before handing the object over.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

from .channel import ChannelModelSpec, Geometry
from .hardware import HardwareConfig
from .modulation import QAM16_BITS_PER_SYMBOL as BITS_PER_SYMBOL

STREAMS = 2
MIN_BITS_PER_POINT = 10_000


class ConfigError(ValueError):
    """A configuration value failed validation; carries its key path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# Per-suite cap: the harmonic suite draws all its cases up front, and a
# million cases of each suite already take minutes.
MAX_ORACLE_CASES = 1_000_000

# Size caps, each measured on 2 vCPUs (peak RSS of the one call that builds
# the arrays; every array grows linearly with the input).  A coupled
# fidelity-B engine with independent streams builds its 256-pair waveform
# table at 87 MiB at 4,096 samples per symbol and 230 MiB at 16,384 (0.8-1.0 s
# with an ideal DAC, 0.5 s with 6 bits); with identical streams (18 pairs)
# or uncoupled (the 16 pairs (s, s)), it peaks at 41 MiB at 4,096 and 52 MiB
# at 16,384.  LinkEngine._pair_codes, whose codes the chunk kernel reads,
# refuses a pair an engine does not hold; only table_b0/table_b1 rebuild a
# coupled identical-stream engine's full table, afresh, and that build peaks
# as the independent one.
MAX_SAMPLES_PER_SYMBOL = 16_384
# An engine with 100,000 pilot symbols peaks at 77 MiB, with 1,000,000 at 448 MiB.
MAX_PILOT_LENGTH = 100_000
# export-waveform writes 1,000,000 samples at 81 MiB in 3.4 s, 10,000,000 at
# 416 MiB in 34 s; it prints one line per harmonic order, 200,001 lines at
# a span of 100,000 (51 MiB, 1.4 s) and 2,000,001 at 1,000,000 (159 MiB, 12 s).
MAX_EXPORT_SAMPLES = 1_000_000
MAX_HARMONIC_SPAN = 100_000
# A sweep point runs at about 8e7 bits/s on one thread (fidelity A, 2 vCPUs),
# so 10**12 bits take about 3.5 h per point.  Memory does not grow with it.
MAX_BITS_PER_POINT = 10**12


@dataclass(frozen=True)
class OracleCheckConfig:
    harmonic_cases: int = 1000
    parseval_cases: int = 1000
    model_identity_cases: int = 1000

    def __post_init__(self):
        for name in ("harmonic_cases", "parseval_cases", "model_identity_cases"):
            value = getattr(self, name)
            if not 1 <= value <= MAX_ORACLE_CASES:
                raise ValueError(f"{name} must lie in [1, {MAX_ORACLE_CASES}], got {value}")


@dataclass(frozen=True)
class WaveformExportConfig:
    delta_phi_rad: float = 3.141592653589793
    t_shift_fraction: float = 0.25
    samples: int = 64
    harmonic_span: int = 10

    def __post_init__(self):
        if not 0.0 < self.delta_phi_rad <= 2.0 * 3.141592653589793:
            raise ValueError("delta_phi_rad must lie in (0, 2*pi]")
        if not 0.0 <= self.t_shift_fraction < 1.0:
            raise ValueError("t_shift_fraction must lie in [0, 1)")
        if not 2 <= self.samples <= MAX_EXPORT_SAMPLES:
            raise ValueError(f"samples must lie in [2, {MAX_EXPORT_SAMPLES}], got {self.samples}")
        if not 1 <= self.harmonic_span <= MAX_HARMONIC_SPAN:
            raise ValueError(
                f"harmonic_span must lie in [1, {MAX_HARMONIC_SPAN}], got {self.harmonic_span}"
            )


@dataclass(frozen=True)
class CampaignConfig:
    """Top-level campaign description; nested module configs ride along."""

    seed: int = 1
    ebn0_grid_db: tuple[float, ...] = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
    bits_per_point: int = 1_000_000
    fidelity: Literal["A", "B"] = "A"
    coupling: bool = False
    stream_relation: Literal["independent", "identical"] = "independent"
    symbol_rate_sps: float = 2.5e6
    csi: Literal["perfect", "calibrated", "pilot"] = "calibrated"
    samples_per_symbol: int = 64
    pilot_length: int = 16
    zf_condition_limit: float = 1e8
    lut_csv: str | None = None
    loopback_ebn0_db: float = 30.0
    # Sections are frozen, so every config can share one default instance.
    geometry: Geometry = Geometry()
    channel: ChannelModelSpec = ChannelModelSpec()
    hardware: HardwareConfig = HardwareConfig()
    oracle: OracleCheckConfig = OracleCheckConfig()
    waveform_export: WaveformExportConfig = WaveformExportConfig()
    # Not a field: G is normalized to a 1 W carrier.  The benchmark replay
    # reads this constant; it goes with ROADMAP item 3.
    carrier_power_watts = 1.0

    def __post_init__(self):
        """Annotation checks, then root and cross-field rules; each raises a
        :class:`ConfigError` on its key.

        Every field, and every field of each section, is checked as a JSON
        value would be, and the checked value is stored, so equal values
        hash equally however the config was built.  A field still holding
        its default object needs no check, which keeps a config load in
        microseconds.
        """
        for name, tp in _field_types(CampaignConfig).items():
            val = getattr(self, name)
            if val is not getattr(CampaignConfig, name):  # the class attribute is the default
                object.__setattr__(self, name, _check_value(val, tp, name))
        if len(self.ebn0_grid_db) == 0:
            raise ConfigError("ebn0_grid_db", "grid must be non-empty")
        if self.bits_per_point < MIN_BITS_PER_POINT:
            raise ConfigError(
                "bits_per_point",
                f"must be at least {MIN_BITS_PER_POINT}, got {self.bits_per_point}",
            )
        if self.bits_per_point > MAX_BITS_PER_POINT:
            raise ConfigError("bits_per_point", f"must be at most {MAX_BITS_PER_POINT}, got {self.bits_per_point}")
        if self.symbol_rate_sps <= 0:
            raise ConfigError("symbol_rate_sps", "must be positive")
        if not math.isfinite(self.symbol_period_s):
            raise ConfigError(
                "symbol_rate_sps",
                f"symbol period 1/{self.symbol_rate_sps!r} s overflows; the rate is too small",
            )
        if not 2 <= self.samples_per_symbol <= MAX_SAMPLES_PER_SYMBOL:
            raise ConfigError(
                "samples_per_symbol",
                f"must lie in [2, {MAX_SAMPLES_PER_SYMBOL}], got {self.samples_per_symbol}",
            )
        # The CSV header carries the throughput.  The ramp samples a symbol at
        # spacing Ts / samples_per_symbol, export-waveform at Ts / samples; below
        # the smallest normal float the phases lose precision, then turn NaN.
        if not (
            math.isfinite(self.throughput_bps)
            and self.symbol_period_s / self.samples_per_symbol >= sys.float_info.min
        ):
            raise ConfigError(
                "symbol_rate_sps",
                f"rate {self.symbol_rate_sps!r} is too large: the throughput or the sample "
                f"spacing 1/(rate * samples_per_symbol) leaves the float range",
            )
        if not self.symbol_period_s / self.waveform_export.samples >= sys.float_info.min:
            raise ConfigError("waveform_export.samples", "the exported ramp's spacing 1/(rate * samples) is subnormal")
        if not 2 <= self.pilot_length <= MAX_PILOT_LENGTH or self.pilot_length % 2 != 0:
            raise ConfigError(
                "pilot_length",
                f"must be an even number in [2, {MAX_PILOT_LENGTH}], got {self.pilot_length}",
            )
        if not self.zf_condition_limit >= 1.0:  # no condition number is below 1: it would refuse every channel
            raise ConfigError("zf_condition_limit", f"must be at least 1, got {self.zf_condition_limit!r}")
        if self.coupling and self.fidelity != "B":
            raise ConfigError(
                "coupling", "voltage coupling is a waveform-level impairment; requires fidelity B"
            )
        if not self.seed >= 0:
            raise ConfigError("seed", "must be a non-negative integer")

    @property
    def symbol_period_s(self) -> float:
        return 1.0 / self.symbol_rate_sps

    @property
    def throughput_bps(self) -> float:
        """Streams x bits-per-symbol x symbol rate; 20 Mbps at defaults."""
        return STREAMS * BITS_PER_SYMBOL * self.symbol_rate_sps


# Strings that a JSON config may use for a field's None value.
_NONE_SPELLINGS = {
    "hardware.dac_bits": "ideal",
    "channel.cross_polarization_discrimination_db": "inf",
}
_SCALAR_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
# Root keys of old schemas, dropped on load.
_RETIRED_KEYS = {"mode", "carrier_power_watts"}


def _check_value(val, tp, path: str):
    """Check one JSON value against a field annotation; return the field value.

    A section may also be given as an instance of its dataclass, whose
    fields are then checked as a JSON object's would be.  A number checked
    against ``float`` is stored as a float, so a float field spelled as a
    JSON integer hashes as its float spelling.  A choice field's
    ``Literal`` annotation is the one list of its allowed strings.
    """
    # Test for a class first: hashing a Literal annotation to look it up
    # would cost more than the whole check.
    if isinstance(tp, type) and tp in _SCALAR_NAMES:
        accepted = (int, float) if tp is float else tp
        if isinstance(val, bool) != (tp is bool) or not isinstance(val, accepted):
            raise ConfigError(path, f"expected {_SCALAR_NAMES[tp]}, got {val!r}")
        if tp is not float:
            return val
        try:
            as_float = float(val)
        except OverflowError:  # an integer beyond the float range
            as_float = math.inf
        if not math.isfinite(as_float):
            raise ConfigError(path, f"must be finite, got {val!r}")
        return as_float
    if isinstance(tp, type) and is_dataclass(tp):
        if isinstance(val, tp):
            val = {name: getattr(val, name) for name in _field_types(tp)}
        return tp() if val is None else _merge(tp, val, path)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal:
        if not isinstance(val, str):
            raise ConfigError(path, f"expected {_SCALAR_NAMES[str]}, got {val!r}")
        if val not in args:
            raise ConfigError(path, f"must be one of {args}, got {val!r}")
        return val
    if origin in (Union, UnionType):  # "X | None"
        if val is None or val == _NONE_SPELLINGS.get(path):
            return None
        inner = next(a for a in args if a is not type(None))
        return _check_value(val, inner, path)
    # The one annotation left is a tuple.
    if not isinstance(val, (list, tuple)):
        raise ConfigError(path, f"expected a list, got {val!r}")
    item_types = args[:1] * len(val) if args[-1] is Ellipsis else args
    if len(item_types) != len(val):
        raise ConfigError(path, f"expected {len(item_types)} entries, got {len(val)}")
    return tuple(_check_value(v, t, f"{path}[{i}]") for i, (v, t) in enumerate(zip(val, item_types)))


@functools.cache
def _field_types(cls) -> dict:
    """Resolved annotation of every field of dataclass ``cls``."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _known_fields(cls, raw, path: str) -> dict:
    """Field annotations of dataclass ``cls``, once every key of the JSON object ``raw`` names one."""
    if not isinstance(raw, dict):
        raise ConfigError(path or "<root>", f"expected an object, got {type(raw).__name__}")
    field_types = _field_types(cls)
    for key in raw:
        if key not in field_types:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    return field_types


def _merge(cls, raw, path: str):
    """Section ``cls`` at ``path``: its defaults overridden by the JSON object ``raw``.

    Every key is checked against the field annotations; errors carry the
    key path.  A section's rule on one field names that field first, as in
    "isolation_db must be positive", and is reported on ``path.field``; a
    rule on several fields is reported on ``path``.
    """
    field_types = _known_fields(cls, raw, path)
    values = {key: _check_value(val, field_types[key], f"{path}.{key}") for key, val in raw.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        name, _, rest = str(exc).partition(" ")
        if name in field_types:
            raise ConfigError(f"{path}.{name}", rest) from exc
        raise ConfigError(path, str(exc)) from exc


def config_from_dict(raw: dict) -> CampaignConfig:
    """Build a validated config from a parsed JSON object.

    A retired root key, which no run reads, is dropped whatever its value:
    the subcommand selects the run, and G is normalized to a 1 W carrier.
    Unknown keys are rejected with a :class:`ConfigError` on their path so
    typos surface instead of silently falling back to defaults; every value
    is then checked once, by :class:`CampaignConfig`.
    """
    if isinstance(raw, dict):
        raw = {key: val for key, val in raw.items() if key not in _RETIRED_KEYS}
    _known_fields(CampaignConfig, raw, "")
    return CampaignConfig(**raw)


def load_config(path: str | None, overrides: dict | None = None) -> CampaignConfig:
    """Load the JSON config file (or defaults) and apply CLI overrides.

    A file that cannot be read stays an OSError, like any other unreadable
    input; one that cannot be parsed is a ConfigError.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "rb") as fh:
                raw = json.loads(fh.read().decode("utf-8"))
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # over-long integers; RecursionError covers nesting too deep to parse.
        except (ValueError, RecursionError) as exc:
            raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    return config_from_dict(raw)


def config_hash(cfg: CampaignConfig) -> str:
    """Stable short hash of the fully-resolved configuration (tuples hash as JSON arrays)."""
    canon = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
