"""Traced replay: every layer timed from outside through its public functions.

The traced run is separate from the timed runs.  It first runs the
workload's commands untraced through ``dpris.cli.main``, whose outputs are
the reference, and through the library entry points (``run_ber_sweep``,
``run_file_loopback``, ``run_oracle_check``) for the reference error counts.
Then, until the time budget is spent, each iteration runs the commands
untraced at ``--threads 1`` and ``--threads 2`` and replays them once, by
calling the public functions of each layer in the order the program calls
them, with a span around every call:

* ber-sweep: ``load_config``, ``LinkEngine``, then per Monte Carlo point and
  per chunk the documented substream ``SeedSequence(seed, spawn_key=(point,
  1 + chunk))``, ``tx_symbols``, ``awgn``, ``G @ tx``, ``zf_equalize``,
  ``slicer_demap_indices`` and the popcount, and ``write_ber_csv``;
* file-loopback: the same chunk stages driven by the payload's symbols,
  plus bit unpacking, packing and the output write;
* oracle-check: the three suites, case by case.

Outside the command spans each ``LinkEngine`` is also rebuilt part by part
through the public builders (``build_h1_los``, ``build_h2``,
``attenuation_from``, ``qam_to_tm``, ``default_lut``,
``distort_reflection``, ``estimate_channel``), which gives the set-up layer
times and the control-path clip counts.

A replay must reproduce the untraced run exactly (per-point bit and symbol
error counts, CSV bytes, loopback output bytes, oracle verdicts and worst
errors), so the layer numbers describe the same program.  A mismatch counts
as a failed command.  Spans of one run share a run id, stay in memory, and
are written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
import uuid
from collections import Counter
from pathlib import Path

import numpy as np

from dpris import __version__
from dpris.campaign import (
    CHUNK_SYMBOLS,
    CampaignResult,
    LinkEngine,
    run_ber_sweep,
    run_file_loopback,
    run_oracle_check,
    write_ber_csv,
)
from dpris.channel import (
    awgn,
    build_h1_los,
    build_h2,
    carrier_decomposition,
    effective_stream_channel,
)
from dpris.cli import build_parser
from dpris.config import BITS_PER_SYMBOL, STREAMS, config_hash, load_config
from dpris.hardware import default_lut, distort_reflection
from dpris.model import (
    ChannelSet,
    ReflectionVector,
    attenuation_from,
    received_full,
    received_reduced,
)
from dpris.modulation import (
    CONSTELLATION16,
    TWO_PI,
    TmSymbolParams,
    bits_to_symbol_indices,
    exact_coefficients,
    harmonic_closed_form,
    qam_to_tm,
    symbol_indices_to_bits,
    wrap_phase,
)
from dpris.receiver import (
    BerRecord,
    demap_indices,
    estimate_channel,
    slicer_demap_indices,
    theoretical_ber_16qam,
    wilson_interval_halfwidth,
    zf_equalize,
)

from workloads import Result, Tally, run_iteration

POPCOUNT16 = np.array([bin(i).count("1") for i in range(16)], dtype=np.int64)
PAIRS = 256

# Span names whose summed duration per replay is a per-layer time metric
# (metric name = span name + "_s").
TIMED_SPANS = (
    "config.load",
    "modulation.qam_to_tm",
    "modulation.exact_coefficients",
    "modulation.harmonic_closed_form",
    "model.received_full",
    "model.received_reduced",
    "model.attenuation_from",
    "hardware.default_lut",
    "hardware.distort_reflection",
    "channel.build_h1",
    "channel.build_h2",
    "channel.awgn",
    "channel.matmul",
    "receiver.estimate_channel",
    "receiver.zf_equalize",
    "receiver.slicer",
    "campaign.engine_init",
    "campaign.draw",
    "campaign.lookup",
    "campaign.popcount",
    "campaign.write_csv",
)
# The replayed chunk stages that campaign.loopback_residual_s subtracts.
CHUNK_STAGES = (
    "campaign.lookup",
    "channel.awgn",
    "channel.matmul",
    "receiver.zf_equalize",
    "receiver.slicer",
    "campaign.popcount",
)
COUNTS = (
    "campaign.chunks",
    "channel.awgn_samples",
    "receiver.estimate_calls",
    "receiver.zf_calls",
    "hardware.control_path_samples",
    "hardware.clipped_samples",
)


class Tracer:
    """In-memory spans: name, start, end (``perf_counter_ns``) and parent index."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._open = [-1]

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int):
        self.ends[index] = time.perf_counter_ns()
        self._open.pop()

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span called ``name``."""
        index = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def span(self, name: str):
        return _Span(self, name)

    def durations(self, first: int = 0) -> dict[str, list[float]]:
        """Durations in seconds by span name, for spans from index ``first`` on."""
        out: dict[str, list[float]] = {}
        for i in range(first, len(self.names)):
            out.setdefault(self.names[i], []).append((self.ends[i] - self.starts[i]) * 1e-9)
        return out

    def dump(self, path: Path, meta: dict):
        """Write every span, columnar, with start times relative to the first."""
        names = sorted(set(self.names))
        code = {name: i for i, name in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0
        doc = {
            "run_id": self.run_id,
            **meta,
            "clock": "time.perf_counter_ns, relative to the first span",
            "names": names,
            "name": [code[n] for n in self.names],
            "parent": self.parents,
            "start_ns": [s - t0 for s in self.starts],
            "end_ns": [e - t0 for e in self.ends],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end(self.index)


def _substream(seed: int, point: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(point, chunk)))


def _draw(seed, point, chunk, n, identical):
    rng = _substream(seed, point, 1 + chunk)
    sym0 = rng.integers(0, 16, n)
    sym1 = sym0 if identical else rng.integers(0, 16, n)
    return rng, sym0, sym1


def _channel(g, tx, noise):
    return g @ tx + noise


def _popcount(rx0, rx1, sym0, sym1):
    bits = int(POPCOUNT16[rx0 ^ sym0].sum() + POPCOUNT16[rx1 ^ sym1].sum())
    symbols = int(np.count_nonzero(rx0 != sym0) + np.count_nonzero(rx1 != sym1))
    return bits, symbols


class Replay:
    """State of one replay of a workload: the spans' tracer and the counters."""

    def __init__(self, tracer: Tracer, workdir: Path):
        self.tr = tracer
        self.workdir = workdir
        self.counts = Counter()
        self.points = 0
        self.pair_tables = 0
        self.pairs_used = 0
        self.problems: list[str] = []

    def require(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)

    # -- shared by ber-sweep and file-loopback --------------------------------

    def chunk_stages(self, engine, fidelity, ghat, sym0, sym1, rng, noise_power, limit):
        tr = self.tr
        n = sym0.size
        tx = tr.call("campaign.lookup", engine.tx_symbols, sym0, sym1, fidelity)
        noise = tr.call("channel.awgn", awgn, 2 * n, noise_power, rng).reshape(2, n)
        y = tr.call("channel.matmul", _channel, engine.g, tx, noise)
        s_hat = tr.call("receiver.zf_equalize", zf_equalize, ghat, y, limit)
        rx0 = tr.call("receiver.slicer", slicer_demap_indices, s_hat[0])
        rx1 = tr.call("receiver.slicer", slicer_demap_indices, s_hat[1])
        self.counts["campaign.chunks"] += 1
        self.counts["channel.awgn_samples"] += 2 * n
        self.counts["receiver.zf_calls"] += 1
        return rx0, rx1

    def engine_parts(self, engine, cfg):
        """Rebuild ``engine`` part by part through the public builders."""
        tr = self.tr
        with tr.span("engine_parts"):
            geometry = cfg.geometry
            h1 = tr.call("channel.build_h1", build_h1_los, geometry)
            h2 = tr.call("channel.build_h2", build_h2, geometry, cfg.channel)
            channels = ChannelSet(
                h1=h1,
                h2=h2,
                c=carrier_decomposition(geometry.feed_polarization_angle_deg),
                carrier_power_watts=cfg.carrier_power_watts,
                k_rx=geometry.k_rx,
            )
            e = tr.call("model.attenuation_from", attenuation_from, channels)
            g = effective_stream_channel(h2, e, cfg.carrier_power_watts)
            self.require(np.array_equal(g, engine.g), "engine parts: G differs from LinkEngine.g")
            params16 = tuple(
                tr.call("modulation.qam_to_tm", qam_to_tm, point, cfg.symbol_period_s)
                for point in CONSTELLATION16
            )
            self.require(params16 == engine.params16, "engine parts: qam_to_tm differs")
            if cfg.csi == "calibrated":
                pilot_idx = [demap_indices(row) for row in engine.pilot.symbols]
                tx = engine.tx_symbols(pilot_idx[0], pilot_idx[1], cfg.fidelity)
                tr.call("receiver.estimate_channel", estimate_channel, engine.pilot, engine.g @ tx)
                self.counts["receiver.estimate_calls"] += 1
            if engine.table_b0 is None:
                return
            lut = tr.call("hardware.default_lut", default_lut)
            m = cfg.samples_per_symbol
            params0 = [params16[i] for i in range(16) for _ in range(16)]
            params1 = [params16[j] for _ in range(16) for j in range(16)]
            result = tr.call(
                "hardware.distort_reflection",
                distort_reflection,
                params0,
                params1,
                lut,
                engine.hw_active,
                m,
            )
            self.counts["hardware.control_path_samples"] += PAIRS * m
            self.counts["hardware.clipped_samples"] += result.clipped0 + result.clipped1
            probe = np.exp(1j * TWO_PI * np.arange(m) / m) / m
            for wave, table in ((result.wave0, engine.table_b0), (result.wave1, engine.table_b1)):
                self.require(
                    np.allclose((wave @ probe).reshape(16, 16), table, rtol=0, atol=1e-12),
                    "engine parts: distort_reflection pair table differs from LinkEngine's",
                )

    def _mark_pairs(self, used, sym0, sym1):
        if used is not None:
            used[sym0, sym1] = True

    def _close_pair_table(self, used):
        if used is not None:
            self.pair_tables += 1
            self.pairs_used += int(used.sum())

    # -- ber-sweep ------------------------------------------------------------

    def ber_sweep(self, command, reference):
        tr = self.tr
        with tr.span("command"):
            tr.call("cli.parse", build_parser().parse_args, [*command.argv, "--threads", "1"])
            cfg = tr.call("config.load", load_config, str(command.config))
            engine = tr.call("campaign.engine_init", LinkEngine, cfg)
            used = np.zeros((16, 16), bool) if engine.table_b0 is not None else None
            records = []
            for point, ebn0 in enumerate(cfg.ebn0_grid_db):
                with tr.span("campaign.run_point"):
                    records.append(self._point(engine, cfg, point, ebn0, used))
            result = CampaignResult(
                records=tuple(records),
                theoretical=tuple(float(theoretical_ber_16qam(x)) for x in cfg.ebn0_grid_db),
                config_hash=config_hash(cfg),
                seed=cfg.seed,
                version=__version__,
                throughput_bps=cfg.throughput_bps,
                wall_time_s=0.0,
            )
            out = self.workdir / f"replay-{command.out.name}"
            tr.call("campaign.write_csv", write_ber_csv, result, cfg, out, True)
        self._close_pair_table(used)
        self.engine_parts(engine, cfg)
        got = [(r.bit_errors, r.symbol_errors) for r in records]
        want = [(r.bit_errors, r.symbol_errors) for r in reference["records"]]
        self.require(got == want, f"{command.out.name}: replayed (bit, symbol) errors {got} != {want}")
        self.require(
            out.read_bytes() == reference["csv"],
            f"{command.out.name}: replayed CSV differs from the untraced CLI output",
        )

    def _point(self, engine, cfg, point, ebn0, used):
        tr = self.tr
        self.points += 1
        n_symbols = -(-cfg.bits_per_point // (STREAMS * BITS_PER_SYMBOL))
        noise_power = engine.noise_power(ebn0)
        if cfg.csi == "pilot":
            pilot_idx = [demap_indices(row) for row in engine.pilot.symbols]
            rng = _substream(cfg.seed, point, 0)
            tx = engine.tx_symbols(pilot_idx[0], pilot_idx[1], cfg.fidelity)
            noise = awgn(2 * engine.pilot.length, noise_power, rng).reshape(2, -1)
            ghat = tr.call("receiver.estimate_channel", estimate_channel, engine.pilot, engine.g @ tx + noise)
            self.counts["receiver.estimate_calls"] += 1
        else:
            ghat = engine.ghat_for_point(point, noise_power)
        identical = cfg.stream_relation == "identical"
        bit_errors = symbol_errors = 0
        for chunk, start in enumerate(range(0, n_symbols, CHUNK_SYMBOLS)):
            n = min(CHUNK_SYMBOLS, n_symbols - start)
            with tr.span("campaign.chunk"):
                rng, sym0, sym1 = tr.call("campaign.draw", _draw, cfg.seed, point, chunk, n, identical)
                rx0, rx1 = self.chunk_stages(
                    engine, cfg.fidelity, ghat, sym0, sym1, rng, noise_power, cfg.zf_condition_limit
                )
                bits, symbols = tr.call("campaign.popcount", _popcount, rx0, rx1, sym0, sym1)
            self._mark_pairs(used, sym0, sym1)
            bit_errors += bits
            symbol_errors += symbols
        bits_sent = STREAMS * BITS_PER_SYMBOL * n_symbols
        return BerRecord(
            ebn0_db=ebn0,
            bits_sent=bits_sent,
            bit_errors=bit_errors,
            symbol_errors=symbol_errors,
            ber=bit_errors / bits_sent,
            wilson_interval_halfwidth=float(wilson_interval_halfwidth(bit_errors, bits_sent)),
        )

    # -- file-loopback ----------------------------------------------------------

    def file_loopback(self, command, reference):
        tr = self.tr
        with tr.span("command"):
            tr.call("cli.parse", build_parser().parse_args, [*command.argv, "--threads", "1"])
            cfg = tr.call("config.load", load_config, str(command.config))
            with tr.span("campaign.loopback_io"):
                payload = command.payload.read_bytes()
            engine = tr.call("campaign.engine_init", LinkEngine, cfg)
            noise_power = engine.noise_power(cfg.loopback_ebn0_db)
            ghat = engine.ghat_for_point(0, noise_power)
            with tr.span("campaign.loopback_io"):
                idx = [
                    bits_to_symbol_indices(np.unpackbits(np.frombuffer(half, np.uint8)).astype(np.int64))
                    for half in (payload[0::2], payload[1::2])
                ]
                n0, n1 = len(idx[0]), len(idx[1])
                n_sym = max(n0, n1)
                sym0 = np.zeros(n_sym, dtype=np.int64)
                sym1 = np.zeros(n_sym, dtype=np.int64)
                sym0[:n0] = idx[0]
                sym1[:n1] = idx[1]
            rx0 = np.empty(n_sym, dtype=np.int64)
            rx1 = np.empty(n_sym, dtype=np.int64)
            used = np.zeros((16, 16), bool)
            self.points += 1
            for chunk, start in enumerate(range(0, n_sym, CHUNK_SYMBOLS)):
                stop = min(start + CHUNK_SYMBOLS, n_sym)
                with tr.span("campaign.chunk"):
                    rng = _substream(cfg.seed, 0, 1 + chunk)
                    rx0[start:stop], rx1[start:stop] = self.chunk_stages(
                        engine, "B", ghat, sym0[start:stop], sym1[start:stop], rng, noise_power,
                        cfg.zf_condition_limit,
                    )
                self._mark_pairs(used, sym0[start:stop], sym1[start:stop])
            bits, symbols = tr.call("campaign.popcount", _popcount, rx0[:n0], rx1[:n1], sym0[:n0], sym1[:n1])
            with tr.span("campaign.loopback_io"):
                out = bytearray(len(payload))
                for offset, rx, count in ((0, rx0, n0), (1, rx1, n1)):
                    packed = np.packbits(symbol_indices_to_bits(rx[:count]).astype(np.uint8))
                    out[offset::2] = packed.tobytes()
                path = self.workdir / f"replay-{command.out.name}"
                path.write_bytes(bytes(out))
        self._close_pair_table(used)
        self.engine_parts(engine, cfg)
        want = (reference["record"].bit_errors, reference["record"].symbol_errors)
        self.require((bits, symbols) == want, f"loopback: replayed (bit, symbol) errors {(bits, symbols)} != {want}")
        self.require(
            path.read_bytes() == command.out.read_bytes(),
            "loopback: replayed output differs from the untraced CLI output",
        )

    # -- oracle-check -----------------------------------------------------------

    def oracle_check(self, command, reference):
        tr = self.tr
        with tr.span("command"):
            tr.call("cli.parse", build_parser().parse_args, [*command.argv, "--threads", "1"])
            cfg = tr.call("config.load", load_config, str(command.config))
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0xAC, 0)))
            with tr.span("oracle.harmonic_suite"):
                harmonic = self._suite_harmonic(cfg, rng)
            with tr.span("oracle.parseval_suite"):
                parseval = self._suite_parseval(cfg, rng)
            with tr.span("oracle.model_identity_suite"):
                identity = self._suite_model_identity(cfg, rng)
        replayed = (
            (cfg.oracle.harmonic_cases, [f"{harmonic[0]:.3e}", f"{harmonic[1]:.3e}"]),
            (cfg.oracle.parseval_cases, [f"{parseval[0]:.9f}", f"{parseval[1]:.9f}"]),
            (cfg.oracle.model_identity_cases, [f"{identity:.3e}"]),
        )
        for suite, (cases, numbers) in zip(reference["report"].suites, replayed):
            self.require(
                suite.passed and suite.cases == cases and all(x in suite.detail for x in numbers),
                f"oracle {suite.name}: replay gave {cases} cases, {numbers}; untraced {suite}",
            )

    def _suite_harmonic(self, cfg, rng):
        tr = self.tr
        n = cfg.oracle.harmonic_cases
        ts = cfg.symbol_period_s
        delta_phis = rng.uniform(0.0, TWO_PI, n)
        delta_phis[delta_phis == 0.0] = TWO_PI
        shifts = rng.uniform(0.0, ts, n)
        order = np.array([-1.0])
        worst_amp = worst_phase = 0.0
        for dp, sh in zip(delta_phis, shifts):
            params = TmSymbolParams(delta_phi=dp, t_shift_s=sh, symbol_period_s=ts)
            cf = tr.call("modulation.harmonic_closed_form", harmonic_closed_form, params)
            ex = tr.call("modulation.exact_coefficients", exact_coefficients, params, order)[0]
            worst_amp = max(worst_amp, abs(cf.amplitude - abs(ex)))
            worst_phase = max(worst_phase, abs(float(wrap_phase(cf.phase - np.angle(ex)))))
        self.counts["oracle.cases"] += n
        return worst_amp, worst_phase

    def _suite_parseval(self, cfg, rng):
        tr = self.tr
        ts = cfg.symbol_period_s
        orders = np.arange(-200.0, 201.0)
        lo = hi = 1.0
        for _ in range(cfg.oracle.parseval_cases):
            dp = rng.uniform(0.0, TWO_PI)
            if dp == 0.0:
                dp = TWO_PI
            sh = rng.uniform(0.0, ts)
            params = TmSymbolParams(delta_phi=dp, t_shift_s=sh, symbol_period_s=ts)
            coeffs = tr.call("modulation.exact_coefficients", exact_coefficients, params, orders)
            total = float(np.sum(np.abs(coeffs) ** 2))
            lo = min(lo, total)
            hi = max(hi, total)
        self.counts["oracle.cases"] += cfg.oracle.parseval_cases
        return lo, hi

    def _suite_model_identity(self, cfg, rng):
        tr = self.tr
        worst = 0.0
        for _ in range(cfg.oracle.model_identity_cases):
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
            x = ReflectionVector(mags * np.exp(1j * phases))
            noise = rng.standard_normal(2 * k_rx) + 1j * rng.standard_normal(2 * k_rx)
            channels = ChannelSet(h1=h1, h2=h2, c=c, carrier_power_watts=power, k_rx=k_rx)
            e = tr.call("model.attenuation_from", attenuation_from, channels)
            full = tr.call("model.received_full", received_full, channels, x, noise)
            reduced = tr.call("model.received_reduced", received_reduced, channels, e, x, noise)
            worst = max(worst, float(np.max(np.abs(full.entries - reduced.entries))))
        self.counts["oracle.cases"] += cfg.oracle.model_identity_cases
        return worst


REPLAYS = {
    "ber-sweep": Replay.ber_sweep,
    "file-loopback": Replay.file_loopback,
    "oracle-check": Replay.oracle_check,
}


def _reference(workload, command, state, workdir) -> dict:
    """Untraced library run of ``command`` for the replay to match, and its wall time."""
    cfg = load_config(str(command.config))
    started = time.perf_counter()
    if workload.command_kind == "ber-sweep":
        ref = {"records": run_ber_sweep(cfg).records, "csv": state[("csv", command.out.name)]}
    elif workload.command_kind == "file-loopback":
        out = workdir / f"reference-{command.out.name}"
        ref = {"record": run_file_loopback(str(command.payload), str(out), cfg, force=True).record}
    else:
        ref = {"report": run_oracle_check(cfg)}
    ref["wall_s"] = time.perf_counter() - started
    return ref


def _p(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_traced(workload, commands, seconds: float, workdir: Path, spans_path: Path) -> Result:
    """Untraced reference runs, then traced replays for ``seconds``; per-layer metrics."""
    started = time.perf_counter()
    tally = Tally()
    state: dict = {}
    # Untraced CLI runs first: their outputs are the reference the replay must
    # reproduce, and the library runs below warm the process up.
    run_iteration(workload, commands, tally, state)
    if tally.failed:
        raise RuntimeError(f"{workload.name}: untraced reference run failed: {tally.failures[:3]}")
    references = [_reference(workload, c, state, workdir) for c in commands]

    # Each iteration: untraced at --threads 1 and 2, then one traced replay.
    tracer = Tracer(uuid.uuid4().hex)
    replay_fn = REPLAYS[workload.command_kind]
    walls: dict[int, list[float]] = {1: [], 2: []}
    replays = []
    while not replays or time.perf_counter() - started < seconds:
        for threads, samples in walls.items():
            outcomes = run_iteration(workload, commands, tally, state, threads)
            samples.append(sum(o.wall_s for o in outcomes))
        first = len(tracer.names)
        replay = Replay(tracer, workdir)
        with tracer.span("replay"):
            for command, reference in zip(commands, references):
                replay_fn(replay, command, reference)
        tally.attempted += 1
        tally.record(replay.problems)
        replays.append((tracer.durations(first), replay))
    tracer.dump(spans_path, {"workload": workload.name})
    wall1, wall2 = statistics.median(walls[1]), statistics.median(walls[2])

    per_replay = {
        name: _median([sum(d.get(name, [])) for d, _ in replays]) for name in TIMED_SPANS
    }
    metrics = {f"{name}_s": value for name, value in per_replay.items()}
    metrics["cli.overhead_s"] = _median([sum(d.get("cli.parse", [])) for d, _ in replays])
    chunks = [x for d, _ in replays for x in d.get("campaign.chunk", [])]
    points = [x for d, _ in replays for x in d.get("campaign.run_point", [])]
    metrics["campaign.chunk_s_p50"] = _p(chunks, 50)
    metrics["campaign.chunk_s_p90"] = _p(chunks, 90)
    metrics["campaign.run_point_s_p50"] = _p(points, 50)
    metrics["campaign.run_point_s_p90"] = _p(points, 90)

    last = replays[-1][1]
    for name in COUNTS:
        metrics[name] = float(last.counts[name])
    metrics["receiver.zf_cond_checks_per_point"] = (
        last.counts["receiver.zf_calls"] / last.points if last.points else 0.0
    )
    metrics["hardware.pair_table_used_fraction"] = (
        last.pairs_used / (PAIRS * last.pair_tables) if last.pair_tables else 0.0
    )

    stage_s = sum(per_replay[name] for name in CHUNK_STAGES) + per_replay["campaign.engine_init"]
    library_wall = sum(ref["wall_s"] for ref in references)
    metrics["campaign.loopback_residual_s"] = (
        library_wall - stage_s if workload.command_kind == "file-loopback" else 0.0
    )
    setup = per_replay["config.load"] + per_replay["campaign.engine_init"]
    metrics["campaign.thread_speedup_2"] = (wall1 - setup) / (wall2 - setup)
    traced_wall = _median([sum(d["command"]) for d, _ in replays])
    metrics["trace.overhead_frac"] = (traced_wall - wall1) / wall1

    bases = {
        "campaign.chunks": f"{last.counts['campaign.chunks']} chunks over {last.points} points, "
        f"at most {CHUNK_SYMBOLS} symbols each",
        "receiver.zf_cond_checks_per_point": f"{last.counts['receiver.zf_calls']} condition checks "
        f"/ {last.points} points; 1 per point is needed",
        "hardware.pair_table_used_fraction": f"{last.pairs_used} pairs used / "
        f"({PAIRS} x {last.pair_tables} pair tables)",
        "hardware.clipped_samples": f"{last.counts['hardware.clipped_samples']} rail clips in "
        f"{2 * last.counts['hardware.control_path_samples']} control-path samples "
        f"(both polarizations, {last.pair_tables} engines)",
        "campaign.thread_speedup_2": f"(wall at --threads 1 {wall1:.4f} s - setup {setup:.4f} s) / "
        f"(wall at --threads 2 {wall2:.4f} s - setup), medians of {len(walls[1])}",
        "trace.overhead_frac": f"(traced command wall {traced_wall:.4f} s - untraced "
        f"{wall1:.4f} s) / untraced, medians of {len(replays)}",
    }
    if workload.command_kind == "file-loopback":
        bases["campaign.loopback_residual_s"] = (
            f"run_file_loopback {library_wall:.4f} s - engine init and chunk stages {stage_s:.4f} s"
        )
    report = [f"  {len(replays)} traced replay(s); {len(tracer.names)} spans -> {spans_path.name}"]
    report += [f"  base of {name}: {text}" for name, text in bases.items()]
    if last.counts["oracle.cases"]:
        report.append(f"  oracle cases replayed per run: {last.counts['oracle.cases']}")
    details = {
        "replays": len(replays),
        "spans": len(tracer.names),
        "run_id": tracer.run_id,
        "untraced_wall_s": walls,
        "bases": bases,
    }
    return Result(metrics, tally.attempted, tally.failed, tally.failures, details, report, [1, 2])
