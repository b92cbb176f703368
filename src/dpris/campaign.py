"""Monte Carlo campaign orchestration: BER sweeps, self-checks, loopback.

Determinism contract: a campaign is a pure function of (config, seed).
Every grid point splits into fixed-size symbol chunks; chunk c of point p
draws from the substream SeedSequence(seed, spawn_key=(p, 1 + c)) and chunk
results are integer error counts, so the merge is exact and order-free and
the output is byte-identical at any worker-pool width.  Sweeps and file
loopback run the same chunk kernel (:meth:`LinkEngine.detect_chunk`) on the
same worker pool; loopback feeds it payload symbols instead of drawn ones.

Fidelity A runs the symbol-domain model (closed-form equivalent baseband
through the aggregate 2x2 stream channel).  Fidelity B runs the waveform
domain: every distinct pair of stream symbols is pushed through the full
control-path pipeline once per campaign, the single-bin correlator reduces
each pair to its received symbol, and chunks then index that table.  The
per-polarization stages (ramp phase, inverse curve, DAC) run once per
distinct symbol, 16 rows x M samples per polarization; the stages from the
voltage coupling on run once per pair, 256 rows x M samples, unless the
coupling factor is exactly 0, when they too run on the 16 rows.  The table
shortcut is exact because the channel and the correlator are linear; a test
pins it against the direct per-symbol waveform path.  Receiver noise enters
after the correlator with the correlator-output variance, which is
distributionally identical to per-sample noise at M times that power.
A channel or control path that leaves the float range (a non-finite G or
received symbol, a G whose mean row energy underflows to 0, or an overflow,
division by zero or invalid value on the way) is a :class:`ConfigError`,
never a table.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import time
from concurrent import futures
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .channel import (
    awgn,
    channel_set_from,
    effective_stream_channel,
    mean_row_energy,
    noise_power_for_ebn0,
)
from .config import (
    BITS_PER_SYMBOL,
    CampaignConfig,
    ConfigError,
    STREAMS,
    config_hash,
)
from .hardware import (
    HardwareConfig,
    PhaseVoltageLut,
    default_lut,
    distort_reflection,
    load_lut_csv,
    phase_to_voltage,
)
from .model import ChannelSet, Polarization, ReflectionVector, attenuation_from, received_full, received_reduced
from .modulation import (
    CONSTELLATION16,
    QAM16_SYMBOL_ENERGY,
    TWO_PI,
    TmSymbolParams,
    bytes_to_symbol_indices,
    closed_form_value,
    exact_coefficient_table,
    exact_coefficients,
    harmonic_closed_form,
    qam_to_tm_table,
    symbol_indices_to_bytes,
    waveform,
    wrap_phase,
)
from .receiver import (
    BerRecord,
    SingularChannelError,
    default_pilot_block,
    demap_indices,
    estimate_channel,
    extract_harmonic,
    slicer_demap_indices,
    theoretical_ber_16qam,
    wilson_interval_halfwidth,
    zf_matrix,
)

CHUNK_SYMBOLS = 16384
_POPCOUNT16 = np.array([bin(i).count("1") for i in range(16)], dtype=np.int64)

BER_CSV_COLUMNS = (
    "ebn0_db",
    "fidelity",
    "coupling_db",
    "stream_relation",
    "bits",
    "bit_errors",
    "ber",
    "ci_halfwidth",
    "theoretical_ber",
)


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _point_rng(seed: int, point_idx: int, chunk_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(point_idx, chunk_idx)))


def _map_chunks(job, n_chunks: int, threads: int) -> list:
    """[job(0), ..., job(n_chunks - 1)], on a pool of up to ``threads`` workers.

    A single chunk runs in the calling thread: a pool would only add its
    start-up cost.
    """
    workers = min(threads, n_chunks)
    if workers > 1:
        with futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(job, range(n_chunks)))
    return [job(c) for c in range(n_chunks)]


def _error_counts(rx0, rx1, sym0, sym1) -> tuple[int, int]:
    """(bit errors, symbol errors) of two detected streams against the sent ones."""
    bit_errors = int(_POPCOUNT16[rx0 ^ sym0].sum() + _POPCOUNT16[rx1 ^ sym1].sum())
    symbol_errors = int(np.count_nonzero(rx0 != sym0) + np.count_nonzero(rx1 != sym1))
    return bit_errors, symbol_errors


def _ber_record(ebn0_db: float, bits_sent: int, bit_errors: int, symbol_errors: int) -> BerRecord:
    return BerRecord(
        ebn0_db=ebn0_db,
        bits_sent=bits_sent,
        bit_errors=bit_errors,
        symbol_errors=symbol_errors,
        ber=bit_errors / bits_sent,
        wilson_interval_halfwidth=float(wilson_interval_halfwidth(bit_errors, bits_sent)),
    )


@dataclass(frozen=True)
class CampaignResult:
    records: tuple[BerRecord, ...]
    theoretical: tuple[float, ...]
    config_hash: str
    seed: int
    version: str
    throughput_bps: float
    wall_time_s: float


class PilotEstimateError(ValueError):
    """A grid point's noisy pilot estimate is too ill-conditioned to invert.

    With ``csi: pilot`` the estimate is redrawn at every grid point, so this
    is a random event of the pilot noise at that Eb/N0 while the configured
    channel itself is well-conditioned.
    """

    def __init__(self, ebn0_db: float, cause: SingularChannelError, channel_condition: float):
        super().__init__(
            f"noisy pilot estimate at Eb/N0 {ebn0_db:g} dB is ill-conditioned: {cause}, "
            f"while the configured channel's is {channel_condition:.3e}; "
            "this is a random event of the pilot noise at that point, not a bad channel "
            "(a longer pilot_length or a higher zf_condition_limit makes it rarer)"
        )


class _ChunkBuffers:
    """One thread's reusable arrays for chunks of up to :data:`CHUNK_SYMBOLS` symbols.

    ``work`` is reused down the chunk: pair-table indices, then normal
    draws, then G @ tx, then slicer scratch; ``tx`` holds the transmitted
    block, then s_hat.
    """

    def __init__(self):
        self.tx = np.empty(STREAMS * CHUNK_SYMBOLS, dtype=np.complex128)
        self.y = np.empty(STREAMS * CHUNK_SYMBOLS, dtype=np.complex128)
        self.work = np.empty(3 * STREAMS * CHUNK_SYMBOLS)


def _named_lut(config: CampaignConfig) -> PhaseVoltageLut | None:
    """The transfer curves ``config.lut_csv`` names, or None when it names none.

    Every command calls this, even where the curves go unused, so a bad path
    never passes silently: an unreadable file stays an OSError, and a
    malformed one is a :class:`ConfigError` on ``lut_csv``.  So is a curve
    on which :func:`phase_to_voltage` cannot realize both ends of [0, 2*pi):
    some ramp phase would have no bias voltage.
    """
    if not config.lut_csv:
        return None
    try:
        lut = load_lut_csv(config.lut_csv)
        for pol in Polarization:
            phase_to_voltage(np.array([0.0, np.nextafter(TWO_PI, 0.0)]), pol, lut)
    except ValueError as exc:
        raise ConfigError("lut_csv", str(exc)) from exc
    return lut


@contextlib.contextmanager
def _float_range_guard(path: str, what: str):
    """Turn a link build that leaves the float range into a :class:`ConfigError` on ``path``.

    The enclosed block runs with numpy's overflow, division-by-zero and
    invalid-value warnings raised as errors and passes its results through
    :func:`_finite`.  Input the link cannot carry through floats is bad
    input: a NaN or Inf there would only yield a made-up BER.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(path, f"{what} ({exc})") from exc


def _finite(values: np.ndarray) -> np.ndarray:
    """``values``, once every entry is finite; inside :func:`_float_range_guard`."""
    if not np.isfinite(values).all():
        raise FloatingPointError("a result is not finite")
    return values


class LinkEngine:
    """Precomputed link state shared by every chunk of a campaign.

    Each thread that runs chunks gets its own :class:`_ChunkBuffers`, so
    after a thread's first chunk the kernel allocates only its result.
    """

    def __init__(self, config: CampaignConfig):
        self.cfg = config
        self._local = threading.local()
        geometry = config.geometry
        if geometry.k_rx != 1:
            raise ConfigError("geometry.rx_positions_m", "BER campaigns drive the 2x2 link (one receive antenna per polarization)")
        with _float_range_guard(
            "geometry", "the channel leaves the float range with these distances and this carrier"
        ):
            self.channels = channel_set_from(geometry, config.channel, config.carrier_power_watts)
            self.e = attenuation_from(self.channels)
            self.g = _finite(
                effective_stream_channel(self.channels.h2, self.e, config.carrier_power_watts)
            )
            # The SNR reference scales every noise power by this energy: at 0
            # no Eb/N0 is realizable, so the geometry or carrier is at fault.
            row_energy = mean_row_energy(self.g)
            if not 0.0 < row_energy < math.inf:
                unscaled = effective_stream_channel(self.channels.h2, self.e)
                raise ConfigError(
                    "carrier_power_watts" if unscaled.any() else "geometry",
                    f"the channel's mean row energy {row_energy!r} is not a finite positive float, "
                    "so no Eb/N0 has a noise power",
                )
        self.pilot = default_pilot_block(config.pilot_length)

        # Per-constellation-point ramp parameters and closed-form symbols.
        self.params16 = qam_to_tm_table(CONSTELLATION16, config.symbol_period_s)
        self.table_a = closed_form_value(
            np.array([p.delta_phi for p in self.params16]),
            np.array([p.t_shift_s for p in self.params16]),
            config.symbol_period_s,
        )

        self.lut = _named_lut(config)
        self.hw_active: HardwareConfig | None = None
        self.table_b0 = self.table_b1 = None
        if config.fidelity == "B":
            self.hw_active = (
                config.hardware
                if config.coupling
                else replace(config.hardware, isolation_db=float("inf"))
            )
            if self.lut is None:
                self.lut = default_lut()
            # The control-path distortion of a symbol period depends only on
            # the two symbols driving the polarizations, so the 256 pairs
            # enumerate every waveform the campaign can produce.
            pairs = np.arange(256)
            with _float_range_guard(
                "lut_csv" if config.lut_csv else "hardware",
                "the control path leaves the float range with these transfer curves and hardware settings",
            ):
                tables = _finite(self.waveform_tx_symbols(pairs // 16, pairs % 16))
            self.table_b0, self.table_b1 = tables.reshape(2, 16, 16)

        # The pilot block as it arrives without noise, through the active fidelity.
        pilot_tx = self.tx_symbols(*map(demap_indices, self.pilot.symbols), config.fidelity)
        self._pilot_rx = self.g @ pilot_tx

    def _buffers(self) -> _ChunkBuffers:
        """This thread's chunk buffers, built at its first chunk: set-up alone allocates none."""
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = self._local.buffers = _ChunkBuffers()
        return buffers

    # -- transmitted equivalent symbols ------------------------------------

    def tx_symbols(
        self,
        sym0: np.ndarray,
        sym1: np.ndarray,
        fidelity: str,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Equivalent baseband symbols entering the channel, shape (2, n).

        Symbol indices are 4-bit values, 0..15.  ``out`` (complex128,
        C-contiguous, (2, n)) receives the symbols and ``scratch`` (int64,
        n entries) holds fidelity B's pair-table indices; each is allocated
        when omitted.
        """
        n = sym0.size
        if out is None:
            out = np.empty((STREAMS, n), dtype=np.complex128)
        # mode="clip" writes straight into out; "raise" would buffer a copy.
        if fidelity == "A":
            np.take(self.table_a, sym0, out=out[0], mode="clip")
            np.take(self.table_a, sym1, out=out[1], mode="clip")
            return out
        pair = np.multiply(sym0, 16, out=scratch)
        pair += sym1
        np.take(self.table_b0, pair, out=out[0], mode="clip")
        np.take(self.table_b1, pair, out=out[1], mode="clip")
        return out

    def waveform_tx_symbols(self, sym0: np.ndarray, sym1: np.ndarray) -> np.ndarray:
        """Received-equivalent symbols of each (sym0[i], sym1[i]) pair, shape (2, n),
        straight through the control path and the single-bin correlator.

        Fidelity B's pair tables are this route over all 256 pairs.
        """
        params0 = [self.params16[i] for i in sym0]
        params1 = [self.params16[j] for j in sym1]
        result = distort_reflection(
            params0, params1, self.lut, self.hw_active, self.cfg.samples_per_symbol
        )
        return np.stack(
            [extract_harmonic(result.wave0, order=-1), extract_harmonic(result.wave1, order=-1)]
        )

    # -- receiver state -----------------------------------------------------

    def ghat_for_point(self, point_idx: int, noise_power: float) -> np.ndarray:
        """The point's channel estimate: G itself, or LS on the received pilot
        block, noiseless (``calibrated``) or plus the point's AWGN (``pilot``)."""
        if self.cfg.csi == "perfect":
            return self.g
        rx = self._pilot_rx
        if self.cfg.csi == "pilot":
            rng = _point_rng(self.cfg.seed, point_idx, 0)
            rx = rx + awgn(2 * self.pilot.length, noise_power, rng).reshape(2, -1)
        return estimate_channel(self.pilot, rx)

    def zf_for_point(self, point_idx: int, ebn0_db: float, noise_power: float) -> np.ndarray:
        """The zero-forcing matrix every chunk of a grid point equalizes with.

        Raises :class:`PilotEstimateError` when only the point's noisy pilot
        estimate, not the configured channel, is too ill-conditioned.
        """
        limit = self.cfg.zf_condition_limit
        try:
            return zf_matrix(self.ghat_for_point(point_idx, noise_power), limit)
        except SingularChannelError as exc:
            channel_condition = float(np.linalg.cond(self.g))
            if self.cfg.csi != "pilot" or not channel_condition <= limit:
                raise
            raise PilotEstimateError(ebn0_db, exc, channel_condition) from exc

    # -- Monte Carlo --------------------------------------------------------

    def noise_power(self, ebn0_db: float) -> float:
        return noise_power_for_ebn0(self.g, ebn0_db, QAM16_SYMBOL_ENERGY, BITS_PER_SYMBOL)

    def _checked_noise_power(self, ebn0_db: float, path: str) -> float:
        """:meth:`noise_power`, or a :class:`ConfigError` on the config key
        ``path`` unless it is finite and positive.  An infinite Eb/N0, which
        only the Python API can pass, keeps its noiseless link."""
        try:
            noise_power = self.noise_power(ebn0_db)
        except OverflowError:  # 10^(Eb/N0 / 10) overflowed: the noise power rounds to 0
            noise_power = 0.0
        except ZeroDivisionError:  # 10^(Eb/N0 / 10) underflowed to 0
            noise_power = math.inf
        if not (0.0 < noise_power < math.inf or ebn0_db == math.inf):
            raise ConfigError(
                path,
                f"Eb/N0 {ebn0_db!r} dB needs a noise power of {noise_power!r} W, "
                f"which is not a finite positive float",
            )
        return noise_power

    def detect_chunk(
        self,
        sym0: np.ndarray,
        sym1: np.ndarray,
        rng: np.random.Generator,
        noise_power: float,
        w: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The chunk kernel: transmit both streams, add noise, equalize, slice.

        ``w`` is the point's zero-forcing matrix (:meth:`zf_for_point`); a
        chunk holds at most :data:`CHUNK_SYMBOLS` symbols.  Returns the
        detected symbol indices of each stream, in a fresh array.
        ``rng`` is the chunk's substream; only the AWGN draw consumes it here.
        The result is bit-identical to ``tx_symbols``, ``awgn``,
        ``g @ tx + noise``, ``zf_equalize`` and ``slicer_demap_indices`` of
        each stream called one after another.
        """
        n = sym0.size
        m = STREAMS * n
        buf = self._buffers()
        tx = self.tx_symbols(
            sym0,
            sym1,
            self.cfg.fidelity,
            out=buf.tx[:m].reshape(STREAMS, n),
            scratch=buf.work[:n].view(np.int64),
        )
        y = awgn(m, noise_power, rng, out=buf.y[:m], scratch=buf.work).reshape(STREAMS, n)
        # noise + G tx rounds exactly as G tx + noise: IEEE addition commutes.
        y += np.matmul(self.g, tx, out=buf.work.view(np.complex128)[:m].reshape(STREAMS, n))
        s_hat = np.matmul(w, y, out=tx)
        rx = slicer_demap_indices(s_hat, scratch=buf.work)
        return rx[:n], rx[n:]

    def run_points(self, ebn0_grid_db, n_bits: int, threads: int = 1) -> tuple[BerRecord, ...]:
        """One record per grid point, each from at least ``n_bits`` Monte Carlo bits.

        Every point's noise power and zero-forcing matrix are resolved first,
        in grid order, so a :class:`PilotEstimateError` comes before any
        chunk runs.  Then the chunks of all points share one worker pool.
        """
        n_symbols = -(-n_bits // (STREAMS * BITS_PER_SYMBOL))
        n_chunks = -(-n_symbols // CHUNK_SYMBOLS)
        noise_powers = [
            self._checked_noise_power(ebn0, f"ebn0_grid_db[{p}]") for p, ebn0 in enumerate(ebn0_grid_db)
        ]
        ws = [self.zf_for_point(p, ebn0, noise_powers[p]) for p, ebn0 in enumerate(ebn0_grid_db)]
        identical = self.cfg.stream_relation == "identical"

        def job(k):
            point_idx, chunk_idx = divmod(k, n_chunks)
            size = min(CHUNK_SYMBOLS, n_symbols - chunk_idx * CHUNK_SYMBOLS)
            rng = _point_rng(self.cfg.seed, point_idx, 1 + chunk_idx)
            sym0 = rng.integers(0, 16, size)
            sym1 = sym0 if identical else rng.integers(0, 16, size)
            rx0, rx1 = self.detect_chunk(sym0, sym1, rng, noise_powers[point_idx], ws[point_idx])
            return _error_counts(rx0, rx1, sym0, sym1)

        counts = _map_chunks(job, len(ws) * n_chunks, threads)
        records = []
        for p, ebn0 in enumerate(ebn0_grid_db):
            bit_errors, symbol_errors = map(sum, zip(*counts[p * n_chunks : (p + 1) * n_chunks]))
            records.append(
                _ber_record(ebn0, STREAMS * BITS_PER_SYMBOL * n_symbols, bit_errors, symbol_errors)
            )
        return tuple(records)


def run_ber_sweep(config: CampaignConfig, threads: int = 1) -> CampaignResult:
    """Run the configured Eb/N0 grid and return per-point records."""
    started = time.perf_counter()
    records = LinkEngine(config).run_points(config.ebn0_grid_db, config.bits_per_point, threads)
    theory = tuple(float(theoretical_ber_16qam(e)) for e in config.ebn0_grid_db)
    return CampaignResult(
        records=records,
        theoretical=theory,
        config_hash=config_hash(config),
        seed=config.seed,
        version=__version__,
        throughput_bps=config.throughput_bps,
        wall_time_s=time.perf_counter() - started,
    )


def _overwrite_refused(path) -> FileExistsError:
    return FileExistsError(f"refusing to overwrite {path} (pass --force to allow)")


def refuse_existing_output(path) -> None:
    """Raise the overwrite refusal at once if ``path`` exists.

    Lets a command fail before it spends a whole run on an output it may not
    write.  The write itself still refuses an existing name when it puts the
    file in place, so a file that appears after this check is not
    overwritten either.
    """
    if os.path.lexists(path):
        raise _overwrite_refused(path)


@contextlib.contextmanager
def _open_output(path, force: bool, binary: bool = False):
    """Write an output file atomically; without ``force`` an existing file is never touched.

    The body writes to a temporary file beside ``path``, which takes the
    final name only once the body has returned: by ``os.replace`` with
    ``force``, else by ``os.link``, which like exclusive creation checks and
    creates in one step, so a file that appeared meanwhile is not
    overwritten either.  A write that fails or is interrupted leaves no
    file, or the old one, and no temporary file.
    """
    if path is None:
        raise ValueError("output path required")
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb" if binary else "x", newline=None if binary else "") as fh:
            yield fh
        (os.replace if force else os.link)(tmp, path)
    except FileExistsError as exc:
        raise _overwrite_refused(path) from exc
    except OSError as exc:
        # Named after the output, not the temporary file.
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def write_ber_csv(result: CampaignResult, config: CampaignConfig, path, force: bool = False):
    """Deterministic CSV: header comments carry provenance, one row per point."""
    coupling_db = _fmt(config.hardware.isolation_db) if config.coupling else "inf"
    with _open_output(path, force) as fh:
        fh.write(f"# config_hash={result.config_hash}\n")
        fh.write(f"# seed={result.seed}\n")
        fh.write(f"# version={result.version}\n")
        fh.write(f"# throughput_bps={_fmt(result.throughput_bps)}\n")
        fh.write(",".join(BER_CSV_COLUMNS) + "\n")
        for record, theory in zip(result.records, result.theoretical):
            fh.write(
                ",".join(
                    (
                        _fmt(record.ebn0_db),
                        config.fidelity,
                        coupling_db,
                        config.stream_relation,
                        str(record.bits_sent),
                        str(record.bit_errors),
                        _fmt(record.ber),
                        _fmt(record.wilson_interval_halfwidth),
                        _fmt(theory),
                    )
                )
                + "\n"
            )


def ebn0_at_ber(grid_db, bers, bits_per_point: int, target: float = 1e-4) -> float:
    """Log-linear interpolation of the Eb/N0 where a BER curve crosses target.

    Scans for the first bracketing pair; a zero-error point is floored at
    half an error for the interpolation.  Returns +inf when the curve never
    reaches the target inside the grid (an error floor above target).
    """
    grid = np.asarray(grid_db, dtype=float)
    vals = np.asarray(bers, dtype=float)
    floor = 0.5 / bits_per_point
    for i in range(len(grid) - 1):
        hi, lo = vals[i], vals[i + 1]
        if hi >= target > lo:
            lo = max(lo, floor)
            span = np.log10(hi) - np.log10(lo)
            if span <= 0:
                return float(grid[i + 1])
            frac = (np.log10(hi) - np.log10(target)) / span
            return float(grid[i] + frac * (grid[i + 1] - grid[i]))
    if vals.min() <= target:
        return float(grid[np.argmax(vals <= target)])
    return float("inf")


def theory_crossing(target: float = 1e-4) -> float:
    """Eb/N0 where the exact Gray 16-QAM AWGN curve reaches the target BER."""
    grid = np.linspace(0.0, 20.0, 2001)
    vals = theoretical_ber_16qam(grid)
    return float(np.interp(np.log10(target), np.log10(vals[::-1]), grid[::-1]))


@dataclass(frozen=True)
class PenaltyReport:
    """Placement of the coupled BER curves against the AWGN reference."""

    theory_crossing_db: float
    crossing_independent_db: float
    crossing_identical_db: float
    penalty_independent_db: float
    penalty_identical_db: float
    result_independent: CampaignResult
    result_identical: CampaignResult


def coupling_penalty_report(config: CampaignConfig, threads: int = 1) -> PenaltyReport:
    """Run coupled sweeps for both stream relations and measure SNR penalties.

    The penalty is the extra Eb/N0 the coupled link needs to reach BER 1e-4
    relative to the theoretical curve.  With synthetic default transfer
    curves only the ordering (independent worse than identical, both
    positive) is meaningful; the quantitative numbers are emitted for
    inspection.
    """
    base = replace(config, fidelity="B", coupling=True)
    res = {}
    crossings = {}
    for relation in ("independent", "identical"):
        cfg = replace(base, stream_relation=relation)
        result = run_ber_sweep(cfg, threads)
        res[relation] = result
        crossings[relation] = ebn0_at_ber(
            cfg.ebn0_grid_db, [r.ber for r in result.records], cfg.bits_per_point
        )
    ref = theory_crossing()
    return PenaltyReport(
        theory_crossing_db=ref,
        crossing_independent_db=crossings["independent"],
        crossing_identical_db=crossings["identical"],
        penalty_independent_db=crossings["independent"] - ref,
        penalty_identical_db=crossings["identical"] - ref,
        result_independent=res["independent"],
        result_identical=res["identical"],
    )


# -- oracle self-checks ------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    passed: bool
    detail: str


@dataclass(frozen=True)
class OracleReport:
    suites: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(s.passed for s in self.suites)


# Cases per vectorized block of the harmonic and Parseval suites.  32 keeps
# a Parseval block's 32 x 401 coefficient table near 200 kB; 256-case blocks
# ran no faster and raised oracle-check's peak RSS from about 57 to 65 MiB.
ORACLE_BLOCK = 32


def _amplitudes(values: np.ndarray) -> np.ndarray:
    """|v| of each entry through Python's ``abs(complex)``, the value
    :attr:`HarmonicCoefficient.amplitude` gives; ``np.abs`` can differ by
    one ulp, which would move the printed worst error."""
    return np.array([abs(v) for v in values.tolist()])


def _suite_harmonic(cfg: CampaignConfig, rng, closed_form_fn) -> SuiteResult:
    n = cfg.oracle.harmonic_cases
    ts = cfg.symbol_period_s
    delta_phis = rng.uniform(0.0, TWO_PI, n)
    delta_phis[delta_phis == 0.0] = TWO_PI
    shifts = rng.uniform(0.0, ts, n)
    worst_amp = worst_phase = 0.0
    for start in range(0, n, ORACLE_BLOCK):
        dp = delta_phis[start : start + ORACLE_BLOCK]
        sh = shifts[start : start + ORACLE_BLOCK]
        cf = closed_form_fn(dp, sh, ts)
        cf_amp = _amplitudes(cf)
        too_large = cf_amp[cf_amp > 1.0 + 1e-9]  # the HarmonicCoefficient bound
        if too_large.size:
            raise ValueError(f"harmonic amplitude {too_large[0]} exceeds 1")
        ex = exact_coefficient_table(dp, sh, ts, [-1.0])[:, 0]
        amp_err = np.abs(cf_amp - _amplitudes(ex))
        phase_err = np.abs(wrap_phase(wrap_phase(np.angle(cf)) - np.angle(ex)))
        worst_amp = float(np.max(amp_err, initial=worst_amp))
        worst_phase = float(np.max(phase_err, initial=worst_phase))
    passed = worst_amp <= 1e-9 and worst_phase <= 1e-9
    return SuiteResult(
        name="harmonic_closed_form_vs_exact",
        cases=n,
        passed=passed,
        detail=f"max amplitude err {worst_amp:.3e}, max phase err {worst_phase:.3e} (tol 1e-9)",
    )


# Lower bound for the ±200-harmonic energy window.  The exact worst-case
# out-of-window tail of the ramp waveform is sin^2(delta_phi/2) * sum over
# |k| > 200 of 1/(delta_phi/2 + pi k)^2, which peaks at 1.011e-3 near
# delta_phi = pi, so a window sum as low as 1 - 1.02e-3 is correct behavior,
# not an oracle failure.
PARSEVAL_WINDOW_LOW = 1.0 - 1.02e-3
PARSEVAL_WINDOW_HIGH = 1.0 + 1e-6


def _suite_parseval(cfg: CampaignConfig, rng) -> SuiteResult:
    n = cfg.oracle.parseval_cases
    ts = cfg.symbol_period_s
    orders = np.arange(-200.0, 201.0)
    lo = hi = 1.0
    for start in range(0, n, ORACLE_BLOCK):
        # One (delta_phi, shift) pair per case, drawn case after case.
        draws = rng.uniform((0.0, 0.0), (TWO_PI, ts), (min(ORACLE_BLOCK, n - start), 2))
        delta_phis = np.where(draws[:, 0] == 0.0, TWO_PI, draws[:, 0])
        table = exact_coefficient_table(delta_phis, draws[:, 1], ts, orders)
        totals = np.sum(np.abs(table) ** 2, axis=1)
        lo = float(np.min(totals, initial=lo))
        hi = float(np.max(totals, initial=hi))
    passed = lo >= PARSEVAL_WINDOW_LOW and hi <= PARSEVAL_WINDOW_HIGH
    return SuiteResult(
        name="parseval_window_energy",
        cases=n,
        passed=passed,
        detail=(
            f"window sum in [{lo:.9f}, {hi:.9f}] "
            f"(bounds [{PARSEVAL_WINDOW_LOW:.9f}, {PARSEVAL_WINDOW_HIGH:.9f}])"
        ),
    )


def _suite_model_identity(cfg: CampaignConfig, rng, reduced_fn) -> SuiteResult:
    n = cfg.oracle.model_identity_cases
    worst = 0.0
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
        x = ReflectionVector(mags * np.exp(1j * phases))
        noise = rng.standard_normal(2 * k_rx) + 1j * rng.standard_normal(2 * k_rx)
        channels = ChannelSet(h1=h1, h2=h2, c=c, carrier_power_watts=power, k_rx=k_rx)
        e = attenuation_from(channels)
        full = received_full(channels, x, noise)
        reduced = reduced_fn(channels, e, x, noise)
        worst = max(worst, float(np.max(np.abs(full.entries - reduced.entries))))
    passed = worst <= 1e-12
    return SuiteResult(
        name="model_identity_full_vs_reduced",
        cases=n,
        passed=passed,
        detail=f"max |full - reduced| = {worst:.3e} (tol 1e-12)",
    )


def run_oracle_check(
    config: CampaignConfig,
    closed_form_fn=closed_form_value,
    reduced_fn=received_reduced,
) -> OracleReport:
    """Run the three oracle suites; implementations are injectable so a
    deliberately corrupted build can be shown to fail.

    ``closed_form_fn(delta_phi, t_shift_s, symbol_period_s)`` takes arrays
    of cases, as :func:`closed_form_value` does.  The harmonic and Parseval
    suites evaluate their cases in blocks of :data:`ORACLE_BLOCK`; the model
    identity suite runs case by case through the public received-signal
    forms."""
    _named_lut(config)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0xAC, 0)))
    suites = (
        _suite_harmonic(config, rng, closed_form_fn),
        _suite_parseval(config, rng),
        _suite_model_identity(config, rng, reduced_fn),
    )
    return OracleReport(suites=suites)


# -- file loopback -----------------------------------------------------------


@dataclass(frozen=True)
class LoopbackResult:
    bytes_in: int
    bytes_out: int
    record: BerRecord | None


def run_file_loopback(
    input_path, output_path, config: CampaignConfig, threads: int = 1, force: bool = False
) -> LoopbackResult:
    """Split a file into two byte-interleaved streams, transmit at fidelity
    B, reassemble, and report the payload BER."""
    try:
        with open(input_path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {input_path}: {exc}") from exc

    engine = LinkEngine(replace(config, fidelity="B"))
    noise_power = engine._checked_noise_power(config.loopback_ebn0_db, "loopback_ebn0_db")
    if len(payload) == 0:
        with _open_output(output_path, force, binary=True):
            pass
        return LoopbackResult(bytes_in=0, bytes_out=0, record=None)

    w = engine.zf_for_point(0, config.loopback_ebn0_db, noise_power)
    data = np.frombuffer(payload, dtype=np.uint8)
    out = np.empty(data.size, dtype=np.uint8)

    def job(chunk_idx):
        # Chunk c carries payload bytes [c, c + 1) * CHUNK_SYMBOLS: stream q
        # takes bytes q, q + 2, ... of the block, and stream 1 is zero-padded
        # to the length of stream 0 (one byte shorter on an odd last block).
        part = slice(chunk_idx * CHUNK_SYMBOLS, (chunk_idx + 1) * CHUNK_SYMBOLS)
        block = data[part]
        sym0 = bytes_to_symbol_indices(block[0::2])
        sym1 = np.zeros_like(sym0)
        n1 = 2 * (block.size // 2)
        sym1[:n1] = bytes_to_symbol_indices(block[1::2])
        rng = _point_rng(config.seed, 0, 1 + chunk_idx)
        rx0, rx1 = engine.detect_chunk(sym0, sym1, rng, noise_power, w)
        received = out[part]
        received[0::2] = symbol_indices_to_bytes(rx0)
        received[1::2] = symbol_indices_to_bytes(rx1[:n1])
        return (*_error_counts(rx0, rx1[:n1], sym0, sym1[:n1]), sym0.size + n1)

    counts = _map_chunks(job, -(-data.size // CHUNK_SYMBOLS), threads)
    bit_errors, symbol_errors, symbols = map(sum, zip(*counts))
    with _open_output(output_path, force, binary=True) as fh:
        fh.write(out)

    record = _ber_record(
        config.loopback_ebn0_db, BITS_PER_SYMBOL * symbols, bit_errors, symbol_errors
    )
    return LoopbackResult(bytes_in=len(payload), bytes_out=out.size, record=record)


# -- waveform export -----------------------------------------------------------


@dataclass(frozen=True)
class WaveformExport:
    params: TmSymbolParams
    samples: np.ndarray
    orders: np.ndarray
    coefficients: np.ndarray
    closed_form_minus1: complex
    window_energy: float


def export_waveform(config: CampaignConfig, out_path, force: bool = False) -> WaveformExport:
    """Write the sampled ramp waveform as CSV and return its harmonic table."""
    _named_lut(config)
    wcfg = config.waveform_export
    ts = config.symbol_period_s
    params = TmSymbolParams(
        delta_phi=wcfg.delta_phi_rad,
        t_shift_s=wcfg.t_shift_fraction * ts,
        symbol_period_s=ts,
    )
    samples = waveform(params, wcfg.samples)
    orders = np.arange(-float(wcfg.harmonic_span), wcfg.harmonic_span + 1.0)
    coeffs = exact_coefficients(params, orders)
    with _open_output(out_path, force) as fh:
        fh.write(f"# config_hash={config_hash(config)}\n")
        fh.write(f"# seed={config.seed}\n")
        fh.write(f"# version={__version__}\n")
        fh.write("sample_index,t_seconds,re,im\n")
        dt = ts / wcfg.samples
        for i, value in enumerate(samples):
            fh.write(f"{i},{_fmt(i * dt)},{_fmt(value.real)},{_fmt(value.imag)}\n")
    return WaveformExport(
        params=params,
        samples=samples,
        orders=orders,
        coefficients=coeffs,
        closed_form_minus1=harmonic_closed_form(params).value,
        window_energy=float(np.sum(np.abs(coeffs) ** 2)),
    )
