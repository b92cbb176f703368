"""Monte Carlo campaign orchestration: BER sweeps, self-checks, loopback.

Determinism contract: a campaign is a pure function of (config, seed).
Every grid point splits into fixed-size symbol chunks; chunk c of point p
draws from the substream SeedSequence(seed, spawn_key=(p, 1 + c)) and chunk
results are integer error counts, so the merge is exact and order-free and
the output is byte-identical at any worker-pool width.  Sweeps and file
loopback run the same chunk kernel (:meth:`LinkEngine.detect_chunk`) on the
same worker pool; loopback feeds it payload symbols instead of drawn ones.

Every received sample is one of at most 256 noiseless points plus noise:
the channel G applied to the equivalent symbols T of the pair (sym0, sym1)
driving the two polarizations.  Each :class:`LinkEngine` resolves
fidelity, coupling and stream relation once, into one (2, 256) table T
indexed by the pair code 16 * sym0 + sym1, and the chunk kernel adds noise
to a lookup of G·T.  Fidelity A fills T from the closed-form equivalent
baseband of each stream.  Fidelity B pushes pairs through the full
control-path pipeline once per engine, and the single-bin correlator
reduces each to its received symbol.  When the coupling factor is exactly
0, each polarization depends on its own symbol alone, so the engine runs
the 16 pairs (s, s) and fills T from each polarization's 16 symbols.  A
coupled engine runs the pairs a campaign sends: all 256 for independent
streams; for identical streams the 16 pairs (s, s) and the pilot's, which
adds (2, 8) and (8, 2) once it has four or more symbols, so it builds 18
pairs.  The chunk kernel and ``tx_symbols`` refuse a pair the engine does
not hold (a ValueError); only ``table_b0``/``table_b1`` rebuild it.  The
per-polarization stages (ramp phase, inverse curve, DAC) run once per
distinct symbol, 16 rows x M samples per polarization; the stages from the
voltage coupling on run once per pair.  The table shortcut is exact
because the channel and the correlator are linear; tests pin it against
the direct per-symbol waveform path.
Receiver noise enters after the correlator with the correlator-output
variance, which is distributionally identical to per-sample noise at M
times that power.
A channel or control path that leaves the float range (a non-finite G or
received symbol, a G whose mean row energy underflows to 0, or an overflow,
division by zero or invalid value on the way) is a :class:`ConfigError`,
never a table.
"""

from __future__ import annotations

import collections
import contextlib
import errno
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
    coupling_factor,
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
    estimate_channel,
    extract_harmonic,
    mix2,
    slicer_demap_indices,
    theoretical_ber_16qam,
    wilson_interval_halfwidth,
    zf_matrix,
)

CHUNK_SYMBOLS = 16384
# Chunks per worker that _map_chunks submits ahead of the caller: enough to
# keep every worker busy, few enough that memory does not grow with the run.
_CHUNKS_PER_WORKER = 4
# Pair code 16 * sym0 + sym1 -> (sym0, sym1), as rows of a (2, 256) array.
_PAIR_SYMBOLS = np.stack(np.divmod(np.arange(256), 16))
_SAME_PAIRS = 17 * np.arange(16)  # the codes of the pairs (s, s)
_ALL_PAIRS = np.ones(256, dtype=bool)
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


def _map_chunks(job, n_chunks: int, threads: int):
    """Yield job(0), ..., job(n_chunks - 1) in order, on a pool of up to ``threads`` workers.

    At most ``_CHUNKS_PER_WORKER`` chunks per worker are submitted and not
    yet yielded, so memory does not grow with ``n_chunks``; an exception in
    a chunk cancels the chunks not yet started.  A single chunk runs in the
    calling thread: a pool would only add its start-up cost.
    """
    workers = min(threads, n_chunks)
    if workers <= 1:
        yield from map(job, range(n_chunks))
        return
    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque()
        try:
            for c in range(n_chunks):
                pending.append(pool.submit(job, c))
                if len(pending) == _CHUNKS_PER_WORKER * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


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

    ``work`` is reused down the chunk: normal draws with the pair codes past
    them, then the ZF mixing scratch, then slicer scratch; ``s_hat`` holds
    the noiseless received block read from the pair table, then s_hat.

    Kept per thread, because allocating them per chunk is slow: the freed
    blocks go back to the system between chunks, so every chunk faults its
    pages in afresh.  On 2 vCPUs (numpy 2.4, glibc), the sweep-a config (7
    points of 8M bits, one thread) took 0.66-0.72 s with the buffers built
    per chunk, against 0.46 s, at 536 minor page faults per chunk against 1.
    A test pins it: after a thread's first chunk, :meth:`LinkEngine.detect_chunk`
    allocates little beyond its result.
    """

    def __init__(self):
        self.s_hat = np.empty(STREAMS * CHUNK_SYMBOLS, dtype=np.complex128)
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
            channels = channel_set_from(geometry, config.channel, config.carrier_power_watts)
            e = attenuation_from(channels)
            self.g = _finite(effective_stream_channel(channels.h2, e, config.carrier_power_watts))
            # The SNR reference scales every noise power by this energy: at 0
            # no Eb/N0 is realizable, so the geometry or carrier is at fault.
            row_energy = mean_row_energy(self.g)
            if not 0.0 < row_energy < math.inf:
                unscaled = effective_stream_channel(channels.h2, e)
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
        self._sent = _ALL_PAIRS
        pilot0, pilot1 = slicer_demap_indices(self.pilot.symbols).reshape(STREAMS, -1)
        pilot_codes = 16 * pilot0 + pilot1
        if config.fidelity == "B":
            self.hw_active = (
                config.hardware
                if config.coupling
                else replace(config.hardware, isolation_db=float("inf"))
            )
            if self.lut is None:
                self.lut = default_lut()
            # The control-path distortion of a symbol period depends only on
            # the two symbols driving the polarizations.  Uncoupled, each
            # polarization depends on its own symbol alone, so the 16 pairs
            # (s, s) hold every received symbol.  Coupled, the pairs a run
            # sends enumerate every waveform it can produce: all 256 for
            # independent streams; for identical ones the 16 pairs (s, s)
            # and the pilot's.
            if coupling_factor(self.hw_active.isolation_db) == 0.0:
                rows = self.waveform_tx_symbols(np.arange(16), np.arange(16))
                tx = np.take_along_axis(rows, _PAIR_SYMBOLS, axis=1)
            else:
                if config.stream_relation == "identical":
                    self._sent = np.zeros(256, dtype=bool)
                    self._sent[_SAME_PAIRS] = True
                    self._sent[pilot_codes] = True
                tx = np.zeros((STREAMS, 256), dtype=np.complex128)
                tx[:, self._sent] = self.waveform_tx_symbols(*_PAIR_SYMBOLS[:, self._sent])
        else:
            tx = self.table_a[_PAIR_SYMBOLS]
        self._tx, self._rx = tx, mix2(self.g, tx)
        # The pilot block as it arrives without noise, through the active fidelity.
        self._pilot_rx = self.g @ tx[:, pilot_codes]

    def _buffers(self) -> _ChunkBuffers:
        """This thread's chunk buffers, built at its first chunk: set-up alone allocates none."""
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = self._local.buffers = _ChunkBuffers()
        return buffers

    # -- transmitted equivalent symbols ------------------------------------

    @property
    def table_b0(self) -> np.ndarray | None:
        """Fidelity B's received symbol of polarization 0 for each pair, [sym0, sym1]; None at fidelity A."""
        return None if self.hw_active is None else self._full_tx()[0].reshape(16, 16)

    @property
    def table_b1(self) -> np.ndarray | None:
        """Fidelity B's received symbol of polarization 1 for each pair, [sym0, sym1]; None at fidelity A."""
        return None if self.hw_active is None else self._full_tx()[1].reshape(16, 16)

    def _full_tx(self) -> np.ndarray:
        """The whole table T; computed afresh, not stored, where the engine holds only the pairs it sends."""
        return self._tx if self._sent.all() else self.waveform_tx_symbols(*_PAIR_SYMBOLS)

    def _check_held(self, code: np.ndarray) -> None:
        """A ValueError unless the engine holds every pair code in ``code``: the held-pair rule."""
        if not self._sent.all() and not self._sent[code].all():
            raise ValueError("a coupled identical-stream engine holds only the pairs (s, s) and the pilot's")

    def tx_symbols(self, sym0: np.ndarray, sym1: np.ndarray, fidelity: str) -> np.ndarray:
        """Equivalent baseband symbols entering the channel, shape (2, n).

        Symbol indices are 4-bit values, 0..15.  Fidelity A reads the
        closed-form symbols on any engine; fidelity B reads the engine's
        pair table by the code 16 * sym0 + sym1, the table whose G-product
        the chunk kernel reads.  Like the kernel, it refuses a pair the engine
        does not hold with a ValueError; only ``table_b0``/``table_b1`` rebuild it.
        """
        if fidelity == "A":
            return np.take(self.table_a, np.stack((sym0, sym1)), mode="clip")
        if self.hw_active is None:
            raise ValueError("a fidelity-A engine has no fidelity-B symbols")
        code = np.multiply(sym0, 16) + sym1
        self._check_held(code)
        return np.take(self._tx, code, axis=1, mode="clip")

    def waveform_tx_symbols(self, sym0: np.ndarray, sym1: np.ndarray) -> np.ndarray:
        """Received-equivalent symbols of each (sym0[i], sym1[i]) pair, shape (2, n),
        straight through the control path and the single-bin correlator.

        Fidelity B's tables are this route over the pairs a run sends.  A
        control path that leaves the float range is a :class:`ConfigError`
        on ``lut_csv`` or ``hardware``.
        """
        params0 = [self.params16[i] for i in sym0]
        params1 = [self.params16[j] for j in sym1]
        with _float_range_guard(
            "lut_csv" if self.cfg.lut_csv else "hardware",
            "the control path leaves the float range with these transfer curves and hardware settings",
        ):
            result = distort_reflection(params0, params1, self.lut, self.hw_active, self.cfg.samples_per_symbol)
            return _finite(np.stack([extract_harmonic(w, order=-1) for w in (result.wave0, result.wave1)]))

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
        ``path`` unless it is finite and positive.  An Eb/N0 of +inf, which
        only the Python API can pass, keeps its noiseless link."""
        noise_power = self.noise_power(ebn0_db)
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
        """The chunk kernel: look up both streams' received block, add noise, equalize, slice.

        ``w`` is the point's zero-forcing matrix (:meth:`zf_for_point`); a
        chunk holds at most :data:`CHUNK_SYMBOLS` symbols.  Returns the
        detected symbol indices of each stream, in a fresh array.
        ``rng`` is the chunk's substream; only the AWGN draw consumes it here.
        The noiseless received block is one lookup of the engine's pair
        table G·T by the code 16 * sym0 + sym1, whatever the fidelity,
        coupling or stream relation; a pair the engine does not hold is a
        ValueError.  The ZF product runs through
        :func:`~dpris.receiver.mix2`, so the worker pool is the only source
        of threads.  The detected indices equal those of ``tx_symbols``,
        ``awgn``, ``g @ tx + noise``, ``zf_equalize`` and
        ``slicer_demap_indices`` of each stream called one after another.
        """
        n = sym0.size
        m = STREAMS * n
        buf = self._buffers()
        code = np.multiply(sym0, 16, out=buf.work[2 * m : 2 * m + n].view(np.int64))
        code += sym1
        self._check_held(code)
        y = awgn(m, noise_power, rng, out=buf.y[:m], scratch=buf.work).reshape(STREAMS, n)
        s_hat = buf.s_hat[:m].reshape(STREAMS, n)
        # mode="clip" writes straight into out; "raise" would buffer a copy.
        # noise + G tx rounds exactly as G tx + noise: IEEE addition commutes.
        y += np.take(self._rx, code, axis=1, out=s_hat, mode="clip")
        mix2(w, y, out=s_hat, scratch=buf.work.view(np.complex128)[:n])
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

        bit_errors = [0] * len(ws)
        symbol_errors = [0] * len(ws)
        for k, (bits, symbols) in enumerate(_map_chunks(job, len(ws) * n_chunks, threads)):
            bit_errors[k // n_chunks] += bits
            symbol_errors[k // n_chunks] += symbols
        return tuple(
            _ber_record(ebn0, STREAMS * BITS_PER_SYMBOL * n_symbols, bits, symbols)
            for ebn0, bits, symbols in zip(ebn0_grid_db, bit_errors, symbol_errors)
        )


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


def check_output(path, force: bool) -> None:
    """Raise at once the error the write of ``path`` would meet, so no run is spent on it.

    An empty ``path``; a missing directory or one that is a file; a ``path``
    that is a directory, even with ``force``; without ``force``, any existing
    ``path``.  A symlink is not followed: a forced write replaces the link.
    """
    head = os.path.dirname(path) or (os.curdir if path else "")
    if not os.path.isdir(head):
        code = errno.ENOTDIR if os.path.lexists(head) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    if os.path.isdir(path) and not os.path.islink(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.lexists(path) and not force:
        raise _overwrite_refused(path)


# The errors of os.link on a filesystem without hard links.
_NO_HARD_LINKS = {errno.EPERM, errno.ENOTSUP, errno.EOPNOTSUPP}


def _link_new(tmp: str, path: str) -> None:
    """Give the file ``tmp`` the new name ``path``; an existing ``path`` raises FileExistsError.

    Without hard links, the name is claimed by exclusive creation and the
    finished file renamed over the empty claim.
    """
    try:
        os.link(tmp, path)
    except OSError as exc:
        if exc.errno not in _NO_HARD_LINKS:
            raise
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666))
        try:
            os.replace(tmp, path)
        except OSError:
            os.unlink(path)  # the empty claim
            raise


@contextlib.contextmanager
def _open_output(path, force: bool, binary: bool = False):
    """Write an output file atomically; without ``force`` an existing file is never touched.

    The body writes to a temporary file beside ``path``, which takes the
    final name only once the body has returned: by ``os.replace`` with
    ``force``, else by :func:`_link_new`, which like exclusive creation
    checks and creates in one step, so a file that appeared meanwhile is not
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
        (os.replace if force else _link_new)(tmp, path)
    except FileExistsError as exc:
        raise _overwrite_refused(path) from exc
    except OSError as exc:
        # Named after the output, not the temporary file.
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def write_ber_csv(result: CampaignResult, config: CampaignConfig, path, force: bool = False):
    """Deterministic CSV: header comments carry provenance, one row per point.

    ``ci_halfwidth`` covers the Monte Carlo noise only; under ``csi: pilot``
    a row is conditional on the point's one seeded channel estimate.
    """
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


def _complex(parts: np.ndarray) -> np.ndarray:
    """Complex vector from its real parts followed by its imaginary parts."""
    half = parts.size // 2
    z = np.empty(half, dtype=np.complex128)
    z.real = parts[:half]
    z.imag = parts[half:]
    return z


def _suite_model_identity(cfg: CampaignConfig, rng, reduced_fn) -> SuiteResult:
    """Full vs reduced received-signal form on random instances, case by
    case through the public types and forms.

    A case takes 5 RNG calls and reads the stream exactly as 13 smaller
    calls would, because a draw of n values consumes the generator as
    consecutive draws of their parts do: N, K, then one normal draw for the
    real and then imaginary parts of H1, H2 and c, one uniform draw for P,
    the reflection magnitudes and the phases, and one normal draw for the
    noise.  The uniforms are scaled as ``Generator.uniform`` scales them,
    low + (high - low) * u with no fused multiply-add.  A test pins every
    drawn value and the final generator state against the 13-call loop.
    """
    n = cfg.oracle.model_identity_cases
    worst = 0.0
    for _ in range(n):
        n_cells = int(rng.integers(1, 65))
        k_rx = int(rng.integers(1, 5))
        m, r = 2 * n_cells, 2 * k_rx
        normals = rng.standard_normal(4 * m + 2 * r * m + 4)
        h1 = _complex(normals[: 4 * m]).reshape(m, 2)
        h2 = _complex(normals[4 * m : -4]).reshape(r, m)
        c = _complex(normals[-4:])
        c = c / np.linalg.norm(c)
        uniforms = rng.random(1 + 2 * m)
        power = 0.1 + (10.0 - 0.1) * float(uniforms[0])
        x = ReflectionVector(uniforms[1 : m + 1] * np.exp(TWO_PI * 1j * uniforms[m + 1 :]))
        noise = _complex(rng.standard_normal(2 * r))
        channels = ChannelSet(h1=h1, h2=h2, c=c, carrier_power_watts=power, k_rx=k_rx)
        e = attenuation_from(channels)
        full = received_full(channels, x, noise)
        reduced = reduced_fn(channels, e, x, noise)
        diffs = np.abs(full.entries - reduced.entries).tolist()
        # max skips a NaN that is not its first argument; a sum carries it.
        worst = math.nan if math.isnan(sum(diffs)) else max(worst, *diffs)
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

    # The two payload streams differ, so the engine builds all 256 pairs up front.
    engine = LinkEngine(replace(config, fidelity="B", stream_relation="independent"))
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

    totals = (0, 0, 0)
    for counts in _map_chunks(job, -(-data.size // CHUNK_SYMBOLS), threads):
        totals = tuple(map(sum, zip(totals, counts)))
    bit_errors, symbol_errors, symbols = totals
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
