"""Receive-side processing: harmonic extraction, estimation, detection, BER.

The data rides on the first lower harmonic of the symbol clock, so the
symbol statistic is a single-bin discrete correlator over one symbol period.
Stream separation is plain zero forcing on a least-squares channel estimate
(the simplest detector consistent with an unspecified receiver chain), and
bit decisions are nearest-point demapping on the Gray 16-QAM table.

BER bookkeeping uses Wilson 95% intervals, which stay honest at the low
error counts typical of the high-SNR end of a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modulation import CONSTELLATION16, QAM16_SCALE, TWO_PI

WILSON_Z = 1.959963984540054  # two-sided 95%

# Orthogonal pilot construction: stream 0 cycles the four unit-amplitude
# corner points, stream 1 is the same sequence with alternating sign (a sign
# flip maps a corner onto the opposite corner, so pilots stay valid
# constellation points).  Equal magnitudes + balanced signs => orthogonal rows.
_PILOT_CORNER_INDICES = (10, 2, 0, 8)


class SingularChannelError(ValueError):
    """Estimated channel too ill-conditioned to invert for stream separation."""

    def __init__(self, condition: float, limit: float):
        super().__init__(
            f"channel estimate condition number {condition:.3e} exceeds limit {limit:.3e}"
        )
        self.condition = condition
        self.limit = limit


@dataclass(frozen=True)
class PilotBlock:
    """Known 2 x L pilot symbol matrix with full row rank."""

    symbols: np.ndarray

    def __post_init__(self):
        s = np.array(self.symbols, dtype=np.complex128)
        if s.ndim != 2 or s.shape[0] != 2 or s.shape[1] < 2:
            raise ValueError(f"pilot matrix must be 2 x L with L >= 2, got {s.shape}")
        gram = s @ s.conj().T
        if np.linalg.matrix_rank(gram) < 2:
            raise ValueError("pilot matrix is rank deficient")
        s.setflags(write=False)
        object.__setattr__(self, "symbols", s)

    @property
    def length(self) -> int:
        return self.symbols.shape[1]


def default_pilot_block(length: int) -> PilotBlock:
    """Corner-cycling Walsh pilots of ``length`` symbols; see module notes on orthogonality."""
    if length < 2 or length % 2 != 0:
        raise ValueError("pilot length must be an even number >= 2")
    idx0 = np.array([_PILOT_CORNER_INDICES[k % 4] for k in range(length)])
    signs = np.where(np.arange(length) % 2 == 0, 1.0, -1.0)
    s0 = CONSTELLATION16[idx0]
    return PilotBlock(symbols=np.stack([s0, s0 * signs]))


@dataclass(frozen=True)
class BerRecord:
    """Per-operating-point Monte Carlo tally."""

    ebn0_db: float
    bits_sent: int
    bit_errors: int
    symbol_errors: int
    ber: float
    wilson_interval_halfwidth: float


def wilson_interval_halfwidth(errors: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = WILSON_Z
    p = errors / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * np.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def extract_harmonic(rx_waveform) -> complex | np.ndarray:
    """Single-bin correlator at the data-bearing order -1, over one symbol period of M samples.

    That is (1/M) * sum rx[m] * e^{+j2*pi*m/M}; the estimate converges to
    the exact Fourier coefficient as O(1/M).
    ``rx_waveform`` may be one period or a (n, M) block of periods.  The
    probe carries the 1/M, the rounding order the fidelity-B pair tables
    are pinned to.
    """
    rx = np.asarray(rx_waveform, dtype=np.complex128)
    m = rx.shape[-1]
    if m < 2:
        raise ValueError("waveform must span at least 2 samples")
    probe = np.exp(1j * TWO_PI * np.arange(m) / m) / m
    return rx @ probe


def estimate_channel(pilot: PilotBlock, observations) -> np.ndarray:
    """Least-squares 2x2 channel estimate minimizing ||Y - G S||_F."""
    y = np.asarray(observations, dtype=np.complex128)
    if y.shape != pilot.symbols.shape:
        raise ValueError(
            f"observations shape {y.shape} must match pilot shape {pilot.symbols.shape}"
        )
    s = pilot.symbols
    gram = s @ s.conj().T
    return y @ s.conj().T @ np.linalg.inv(gram)


def zf_matrix(g_hat, condition_limit: float) -> np.ndarray:
    """Zero-forcing matrix G_hat^{-1}.

    Raises :class:`SingularChannelError` when the estimate's condition number
    exceeds ``condition_limit``: too close to singular to resolve the streams.
    """
    g = np.asarray(g_hat, dtype=np.complex128)
    if g.shape != (2, 2):
        raise ValueError(f"g_hat must be 2x2, got {g.shape}")
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > condition_limit:
        raise SingularChannelError(float(cond), condition_limit)
    return np.linalg.inv(g)


def mix2(m, x, out=None, scratch=None) -> np.ndarray:
    """The 2x2 product m @ x, row by row on numpy's complex ufuncs.

    ``x`` is a 2-vector or a (2, n) block.  Output row i is
    ``m[i, 0] * x[0] + m[i, 1] * x[1]``: two scalar-times-vector multiplies
    and an add, with no BLAS call, so no thread pool starts under a caller's
    own workers.  ``out`` (complex128, the shape of ``x``) receives the
    product and ``scratch`` (complex128, n entries) holds a row's second
    term; each is allocated when omitted.  ``out`` must not alias ``x``:
    row 0 is written before row 1 reads ``x``.
    """
    m = np.asarray(m, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if m.shape != (2, 2) or x.ndim not in (1, 2) or x.shape[0] != 2:
        raise ValueError(
            f"mix2 takes a 2x2 matrix and a 2-vector or (2, n) block, got {m.shape} and {x.shape}"
        )
    if out is None:
        out = np.empty(x.shape, dtype=np.complex128)
    if scratch is None:
        scratch = np.empty(x.shape[1:], dtype=np.complex128)
    # [i, ...] keeps a 2-vector's row a 0-d view that ufuncs can write into.
    x0, x1 = x[0, ...], x[1, ...]
    for i in range(2):
        row = np.multiply(m[i, 0], x0, out=out[i, ...])
        row += np.multiply(m[i, 1], x1, out=scratch)
    return out


def zf_equalize(g_hat, y, condition_limit: float) -> np.ndarray:
    """Zero-forcing stream separation: s_hat = G_hat^{-1} y, through :func:`mix2`.

    ``y`` may be a 2-vector or a (2, n) block of symbols.  Raises
    :class:`SingularChannelError` as :func:`zf_matrix` does.
    """
    return mix2(zf_matrix(g_hat, condition_limit), y)


def demap_indices(points) -> np.ndarray:
    """Nearest-point demapping onto CONSTELLATION16 (argmin keeps the lowest-index tie)."""
    pts = np.asarray(points, dtype=np.complex128).reshape(-1)
    d = np.abs(pts[:, None] - CONSTELLATION16[None, :])
    return np.argmin(d, axis=1)


def slicer_demap_indices(points, scratch=None) -> np.ndarray:
    """Per-dimension threshold demapper for the Gray 16-QAM table.

    Equivalent to :func:`demap_indices` on the square grid (checked by
    test), and O(n) instead of O(16 n) for big Monte Carlo blocks.  Returns
    a fresh int64 index per point; ``scratch`` (float64, at least three
    entries per point) holds the intermediates and is allocated when omitted.
    """
    pts = np.ascontiguousarray(points, dtype=np.complex128).reshape(-1)
    n = pts.size
    out = np.empty(n, dtype=np.int64)
    if scratch is None:
        scratch = np.empty(3 * n)
    # Row k of x is (re, im) of point k over QAM16_SCALE.  Per dimension the
    # Gray bit pair is (x > 0, |x| < 2): (b0, b1) for re, (b2, b3) for im.
    x = np.divide(pts.view(np.float64), QAM16_SCALE, out=scratch[: 2 * n]).reshape(n, 2)
    flags = scratch[2 * n : 3 * n].view(np.bool_)  # 8 bytes per point, 4 used
    positive = np.greater(x, 0.0, out=flags[: 2 * n].reshape(n, 2))
    inner = np.less(np.abs(x, out=x), 2.0, out=flags[2 * n : 4 * n].reshape(n, 2))
    code = positive.view(np.uint8)  # 2-bit Gray code per dimension
    code <<= 1
    code |= inner.view(np.uint8)
    out[...] = code[:, 0]
    out <<= 2
    out |= code[:, 1]
    return out


def theoretical_ber_16qam(ebn0_db) -> float | np.ndarray:
    """Exact Gray-coded 16-QAM bit error probability in AWGN.

    Assembled from the per-bit threshold-crossing terms of the two Gray
    4-PAM dimensions (not the nearest-neighbor approximation):

        Pb = (1/4) * [3 Q(a) + 2 Q(3a) - Q(5a)],  a = sqrt(0.8 * Eb/N0)

    Each Eb/N0 runs on Python floats, so an array entry equals its per-point call.
    """

    def pb(ebn0: float) -> float:
        try:
            a = math.sqrt(0.8 * 10.0 ** (ebn0 / 10.0))
        except OverflowError:  # Eb/N0 past about 3,083 dB, where the curve is 0
            return 0.0
        q1, q3, q5 = (0.5 * math.erfc(k * a / math.sqrt(2.0)) for k in (1.0, 3.0, 5.0))
        return 0.25 * (3.0 * q1 + 2.0 * q3 - q5)

    values = np.asarray(ebn0_db, dtype=float)
    out = np.array([pb(x) for x in values.ravel().tolist()]).reshape(values.shape)
    return float(out) if out.ndim == 0 else out
