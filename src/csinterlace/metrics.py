"""Waveform synthesis and the evaluation metrics: PAPR, cubic metric,
peak cross-correlation, fractional-shift cross-correlation, CCDF curves.

Synthesis applies an unnormalized inverse DFT, i.e. the time samples are
the frequency-domain polynomial evaluated on a dense unit-circle grid.
Cross-correlation comes in two deliberately independent flavours: the
FFT grid peak used for reporting, and an explicit inner-product sweep over
a fractional shift grid used by the set search; the two agree analytically
and the tests hold them against each other.  The FFT grid peak has one
path, :func:`xcorr_matrix`: it transforms the products of the unordered
pairs i < j only, a few rows per inverse FFT so that the batch stays
small, and mirrors them into the symmetric matrix; :func:`peak_xcorr` is
its one-pair form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .interlace import SparseSpectrum
from .seqcore import as_sequence


@dataclass(frozen=True, eq=False)
class Waveform:
    """Time-domain samples of one OFDM symbol."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("waveform must be a nonempty 1-D array")
        object.__setattr__(self, "samples", samples)

    @property
    def mean_power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))

    @property
    def peak_power(self) -> float:
        return float(np.max(np.abs(self.samples) ** 2))


def synthesize(spectrum: SparseSpectrum, n_idft: int) -> Waveform:
    """Oversampled OFDM symbol for a sparse spectrum.

    Places the entries on an ``n_idft``-point grid and applies the
    unnormalized inverse DFT, so sample t equals the spectrum polynomial
    evaluated at exp(2j*pi*t/n_idft).  ``n_idft`` must be a power of two
    at least as large as the grid.
    """
    n_idft = int(n_idft)
    if n_idft < spectrum.grid_size:
        raise ValueError("n_idft must cover the spectrum grid")
    if n_idft & (n_idft - 1):
        raise ValueError("n_idft must be a power of two")
    dense = np.zeros(n_idft, dtype=complex)
    dense[spectrum.indices] = spectrum.values
    return Waveform(np.fft.ifft(dense) * n_idft)


def papr_db(waveform: Waveform) -> float:
    """Peak-to-average power ratio in dB."""
    mean = waveform.mean_power
    if mean == 0.0:
        raise ValueError("all-zero waveform has no PAPR")
    return float(10.0 * np.log10(waveform.peak_power / mean))


def cm_db(waveform: Waveform) -> float:
    """Cubic metric in dB: 20*log10(rms(|v|^3))/1.56 after normalizing the
    waveform to unit mean power.  Invariant to positive scaling."""
    mean = waveform.mean_power
    if mean == 0.0:
        raise ValueError("all-zero waveform has no cubic metric")
    v_norm = np.abs(waveform.samples) / np.sqrt(mean)
    rms_cubed = np.sqrt(np.mean(v_norm**6))
    return float(20.0 * np.log10(rms_cubed) / 1.56)


_XCORR_CHUNK_ROWS = 8  # product rows per inverse FFT; larger batches only add memory


def _grid_peaks(stack: np.ndarray, first: np.ndarray, second: np.ndarray,
                n_idft: int) -> np.ndarray:
    """Peak cross-correlation of the member pairs ``(first[p], second[p])``.

    ``stack`` is (K, blocks, N).  Each pair's products are transformed row
    by row and its worst row is kept, in chunks of whole pairs holding at
    most :data:`_XCORR_CHUNK_ROWS` rows (one pair if it has more blocks).
    """
    n_idft = int(n_idft)
    _, blocks, n = stack.shape
    if n_idft < n:
        raise ValueError("n_idft must be at least the sequence length")
    per_chunk = max(1, _XCORR_CHUNK_ROWS // blocks)
    peaks = np.empty(first.size)
    for start in range(0, first.size, per_chunk):
        rows = slice(start, start + per_chunk)
        products = stack[first[rows]] * np.conj(stack[second[rows]])
        transform = np.fft.ifft(products, n_idft) * n_idft
        peaks[rows] = np.abs(transform).reshape(products.shape[0], -1).max(axis=1) / n
    return peaks


def xcorr_matrix(members, n_idft: int = 4096) -> np.ndarray:
    """Symmetric matrix of peak cross-correlations over a dense cyclic-shift
    grid, with a zero diagonal.

    ``members`` stacks K equal-length sequences, shaped (K, N), or K block
    matrices, shaped (K, blocks, N), which are compared block by block with
    the worst block kept.  Entry (i, j) is the maximum modulus of the
    zero-padded unnormalized inverse DFT of ``members[i] * conj(members[j])``
    divided by N.  Only the pairs i < j are transformed; entry (j, i)
    mirrors (i, j), whose modulus it equals up to rounding.
    """
    stack = np.asarray(members, dtype=complex)
    if stack.ndim == 2:
        stack = stack[:, None, :]
    if stack.ndim != 3 or stack.shape[-1] == 0:
        raise ValueError("members must stack as (K, N) or (K, blocks, N), N >= 1")
    if not np.all(np.isfinite(stack)):
        raise ValueError("members contain non-finite values")
    first, second = np.triu_indices(stack.shape[0], 1)
    rho = np.zeros((stack.shape[0], stack.shape[0]))
    rho[first, second] = _grid_peaks(stack, first, second, n_idft)
    rho[second, first] = rho[first, second]
    return rho


def peak_xcorr(x_i, x_j, n_idft: int = 4096) -> float:
    """Peak cross-correlation of one pair over a dense cyclic-shift grid:
    the one-pair form of :func:`xcorr_matrix`."""
    a = as_sequence(x_i)
    b = as_sequence(x_j)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    stack = np.stack([a, b])[:, None, :]
    return float(_grid_peaks(stack, np.array([0]), np.array([1]), n_idft)[0])


@lru_cache(maxsize=32)
def shift_matrix(n: int, u: int) -> np.ndarray:
    """Phasor table exp(2j*pi*n*delta/N) for delta = 0, 1/u, ..., (N*u-1)/u.

    Row t applies the fractional shift t/u; cached because the set search
    reuses one geometry for every candidate test.
    """
    deltas = np.arange(n * u) / float(u)
    return np.exp(2j * np.pi * np.outer(deltas, np.arange(n)) / n)


def fractional_xcorr_max(c_i, c_j, u: int) -> float:
    """Largest normalized inner product between ``c_i`` and all fractional
    cyclic modulations of ``c_j`` on the grid with ``u`` points per shift.

    Evaluated by explicit inner products (not an FFT) so it stays an
    independent check of :func:`peak_xcorr`.
    """
    a = as_sequence(c_i)
    b = as_sequence(c_j)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    u = int(u)
    if u < 1:
        raise ValueError("shift grid density must be >= 1")
    products = shift_matrix(a.size, u) @ (np.conj(a) * b)
    return float(np.max(np.abs(products)) / a.size)


@dataclass(frozen=True, eq=False)
class CcdfCurve:
    """Complementary CDF samples: P(value > threshold) per threshold."""

    thresholds: np.ndarray
    exceed_prob: np.ndarray

    def __post_init__(self):
        thr = np.asarray(self.thresholds, dtype=float)
        prob = np.asarray(self.exceed_prob, dtype=float)
        if thr.shape != prob.shape or thr.ndim != 1:
            raise ValueError("thresholds and probabilities must match 1-D shapes")
        if np.any(np.diff(thr) < 0):
            raise ValueError("thresholds must be nondecreasing")
        if np.any((prob < 0) | (prob > 1)):
            raise ValueError("probabilities must lie in [0, 1]")
        if np.any(np.diff(prob) > 0):
            raise ValueError("exceed probabilities must be nonincreasing")
        object.__setattr__(self, "thresholds", thr)
        object.__setattr__(self, "exceed_prob", prob)


def ccdf(values, thresholds) -> CcdfCurve:
    """Empirical exceedance curve of ``values`` over sorted thresholds."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one value")
    thr = np.sort(np.asarray(thresholds, dtype=float))
    prob = np.array([(values > t).mean() for t in thr])
    return CcdfCurve(thr, prob)
