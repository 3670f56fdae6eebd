"""Waveform synthesis and the reported metrics: PAPR, cubic metric, peak
cross-correlation and CCDF curves.  The module reports; certifying a
correlation budget is the set search's work (:mod:`csinterlace.setsearch`).

Synthesis applies an unnormalized inverse DFT, i.e. the time samples are
the frequency-domain polynomial evaluated on a dense unit-circle grid.  It
has one path, :func:`_waveforms`, a few rows of a stack of spectra per
inverse FFT; :func:`synthesize` is its one-row case.
The peak cross-correlation has one path, :func:`xcorr_matrix`: it
evaluates the products of the unordered pairs i < j only, a few rows at a
time on a grid F times coarser, sums directly on the full grid only where
Bernstein's bound (shared with the set search's certificate) lets the peak
lie, and mirrors the peaks.
"""

from __future__ import annotations

import numpy as np

_SYNTH_ENTRIES = 1 << 14  # dense entries per synthesis batch, but one row at least


def _idft_points(n_idft: int, grid_size: int) -> int:
    """``n_idft`` as an int; ``ValueError`` unless it is a power of two covering the grid."""
    n_idft = int(n_idft)
    if n_idft < grid_size or n_idft & (n_idft - 1):
        raise ValueError("n_idft must cover the spectrum grid and be a power of two")
    return n_idft


def _waveforms(indices: np.ndarray, rows: np.ndarray, grid_size: int, n_idft: int):
    """Yield :func:`synthesize` of each row of values on the ``indices`` of a ``grid_size``
    grid, one inverse FFT per batch: 4 rows at 4096 points (more only add memory), 1 at 2**14."""
    n_idft = _idft_points(n_idft, grid_size)
    step = max(1, _SYNTH_ENTRIES // n_idft)
    for start in range(0, len(rows), step):
        waves = np.zeros((min(step, len(rows) - start), n_idft), dtype=complex)
        waves[:, indices] = rows[start:start + step]
        waves = np.fft.ifft(waves, norm="forward")  # times n_idft, exact at a power of two
        yield from waves


def synthesize(spectrum, n_idft: int) -> np.ndarray:
    """Oversampled OFDM symbol for a :class:`~csinterlace.interlace.SparseSpectrum`.

    Places the entries on an ``n_idft``-point grid and applies the
    unnormalized inverse DFT, so sample t equals the spectrum polynomial
    evaluated at exp(2j*pi*t/n_idft).  ``n_idft`` must be a power of two
    at least as large as the grid.  Returns the complex time samples.
    """
    return next(_waveforms(spectrum.indices, spectrum.values[None], spectrum.grid_size, n_idft))


def _samples(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("waveform must be a nonempty 1-D array")
    return samples


def papr_db(samples) -> float:
    """Peak-to-average power ratio in dB of the time samples."""
    power = np.abs(_samples(samples)) ** 2
    mean = float(np.mean(power))
    if mean == 0.0:
        raise ValueError("all-zero waveform has no PAPR")
    return float(10.0 * np.log10(float(np.max(power)) / mean))


def cm_db(samples) -> float:
    """Cubic metric in dB of the time samples: 20*log10(rms(|v|^3))/1.56
    after normalizing to unit mean power.  Invariant to positive scaling."""
    magnitude = np.abs(_samples(samples))
    mean = float(np.mean(magnitude**2))
    if mean == 0.0:
        raise ValueError("all-zero waveform has no cubic metric")
    v_norm = magnitude / np.sqrt(mean)
    rms_cubed = np.sqrt(np.mean(v_norm**6))
    return float(20.0 * np.log10(rms_cubed) / 1.56)


_XCORR_CHUNK_ROWS = 8  # fine-grid rows per chunk; larger batches only add memory


def _bernstein_slack(degree: int, points: int) -> float:
    """Bernstein's r: between two of ``points`` equispaced samples, a nonnegative trig polynomial
    q of ``degree`` exceeds the larger sample by at most r * max q, as |q''| <= degree**2 max q."""
    return (np.pi * degree / points) ** 2 / 2.0


def xcorr_matrix(members, n_idft: int = 4096) -> np.ndarray:
    """Symmetric matrix of peak cross-correlations over a dense cyclic-shift
    grid, with a zero diagonal.

    ``members`` stacks K equal-length sequences, shaped (K, N), or K block
    matrices, shaped (K, blocks, N), which are compared block by block with
    the worst block kept.  Entry (i, j) is the maximum modulus of the
    zero-padded unnormalized inverse DFT of ``members[i] * conj(members[j])``
    divided by N; only the pairs i < j are evaluated, and (j, i) mirrors them.

    The peak is found coarse to fine: an inverse FFT at ``n_idft / F``
    points, then direct sums at the grid points inside each coarse interval
    whose Bernstein bound (:func:`_bernstein_slack`) passes the pair's
    coarse peak.  A chunk holds whole pairs of at most ``F *``
    :data:`_XCORR_CHUNK_ROWS` coarse rows (one pair if it has more blocks),
    and no array outgrows ``_XCORR_CHUNK_ROWS`` rows of ``n_idft`` points.
    """
    stack = np.asarray(members, dtype=complex)
    if stack.ndim == 2:
        stack = stack[:, None, :]
    if stack.ndim != 3 or stack.shape[-1] == 0:
        raise ValueError("members must stack as (K, N) or (K, blocks, N), N >= 1")
    if not np.all(np.isfinite(stack)):
        raise ValueError("members contain non-finite values")
    n_idft = int(n_idft)
    k, blocks, n = stack.shape
    if n_idft < n:
        raise ValueError("n_idft must be at least the sequence length")
    # F: the largest of 8, 4, 2 dividing n_idft whose coarse grid keeps r <= 1/32
    factor = next((f for f in (8, 4, 2) if n_idft % f == 0
                   and _bernstein_slack(n - 1, n_idft // f) <= 1 / 32), 1)
    points = n_idft // factor
    slack = _bernstein_slack(n - 1, points) if factor > 1 else 0.0  # F = 1: none to refine
    inner = np.exp(2j * np.pi / n_idft * np.outer(np.arange(n), np.arange(1, factor)))
    group = _XCORR_CHUNK_ROWS * n_idft // n  # refined intervals summed at once
    per_chunk = max(1, factor * _XCORR_CHUNK_ROWS // blocks)
    row_starts = np.arange(k) * (2 * k - 1 - np.arange(k)) // 2  # pair index of each (i, i + 1)
    rho = np.zeros((k, k))
    for start in range(0, k * (k - 1) // 2, per_chunk):  # the pairs i < j in row order
        pair = np.arange(start, min(start + per_chunk, k * (k - 1) // 2))
        first = np.searchsorted(row_starts, pair, side="right") - 1
        second = pair - row_starts[first] + first + 1
        products = (stack[first] * np.conj(stack[second])).reshape(-1, n)
        moduli = np.abs(np.fft.ifft(products, points, norm="forward"))
        by_pair = moduli.max(axis=1).reshape(-1, blocks)
        # refine interval i (samples i, i + 1) if end**2 + r/(1-r) * row max**2 > pair max**2
        level = np.sqrt(by_pair.max(axis=1, keepdims=True) ** 2 - slack / (1 - slack) * by_pair**2)
        above = moduli > level.reshape(-1, 1)
        row, interval = np.divmod(np.flatnonzero(above | np.roll(above, -1, axis=1)), points)
        for lo in range(0, row.size, group):
            at, phase = row[lo:lo + group], np.outer(interval[lo:lo + group], np.arange(n)) % points
            fine = np.einsum("rn,nf->rf", products[at] * np.exp(2j * np.pi / points * phase), inner)
            np.maximum.at(by_pair, np.divmod(at, blocks), np.abs(fine).max(axis=1))
        rho[first, second] = rho[second, first] = by_pair.max(axis=1) / n
    return rho


def ccdf(values, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Empirical exceedance curve of ``values``: the sorted thresholds and
    P(value > threshold) at each."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one value")
    thr = np.sort(np.asarray(thresholds, dtype=float))
    prob = np.array([(values > t).mean() for t in thr])
    return thr, prob
