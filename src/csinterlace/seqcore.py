"""Core sequence algebra: quaternary symbol strings, validation of outside
input (:func:`as_sequence`), the complementarity test, sequences read from
JSON, and private kernels on validated arrays (autocorrelation, modulation).

Quaternary sequences over {+1, -1, +1j, -1j} are kept in complex128 arrays.
All their products and autocorrelation sums are small Gaussian integers,
which complex128 represents exactly, so :func:`is_gcp` certifies such
input by exact cancellation; float input (phase-rotated or modulated
constructions) must cancel to within 1e-9, as must the block matrices of an
interlace construction, folded at the block spacing (``_folded_apac_sums``).
"""

from __future__ import annotations

from itertools import chain, count

import numpy as np

QUATERNARY_SYMBOLS = "+-ij"
QUATERNARY_VALUES = np.array([1.0, -1.0, 1.0j, -1.0j], dtype=complex)

_SYMBOL_TO_VALUE = dict(zip(QUATERNARY_SYMBOLS, QUATERNARY_VALUES))

_TOL = 1e-9  # far above the rounding of float autocorrelation sums


def parse_quaternary(text: str) -> np.ndarray:
    """Parse a symbol string like ``"+-ij"`` into a complex sequence."""
    if not isinstance(text, str):
        raise TypeError(f"expected a symbol string, got {type(text).__name__}")
    if not text:
        raise ValueError("empty sequence string")
    try:
        return np.array([_SYMBOL_TO_VALUE[ch] for ch in text], dtype=complex)
    except KeyError as exc:
        raise ValueError(f"invalid quaternary symbol {exc.args[0]!r}") from None


def format_quaternary(seq) -> str:
    """Format a quaternary-valued sequence back into its symbol string."""
    seq = as_sequence(seq)
    matches = np.isclose(QUATERNARY_VALUES, seq[:, None])  # tolerance relative to the element
    missing = np.flatnonzero(~matches.any(axis=1))
    if missing.size:
        raise ValueError(f"element {seq[missing[0]]} is not a quaternary symbol")
    return "".join(QUATERNARY_SYMBOLS[k] for k in np.argmax(matches, axis=1))


def as_sequence(a) -> np.ndarray:
    """Coerce to a nonempty 1-D complex array with finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"sequence must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("sequence must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sequence contains non-finite values")
    return arr


def _apac(arr: np.ndarray) -> np.ndarray:
    # Aperiodic autocorrelation sum(conj(a[n]) * a[n + k]), lags 0 .. N-1.
    return np.correlate(arr, arr, "full")[arr.size - 1:]


def _smooth_size(n: int) -> int:
    # The least 5-smooth integer >= n: it divides 30**k for k above its exponents.
    return next(m for m in count(n) if pow(30, m.bit_length(), m) == 0)


def _apac_sum_fft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Summed autocorrelations, lags 0 .. N-1, by one stacked FFT at a 5-smooth length >= 2N - 1.
    n = a.size
    spectra = np.fft.fft(np.stack([a, b]), _smooth_size(2 * n - 1))
    return np.fft.ifft(np.sum(np.abs(spectra) ** 2, axis=0))[:n]


def _folded_apac_sums(pairs: np.ndarray, spacing: int) -> np.ndarray:
    """Summed aperiodic autocorrelations, lags 1 .. N-1, of the pairs of sequences that
    ``pairs`` (2, rows, blocks, width) holds by blocks, block q at q * spacing >= q * width:
    entry (dq, dt) of a block matrix's 2-D autocorrelation, by one 2-D FFT at 5-smooth
    sizes, falls on lag dq * spacing + dt, shared by two only if spacing < 2 * width - 1."""
    rows, blocks, width = pairs.shape[1:]
    sizes = [_smooth_size(2 * k - 1) for k in (blocks, width)]
    corr = np.fft.ifft2(np.sum(np.abs(np.fft.fft2(pairs, sizes)) ** 2, axis=0))
    dt = np.arange(1 - width, width)  # negative tone lags index from the end
    at = np.arange(blocks)[:, None] * spacing + dt + width - 1  # lag + width - 1
    sums = np.zeros((rows, at[-1, -1] + 1), dtype=complex)
    np.add.at(sums, (slice(None), at), corr[:, :blocks, dt])
    return sums[:, width:]


def is_gcp(a, b) -> bool:
    """True iff the autocorrelations of ``a`` and ``b`` cancel at every
    nonzero lag, i.e. the two sequences form a complementary pair.

    The route comes from the input.  When every real and imaginary part of
    both members is an integer (quaternary input, say), the sums are exact
    integers, taken directly at any length, and the 1e-9 bound admits only
    exact cancellation.  Float members are summed directly up to length 64
    and by FFT above, and must cancel to within 1e-9.
    """
    arr_a = as_sequence(a)
    arr_b = as_sequence(b)
    if arr_a.size != arr_b.size:
        raise ValueError(f"length mismatch: {arr_a.size} vs {arr_b.size}")
    n = arr_a.size
    if n == 1:
        return True
    parts = (arr_a.real, arr_a.imag, arr_b.real, arr_b.imag)
    if n <= 64 or all(np.array_equal(x, np.rint(x)) for x in parts):
        sums = _apac(arr_a)[1:] + _apac(arr_b)[1:]
    else:
        sums = _apac_sum_fft(arr_a, arr_b)[1:]
    return bool(np.max(np.abs(sums)) <= _TOL)


def _modulate(arr: np.ndarray, delta: float) -> np.ndarray:
    # Times exp(2j*pi*n*delta/N) along the last axis: a cyclic time shift by delta.
    n = arr.shape[-1]
    return arr * np.exp(2j * np.pi * np.arange(n) * (float(delta) / n))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # ``json`` object hook: an object, refused if a key appears twice.
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def sequence_from_json(data) -> np.ndarray:
    """A sequence from JSON: a symbol string or a list of [re, im] pairs of
    numbers, not booleans, that stay finite as floats."""
    if isinstance(data, str):
        return parse_quaternary(data)
    pairs = [(re, im) for re, im in data]
    for value in chain.from_iterable(pairs):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"coordinate {value!r} is not a number")
    try:
        return as_sequence([complex(re, im) for re, im in pairs])
    except OverflowError:
        raise ValueError("coordinate too large for a float") from None
