"""Core sequence algebra: quaternary symbol strings, validation of outside
input (:func:`as_sequence`), the complementarity test, sequences read from
JSON, and private kernels on validated arrays (autocorrelation, modulation).

Only this module knows the outside formats of a sequence: the symbol codec
(code k is ``QUATERNARY_SYMBOLS[k]``, value ``QUATERNARY_VALUES[k]``) works on stacks,
one row for :func:`parse_quaternary` and :func:`format_quaternary`, and
``_decode_json`` is the package's one JSON decode.

Quaternary sequences over {+1, -1, +1j, -1j} are kept in complex128 arrays.
All their products and autocorrelation sums are small Gaussian integers,
which complex128 represents exactly.  Autocorrelations have two kernels,
direct sums (``_autocorrelations``), exact on such input, and an FFT
(``_fft_apac_sums``), and one router, ``_noncomplementary``, which picks one
from the input and which every certificate calls: :func:`is_gcp`, those of
:mod:`csinterlace.golay` and the interlace constructions'.
"""

from __future__ import annotations

import json
import math
from itertools import chain, count

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

QUATERNARY_SYMBOLS = "+-ij"
QUATERNARY_VALUES = np.array([1.0, -1.0, 1.0j, -1.0j], dtype=complex)
# The symbol table both ways: code k <-> code point of QUATERNARY_SYMBOLS[k]; -1 for no code.
_SYMBOL_POINTS = np.array([ord(symbol) for symbol in QUATERNARY_SYMBOLS], dtype=np.uint32)
_POINT_CODES = np.array([QUATERNARY_SYMBOLS.find(chr(point)) for point in range(128)])

_TOL = 1e-9  # far above the rounding of float autocorrelation sums


def _parse_symbols(texts, n: int, where: str = "") -> np.ndarray:
    """Values (..., n) of the nested list ``texts`` of length-n strings, read as code points
    (a trailing NUL stays one).  The first other character, in row order, is a ValueError
    naming it after ``where`` formatted with its index on the first axis."""
    points = np.array(texts, dtype=f"U{n}")[..., None].view(np.uint32)
    codes = _POINT_CODES[np.minimum(points, 127)]  # DEL (127) and above have no code
    bad = np.flatnonzero(codes < 0)
    if bad.size:
        at = np.unravel_index(bad[0], points.shape)
        raise ValueError(f"{where.format(at[0])}invalid quaternary symbol {chr(points[at])!r}")
    return QUATERNARY_VALUES[codes]


def _format_symbols(codes: np.ndarray) -> list[str]:
    """Symbol strings of the rows of a C-ordered (rows, n) array of symbol codes."""
    return _SYMBOL_POINTS[codes].view(f"U{codes.shape[-1]}").ravel().tolist()


def parse_quaternary(text: str) -> np.ndarray:
    """Parse a symbol string like ``"+-ij"`` into a complex sequence."""
    if not isinstance(text, str):
        raise TypeError(f"expected a symbol string, got {type(text).__name__}")
    if not text:
        raise ValueError("empty sequence string")
    return _parse_symbols([text], len(text))[0]


def format_quaternary(seq) -> str:
    """Format a quaternary-valued sequence back into its symbol string."""
    seq = as_sequence(seq)
    matches = np.isclose(QUATERNARY_VALUES, seq[:, None])  # tolerance relative to the element
    missing = np.flatnonzero(~matches.any(axis=1))
    if missing.size:
        raise ValueError(f"element {seq[missing[0]]} is not a quaternary symbol")
    return _format_symbols(np.argmax(matches, axis=1)[None])[0]


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


def _smooth_size(n: int) -> int:
    # The least 5-smooth integer >= n: it divides 30**k for k above its exponents.
    return next(m for m in count(n) if pow(30, m.bit_length(), m) == 0)


def _autocorrelations(seqs: np.ndarray) -> np.ndarray:
    """Aperiodic autocorrelations sum(conj(x[n]) * x[n + k]), lags 1 .. N-1, of the
    sequences along the last axis, by direct sums with no BLAS: exact sums when every
    real and imaginary part is an integer, as for quaternary sequences."""
    n = seqs.shape[-1]
    padded = np.concatenate([seqs, np.zeros(seqs.shape[:-1] + (n - 1,))], axis=-1)
    shifted = sliding_window_view(padded, n, axis=-1)[..., 1:, :]  # row k holds x[n + k]
    return np.einsum("...n,...kn->...k", np.conj(seqs), shifted)


def _fft_apac_sums(pairs: np.ndarray) -> np.ndarray:
    """Summed aperiodic autocorrelations of the pairs of sequences in ``pairs`` (2, rows, N)
    at lags 1 .. N-1: one inverse FFT of the two members' summed power spectra, at the least
    5-smooth length that holds every lag of both signs (2N - 1)."""
    n = pairs.shape[-1]
    power = np.sum(np.abs(np.fft.fft(pairs, _smooth_size(2 * n - 1))) ** 2, axis=0)
    return np.fft.ifft(power)[:, 1:n]


def _noncomplementary(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    # Indices of the rows whose pairs' autocorrelations do not cancel to within 1e-9, summed
    # directly up to length 64 or when every part is an integer, else by FFT.
    pairs = np.stack([a_rows, b_rows])
    n, parts = pairs.shape[-1], pairs.view(float)
    if n <= 64 or np.array_equal(parts, np.rint(parts)):
        sums = np.sum(_autocorrelations(pairs), axis=0)
    else:
        sums = _fft_apac_sums(pairs)
    return np.flatnonzero(np.max(np.abs(sums), axis=1, initial=0.0) > _TOL)


def is_gcp(a, b) -> bool:
    """True iff the autocorrelations of ``a`` and ``b`` cancel at every
    nonzero lag, i.e. the two sequences form a complementary pair.

    The route comes from the input.  Integer parts (quaternary input, say)
    give exact sums, taken directly at any length, which the 1e-9 bound
    admits only when they cancel exactly; float members are summed directly
    up to length 64, by FFT above, and must cancel to 1e-9.
    """
    arr_a, arr_b = as_sequence(a), as_sequence(b)
    if arr_a.size != arr_b.size:
        raise ValueError(f"length mismatch: {arr_a.size} vs {arr_b.size}")
    return _noncomplementary(arr_a[None], arr_b[None]).size == 0


def _modulate(arr: np.ndarray, delta: float) -> np.ndarray:
    # Times exp(2j*pi*n*delta/N) along the last axis: a cyclic time shift by delta, taken
    # mod N first (exactly, and the identity when |delta| < N) so that no phase loses bits.
    n = arr.shape[-1]
    return arr * np.exp(2j * np.pi * np.arange(n) * (math.fmod(float(delta), n) / n))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # ``json`` object hook: an object, refused if a key appears twice.
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _decode_json(text: str):
    """The JSON document in ``text``: a ValueError for a duplicate key or malformed text."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from None


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
