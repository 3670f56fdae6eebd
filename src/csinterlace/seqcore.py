"""Core sequence algebra: aperiodic autocorrelation, complementarity tests,
and the polynomial-domain operations (upsampling, padding, convolution,
reverse conjugation) that the pair constructions are built from.

Quaternary sequences over {+1, -1, +1j, -1j} are kept in complex128 arrays.
All their products and autocorrelation sums are small Gaussian integers,
which complex128 represents exactly, so complementarity can be tested with
tolerance 0 (no rounding ever occurs on that path).
"""

from __future__ import annotations

import numpy as np

QUATERNARY_SYMBOLS = "+-ij"
QUATERNARY_VALUES = np.array([1.0, -1.0, 1.0j, -1.0j], dtype=complex)

_SYMBOL_TO_VALUE = dict(zip(QUATERNARY_SYMBOLS, QUATERNARY_VALUES))


def parse_quaternary(text: str) -> np.ndarray:
    """Parse a symbol string like ``"+-ij"`` into a complex sequence."""
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


def is_quaternary(seq) -> bool:
    seq = np.asarray(seq, dtype=complex)
    return bool(np.all(np.isin(seq, QUATERNARY_VALUES)))


def as_sequence(a) -> np.ndarray:
    """Coerce to a nonempty 1-D complex array with finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise ValueError("sequence must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sequence contains non-finite values")
    return arr


def apac(a, k: int) -> complex:
    """Aperiodic autocorrelation of ``a`` at integer lag ``k``.

    Exact when the input is quaternary (Gaussian-integer arithmetic).
    Negative lags follow conjugate symmetry; lags at or beyond the length
    are exactly zero.
    """
    arr = as_sequence(a)
    n = arr.size
    k = int(k)
    if k < 0:
        return complex(np.conj(apac(arr, -k)))
    if k >= n:
        return 0j
    return complex(np.sum(np.conj(arr[: n - k]) * arr[k:]))


def apac_vector(a) -> np.ndarray:
    """All autocorrelation values for lags 0 .. N-1."""
    arr = as_sequence(a)
    n = arr.size
    out = np.empty(n, dtype=complex)
    for k in range(n):
        out[k] = np.sum(np.conj(arr[: n - k]) * arr[k:])
    return out


def _apac_sum_fft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Linear autocorrelation through zero-padded FFTs; lags 0 .. N-1.
    n = a.size
    size = 1 << (2 * n - 1).bit_length()
    fa = np.fft.fft(a, size)
    fb = np.fft.fft(b, size)
    acf = np.fft.ifft(np.abs(fa) ** 2 + np.abs(fb) ** 2)
    return acf[:n]


def is_gcp(a, b, tol: float = 0.0) -> bool:
    """True iff the autocorrelations of ``a`` and ``b`` cancel at every
    nonzero lag, i.e. the two sequences form a complementary pair.

    ``tol = 0`` demands exact cancellation and is appropriate for
    quaternary inputs; float constructions should pass ``tol = 1e-9``.
    """
    arr_a = as_sequence(a)
    arr_b = as_sequence(b)
    if arr_a.size != arr_b.size:
        raise ValueError(f"length mismatch: {arr_a.size} vs {arr_b.size}")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    n = arr_a.size
    if n == 1:
        return True
    if tol == 0.0 or n <= 64:
        sums = apac_vector(arr_a)[1:] + apac_vector(arr_b)[1:]
    else:
        sums = _apac_sum_fft(arr_a, arr_b)[1:]
    return bool(np.max(np.abs(sums)) <= tol)


def upsample(a, k: int) -> np.ndarray:
    """Insert ``k - 1`` null symbols between consecutive elements.

    Output length is k*(N-1) + 1; ``k = 1`` is the identity.
    """
    arr = as_sequence(a)
    k = int(k)
    if k <= 0:
        raise ValueError("upsampling factor must be >= 1")
    out = np.zeros(k * (arr.size - 1) + 1, dtype=complex)
    out[::k] = arr
    return out


def pad(a, m: int) -> np.ndarray:
    """Prepend ``m`` null symbols (multiplication of the polynomial by z^m)."""
    arr = as_sequence(a)
    m = int(m)
    if m < 0:
        raise ValueError("pad length must be >= 0")
    return np.concatenate([np.zeros(m, dtype=complex), arr])


def reverse_conjugate(a) -> np.ndarray:
    """Reverse element order and conjugate element-wise.  Involution."""
    arr = as_sequence(a)
    return np.conj(arr[::-1])


def convolve(a, b) -> np.ndarray:
    """Linear convolution; the coefficient-domain product of polynomials."""
    return np.convolve(as_sequence(a), as_sequence(b))


def cyclic_modulate(x, delta: float) -> np.ndarray:
    """Multiply by the progressive phasor exp(2j*pi*n*delta/N).

    Integer ``delta`` values give mutually orthogonal copies of a
    unimodular sequence (cyclic time shifts); fractional values model
    shifts in between and are allowed.
    """
    arr = as_sequence(x)
    n = arr.size
    return arr * np.exp(2j * np.pi * np.arange(n) * (float(delta) / n))


def inner_product(a, b) -> complex:
    """Plain inner product sum(conj(a) * b) of equal-length sequences."""
    arr_a = as_sequence(a)
    arr_b = as_sequence(b)
    if arr_a.size != arr_b.size:
        raise ValueError(f"length mismatch: {arr_a.size} vs {arr_b.size}")
    return complex(np.sum(np.conj(arr_a) * arr_b))


def sequence_to_json(seq) -> list:
    """Complex sequence as a JSON-ready list of [re, im] pairs."""
    arr = as_sequence(seq)
    return [[float(v.real), float(v.imag)] for v in arr]


def sequence_from_json(data) -> np.ndarray:
    """Inverse of :func:`sequence_to_json`; also accepts symbol strings."""
    if isinstance(data, str):
        return parse_quaternary(data)
    return as_sequence([complex(re, im) for re, im in data])
