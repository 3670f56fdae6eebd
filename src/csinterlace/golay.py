"""Golay complementary pairs: certified pair objects, the generalized
concatenation/interleaving construction, equivalence orbits, and exhaustive
enumeration of all quaternary pairs up to length 12.

Enumeration canonicalizes by global phase (first element of each sequence
forced to +1) and by lexicographic pair order.  Golay's identity
|A(w)|^2 + |B(w)|^2 = 2N, with A(w) = sum_n a_n exp(-jwn), bounds every
member of a pair by |A(w)|^2 <= 2N at every frequency (the filter of
Fiedler, Jedwab and Parker, JCTA 2008).  The 4**(N-1) canonical sequences
are filtered on three grids (8, 16, then 64 points) with a slack of 1e-6;
the rounding error of a 12-term sum is about 1e-13, so no member is ever
dropped.  The few thousand survivors are then matched by their exact
integer autocorrelation vectors against the negated vectors: that match,
not the filter, is the complementarity proof.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .seqcore import (
    QUATERNARY_SYMBOLS,
    QUATERNARY_VALUES,
    as_sequence,
    convolve,
    format_quaternary,
    is_gcp,
    is_quaternary,
    pad,
    parse_quaternary,
    reverse_conjugate,
    upsample,
)

MAX_ENUMERATION_LENGTH = 12  # 4**12 raw sequences; documented capacity limit

_PSD_SLACK = 1e-6  # far above the ~1e-13 rounding error of a 12-term spectral sum
_PSD_GRIDS = ((8, 0.1), (16, 0.05), (64, 0.0))  # (points, offset in grid steps)
_PSD_BLOCK = 1 << 20  # head-tail sums tested at once per point of the first grid

FLOAT_GCP_TOL = 1e-9


class CertificationError(Exception):
    """A pair handed to the verifying constructor is not complementary."""


@dataclass(frozen=True, eq=False)
class GolayPair:
    """Two equal-length sequences certified complementary.

    Build instances through :meth:`certify`, which checks the defining
    autocorrelation cancellation before returning.
    """

    a: np.ndarray
    b: np.ndarray
    certified: bool = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, GolayPair):
            return NotImplemented
        return np.array_equal(self.a, other.a) and np.array_equal(self.b, other.b)

    def __hash__(self):
        return hash((self.a.tobytes(), self.b.tobytes()))

    @classmethod
    def certify(cls, a, b, tol: float = 0.0) -> "GolayPair":
        arr_a = as_sequence(a).copy()
        arr_b = as_sequence(b).copy()
        if arr_a.size != arr_b.size:
            raise ValueError(f"length mismatch: {arr_a.size} vs {arr_b.size}")
        if not is_gcp(arr_a, arr_b, tol):
            raise CertificationError(
                f"sequences of length {arr_a.size} are not complementary at tol={tol}"
            )
        arr_a.setflags(write=False)
        arr_b.setflags(write=False)
        return cls(arr_a, arr_b, certified=True)

    @classmethod
    def from_strings(cls, a: str, b: str) -> "GolayPair":
        return cls.certify(parse_quaternary(a), parse_quaternary(b))

    @property
    def length(self) -> int:
        return self.a.size

    @property
    def energy(self) -> float:
        """Total lag-0 energy of both members."""
        return float(np.sum(np.abs(self.a) ** 2) + np.sum(np.abs(self.b) ** 2))

    def as_strings(self) -> tuple[str, str]:
        """Symbol strings of both members, formatted once per pair."""
        return self._strings

    @cached_property
    def _strings(self) -> tuple[str, str]:
        return format_quaternary(self.a), format_quaternary(self.b)


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of the pair-combining construction.

    The first seed pair is upsampled by ``step1``, the second by ``step2``;
    the second branch is offset by ``offset`` null symbols and both branches
    carry unit-modulus phase coefficients.
    """

    phase1: complex = 1.0 + 0j
    phase2: complex = 1.0 + 0j
    step1: int = 1
    step2: int = 1
    offset: int = 0

    def __post_init__(self):
        if abs(abs(complex(self.phase1)) - 1.0) > 1e-12:
            raise ValueError("phase1 must be unit modulus")
        if abs(abs(complex(self.phase2)) - 1.0) > 1e-12:
            raise ValueError("phase2 must be unit modulus")
        if self.step1 < 1 or self.step2 < 1:
            raise ValueError("upsampling steps must be >= 1")
        if self.offset < 0:
            raise ValueError("offset must be >= 0")


def _padded_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = max(x.size, y.size)
    out = np.zeros(n, dtype=complex)
    out[: x.size] += x
    out[: y.size] += y
    return out


def combine_gcps(
    first: GolayPair,
    second: GolayPair,
    params: ConstructionParams,
    tol: float = FLOAT_GCP_TOL,
) -> GolayPair:
    """Build a longer complementary pair out of two seed pairs.

    The output coefficient sequences are

        f = p1 * up(a, step1) (*) up(c, step2)
          + p2 * up(b, step1) (*) up(d, step2) shifted by ``offset``
        g = p1 * up(a, step1) (*) up(rc(d), step2)
          - p2 * up(b, step1) (*) up(rc(c), step2) shifted by ``offset``

    with (a, b) the first pair, (c, d) the second, ``(*)`` linear
    convolution and ``rc`` reverse conjugation.  Overlapping supports sum;
    the result is complementary for any parameter choice, and every output
    is re-certified before being returned (a failure indicates a bug, not
    bad input).
    """
    p = params
    ua = upsample(first.a, p.step1)
    ub = upsample(first.b, p.step1)
    uc = upsample(second.a, p.step2)
    ud = upsample(second.b, p.step2)
    urc_c = upsample(reverse_conjugate(second.a), p.step2)
    urc_d = upsample(reverse_conjugate(second.b), p.step2)

    f = _padded_sum(p.phase1 * convolve(ua, uc), pad(p.phase2 * convolve(ub, ud), p.offset))
    g = _padded_sum(
        p.phase1 * convolve(ua, urc_d), pad(-p.phase2 * convolve(ub, urc_c), p.offset)
    )
    return GolayPair.certify(f, g, tol)


def equivalence_orbit(pair: GolayPair, tol: float = 0.0) -> list[GolayPair]:
    """The eight complementarity-preserving variants of a pair.

    Composes three involutions: swapping the members, reversing both
    sequences, and reverse-conjugating both sequences.  Each composition is
    re-certified.  Variants may coincide as values for symmetric pairs; the
    eight transform labels are always returned in a fixed order.
    """
    out = []
    for swap in (False, True):
        for rev in (False, True):
            for conj_rev in (False, True):
                a, b = (pair.b, pair.a) if swap else (pair.a, pair.b)
                if rev:
                    a, b = a[::-1], b[::-1]
                if conj_rev:
                    a, b = reverse_conjugate(a), reverse_conjugate(b)
                out.append(GolayPair.certify(a, b, tol))
    return out


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def _check_capacity(length: int) -> int:
    length = int(length)
    if length < 1:
        raise ValueError("length must be >= 1")
    if length > MAX_ENUMERATION_LENGTH:
        raise ValueError(
            f"enumeration supports lengths up to {MAX_ENUMERATION_LENGTH} "
            f"(4**{length} sequences exceed the documented capacity)"
        )
    return length


def _decode(ranks: np.ndarray, length: int) -> np.ndarray:
    """Sequence values for base-4 ranks, first symbol most significant; a
    canonical rank (below 4**(length - 1)) decodes with first element +1."""
    return QUATERNARY_VALUES[(ranks[:, None] // 4 ** np.arange(length - 1, -1, -1)) % 4]


def _autocorrelations(seqs: np.ndarray) -> np.ndarray:
    """Aperiodic autocorrelations at lags 1..N-1 of each row; exact for
    quaternary rows, whose products and sums are small Gaussian integers."""
    length = seqs.shape[1]
    out = np.empty((seqs.shape[0], length - 1), dtype=complex)
    for k in range(1, length):
        out[:, k - 1] = np.sum(np.conj(seqs[:, : length - k]) * seqs[:, k:], axis=1)
    return out


def _psd_survivors(length: int) -> np.ndarray:
    """Ascending canonical ranks with |A(w)|^2 <= 2N + slack at every point
    w = 2*pi*(m + offset)/points of ``_PSD_GRIDS``.

    Rank r splits into a head of ``split`` symbols (first one +1) and a
    tail, so A(w) = heads[r // n_tails] + tails[r % n_tails].  The first
    grid tests outer sums, a block of head rows at a time; each later point
    tests only the survivors.
    """
    split = (length + 1) // 2
    n_tails = 4 ** (length - split)
    w = 2 * np.pi * np.concatenate([(np.arange(p) + offset) / p for p, offset in _PSD_GRIDS])
    phasors = np.exp(-1j * np.outer(w, np.arange(length)))  # (points, positions)
    heads = phasors[:, :split] @ _decode(np.arange(4 ** (split - 1)), split).T
    tails = phasors[:, split:] @ _decode(np.arange(n_tails), length - split).T

    def within(spectra):
        return spectra.real ** 2 + spectra.imag ** 2 <= 2 * length + _PSD_SLACK

    rows = max(1, _PSD_BLOCK // n_tails)
    found = []
    for r in range(0, heads.shape[1], rows):
        keep = within(heads[0, r : r + rows, None] + tails[0])
        for m in range(1, _PSD_GRIDS[0][0]):
            keep &= within(heads[m, r : r + rows, None] + tails[m])
        found.append(np.flatnonzero(keep) + r * n_tails)
    ranks = np.concatenate(found)
    for m in range(_PSD_GRIDS[0][0], w.size):
        ranks = ranks[within(heads[m, ranks // n_tails] + tails[m, ranks % n_tails])]
    return ranks


@lru_cache(maxsize=None)
def _library_ranks(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only canonical ranks ``(first, second)`` of every pair, in
    lexicographic order, and the sorted ranks of all their members.

    Survivors i and j pair iff their exact integer autocorrelation keys
    satisfy key(i) = -key(j); that match is the complementarity proof.
    """
    survivors = _psd_survivors(length)
    keys = _autocorrelations(_decode(survivors, length)).view(float).astype(np.int8)
    ranks = survivors.tolist()
    by_key: dict[bytes, list[int]] = {}
    for rank, key in zip(ranks, keys):
        by_key.setdefault(key.tobytes(), []).append(rank)
    pairs = [(i, j) for i, key in zip(ranks, keys)
             for j in by_key.get((-key).tobytes(), ()) if i < j]
    first, second = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    members = np.union1d(first, second)
    for arr in (first, second, members):
        arr.setflags(write=False)
    return first, second, members


def _proven_pairs(a: np.ndarray, b: np.ndarray, strings=None) -> list[GolayPair]:
    """Pairs over the rows of ``a`` and ``b``, whose complementarity the
    caller has proved exactly (key match or re-certification on load).

    ``strings``, if given, are the symbol strings the rows were parsed
    from; they seed :meth:`GolayPair.as_strings`, since formatting a parsed
    string gives the string back.
    """
    a.setflags(write=False)
    b.setflags(write=False)
    pairs = [GolayPair(x, y, certified=True) for x, y in zip(a, b)]
    for pair, (text_a, text_b) in zip(pairs, strings or ()):
        vars(pair)["_strings"] = (text_a, text_b)
    return pairs


def enumerate_gcps(length: int) -> list[GolayPair]:
    """All quaternary complementary pairs of a given length, canonicalized.

    Canonical form: each sequence is phase-rotated so its first element is
    +1, the pair is ordered lexicographically, and duplicates are removed.
    Pairs come out certified; the exact integer key matching inside
    :func:`_library_ranks` is the complementarity proof.

    Lengths above 12 raise (4**length sequences; capacity limit).
    """
    length = _check_capacity(length)
    if length == 1:
        return [GolayPair.certify([1.0], [1.0])]
    first, second, _ = _library_ranks(length)
    return _proven_pairs(_decode(first, length), _decode(second, length))


def canonical_pair(a, b) -> tuple[str, str]:
    """Canonical symbol-string form of a quaternary pair.

    Normalizes each member's global phase (first element to +1) and orders
    the two sequences lexicographically by symbol code.
    """
    arr_a = as_sequence(a)
    arr_b = as_sequence(b)
    if not (is_quaternary(arr_a) and is_quaternary(arr_b)):
        raise ValueError("canonical form is defined for quaternary sequences")
    norm_a = format_quaternary(arr_a * np.conj(arr_a[0]))
    norm_b = format_quaternary(arr_b * np.conj(arr_b[0]))
    key = dict(zip(QUATERNARY_SYMBOLS, range(4)))

    def rank(s: str) -> tuple[int, ...]:
        return tuple(key[ch] for ch in s)

    return (norm_a, norm_b) if rank(norm_a) <= rank(norm_b) else (norm_b, norm_a)


def is_complementary_sequence(a) -> bool:
    """True iff some quaternary mate exists making ``a`` one half of a pair.

    Looks the query, rotated so its first element is +1, up among the
    member ranks of the exhaustive enumeration, built on the first call at
    each length: the spectral filter keeps every member, and the exact key
    match among its survivors proves each pair.  Lengths up to 12.
    """
    arr = as_sequence(a)
    _check_capacity(arr.size)
    if not is_quaternary(arr):
        raise ValueError("complementarity search is defined for quaternary sequences")
    if arr.size == 1:
        return True
    codes = np.argmax(arr[1:, None] * np.conj(arr[0]) == QUATERNARY_VALUES, axis=1)
    rank = int(codes @ 4 ** np.arange(arr.size - 2, -1, -1))
    members = _library_ranks(arr.size)[2]
    pos = np.searchsorted(members, rank)
    return bool(pos < members.size and members[pos] == rank)


# ---------------------------------------------------------------------------
# Disk cache (JSON of symbol strings, keyed by length)
# ---------------------------------------------------------------------------

def library_payload(length: int, pairs: list[GolayPair]) -> dict:
    """JSON form of a pair library, as the cache and ``enumerate-gcps`` write it."""
    return {
        "length": length,
        "count": len(pairs),
        "pairs": [list(p.as_strings()) for p in pairs],
    }


def _load_cache(cache_file: Path, length: int) -> list[GolayPair]:
    """The pairs of a cache file, all re-certified in one exact pass."""
    try:
        payload = json.loads(cache_file.read_text())
        strings = payload["pairs"]
        if payload["length"] != length or np.shape(strings) != (payload["count"], 2):
            raise ValueError(f"header (length {payload['length']}, count {payload['count']}) "
                             f"does not match {len(strings)} pairs of length {length}")
        a, b = (np.stack([parse_quaternary(text) for text in col]) for col in zip(*strings))
        if a.shape[1] != length or b.shape != a.shape:
            raise ValueError(f"sequences are not all of length {length}")
        bad = np.flatnonzero(np.any(_autocorrelations(a) + _autocorrelations(b), axis=1))
        if bad.size:
            raise ValueError(f"pair {bad[0]} {strings[bad[0]]} is not complementary")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"invalid pair cache {cache_file}: {exc}") from exc
    return _proven_pairs(a, b, strings)


def cached_enumerate_gcps(length: int, cache_dir: str | Path) -> list[GolayPair]:
    """Enumerate with a JSON disk cache so long runs happen once.

    A cache file is checked and every pair in it re-certified on load; a
    bad file raises ValueError naming it.  New files are written through a
    temporary file and ``os.replace``, so no partial cache is ever left.
    """
    length = _check_capacity(length)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache_file = cache_dir / f"gcps_len{length}.json"
    if cache_file.exists():
        return _load_cache(cache_file, length)
    pairs = enumerate_gcps(length)
    tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(library_payload(length, pairs)))
        os.replace(tmp, cache_file)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return pairs
