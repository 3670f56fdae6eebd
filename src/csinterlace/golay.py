"""Golay complementary pairs: certified pair objects, the generalized
concatenation/interleaving construction, equivalence orbits, exhaustive
enumeration of all quaternary pairs up to length 12, and pair-library files.

Enumeration canonicalizes by global phase (first element of each sequence
forced to +1) and by lexicographic pair order.  Golay's identity
|A(w)|^2 + |B(w)|^2 = 2N, with A(w) = sum_n a_n exp(-jwn), bounds every
member of a pair by |A(w)|^2 <= 2N at every frequency (the filter of
Fiedler, Jedwab and Parker, JCTA 2008), tested on three grids (8, 16, then
64 points) with a slack of 1e-6; the rounding error of a 12-term sum is
about 1e-13, so no member is ever dropped.  Modulating a sequence by
j**(k*n) shifts A(w) by a quarter turn, which maps each grid onto itself,
so only the 4**(N-2) canonical sequences with a_1 = +1 are filtered, and
each survivor is expanded into its four modulations.  The filter runs
block by block: a block of sequences goes through all three grids before
the next block starts, so its memory is bounded by the block size and the
per-point head and tail tables, not by the number of sequences.  The few
thousand survivors are then matched by their exact integer autocorrelation
vectors against the negated vectors: that match, not the filter, is the
complementarity proof.  The symbol strings of the pairs are their ranks'
base-4 digits formatted by the symbol codec of :mod:`csinterlace.seqcore`.

A pair-library file, the enumeration cache's file per length among them, is
one JSON line ``{"length", "count", "pairs"}`` of symbol-string pairs; only
:func:`write_library` writes it and only :func:`read_library` reads it.  Only
``_proven_pairs``, here alone, skips :class:`GolayPair`'s check, for proved pairs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .seqcore import (
    QUATERNARY_VALUES,
    _autocorrelations,
    _decode_json,
    _format_symbols,
    _noncomplementary,
    _parse_symbols,
    as_sequence,
    format_quaternary,
    is_gcp,
    parse_quaternary,
)

MAX_ENUMERATION_LENGTH = 12  # 4**12 raw sequences; documented capacity limit

_PSD_SLACK = 1e-6  # far above the ~1e-13 rounding error of a 12-term spectral sum
_PSD_GRIDS = ((8, 0.1), (16, 0.05), (64, 0.0))  # (points, offset in grid steps)
# Head-tail sums of one block, tested at once per point of the first grid;
# the block then runs through every later point before the next one starts,
# so it bounds the filter's memory.  Smaller blocks pay per-block overhead
# on the 80 later points.
_PSD_BLOCK = 1 << 17


class CertificationError(ValueError):
    """The two sequences handed to :class:`GolayPair` are not complementary."""


@dataclass(frozen=True, eq=False)
class GolayPair:
    """Two equal-length sequences proved complementary.

    Constructing a pair checks it: the members are copied and must pass
    :func:`~csinterlace.seqcore.is_gcp` (malformed or unequal members are a
    ``ValueError`` there), or :class:`CertificationError` is raised; they
    are read-only afterwards.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        arr_a = np.array(self.a, dtype=complex)
        arr_b = np.array(self.b, dtype=complex)
        if not is_gcp(arr_a, arr_b):
            raise CertificationError(f"sequences of length {arr_a.size} are not complementary")
        arr_a.setflags(write=False)
        arr_b.setflags(write=False)
        object.__setattr__(self, "a", arr_a)
        object.__setattr__(self, "b", arr_b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GolayPair):
            return NotImplemented
        return np.array_equal(self.a, other.a) and np.array_equal(self.b, other.b)

    def __hash__(self):
        return hash((self.a.tobytes(), self.b.tobytes()))

    @classmethod
    def from_strings(cls, a: str, b: str) -> "GolayPair":
        return cls(parse_quaternary(a), parse_quaternary(b))

    @property
    def length(self) -> int:
        return self.a.size

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


def _combine_taps(first: GolayPair, c, d, phases, params: ConstructionParams) -> np.ndarray:
    """The f and g rows, stacked, of :func:`combine_gcps`, unchecked, for ``c``, ``d`` and
    ``phases`` given once or per row: a term's tap phase * x[i] * y[j] lands at offset +
    step1 * i + step2 * j, added to zero in term order where taps meet."""
    (p1, p2), rc_c, rc_d = phases, np.conj(c[..., ::-1]), np.conj(d[..., ::-1])
    places = [offset + params.step1 * np.arange(first.length)[:, None]
              + params.step2 * np.arange(c.shape[-1]) for offset in (0, params.offset)]
    rows = max(np.size(p1), np.size(p2), len(c) if c.ndim == 2 else 1)
    out = np.zeros((2, rows, places[1][-1, -1] + 1), dtype=complex)
    for seq, terms in zip(out, [((p1, first.a, c), (p2, first.b, d)),
                                ((p1, first.a, rc_d), (-p2, first.b, rc_c))]):
        for (p, x, y), at in zip(terms, places):
            tap = np.reshape(p, (-1, 1, 1)) * (x[:, None] * y[..., None, :])
            np.add.at(seq, (slice(None), at), tap)
    return out


def combine_gcps(first: GolayPair, second: GolayPair, params: ConstructionParams) -> GolayPair:
    """Build a longer complementary pair out of two seed pairs.

    The output coefficient sequences are

        f = p1 * up(a, step1) (*) up(c, step2)
          + p2 * up(b, step1) (*) up(d, step2) shifted by ``offset``
        g = p1 * up(a, step1) (*) up(rc(d), step2)
          - p2 * up(b, step1) (*) up(rc(c), step2) shifted by ``offset``

    with (a, b) the first pair, (c, d) the second, ``up`` the insertion of
    ``step - 1`` null symbols between elements, ``(*)`` linear convolution
    and ``rc`` reverse conjugation.  Overlapping supports sum; the result
    is complementary for any parameter choice, and every output is
    re-certified before being returned (a failure indicates a bug, not bad
    input).  It is the one-row case of the stacked interlace constructions.
    """
    f, g = _combine_taps(first, second.a, second.b, (params.phase1, params.phase2), params)
    return GolayPair(f[0], g[0])


def equivalence_orbit(pair: GolayPair) -> list[GolayPair]:
    """The eight complementarity-preserving variants of a pair.

    Composes three involutions: swapping the members, reversing both
    sequences, and reverse-conjugating both sequences, in a fixed order;
    variants may coincide for symmetric pairs.  All eight are re-certified
    as one stack, and a failing one raises :class:`CertificationError`.
    """
    variants = []
    for swapped in (np.stack([pair.a, pair.b]), np.stack([pair.b, pair.a])):
        for ab in (swapped, swapped[:, ::-1]):
            variants += [ab, np.conj(ab[:, ::-1])]
    a, b = np.stack(variants, axis=1)
    bad = _noncomplementary(a, b)
    if bad.size:
        raise CertificationError(f"orbit variant {bad[0]} is not complementary")
    return _proven_pairs(a, b)


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


_CODE_POWER = np.array([0, 2, 1, 3])  # QUATERNARY_VALUES[c] = 1j ** _CODE_POWER[c], and back


def _digits(ranks: np.ndarray, length: int) -> np.ndarray:
    """Symbol codes of base-4 ranks, on a new last axis, first symbol most significant; a
    canonical rank (below 4**(length - 1)) has first code 0, value +1."""
    return (ranks[..., None] // 4 ** np.arange(length - 1, -1, -1)) % 4


def _partial_spectra(phasors: np.ndarray, fixed: int) -> np.ndarray:
    """Partial spectra sum_n phasors[:, n] * s_n over the positions
    (columns) of ``phasors``, one column per sequence s whose first
    ``fixed`` symbols are +1, in rank order of its other symbols.

    Built in place, one position at a time, with no matrix product: each
    position adds its four symbol values along its own axis, later
    positions less significant.
    """
    points, positions = phasors.shape
    free = positions - fixed
    out = np.empty((points,) + (4,) * free, dtype=complex)
    out[...] = phasors[:, :fixed].sum(axis=1).reshape((points,) + (1,) * free)
    for n in range(free):
        axis = (1,) * n + (4,) + (1,) * (free - n - 1)
        out += (phasors[:, fixed + n, None] * QUATERNARY_VALUES).reshape((points,) + axis)
    return out.reshape(points, -1)


def _psd_scan(length: int, fixed: int) -> np.ndarray:
    """Ascending ranks of the sequences whose first ``fixed`` symbols are
    +1 and whose |A(w)|^2 <= 2N + slack at every point
    w = 2*pi*(m + offset)/points of ``_PSD_GRIDS``.

    Rank r splits into a head of ``split`` symbols and a tail, so
    A(w) = heads[r // n_tails] + tails[r % n_tails].  Each block of head
    rows runs through every grid before the next block starts: the first
    grid tests all its outer sums, and each later point tests only the
    (head, tail) indices of the block still standing.
    """
    split = (length + 1) // 2
    n_tails = 4 ** (length - split)
    w = 2 * np.pi * np.concatenate([(np.arange(p) + offset) / p for p, offset in _PSD_GRIDS])
    phasors = np.exp(-1j * np.outer(w, np.arange(length)))  # (points, positions)
    heads = _partial_spectra(phasors[:, :split], fixed)
    tails = _partial_spectra(phasors[:, split:], 0)

    bound = 2 * length + _PSD_SLACK
    first = _PSD_GRIDS[0][0]
    rows = max(1, _PSD_BLOCK // n_tails)
    buffers = np.empty((2, min(rows, heads.shape[1]), n_tails))  # reused by every block
    found = []
    for r in range(0, heads.shape[1], rows):
        block = heads[:, r : r + rows]
        x, y = buffers[:, : block.shape[1]]  # real and imaginary parts, then x holds |A|^2
        keep = np.ones(x.shape, dtype=bool)
        for m in range(first):
            np.add(block[m, :, None].real, tails[m].real, out=x)
            np.add(block[m, :, None].imag, tails[m].imag, out=y)
            x *= x
            y *= y
            x += y
            keep &= x <= bound
        head, tail = np.nonzero(keep)
        for m in range(first, w.size):
            spectra = block[m, head] + tails[m, tail]
            hit = spectra.real ** 2 + spectra.imag ** 2 <= bound
            head, tail = head[hit], tail[hit]
        found.append((head + r) * n_tails + tail)
    return np.concatenate(found)


def _psd_survivors(length: int) -> np.ndarray:
    """Ascending canonical ranks that pass :func:`_psd_scan`.

    Modulating a sequence by j**(k*n) keeps a_0 = +1 and turns A(w) into
    A(w - k*pi/2); every grid has a multiple of 4 points, so it maps onto
    itself, and a sequence passes iff its four quarter-turn modulations do.
    Each canonical sequence is one modulation of exactly one representative
    with a_1 = +1, a rank below 4**(N-2).  Only the representatives are
    scanned, and each survivor is expanded into its four modulations once
    the scan's tables are freed.  Lengths 1 and 2, whose head is their
    first symbol alone, are scanned directly.
    """
    if length < 3:
        return _psd_scan(length, fixed=1)
    codes = _digits(_psd_scan(length, fixed=2), length)
    turns = np.arange(4)[:, None, None] * np.arange(length)  # k*n of modulation k
    turned = _CODE_POWER[(_CODE_POWER[codes] + turns) % 4]  # (4, survivors, length)
    return np.sort((turned @ 4 ** np.arange(length - 1, -1, -1)).ravel())


@lru_cache(maxsize=None)
def _library_ranks(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only canonical ranks ``(first, second)`` of every pair, in
    lexicographic order, and the sorted ranks of all their members.

    Survivors i and j pair iff their exact integer autocorrelation keys
    satisfy key(i) = -key(j); that match is the complementarity proof.  Only
    at N = 1 (empty keys) is i = j: the lag N - 1 term is never 0.
    """
    survivors = _psd_survivors(length)
    seqs = QUATERNARY_VALUES[_digits(survivors, length)]
    keys = _autocorrelations(seqs).view(float).astype(np.int8)
    ranks = survivors.tolist()
    by_key: dict[bytes, list[int]] = {}
    for rank, key in zip(ranks, keys):
        by_key.setdefault(key.tobytes(), []).append(rank)
    pairs = [(i, j) for i, key in zip(ranks, keys)
             for j in by_key.get((-key).tobytes(), ()) if i <= j]
    first, second = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    members = np.union1d(first, second)
    for arr in (first, second, members):
        arr.setflags(write=False)
    return first, second, members


def _proven_pairs(a: np.ndarray, b: np.ndarray, strings=None) -> list[GolayPair]:
    """Pairs over the rows of ``a`` and ``b``, whose complementarity the
    caller in this module has proved (the exact key match of the
    enumeration, or a ``seqcore`` certificate of the loader or the orbit),
    so they skip :class:`GolayPair`'s check: the only pairs built unchecked.

    ``strings``, if given, are the rows' symbol strings, parsed into them or
    formatted from their codes by the symbol codec; they seed
    :meth:`GolayPair.as_strings`, which would format the same strings.
    """
    a.setflags(write=False)
    b.setflags(write=False)
    pairs = [object.__new__(GolayPair) for _ in range(a.shape[0])]
    for pair, x, y in zip(pairs, a, b):
        vars(pair).update(a=x, b=y)  # bypasses __post_init__, the check
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
    codes = _digits(np.stack(_library_ranks(length)[:2]), length)  # (2, pairs, length)
    return _proven_pairs(*QUATERNARY_VALUES[codes], zip(*map(_format_symbols, codes)))


def is_complementary_sequence(a) -> bool:
    """True iff some quaternary mate exists making ``a`` one half of a pair.

    Looks the query, rotated so its first element is +1, up among the
    member ranks of the exhaustive enumeration, built on the first call at
    each length: the spectral filter keeps every member, and the exact key
    match among its survivors proves each pair.  Lengths up to 12.
    """
    arr = as_sequence(a)
    _check_capacity(arr.size)
    table = arr[:, None] == QUATERNARY_VALUES
    if not table.any(axis=1).all():
        raise ValueError("complementarity search is defined for quaternary sequences")
    powers = _CODE_POWER[table.argmax(axis=1)]
    codes = _CODE_POWER[(powers[1:] - powers[0]) % 4]  # of arr * conj(arr[0])
    rank = int(codes @ 4 ** np.arange(arr.size - 2, -1, -1))
    members = _library_ranks(arr.size)[2]
    pos = np.searchsorted(members, rank)
    return bool(pos < members.size and members[pos] == rank)


# ---------------------------------------------------------------------------
# Pair-library files
# ---------------------------------------------------------------------------

def write_library(path: str | Path, length: int, pairs: list[GolayPair]) -> None:
    """Write a pair library through a temporary file and ``os.replace``, so
    no partial file is ever left."""
    path = Path(path)
    payload = {"length": length, "count": len(pairs),
               "pairs": [list(p.as_strings()) for p in pairs]}
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_library(path: str | Path, length: int | None = None) -> list[GolayPair]:
    """The pairs of a library file, whose header must agree with them (and
    with ``length`` if given), all re-certified in one exact pass; any
    failure is a ValueError naming the file and the index of a faulty pair."""
    try:
        payload = _decode_json(Path(path).read_text())
        if not isinstance(payload, dict) or not isinstance(payload.get("pairs"), list):
            raise ValueError("expected an object with a 'pairs' list")
        n, count, strings = payload.get("length"), payload.get("count"), payload["pairs"]
        if (type(n) is not int or type(count) is not int or n < 1 or count != len(strings)
                or length not in (None, n)):
            raise ValueError(f"header (length {n}, count {count}) does not match "
                             f"{len(strings)} pairs{f' of length {length}' if length else ''}")
        for index, entry in enumerate(strings):  # before allocating: n x count is then bounded
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(isinstance(text, str) and len(text) == n for text in entry)):
                raise ValueError(f"pair {index}: expected two symbol strings of length {n}")
        a, b = _parse_symbols(strings, n, "pair {}: ").reshape(count, 2, n).swapaxes(0, 1)
        bad = _noncomplementary(a, b)
        if bad.size:
            raise ValueError(f"pair {bad[0]} {strings[bad[0]]} is not complementary")
    except (OSError, ValueError) as exc:
        raise ValueError(f"invalid pair library {path}: {exc}") from None
    return _proven_pairs(a, b, strings)


def cached_enumerate_gcps(length: int, cache_dir: str | Path) -> list[GolayPair]:
    """Enumerate with a library file per length in ``cache_dir``, so long
    runs happen once; a cached file is checked by :func:`read_library`."""
    length = _check_capacity(length)
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    cache_file = Path(cache_dir, f"gcps_len{length}.json")
    if cache_file.exists():
        return read_library(cache_file, length)
    pairs = enumerate_gcps(length)
    write_library(cache_file, length, pairs)
    return pairs
