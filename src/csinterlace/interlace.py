"""Frequency-domain interlace builders and the table of schemes.

An interlace is ``n_rb`` resource blocks of ``n_sc`` tones separated by
``n_null`` empty tones.  The non-coherent builder spreads a per-block pair
across blocks with phase rotations from a shorter spreading pair; the
coherent builder interleaves two half-block sequences inside every block so
that fixing one phase coefficient leaves built-in reference tones.  Both are
instances of the generalized pair construction in :mod:`csinterlace.golay`,
so every output waveform inherits the 3 dB peak-power bound.  A member is
built for all its resources as one stack, each row certified once, for every
null count, through the router of :mod:`csinterlace.seqcore`.

A construction is built on its support alone, as the same construction with no
nulls (tone t of block q at q * n_sc + t); only synthesis sees the block
spacing, so a build's time and memory follow its support, not the grid.

:data:`SCHEMES` maps the name of each scheme (the two constructions, the
adjacent variant, and the cycling and Zadoff-Chu baselines) to a
:class:`Scheme`, which the command line and the link simulator read
rather than branching on names.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import astuple, dataclass
from functools import lru_cache, partial
from typing import Any

import numpy as np

from .fixtures import load_coherent_example, load_noncoherent_spread, load_reference_pairs
from .golay import CertificationError, ConstructionParams, GolayPair, _combine_taps
from .metrics import _waveforms, papr_db
from .seqcore import _modulate, _noncomplementary, as_sequence

# Unit phasors usable as data coefficients in the coherent scheme.
QPSK_PHASES = np.exp(1j * np.pi * np.array([1, 3, -1, -3]) / 4)

PILOT_PHASE = complex(QPSK_PHASES[0])

# Data phases of a one-bit payload, antipodal for maximum distance.
_ONE_BIT_PHASES = (PILOT_PHASE, -PILOT_PHASE)


@dataclass(frozen=True)
class InterlaceConfig:
    """Interlace geometry: block count, tones per block, nulls between blocks."""

    n_rb: int
    n_sc: int
    n_null: int = 0

    def __post_init__(self):
        if self.n_rb < 2:
            raise ValueError("n_rb must be >= 2")
        if self.n_sc < 2:
            raise ValueError("n_sc must be >= 2")
        if self.n_null < 0:
            raise ValueError("n_null must be >= 0")
        if self.grid_size > 2**63:  # the last tone index must fit in int64
            raise ValueError(f"grid of {self.grid_size} tones exceeds 64-bit tone indices")

    @property
    def rb_spacing(self) -> int:
        return self.n_sc + self.n_null

    @property
    def grid_size(self) -> int:
        return self.n_rb * self.n_sc + (self.n_rb - 1) * self.n_null

    def support(self) -> np.ndarray:
        """Occupied tone indices: n_rb runs of n_sc spaced rb_spacing apart."""
        starts = np.arange(self.n_rb) * self.rb_spacing
        return (starts[:, None] + np.arange(self.n_sc)[None, :]).reshape(-1)


@dataclass(frozen=True, eq=False)
class SparseSpectrum:
    """Frequency-domain sequence as (tone index, complex value) entries."""

    indices: np.ndarray
    values: np.ndarray
    grid_size: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=complex)
        if idx.ndim != 1 or val.ndim != 1 or idx.size != val.size:
            raise ValueError("indices and values must be 1-D and equally long")
        if idx.size == 0:
            raise ValueError("spectrum must have at least one entry")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.grid_size:
            raise ValueError("indices out of grid")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    def to_json_dict(self) -> dict:
        return {
            "grid_size": int(self.grid_size),
            "entries": [
                [int(i), [float(v.real), float(v.imag)]]
                for i, v in zip(self.indices, self.values)
            ],
        }


def payload_phase(bits: int, value: int) -> complex:
    """Data phase of a coherent 1- or 2-bit payload; the pilot coefficient
    stays :data:`PILOT_PHASE`.  One bit takes the antipodal phases
    ``(PILOT_PHASE, -PILOT_PHASE)`` that the link simulator sends."""
    if bits not in (1, 2):
        raise ValueError("payload carries 1 or 2 bits")
    if not 0 <= value < 2**bits:
        raise ValueError("payload value out of range for bit count")
    return _ONE_BIT_PHASES[value] if bits == 1 else complex(QPSK_PHASES[value])


def _certified_rows(cfg: InterlaceConfig, first: GolayPair, c, d, phases,
                    params: ConstructionParams, resources):
    """The stacked f and g rows of :func:`combine_gcps` on ``cfg.support()``, one per resource,
    for ``c``, ``d`` and ``phases`` given once or per row: the null-free construction, each row
    certified for every null count or raising naming it.  Laid out with n_sc - 1 nulls between
    blocks, entry (dq, dt) of the blocks' 2-D autocorrelation falls on a lag of its own, so the
    rows cancel there iff their blocks form a Golay array pair (Jedwab and Parker, Des. Codes
    Cryptogr. 44, 2007), which stays complementary at any spacing >= n_sc (Fiedler, Jedwab
    and Parker, JCTA 2008)."""
    fg = _combine_taps(first, c, d, phases, params)
    spaced = np.pad(fg.reshape(2, -1, cfg.n_rb, cfg.n_sc), [(0, 0)] * 3 + [(0, cfg.n_sc - 1)])
    bad = _noncomplementary(*spaced.reshape(2, fg.shape[1], -1)[..., : 1 - cfg.n_sc])
    if bad.size:
        raise CertificationError(f"resource {resources[bad[0]]!r}: not complementary")
    return fg


def _noncoherent_rows(cfg: InterlaceConfig, spread: GolayPair, rb_pair: GolayPair, deltas,
                      adjacent: bool):
    if cfg.n_rb % 2 != 0:
        raise ValueError("non-coherent scheme needs an even block count")
    if spread.length != cfg.n_rb // 2:
        raise ValueError(f"spreading pair of length {spread.length} needs {2 * spread.length} RBs")
    if rb_pair.length != cfg.n_sc:
        raise ValueError(f"block pair of length {rb_pair.length} needs as many tones per RB")
    members = np.stack([rb_pair.a, rb_pair.b])
    c, d = np.stack([_modulate(members, delta) for delta in deltas], axis=1)
    params = ConstructionParams(step1=(1 + adjacent) * cfg.n_sc,
                                offset=cfg.n_sc if adjacent else cfg.n_sc * cfg.n_rb // 2)
    return _certified_rows(cfg, spread, c, d, (PILOT_PHASE, PILOT_PHASE), params, deltas)


def _coherent_rows(cfg: InterlaceConfig, spread: GolayPair, half_pair: GolayPair, phases):
    if cfg.n_sc % 2 != 0:
        raise ValueError("coherent scheme needs an even block size")
    if spread.length != cfg.n_rb:
        raise ValueError(f"spreading pair of length {spread.length} needs {spread.length} RBs")
    if half_pair.length != cfg.n_sc // 2:
        raise ValueError(f"half-block pair needs {2 * half_pair.length} tones per RB")
    columns = np.array([astuple(ConstructionParams(*pair))[:2] for pair in phases]).T  # checked
    params = ConstructionParams(step1=cfg.n_sc, step2=2, offset=1)
    return _certified_rows(cfg, spread, half_pair.a, half_pair.b, tuple(columns), params, phases)


_ZC_LENGTH = 113  # odd prime of the Zadoff-Chu baseline
_ZC_SET_SIZE = 30  # roots of the baseline set, ranked by PAPR


def zc_sequence(root: int, total: int) -> np.ndarray:
    """Length-113 Zadoff-Chu sequence, cyclically extended to ``total``."""
    if not 1 <= root < _ZC_LENGTH:
        raise ValueError(f"root must be in 1..{_ZC_LENGTH - 1}")
    n = np.arange(total) % _ZC_LENGTH
    return np.exp(-1j * np.pi * root * (n * (n + 1)) / _ZC_LENGTH)


@lru_cache(maxsize=4)
def zadoff_chu_set(cfg: InterlaceConfig, n_idft: int = 4096) -> np.ndarray:
    """Baseline set: the 30 lowest-PAPR roots of the length-113 Zadoff-Chu family,
    cyclically padded onto the interlace tones, as a (30, n_rb * n_sc) array of values
    on ``cfg.support()``; ranked once per ``(cfg, n_idft)`` and cached, so read-only."""
    total = cfg.n_rb * cfg.n_sc
    if total != 120:
        raise ValueError("the length-113 baseline maps onto 120 occupied tones")
    rows = np.stack([zc_sequence(root, total) for root in range(1, _ZC_LENGTH)])
    paprs = [papr_db(wave) for wave in _waveforms(cfg.support(), rows, cfg.grid_size, n_idft)]
    kept = rows[np.argsort(paprs, kind="stable")[:_ZC_SET_SIZE]]  # ties in root order
    kept.setflags(write=False)
    return kept


def cycling_baseline(cfg: InterlaceConfig, base) -> np.ndarray:
    """Comparison scheme on ``cfg.support()``: block k carries the base sequence
    cyclically shifted in time by k (progressive per-block modulation)."""
    base = as_sequence(base)
    if base.size != cfg.n_sc:
        raise ValueError(f"base sequence of length {base.size} needs {base.size} tones per RB")
    return np.concatenate([_modulate(base, k) for k in range(cfg.n_rb)])


@dataclass(frozen=True)
class Scheme:
    """One scheme of :data:`SCHEMES`.

    ``members(cfg, n_idft)``: the reference pairs, the coherent example as
    one ``(spread, half-block pair)``, or the ZC set's rows ranked by PAPR
    at ``n_idft`` points.  ``build(cfg, member, resources)``: a member's
    values on ``cfg.support()``, a row per cyclic shift, (pilot, data) phase
    pair or, for a baseline, ``None``.  ``resources(cfg)``: a sweep's
    ``(selector label, resource)`` pairs.  ``one_bit`` holds the NACK and
    ACK shifts of a one-bit payload or, with ``pilot_tones`` (pilots on the
    even local tones), its data phases; empty for a scheme with no payload.
    """

    members: Callable[..., Sequence]
    build: Callable[[InterlaceConfig, Any, Sequence], np.ndarray]
    resources: Callable[[InterlaceConfig], Sequence[tuple[str, Any]]]
    proposed: bool
    one_bit: tuple = ()
    pilot_tones: bool = False


def _reference_pairs(cfg: InterlaceConfig, n_idft: int = 4096):
    return load_reference_pairs()


@dataclass(frozen=True)
class _Shifts(Sequence):
    """A block's cyclic shifts as ``(label, shift)`` resources, sized before any is made."""

    cfg: InterlaceConfig

    def __len__(self):
        return self.cfg.n_sc

    def __getitem__(self, index: int):
        shift = range(self.cfg.n_sc)[index]  # an IndexError past the end stops iteration
        return f"shift={shift}", shift


def _no_resource(cfg: InterlaceConfig):
    return [("", None)]


def _noncoherent(cfg: InterlaceConfig, pair: GolayPair, shifts, adjacent: bool = False):
    return _noncoherent_rows(cfg, load_noncoherent_spread(), pair, shifts, adjacent)[0]


SCHEMES: dict[str, Scheme] = {
    # One-bit shifts with maximal separation inside a block of twelve.
    "noncoherent": Scheme(_reference_pairs, _noncoherent, _Shifts, proposed=True, one_bit=(0, 6)),
    "noncoherent-adjacent": Scheme(_reference_pairs, partial(_noncoherent, adjacent=True),
                                   _Shifts, proposed=True),
    "coherent": Scheme(
        lambda cfg, n_idft=4096: (load_coherent_example(),),
        lambda cfg, example, phases: _coherent_rows(cfg, *example, phases)[0],
        lambda cfg: [(f"phases={i}{j}", (w1, w2)) for i, w1 in enumerate(QPSK_PHASES)
                     for j, w2 in enumerate(QPSK_PHASES)],
        proposed=True, one_bit=_ONE_BIT_PHASES, pilot_tones=True,
    ),
    "cycling": Scheme(_reference_pairs,
                      lambda cfg, pair, _: cycling_baseline(cfg, pair.a)[None],
                      _no_resource, proposed=False),
    "zc": Scheme(zadoff_chu_set, lambda cfg, values, _: values[None],
                 _no_resource, proposed=False),
}
