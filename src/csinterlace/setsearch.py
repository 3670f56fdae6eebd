"""Greedy construction of low-cross-correlation pair sets.

Seeds are walked in order; each seed contributes its eight equivalence-orbit
variants, and a variant is admitted when both of its members stay at or
below the correlation budget against every member already admitted (first
members against first members, second against second).  Short sets are a
valid outcome: the search reports what it found rather than failing.

The search owns its shift grid (:func:`_shift_grid`): admission takes one
GEMM of it with all admitted rows, verification one GEMV per pair, kept
apart because the two round differently in the last bits of the maxima.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .golay import GolayPair, equivalence_orbit
from .metrics import _bernstein_slack
from .seqcore import is_gcp

# Grid density on which verification re-evaluates a pair that a coarser
# grid fails to certify: the continuous bound tightens as the grid fills.
_REFINED_U = 128


@lru_cache(maxsize=2)
def _shift_grid(n: int, u: int) -> np.ndarray:
    """Phasor table exp(2j*pi*n*delta/N), row t at the shift delta = t/u, t < N*u;
    the two cached entries hold a search's density and verification's refined one."""
    deltas = np.arange(n * u) / float(u)
    return np.exp(2j * np.pi * np.outer(deltas, np.arange(n)) / n)


@dataclass(frozen=True)
class AdmissionRecord:
    seed_index: int
    orbit_index: int
    admitted: bool
    max_xcorr: float  # worst correlation seen against the set at test time


@dataclass(frozen=True, eq=False)
class SequenceSetPair:
    """Matched sets of first/second pair members with their certificate
    parameters (correlation budget ``beta`` on the shift grid of density
    ``u``)."""

    pairs: tuple[GolayPair, ...]
    beta: float
    u: int
    admission_log: tuple[AdmissionRecord, ...] = ()

    @property
    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    size: int
    max_xcorr_first: float
    max_xcorr_second: float
    violations: tuple[str, ...]


def _passes(candidate: np.ndarray, members: np.ndarray, u: int, beta: float) -> tuple[bool, float]:
    """Correlation test of one candidate member against all admitted rows.

    Integer shifts form a sub-grid of the fractional grid, so the cheap
    batched FFT over them is a lower bound and rejects most hopeless
    candidates before the full explicit sweep.
    """
    if members.shape[0] == 0:
        return True, 0.0
    n = candidate.size
    products = np.conj(members) * candidate[None, :]
    coarse = float(np.max(np.abs(np.fft.ifft(products, axis=1))))
    if coarse > beta:
        return False, coarse
    worst = float(np.max(np.abs(_shift_grid(n, u) @ products.T))) / n
    return worst <= beta, worst


def build_sets(
    seeds: Iterable[GolayPair],
    beta: float,
    u: int,
    k_target: int,
) -> SequenceSetPair:
    """Greedy admission over the seed pairs and their equivalence orbits.

    Stops once ``k_target`` pairs are admitted or the seeds run out.
    Deterministic: identical seed order gives identical output.
    """
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    if u < 1:
        raise ValueError("u must be >= 1")
    if k_target < 1:
        raise ValueError("k_target must be >= 1")

    admitted: list[GolayPair] = []
    first_rows: list[np.ndarray] = []
    second_rows: list[np.ndarray] = []
    log: list[AdmissionRecord] = []

    for seed_index, seed in enumerate(seeds):
        if len(admitted) >= k_target:
            break
        for orbit_index, candidate in enumerate(equivalence_orbit(seed)):
            if len(admitted) >= k_target:
                break
            ok_a, worst_a = _passes(candidate.a, np.array(first_rows), u, beta)
            if ok_a:
                ok_b, worst_b = _passes(candidate.b, np.array(second_rows), u, beta)
            else:
                ok_b, worst_b = False, 0.0
            worst = max(worst_a, worst_b)
            if ok_a and ok_b:
                admitted.append(candidate)
                first_rows.append(candidate.a)
                second_rows.append(candidate.b)
            log.append(AdmissionRecord(seed_index, orbit_index, ok_a and ok_b, worst))

    return SequenceSetPair(tuple(admitted), float(beta), int(u), tuple(log))


def verify_sets(sets: SequenceSetPair) -> VerifyReport:
    """Recompute every invariant of a set pair from scratch.

    Checks member-wise complementarity and all pairwise fractional-shift
    correlations at the stored grid density, certifying ``beta`` for every
    real shift through the continuous bound of the grid maximum (refined
    on a denser grid where a coarse one falls short); violations are
    reported, not raised.  A malformed set, with pairs of unequal lengths
    or a density ``u`` below 1, is a ValueError.
    """
    u = int(sets.u)
    if u < 1:
        raise ValueError("shift grid density must be >= 1")
    if len({pair.a.size for pair in sets.pairs}) > 1:
        raise ValueError("the pairs of a set must share one length")
    violations = [f"pair {i} is not complementary"
                  for i, pair in enumerate(sets.pairs) if not is_gcp(pair.a, pair.b)]
    max_first = _pairwise_max([p.a for p in sets.pairs], u, sets.beta, "first", violations)
    max_second = _pairwise_max([p.b for p in sets.pairs], u, sets.beta, "second", violations)
    return VerifyReport(
        ok=not violations,
        size=sets.size,
        max_xcorr_first=max_first,
        max_xcorr_second=max_second,
        violations=tuple(violations),
    )


def _grid_peak(a: np.ndarray, b: np.ndarray, u: int) -> tuple[float, float]:
    """The largest normalized correlation of ``a`` with the fractional cyclic
    modulations of ``b`` on the grid of density ``u`` (one GEMV), and the
    upper bound over every real shift that this grid maximum gives.

    |p(theta)|^2, p the correlation polynomial of degree d = N-1, is a
    trigonometric polynomial of degree d, so between two of the M = N*u grid
    points it passes the larger end by at most r = pi^2 d^2 / (2 M^2) times
    its maximum (:func:`metrics._bernstein_slack`): max |p| <= grid /
    sqrt(1 - r), infinite when the root is not real, never above sum |a_n||b_n| / N.
    """
    n = a.size
    grid = float(np.max(np.abs(_shift_grid(n, u) @ (np.conj(a) * b))) / n)
    root = 1.0 - _bernstein_slack(n - 1, n * u)
    bernstein = grid / np.sqrt(root) if root > 0 else np.inf
    return grid, float(min(bernstein, np.sum(np.abs(a) * np.abs(b)) / n))


def _pairwise_max(
    members: Sequence[np.ndarray], u: int, beta: float, label: str, violations: list[str]
) -> float:
    """Largest grid correlation among ``members``; a pair whose continuous
    bound exceeds ``beta`` is a violation, since some shift between the
    grid points may exceed it.  Below ``_REFINED_U`` such a pair is first
    re-evaluated on that denser grid, whose bound is as valid and usually
    tighter; the returned maximum stays that of the grid of density ``u``."""
    worst = 0.0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            density = u
            value, bound = _grid_peak(members[i], members[j], u)
            worst = max(worst, value)
            if bound > beta + 1e-9 and u < _REFINED_U:
                density = _REFINED_U
                value, bound = _grid_peak(members[i], members[j], density)
            if bound > beta + 1e-9:
                violations.append(
                    f"{label} members {i} and {j} correlate at {value:.6f} on the "
                    f"u = {density} grid, up to {bound:.6f} between its points > beta"
                )
    return worst
