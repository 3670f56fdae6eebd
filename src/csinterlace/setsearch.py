"""Greedy construction of low-cross-correlation pair sets.

Seeds are walked in order; each seed contributes its eight equivalence-orbit
variants, and a variant is admitted when both of its members stay at or
below the correlation budget against every member already admitted (first
members against first members, second against second).  Short sets are a
valid outcome: the search reports what it found rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .golay import GolayPair, equivalence_orbit
from .metrics import fractional_xcorr_max, shift_matrix


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

    @property
    def first_members(self) -> list[np.ndarray]:
        return [p.a for p in self.pairs]

    @property
    def second_members(self) -> list[np.ndarray]:
        return [p.b for p in self.pairs]


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
    worst = float(np.max(np.abs(shift_matrix(n, u) @ products.T))) / n
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
            members_a = np.array(first_rows) if first_rows else np.empty((0, candidate.length))
            members_b = np.array(second_rows) if second_rows else np.empty((0, candidate.length))
            ok_a, worst_a = _passes(candidate.a, members_a, u, beta)
            if ok_a:
                ok_b, worst_b = _passes(candidate.b, members_b, u, beta)
            else:
                ok_b, worst_b = False, 0.0
            worst = max(worst_a, worst_b)
            if ok_a and ok_b:
                admitted.append(candidate)
                first_rows.append(np.asarray(candidate.a, dtype=complex))
                second_rows.append(np.asarray(candidate.b, dtype=complex))
            log.append(AdmissionRecord(seed_index, orbit_index, ok_a and ok_b, worst))

    return SequenceSetPair(tuple(admitted), float(beta), int(u), tuple(log))


def verify_sets(sets: SequenceSetPair) -> VerifyReport:
    """Recompute every invariant of a set pair from scratch.

    Checks member-wise complementarity and all pairwise fractional-shift
    correlations at the stored grid density, certifying ``beta`` for every
    real shift through the continuous bound of the grid maximum;
    violations are reported, not raised.
    """
    violations: list[str] = []
    for i, pair in enumerate(sets.pairs):
        try:
            GolayPair.certify(pair.a, pair.b, tol=0.0 if _is_exact(pair) else 1e-9)
        except Exception:
            violations.append(f"pair {i} is not complementary")

    max_first = _pairwise_max(sets.first_members, sets.u, sets.beta, "first", violations)
    max_second = _pairwise_max(sets.second_members, sets.u, sets.beta, "second", violations)
    return VerifyReport(
        ok=not violations,
        size=sets.size,
        max_xcorr_first=max_first,
        max_xcorr_second=max_second,
        violations=tuple(violations),
    )


def _is_exact(pair: GolayPair) -> bool:
    gaussian = np.concatenate([pair.a, pair.b])
    return bool(
        np.all(gaussian.real == np.round(gaussian.real))
        and np.all(gaussian.imag == np.round(gaussian.imag))
    )


def _continuous_bound(grid: float, a: np.ndarray, b: np.ndarray, u: int) -> float:
    """Upper bound on the correlation of ``a`` and ``b`` over every real
    shift, from its maximum ``grid`` on the grid of density ``u``.

    |p(theta)|^2, p the correlation polynomial of degree d = N-1, is a
    trigonometric polynomial of degree d, so Bernstein's inequality bounds
    its second derivative by d^2 times its maximum.  Every shift lies
    within pi/M of one of the M = N*u grid points, which gives
    max |p| <= grid / sqrt(1 - pi^2 d^2 / (2 M^2)); the bound is infinite
    when the root is not real, and never above sum |a_n||b_n| / N.
    """
    n = a.size
    root = 1.0 - (np.pi * (n - 1) / (n * u)) ** 2 / 2.0
    bernstein = grid / np.sqrt(root) if root > 0 else np.inf
    return float(min(bernstein, np.sum(np.abs(a) * np.abs(b)) / n))


def _pairwise_max(
    members: Sequence[np.ndarray], u: int, beta: float, label: str, violations: list[str]
) -> float:
    """Largest grid correlation among ``members``; a pair whose continuous
    bound exceeds ``beta`` is a violation, since some shift between the
    grid points may exceed it."""
    worst = 0.0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            value = fractional_xcorr_max(members[i], members[j], u)
            worst = max(worst, value)
            bound = _continuous_bound(value, members[i], members[j], u)
            if bound > beta + 1e-9:
                violations.append(
                    f"{label} members {i} and {j} correlate at {value:.6f} on the grid, "
                    f"up to {bound:.6f} between its points > beta"
                )
    return worst
