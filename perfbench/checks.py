"""Output checks that feed the benchmark's fail ratio.

Every check returns ``(name, ok, detail)``.  The checks never trust the
program's own verdicts alone:

* deterministic outputs (the length-12 pair library, the set search, the
  PAPR and cross-correlation CSVs) are compared byte for byte with the
  SHA-256 digests recorded in ``expected.json``;
* every ``is_complementary_sequence`` answer is compared with an independent
  oracle, membership of the phase-normalized query in the enumerated library;
* link-simulation reports are held against the analytic DTX null and the
  calibration target through Wilson intervals, and the signal path (ACK miss
  falling with SNR, ACK miss and NACK->ACK under a loose ceiling) likewise,
  so the checks keep working when the simulator's random stream changes.

Only numpy and the standard library are used here.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

# Wilson intervals at z = 5.5 put a correct program outside a bound with
# probability of about 4e-8 per check.
Z = 5.5

# Loose ceiling on the ACK-miss rate at 0 dB and above and on the pooled
# NACK->ACK rate; a correct detector stays more than ten times below it.
SIGNAL_CEILING = 0.01

SYMBOLS = "+-ij"
SYMBOL_VALUES = np.array([1, -1, 1j, -1j], dtype=complex)


def check(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_check(name: str, data: bytes) -> tuple[str, bool, str]:
    """Compare an output's digest with the one recorded for ``name``."""
    want = EXPECTED["sha256"][name]
    got = sha256(data)
    return check(f"digest:{name}", got == want, f"sha256 {got[:16]} want {want[:16]}")


# ---------------------------------------------------------------------------
# Pair library and set search
# ---------------------------------------------------------------------------

def enumerate_checks(data: bytes) -> list[tuple[str, bool, str]]:
    checks = [digest_check("enumerate-gcps-12.json", data)]
    try:
        payload = json.loads(data)
        count = len(payload["pairs"])
    except (ValueError, KeyError, TypeError) as exc:
        return checks + [check("enumerate:parse", False, repr(exc))]
    want = EXPECTED["enumerate_pairs"]
    checks.append(check("enumerate:pairs", count == want == payload.get("count"),
                        f"{count} pairs, want {want}"))
    return checks


def search_sets_checks(data: bytes) -> list[tuple[str, bool, str]]:
    checks = [digest_check("search-sets.json", data)]
    try:
        payload = json.loads(data)
    except ValueError as exc:
        return checks + [check("search-sets:parse", False, repr(exc))]
    checks.append(check("search-sets:verified", payload.get("verified") is True,
                        f"verified={payload.get('verified')}"))
    return checks


def output_checks(path: Path, check_fn) -> list[tuple[str, bool, str]]:
    """``check_fn`` on the bytes of an output; a missing output fails."""
    if not path.is_file():
        return [check(f"output:{path.name}", False, "missing")]
    return check_fn(path.read_bytes())


def file_digest_checks(directory: Path, names: list[str]) -> list[tuple[str, bool, str]]:
    checks = []
    for name in names:
        path = directory / name
        if not path.is_file():
            checks.append(check(f"digest:{name}", False, "missing"))
        else:
            checks.append(digest_check(name, path.read_bytes()))
    return checks


# ---------------------------------------------------------------------------
# is_complementary_sequence oracle
# ---------------------------------------------------------------------------

def parse_symbols(text: str) -> np.ndarray:
    return SYMBOL_VALUES[[SYMBOLS.index(ch) for ch in text]]


def format_symbols(seq: np.ndarray) -> str:
    return "".join(SYMBOLS[int(np.flatnonzero(SYMBOL_VALUES == v)[0])] for v in seq)


def library_members(pairs: list[list[str]]) -> set[str]:
    """Every canonical sequence that is one half of an enumerated pair."""
    return {member for pair in pairs for member in pair}


def oracle_answer(query: np.ndarray, members: set[str]) -> bool:
    """A quaternary sequence has a mate iff its phase-normalized form
    (first element +1) is a member of the exhaustive canonical library."""
    return format_symbols(query * np.conj(query[0])) in members


def oracle_checks(queries, answers, members: set[str]) -> list[tuple[str, bool, str]]:
    checks = []
    for index, (query, answer) in enumerate(zip(queries, answers)):
        want = oracle_answer(query, members)
        checks.append(check(f"is_complementary_sequence:{index}", answer is want,
                            f"{format_symbols(query)}: got {answer}, oracle {want}"))
    if len(answers) != len(queries):
        checks.append(check("is_complementary_sequence:count", False,
                            f"{len(answers)} answers for {len(queries)} queries"))
    return checks


# ---------------------------------------------------------------------------
# Link simulation: analytic null and Wilson intervals
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, n: float, z: float = Z) -> tuple[float, float]:
    """Wilson score interval (Brown, Cai and DasGupta, Stat. Sci. 2001).

    ``n`` may be an effective sample size; unlike the Wald interval it is
    not degenerate at zero successes.
    """
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2.0 * n)) / denom
    half = z / denom * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def newcombe_difference(k1: int, n1: float, k2: int, n2: float,
                        z: float = Z) -> tuple[float, float]:
    """Interval for p1 - p2 built from the two Wilson intervals (Newcombe's
    hybrid score method, Stat. Med. 1998)."""
    p1, p2 = k1 / n1, k2 / n2
    l1, u1 = wilson_interval(k1, n1, z)
    l2, u2 = wilson_interval(k2, n2, z)
    d = p1 - p2
    return (d - math.sqrt((p1 - l1) ** 2 + (u2 - p2) ** 2),
            d + math.sqrt((u1 - p1) ** 2 + (p2 - l2) ** 2))


def gamma_cdf(x: float, shape: int, scale: float) -> float:
    """CDF of scale * Gamma(shape) for integer shape (a finite Poisson sum)."""
    y = x / scale
    terms = np.cumprod(np.r_[1.0, np.full(shape - 1, y) / np.arange(1, shape)])
    return float(1.0 - np.exp(-y) * np.sum(terms))


def null_false_ack(threshold: float, shape: int, scale: float) -> float:
    """P(false ACK) under DTX for the non-coherent detector.

    The ACK and NACK statistics are i.i.d. ``scale * Gamma(shape)`` because
    the two cyclic shifts are orthogonal in every block, so
    P(X >= t, X >= Y) = (1 - F(t)^2) / 2.
    """
    f = gamma_cdf(threshold, shape, scale)
    return (1.0 - f * f) / 2.0


def null_shape(report: dict) -> tuple[int, float] | None:
    """(shape, scale) of the per-candidate null statistic, or None when no
    closed form applies (coherent schemes, or full-grid combining)."""
    if report["channel"] != "iid_per_rb" or "noncoherent" not in report["scheme"]:
        return None
    blocks = 1 if report["scheme"].startswith("single-rb") else report["n_rb"]
    return blocks * report["n_rx"], float(report["n_sc"])


def sim_checks(report: dict) -> list[tuple[str, bool, str]]:
    """Statistical checks of one link-simulation report.

    ``report`` is a plain dict: the config fields ``scheme``, ``channel``,
    ``n_trials``, ``calibration_trials``, ``dtx_target``, ``n_rx``, ``n_rb``,
    ``n_sc`` and ``snr_grid_db``, plus ``threshold`` and ``points`` (dicts
    with ``snr_db``, ``dtx_to_ack``, ``nack_to_ack`` and ``ack_miss``).
    """
    tag = f"sim:{report['scheme']}/{report['channel']}"
    n = report["n_trials"]
    n_cal = report["calibration_trials"]
    target = report["dtx_target"]
    points = report["points"]
    checks = [check(f"{tag}:points",
                    [p["snr_db"] for p in points] == list(report["snr_grid_db"]),
                    f"{len(points)} points")]
    counts = {}
    for key in ("dtx_to_ack", "nack_to_ack", "ack_miss"):
        raw = np.array([p[key] for p in points], dtype=float) * n
        whole = np.round(raw)
        ok = bool(np.all(np.abs(raw - whole) < 1e-6) and np.all((whole >= 0) & (whole <= n)))
        checks.append(check(f"{tag}:{key}:counts", ok, "rates are counts over n_trials"))
        counts[key] = whole.astype(int)
    threshold = report["threshold"]
    checks.append(check(f"{tag}:threshold", math.isfinite(threshold) and threshold > 0,
                        f"threshold {threshold!r}"))

    pooled = int(counts["dtx_to_ack"].sum())
    n_pool = n * len(points)
    shape = null_shape(report)
    if shape is not None:
        p_true = null_false_ack(threshold, *shape)
        k_cal = round(n_cal * target)
        lo, hi = wilson_interval(k_cal, n_cal)
        checks.append(check(
            f"{tag}:calibrated-threshold", lo <= p_true <= hi,
            f"null P(false ACK) at t={threshold:.6g} is {p_true:.6g}; "
            f"calibration interval [{lo:.6g}, {hi:.6g}]"))
        lo, hi = wilson_interval(pooled, n_pool)
        checks.append(check(
            f"{tag}:dtx_to_ack-vs-null", lo <= p_true <= hi,
            f"pooled {pooled}/{n_pool}, interval [{lo:.6g}, {hi:.6g}], null {p_true:.6g}"))
    else:
        # The realized rate scatters around the target twice: once through
        # the calibration sample and once through the pooled DTX trials.
        n_eff = 1.0 / (1.0 / n_pool + 1.0 / n_cal)
        lo, hi = wilson_interval(pooled * n_eff / n_pool, n_eff)
        checks.append(check(
            f"{tag}:dtx_to_ack-vs-target", lo <= target <= hi,
            f"pooled {pooled}/{n_pool}, interval [{lo:.6g}, {hi:.6g}], target {target}"))

    # Signal path: the ACK is found far more often at high SNR than at the
    # lowest point, and above 0 dB both error rates are well under 1 %.
    misses = counts["ack_miss"]
    top = [k for k, p in enumerate(points) if p["snr_db"] >= 0.0]
    top_misses, n_top = int(misses[top].sum()), n * len(top)
    lo, hi = newcombe_difference(int(misses[0]), n, top_misses, n_top)
    checks.append(check(
        f"{tag}:ack_miss-falls", lo > 0.0,
        f"{misses[0]}/{n} misses at {points[0]['snr_db']} dB, {top_misses}/{n_top} at >= 0 dB;"
        f" difference interval [{lo:.6g}, {hi:.6g}]"))
    lo = wilson_interval(top_misses, n_top)[0]
    checks.append(check(
        f"{tag}:ack_miss-ceiling", lo <= SIGNAL_CEILING,
        f"{top_misses}/{n_top} misses at >= 0 dB, interval from {lo:.6g},"
        f" ceiling {SIGNAL_CEILING}"))
    false_acks = int(counts["nack_to_ack"].sum())
    lo = wilson_interval(false_acks, n_pool)[0]
    checks.append(check(
        f"{tag}:nack_to_ack-ceiling", lo <= SIGNAL_CEILING,
        f"pooled {false_acks}/{n_pool}, interval from {lo:.6g}, ceiling {SIGNAL_CEILING}"))
    for k in range(len(points) - 1):
        upper_prev = wilson_interval(int(misses[k]), n)[1]
        lower_next = wilson_interval(int(misses[k + 1]), n)[0]
        checks.append(check(
            f"{tag}:ack_miss-monotone:{k + 1}", lower_next <= upper_prev,
            f"{misses[k]} then {misses[k + 1]} misses of {n}"))
    return checks


def report_dict(report) -> dict:
    """Plain-dict view of a ``linksim.SimReport`` for :func:`sim_checks`."""
    cfg = report.config
    out = {key: getattr(cfg, key) for key in (
        "scheme", "channel", "n_trials", "calibration_trials", "dtx_target",
        "n_rx", "n_rb", "n_sc")}
    out["snr_grid_db"] = [float(s) for s in cfg.snr_grid_db]
    out["threshold"] = float(report.threshold)
    out["points"] = [
        {"snr_db": p.snr_db, "dtx_to_ack": p.dtx_to_ack,
         "nack_to_ack": p.nack_to_ack, "ack_miss": p.ack_miss}
        for p in report.points
    ]
    return out


def fail_ratio(checks) -> tuple[int, int]:
    """(failed, attempted) over a list of checks."""
    return sum(1 for _, ok, _ in checks if not ok), len(checks)
