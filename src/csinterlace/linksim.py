"""Monte-Carlo link simulation of the uplink control detection chain.

Per trial, one OFDM symbol carrying DTX (nothing), ACK, or NACK passes
through flat or per-block-independent Rayleigh fading with per-tone complex
Gaussian noise and two receive antennas.  Non-coherent detection correlates
the received grid against each candidate spectrum; coherent detection
estimates the channel from the built-in pilot tones and combines data tones
with maximum-ratio weights.  An energy threshold calibrated on noise-only
trials fixes the DTX-to-ACK rate.

Randomness is counter-based: every trial owns a Philox stream keyed by
(rng_seed, snr index, hypothesis, trial index), so results are bit-identical
regardless of how trials are batched or distributed.

Energy normalization: ``equal_total`` gives every scheme the same total
symbol energy as the reference interlace (single-block schemes then put ten
times the power on each tone), which is the fair-transmit-power comparison;
``per_tone`` matches per-tone energy instead.  The receiver matches its
combining to the channel correlation: coherent-across-blocks for flat
fading, independent per-block combining when blocks fade independently.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fixtures import load_coherent_example, load_noncoherent_spread, load_reference_pairs
from .golay import ConstructionParams, GolayPair, combine_gcps
from .interlace import (
    PILOT_PHASE,
    InterlaceConfig,
    SHIFT_MAP_1BIT,
    build_coherent,
    build_noncoherent,
)
from .seqcore import cyclic_modulate

SCHEMES = ("noncoherent", "coherent", "single-rb-noncoherent", "single-rb-coherent")
CHANNELS = ("flat", "iid_per_rb")

DTX, ACK, NACK = "DTX", "ACK", "NACK"

# Hypothesis stream identifiers baked into the per-trial RNG keys.
_HYP_CALIBRATE = 0
_HYP_DTX = 1
_HYP_ACK = 2
_HYP_NACK = 3
_HYP_VALIDATE = 4

_CHUNK = 4096


class CalibrationError(Exception):
    """Requested false-alarm rate cannot be realized by the trial budget."""


@dataclass(frozen=True)
class SimConfig:
    scheme: str = "noncoherent"
    channel: str = "iid_per_rb"
    snr_grid_db: tuple[float, ...] = tuple(float(s) for s in range(-10, 12, 2))
    n_rx: int = 2
    dtx_target: float = 0.01
    n_trials: int = 10_000
    rng_seed: int = 1
    calibration_trials: int = 100_000
    energy_norm: str = "equal_total"
    seq_index: int = 0
    n_rb: int = 10
    n_sc: int = 12
    n_null: int = 108

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if not 0 < self.dtx_target < 1:
            raise ValueError("dtx_target must lie strictly between 0 and 1")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.calibration_trials < 1:
            raise ValueError("calibration_trials must be >= 1")
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must hold at least one SNR point")
        if self.energy_norm not in ("equal_total", "per_tone"):
            raise ValueError("energy_norm must be equal_total or per_tone")
        if self.n_rx < 1:
            raise ValueError("need at least one receive antenna")


@dataclass(frozen=True)
class PointStats:
    snr_db: float
    dtx_to_ack: float
    nack_to_ack: float
    ack_miss: float
    ci_dtx: float
    ci_nack: float
    ci_miss: float


@dataclass(frozen=True, eq=False)
class SimReport:
    config: SimConfig
    threshold: float
    points: tuple[PointStats, ...]

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["snr_db", "dtx_to_ack", "nack_to_ack", "ack_miss", "ci_dtx", "ci_nack", "ci_miss"]
            )
            for p in self.points:
                writer.writerow(
                    [
                        f"{p.snr_db:.9g}", f"{p.dtx_to_ack:.9g}", f"{p.nack_to_ack:.9g}",
                        f"{p.ack_miss:.9g}", f"{p.ci_dtx:.9g}", f"{p.ci_nack:.9g}",
                        f"{p.ci_miss:.9g}",
                    ]
                )


@dataclass(frozen=True, eq=False)
class CoherentLayout:
    """Pilot/data tone positions and reference values inside the occupied grid."""

    pilot_idx: np.ndarray
    pilot_vals: np.ndarray  # includes the fixed pilot phase
    data_idx: np.ndarray
    data_vals: np.ndarray  # data tone values without the payload phase
    omegas: dict  # label -> payload phase


@dataclass(frozen=True, eq=False)
class _SchemeSignals:
    kind: str  # noncoherent | coherent
    n_blocks: int
    n_sc: int
    candidates: dict | None = None  # label -> occupied-tone values (non-coherent)
    layout: CoherentLayout | None = None

    @property
    def n_tones(self) -> int:
        return self.n_blocks * self.n_sc

    def tx_values(self, label: str) -> np.ndarray:
        if self.kind == "noncoherent":
            return self.candidates[label]
        values = np.zeros(self.n_tones, dtype=complex)
        values[self.layout.pilot_idx] = self.layout.pilot_vals
        values[self.layout.data_idx] = self.layout.omegas[label] * self.layout.data_vals
        return values


def _build_signals(cfg: SimConfig) -> _SchemeSignals:
    pairs = load_reference_pairs()
    rb_pair = pairs[cfg.seq_index % len(pairs)]
    geometry = InterlaceConfig(cfg.n_rb, cfg.n_sc, cfg.n_null)
    shift_ack = SHIFT_MAP_1BIT[1]
    shift_nack = SHIFT_MAP_1BIT[0]

    if cfg.scheme == "noncoherent":
        spread = load_noncoherent_spread()
        candidates = {
            label: build_noncoherent(geometry, spread, rb_pair, delta).values
            for label, delta in ((NACK, shift_nack), (ACK, shift_ack))
        }
        return _SchemeSignals("noncoherent", cfg.n_rb, cfg.n_sc, candidates=candidates)

    if cfg.scheme == "single-rb-noncoherent":
        candidates = {
            NACK: cyclic_modulate(rb_pair.a, shift_nack),
            ACK: cyclic_modulate(rb_pair.a, shift_ack),
        }
        return _SchemeSignals("noncoherent", 1, cfg.n_sc, candidates=candidates)

    spread, half = load_coherent_example()
    omegas = {NACK: complex(PILOT_PHASE), ACK: complex(-PILOT_PHASE)}
    if cfg.scheme == "coherent":
        base = build_coherent(geometry, spread, half, (PILOT_PHASE, 1.0)).values
        n_blocks = cfg.n_rb
    else:  # single-rb-coherent: one block of interleaved pilot/data tones
        unit = GolayPair.certify([1.0], [1.0])
        params = ConstructionParams(
            phase1=PILOT_PHASE, phase2=1.0, step1=1, step2=2, offset=1
        )
        base = combine_gcps(unit, half, params).a
        n_blocks = 1
    n_tones = n_blocks * cfg.n_sc
    local = np.arange(n_tones) % cfg.n_sc
    pilot_idx = np.flatnonzero(local % 2 == 0)
    data_idx = np.flatnonzero(local % 2 == 1)
    layout = CoherentLayout(
        pilot_idx=pilot_idx,
        pilot_vals=base[pilot_idx],
        data_idx=data_idx,
        data_vals=base[data_idx],
        omegas=omegas,
    )
    return _SchemeSignals("coherent", n_blocks, cfg.n_sc, layout=layout)


def _tone_amplitude(cfg: SimConfig, signals: _SchemeSignals, snr_db: float) -> float:
    es = 10.0 ** (snr_db / 10.0)
    if cfg.energy_norm == "equal_total":
        reference_tones = cfg.n_rb * cfg.n_sc
        es *= reference_tones / signals.n_tones
    return float(np.sqrt(es))


def _trial_rng(seed: int, snr_idx: int, hyp: int, trial: int) -> np.random.Generator:
    word = (
        (np.uint64(snr_idx & 0xFFFF) << np.uint64(48))
        | (np.uint64(hyp & 0xFF) << np.uint64(40))
        | np.uint64(trial & 0xFFFFFFFFFF)
    )
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    flat = rng.standard_normal(2 * int(np.prod(shape)))
    return (flat[0::2] + 1j * flat[1::2]).reshape(shape) / np.sqrt(2.0)


def _received_batch(
    cfg: SimConfig,
    signals: _SchemeSignals,
    snr_idx: int,
    hyp: int,
    trials: range,
    amp: float,
    label: str | None,
) -> np.ndarray:
    """Received occupied-tone grid for a batch of trials: (B, tones, rx)."""
    n_tones = signals.n_tones
    out = np.empty((len(trials), n_tones, cfg.n_rx), dtype=complex)
    tone_block = np.repeat(np.arange(signals.n_blocks), signals.n_sc)
    tx = signals.tx_values(label) if label is not None else None
    n_gain_groups = 1 if cfg.channel == "flat" else signals.n_blocks
    for row, trial in enumerate(trials):
        rng = _trial_rng(cfg.rng_seed, snr_idx, hyp, trial)
        if tx is None:
            out[row] = _complex_normal(rng, (n_tones, cfg.n_rx))
            continue
        gains = _complex_normal(rng, (n_gain_groups, cfg.n_rx))
        per_block = gains if n_gain_groups > 1 else np.broadcast_to(
            gains, (signals.n_blocks, cfg.n_rx)
        )
        noise = _complex_normal(rng, (n_tones, cfg.n_rx))
        out[row] = amp * per_block[tone_block] * tx[:, None] + noise
    return out


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

def _noncoherent_stats(
    received: np.ndarray, signals: _SchemeSignals, combine: str
) -> tuple[np.ndarray, list[str]]:
    """Candidate statistics (B, n_candidates) for a received batch."""
    labels = list(signals.candidates)
    templates = np.stack([signals.candidates[k] for k in labels])
    blocks = received.reshape(
        received.shape[0], signals.n_blocks, signals.n_sc, received.shape[2]
    )
    tblocks = templates.reshape(len(labels), signals.n_blocks, signals.n_sc)
    corr = np.einsum("bksa,cks->bcka", blocks, np.conj(tblocks))
    if combine == "per_rb":
        stats = np.sum(np.abs(corr) ** 2, axis=(2, 3))
    elif combine == "full_grid":
        stats = np.sum(np.abs(np.sum(corr, axis=2)) ** 2, axis=2)
    else:
        raise ValueError(f"unknown combining mode {combine!r}")
    return stats, labels


def _coherent_soft(
    received: np.ndarray, signals: _SchemeSignals, combine: str
) -> np.ndarray:
    """MRC-combined data soft symbol (B,) for a received batch."""
    layout = signals.layout
    n_blocks = signals.n_blocks
    b = received.shape[0]
    pilots = received[:, layout.pilot_idx, :]
    despread = pilots * np.conj(layout.pilot_vals)[None, :, None]
    per_block = despread.reshape(b, n_blocks, -1, received.shape[2])
    if combine == "per_rb":
        estimates = per_block.mean(axis=2)  # (B, blocks, rx)
    elif combine == "full_grid":
        estimates = np.broadcast_to(
            despread.mean(axis=1)[:, None, :], (b, n_blocks, received.shape[2])
        )
    else:
        raise ValueError(f"unknown combining mode {combine!r}")
    data = received[:, layout.data_idx, :] * np.conj(layout.data_vals)[None, :, None]
    soft_block = data.reshape(b, n_blocks, -1, received.shape[2]).sum(axis=2)
    return np.sum(np.conj(estimates) * soft_block, axis=(1, 2))


def _ack_claim_statistic(
    received: np.ndarray, signals: _SchemeSignals, combine: str
) -> np.ndarray:
    """Per-trial energy statistic, masked to -inf when ACK would lose the
    label competition; used by threshold calibration."""
    if signals.kind == "noncoherent":
        stats, labels = _noncoherent_stats(received, signals, combine)
        ack_col = labels.index(ACK)
        other = np.max(np.delete(stats, ack_col, axis=1), axis=1)
        out = np.where(stats[:, ack_col] >= other, stats[:, ack_col], -np.inf)
        return out
    z = _coherent_soft(received, signals, combine)
    scores = {k: np.real(z * np.conj(w)) for k, w in signals.layout.omegas.items()}
    ack_wins = scores[ACK] >= scores[NACK]
    return np.where(ack_wins, np.abs(z) ** 2, -np.inf)


def _decide(
    received: np.ndarray, signals: _SchemeSignals, threshold: float, combine: str
) -> np.ndarray:
    """Detector outputs for a received batch as an array of labels."""
    if signals.kind == "noncoherent":
        stats, labels = _noncoherent_stats(received, signals, combine)
        best = np.argmax(stats, axis=1)
        peak = np.max(stats, axis=1)
        out = np.array([labels[i] for i in best], dtype=object)
        out[peak < threshold] = DTX
        return out
    z = _coherent_soft(received, signals, combine)
    labels = list(signals.layout.omegas)
    scores = np.stack(
        [np.real(z * np.conj(signals.layout.omegas[k])) for k in labels], axis=1
    )
    out = np.array([labels[i] for i in np.argmax(scores, axis=1)], dtype=object)
    out[np.abs(z) ** 2 < threshold] = DTX
    return out


def detect_noncoherent(
    received, candidates: dict, threshold: float, combine: str = "per_rb"
) -> str:
    """Single-shot non-coherent detection.

    ``received`` holds the occupied-tone grid per antenna, shape
    (tones, antennas); ``candidates`` maps labels to transmitted spectra on
    the same grid.  Correlation energy is accumulated across blocks and
    antennas; below the threshold the verdict is DTX, otherwise the best
    correlating label wins.
    """
    received = np.asarray(received, dtype=complex)
    if received.ndim == 1:
        received = received[:, None]
    n_tones = received.shape[0]
    n_blocks = _infer_blocks(n_tones)
    signals = _SchemeSignals(
        "noncoherent",
        n_blocks=n_blocks,
        n_sc=n_tones // n_blocks,
        candidates={k: np.asarray(v, dtype=complex) for k, v in candidates.items()},
    )
    return str(_decide(received[None, ...], signals, threshold, combine)[0])


def _infer_blocks(n_tones: int, n_sc: int = 12) -> int:
    return n_tones // n_sc if n_tones % n_sc == 0 else 1


def detect_coherent(
    received, layout: CoherentLayout, threshold: float, combine: str = "per_rb"
) -> str:
    """Single-shot coherent detection with per-block least-squares channel
    estimates from the pilot tones and maximum-ratio data combining."""
    received = np.asarray(received, dtype=complex)
    if received.ndim == 1:
        received = received[:, None]
    n_tones = received.shape[0]
    n_blocks = _infer_blocks(n_tones)
    signals = _SchemeSignals(
        "coherent", n_blocks=n_blocks, n_sc=n_tones // n_blocks, layout=layout
    )
    return str(_decide(received[None, ...], signals, threshold, combine)[0])


def _combine_mode(cfg: SimConfig) -> str:
    # Receiver-side combining matched to the channel's block correlation.
    return "full_grid" if cfg.channel == "flat" else "per_rb"


def calibrate_dtx_threshold(cfg: SimConfig, target: float | None = None) -> float:
    """Energy threshold whose noise-only ACK-declaration rate hits the
    DTX-to-ACK target.

    Thresholds sit between adjacent order statistics of the noise-only
    statistic, found by bisecting the sorted sample (the declaration rate
    is monotone in the threshold).  Targets at or above the achievable
    maximum return 0.0 (declare whenever ACK wins); targets below the
    sample resolution return a threshold above the observed maximum.
    Raises :class:`CalibrationError` when the achieved rate misses the
    target by more than 10 % relative.
    """
    target = cfg.dtx_target if target is None else float(target)
    if not 0 < target <= 1:
        raise CalibrationError("target rate must lie in (0, 1]")
    signals = _build_signals(cfg)
    combine = _combine_mode(cfg)
    n = cfg.calibration_trials
    stats = np.empty(n)
    for start in range(0, n, _CHUNK):
        trials = range(start, min(start + _CHUNK, n))
        batch = _received_batch(cfg, signals, 0, _HYP_CALIBRATE, trials, 0.0, None)
        stats[trials] = _ack_claim_statistic(batch, signals, combine)

    finite = np.sort(stats[np.isfinite(stats)])[::-1]
    max_rate = finite.size / n
    if target >= max_rate:
        return 0.0
    k = int(round(n * target))
    if k == 0:
        return float(np.nextafter(finite[0], np.inf))
    threshold = float((finite[k - 1] + finite[k]) / 2.0)
    achieved = float(np.mean(stats >= threshold))
    if abs(achieved - target) > 0.1 * target:
        raise CalibrationError(
            f"achieved rate {achieved:.6f} misses target {target:.6f} by >10% "
            f"({n} calibration trials are too few or too degenerate)"
        )
    return threshold


def validate_dtx_rate(cfg: SimConfig, threshold: float, n_trials: int) -> float:
    """Fresh-stream noise-only ACK rate at a given threshold."""
    signals = _build_signals(cfg)
    combine = _combine_mode(cfg)
    hits = 0
    for start in range(0, n_trials, _CHUNK):
        trials = range(start, min(start + _CHUNK, n_trials))
        batch = _received_batch(cfg, signals, 0, _HYP_VALIDATE, trials, 0.0, None)
        stat = _ack_claim_statistic(batch, signals, combine)
        hits += int(np.sum(stat >= threshold))
    return hits / n_trials


def _binomial_ci(p: float, n: int) -> float:
    return float(1.96 * np.sqrt(max(p * (1.0 - p), 0.0) / n))


def run_sim(cfg: SimConfig) -> SimReport:
    """Calibrate, then sweep the SNR grid with DTX/ACK/NACK transmissions.

    Deterministic for a fixed ``rng_seed`` independent of batching; every
    rate comes with a 95 % binomial confidence half-width.
    """
    signals = _build_signals(cfg)
    combine = _combine_mode(cfg)
    threshold = calibrate_dtx_threshold(cfg)
    points = []
    for snr_idx, snr_db in enumerate(cfg.snr_grid_db):
        amp = _tone_amplitude(cfg, signals, snr_db)
        counts = {}
        for hyp, label in ((_HYP_DTX, None), (_HYP_ACK, ACK), (_HYP_NACK, NACK)):
            outcomes = {DTX: 0, ACK: 0, NACK: 0}
            for start in range(0, cfg.n_trials, _CHUNK):
                trials = range(start, min(start + _CHUNK, cfg.n_trials))
                batch = _received_batch(cfg, signals, snr_idx, hyp, trials, amp, label)
                decided = _decide(batch, signals, threshold, combine)
                values, tally = np.unique(decided, return_counts=True)
                for v, t in zip(values, tally):
                    outcomes[str(v)] += int(t)
            counts[hyp] = outcomes
        n = cfg.n_trials
        dtx_to_ack = counts[_HYP_DTX][ACK] / n
        nack_to_ack = counts[_HYP_NACK][ACK] / n
        ack_miss = (n - counts[_HYP_ACK][ACK]) / n
        points.append(
            PointStats(
                snr_db=float(snr_db),
                dtx_to_ack=dtx_to_ack,
                nack_to_ack=nack_to_ack,
                ack_miss=ack_miss,
                ci_dtx=_binomial_ci(dtx_to_ack, n),
                ci_nack=_binomial_ci(nack_to_ack, n),
                ci_miss=_binomial_ci(ack_miss, n),
            )
        )
    return SimReport(config=cfg, threshold=threshold, points=tuple(points))


def single_rb_config(cfg: SimConfig) -> SimConfig:
    """The matching single-block baseline of an interlaced configuration."""
    mapping = {
        "noncoherent": "single-rb-noncoherent",
        "coherent": "single-rb-coherent",
    }
    if cfg.scheme not in mapping:
        raise ValueError("config already describes a single-block scheme")
    return replace(cfg, scheme=mapping[cfg.scheme])
