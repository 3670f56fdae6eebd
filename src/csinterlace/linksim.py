"""Monte-Carlo link simulation of the uplink control detection chain.

Per trial, one OFDM symbol carrying DTX (nothing), ACK, or NACK passes
through flat or per-block-independent Rayleigh fading with per-tone complex
Gaussian noise and two receive antennas.  Outcomes are the integer codes
``NACK, ACK, DTX = 0, 1, 2``.

Each scheme has one of two detectors, and both answer one call,
``scores(received) -> (scores, energy)``: for a batch of received grids
(B, tones, rx) it gives the NACK and ACK scores (B, 2), in that order, and
an energy (B,).  The non-coherent detector correlates the grid with the NACK
and ACK spectra, and its energy is the larger correlation; the coherent one
estimates the channel from the built-in pilot tones, combines the data
tones with maximum-ratio weights into a soft symbol z, scores z against the
two payload phases, and its energy is |z|².  A decision is the better score
(NACK on a tie), or DTX below an energy threshold; the threshold is
calibrated on noise-only trials, where a trial claims ACK when the ACK
score is at least the NACK score, to fix the DTX-to-ACK rate.

Randomness is counter-based: every trial owns a Philox stream keyed by
(rng_seed, snr index, hypothesis, trial index), so results are bit-identical
regardless of how trials are batched or distributed.  A batch re-keys one
bit generator per trial rather than building one, which gives each trial
the same stream as a fresh generator on its key.

Energy normalization: ``equal_total`` gives every scheme the same total
symbol energy as the reference interlace (single-block schemes then put ten
times the power on each tone), which is the fair-transmit-power comparison;
``per_tone`` matches per-tone energy instead.  The receiver matches its
combining to the channel correlation: coherent-across-blocks for flat
fading, independent per-block combining when blocks fade independently.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

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

# Outcome codes; NACK and ACK also index the detectors' score columns.
NACK, ACK, DTX = 0, 1, 2

# Hypothesis stream identifiers baked into the per-trial RNG keys.
_HYP_CALIBRATE = 0
_HYP_DTX = 1
_HYP_ACK = 2
_HYP_NACK = 3
_HYP_VALIDATE = 4

_CHUNK = 4096
_SEED_LIMIT = 1 << 64
_TRIAL_LIMIT = 1 << 40
_SNR_LIMIT = 1 << 16


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
    # The geometry of the shipped fixtures: ten blocks of twelve tones
    # spaced 120 apart.
    n_rb: ClassVar[int] = 10
    n_sc: ClassVar[int] = 12
    n_null: ClassVar[int] = 108

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if not 0 < self.dtx_target < 1:
            raise ValueError("dtx_target must lie strictly between 0 and 1")
        # The seed is one 64-bit word of the per-trial RNG key, and trial
        # and SNR indices are 40- and 16-bit fields of the other; values
        # outside would alias other streams.
        seed = self.rng_seed
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _SEED_LIMIT:
            raise ValueError("rng_seed must be an integer in [0, 2**64)")
        for name in ("n_trials", "calibration_trials"):
            if not 1 <= getattr(self, name) < _TRIAL_LIMIT:
                raise ValueError(f"{name} must lie in [1, 2**40)")
        if not 1 <= len(self.snr_grid_db) <= _SNR_LIMIT:
            raise ValueError("snr_grid_db must hold between 1 and 2**16 SNR points")
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
class _Noncoherent:
    """Correlates the received grid with the NACK and ACK spectra."""

    templates: np.ndarray  # (2, blocks, n_sc) in NACK, ACK order
    per_block: bool  # add block energies (iid fading) or block correlations (flat)

    def scores(self, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, n_blocks, n_sc = self.templates.shape
        blocks = received.reshape(received.shape[0], n_blocks, n_sc, received.shape[2])
        corr = np.einsum("bksa,cks->bcka", blocks, np.conj(self.templates))
        if self.per_block:
            scores = np.sum(np.abs(corr) ** 2, axis=(2, 3))
        else:
            scores = np.sum(np.abs(np.sum(corr, axis=2)) ** 2, axis=2)
        return scores, np.max(scores, axis=1)


@dataclass(frozen=True, eq=False)
class _Coherent:
    """Least-squares channel estimates from the pilot tones, maximum-ratio
    combining of the data tones into one soft symbol z, scored against the
    NACK and ACK payload phases."""

    pilot_idx: np.ndarray  # even tones of each block
    data_idx: np.ndarray  # odd tones of each block
    reference: np.ndarray  # (tones,) transmitted values without the payload phase
    phases: np.ndarray  # (2,) payload phases in NACK, ACK order
    n_blocks: int
    per_block: bool  # one estimate per block (iid fading) or one for the grid (flat)

    def scores(self, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Index arrays, not slices: the gathered arrays' memory layout fixes
        # the summation order of the reductions below, and with it the bits.
        b, _, n_rx = received.shape
        pilots = received[:, self.pilot_idx, :] * np.conj(self.reference[self.pilot_idx])[:, None]
        if self.per_block:
            estimates = pilots.reshape(b, self.n_blocks, -1, n_rx).mean(axis=2)
        else:
            estimates = np.broadcast_to(
                pilots.mean(axis=1)[:, None, :], (b, self.n_blocks, n_rx)
            )
        data = received[:, self.data_idx, :] * np.conj(self.reference[self.data_idx])[:, None]
        soft_block = data.reshape(b, self.n_blocks, -1, n_rx).sum(axis=2)
        z = np.sum(np.conj(estimates) * soft_block, axis=(1, 2))
        return np.real(z[:, None] * np.conj(self.phases)), np.abs(z) ** 2


@dataclass(frozen=True, eq=False)
class _SchemeSignals:
    tx: np.ndarray  # (2, tones): NACK and ACK values on the occupied tones
    n_blocks: int
    detector: _Noncoherent | _Coherent


def _build_signals(cfg: SimConfig) -> _SchemeSignals:
    pairs = load_reference_pairs()
    rb_pair = pairs[cfg.seq_index % len(pairs)]
    geometry = InterlaceConfig(cfg.n_rb, cfg.n_sc, cfg.n_null)
    shifts = SHIFT_MAP_1BIT  # payload values 0 and 1: NACK, ACK
    per_block = cfg.channel != "flat"

    if cfg.scheme.endswith("noncoherent"):
        if cfg.scheme == "noncoherent":
            spread = load_noncoherent_spread()
            tx = np.stack([build_noncoherent(geometry, spread, rb_pair, d).values for d in shifts])
        else:
            tx = np.stack([cyclic_modulate(rb_pair.a, d) for d in shifts])
        n_blocks = tx.shape[1] // cfg.n_sc
        templates = tx.reshape(2, n_blocks, cfg.n_sc)
        return _SchemeSignals(tx, n_blocks, _Noncoherent(templates, per_block))

    spread, half = load_coherent_example()
    if cfg.scheme == "coherent":
        base = build_coherent(geometry, spread, half, (PILOT_PHASE, 1.0)).values
    else:  # single-rb-coherent: one block of interleaved pilot/data tones
        unit = GolayPair.certify([1.0], [1.0])
        params = ConstructionParams(
            phase1=PILOT_PHASE, phase2=1.0, step1=1, step2=2, offset=1
        )
        base = combine_gcps(unit, half, params).a
    # Pilots on the even tones of each block, data on the odd ones.
    pilot_idx, data_idx = np.arange(0, base.size, 2), np.arange(1, base.size, 2)
    n_blocks = base.size // cfg.n_sc
    phases = np.array([PILOT_PHASE, -PILOT_PHASE])  # NACK, ACK
    tx = np.tile(base, (2, 1))
    tx[:, data_idx] *= phases[:, None]
    detector = _Coherent(pilot_idx, data_idx, base, phases, n_blocks, per_block)
    return _SchemeSignals(tx, n_blocks, detector)


def _tone_amplitude(cfg: SimConfig, signals: _SchemeSignals, snr_db: float) -> float:
    es = 10.0 ** (snr_db / 10.0)
    if cfg.energy_norm == "equal_total":
        reference_tones = cfg.n_rb * cfg.n_sc
        es *= reference_tones / signals.tx.shape[1]
    return float(np.sqrt(es))


def _received_batch(
    cfg: SimConfig,
    signals: _SchemeSignals,
    snr_idx: int,
    hyp: int,
    trials: range,
    amp: float,
    sent: int | None,
) -> np.ndarray:
    """Received occupied-tone grid for a batch of trials: (B, tones, rx).
    ``sent`` is NACK or ACK, or None for noise only.

    Each trial's stream gives first the fading gains (one per block and
    antenna, or one per antenna on a flat channel), then the noise of every
    tone and antenna; each complex value is a (re, im) pair of standard
    normals scaled by 1/sqrt(2).
    """
    n_trials, n_tones = len(trials), signals.tx.shape[1]
    out = np.empty((n_trials, n_tones, cfg.n_rx), dtype=complex)
    # The normals are drawn straight into float64 views, whose consecutive
    # (re, im) pairs are the complex values.  The noise is the largest array
    # of a batch, and a separate buffer of normals with complex temporaries
    # would raise the simulator's peak memory by about a sixth.
    noise = out.view(np.float64)
    gains = None
    if sent is not None:
        n_groups = 1 if cfg.channel == "flat" else signals.n_blocks
        gains = np.empty((n_trials, n_groups, 2 * cfg.n_rx))
    # One bit generator, re-keyed per trial: a fresh key with the counter at
    # zero and an empty output buffer is the state a new Philox(key=...)
    # starts in, so every trial keeps its own stream.
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = np.array([cfg.rng_seed, 0], dtype=np.uint64)
    state["state"] = {"counter": np.zeros(4, dtype=np.uint64), "key": key}
    stream = (snr_idx << 48) | (hyp << 40)
    for row, trial in enumerate(trials):
        key[1] = stream | trial
        bitgen.state = state
        if gains is not None:
            gen.standard_normal(out=gains[row])
        gen.standard_normal(out=noise[row])
    scale = 1.0 / np.sqrt(2.0)
    noise *= scale
    if gains is None:
        return out
    gains *= scale
    tx = signals.tx[sent].reshape(n_groups, -1)
    grid = out.reshape(n_trials, n_groups, -1, cfg.n_rx)  # a view: tones by gain group
    grid += (amp * gains.view(complex))[:, :, None, :] * tx[None, :, :, None]
    return out


def _decide(
    received: np.ndarray, detector: _Noncoherent | _Coherent, threshold: float
) -> np.ndarray:
    """Outcome codes (B,) of a received batch: the better scoring of NACK and
    ACK (NACK on a tie), or DTX where the energy is below the threshold."""
    scores, energy = detector.scores(received)
    codes = np.argmax(scores, axis=1)
    codes[energy < threshold] = DTX
    return codes


def _ack_claim_statistic(received: np.ndarray, detector: _Noncoherent | _Coherent) -> np.ndarray:
    """Per-trial energy, masked to -inf where NACK outscores ACK (ACK wins a
    tie); the statistic that threshold calibration ranks."""
    scores, energy = detector.scores(received)
    return np.where(scores[:, ACK] >= scores[:, NACK], energy, -np.inf)


def _noise_claims(cfg: SimConfig, hyp: int, n: int) -> np.ndarray:
    """ACK-claim statistics of ``n`` noise-only trials on stream ``hyp``."""
    signals = _build_signals(cfg)
    stats = np.empty(n)
    for start in range(0, n, _CHUNK):
        trials = range(start, min(start + _CHUNK, n))
        batch = _received_batch(cfg, signals, 0, hyp, trials, 0.0, None)
        stats[trials] = _ack_claim_statistic(batch, signals.detector)
    return stats


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
    n = cfg.calibration_trials
    stats = _noise_claims(cfg, _HYP_CALIBRATE, n)

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
    if not 1 <= n_trials < _TRIAL_LIMIT:
        raise ValueError("n_trials must lie in [1, 2**40)")
    stats = _noise_claims(cfg, _HYP_VALIDATE, n_trials)
    return int(np.sum(stats >= threshold)) / n_trials


def _binomial_ci(p: float, n: int) -> float:
    return float(1.96 * np.sqrt(max(p * (1.0 - p), 0.0) / n))


def run_sim(cfg: SimConfig) -> SimReport:
    """Calibrate, then sweep the SNR grid with DTX/ACK/NACK transmissions.

    Deterministic for a fixed ``rng_seed`` independent of batching; every
    rate comes with a 95 % binomial confidence half-width.
    """
    signals = _build_signals(cfg)
    threshold = calibrate_dtx_threshold(cfg)
    n = cfg.n_trials
    points = []
    for snr_idx, snr_db in enumerate(cfg.snr_grid_db):
        amp = _tone_amplitude(cfg, signals, snr_db)
        acks = {}  # hypothesis -> trials decided ACK
        for hyp, sent in ((_HYP_DTX, None), (_HYP_ACK, ACK), (_HYP_NACK, NACK)):
            tally = np.zeros(3, dtype=np.int64)
            for start in range(0, n, _CHUNK):
                trials = range(start, min(start + _CHUNK, n))
                batch = _received_batch(cfg, signals, snr_idx, hyp, trials, amp, sent)
                tally += np.bincount(_decide(batch, signals.detector, threshold), minlength=3)
            acks[hyp] = int(tally[ACK])
        dtx_to_ack = acks[_HYP_DTX] / n
        nack_to_ack = acks[_HYP_NACK] / n
        ack_miss = (n - acks[_HYP_ACK]) / n
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
