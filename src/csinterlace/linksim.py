"""Monte-Carlo link simulation of the uplink control detection chain.

Per trial, one OFDM symbol carrying DTX (nothing), ACK, or NACK passes
through flat or per-block-independent Rayleigh fading with per-tone complex
Gaussian noise and two receive antennas; as in the paper, the antenna count
and the 1 % DTX-to-ACK target are fixed.  Outcomes are the integer codes
``NACK, ACK, DTX = 0, 1, 2``.  The NACK and ACK transmissions are an
interlace of :data:`csinterlace.interlace.SCHEMES` with the scheme's one-bit
resources; a ``single-rb-`` form sends the first block of that interlace.

The detectors see the received grid only through two statistics per block
and antenna, which the simulator draws in place of the grid (the
sufficient-statistic reduction).  With gain g and unit-power tone noise,
non-coherent: the correlations with the NACK and ACK transmissions,
independent CN(amp·n_sc·g·[that one sent], n_sc) as the two are orthogonal
with energy n_sc in every block; coherent, over the n_p = n_sc/2 pilot and
data tones: the mean of received/reference, CN(amp·g, 1/n_p), and the sum
of received·conj(reference), CN(n_p·amp·g·φ, n_p) for payload phase φ, as
the reference tones have unit modulus.  ``_build_signals`` checks both.

``scores(stats) -> (scores, energy)`` gives NACK and ACK scores (2, B) and
an energy (B,).  The non-coherent detector adds the squared correlations
per block (iid fading) or squares their sums over the blocks (flat), and
its energy is the larger score; the coherent one estimates the channel by
the pilot mean of each block (iid) or of the grid (flat), combines the data
sums with maximum-ratio weights into one soft symbol z, scores z against
the two payload phases, and its energy is |z|².  A decision is the better
score (NACK on a tie), or DTX below an energy threshold set on noise-only
trials, where a trial claims ACK when the ACK score is at least the NACK
score, to fix the DTX-to-ACK rate.

Randomness is counter-based (Salmon et al., SC'11): each block of
``_KEY_BLOCK`` trials is drawn whole from a Philox stream keyed by
(rng_seed, snr index, hypothesis, key-block index), so no trial depends on
batching or on the trial count.  The statistics use real +, - and × only,
correctly rounded in every SIMD kernel, and sum blocks and antennas in a
fixed order, so reports do not depend on the CPU's kernels.

Energy normalization: ``equal_total`` gives every scheme the same total
symbol energy as the reference interlace (single-block schemes then put ten
times the power on each tone), the fair-transmit-power comparison;
``per_tone`` matches per-tone energy instead.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import interlace
from .interlace import PILOT_PHASE, InterlaceConfig

# The interlace schemes that carry a one-bit payload, each also sent as the
# first block of its interlace alone (the ``single-rb-`` forms).
_INTERLACES = tuple(name for name, s in interlace.SCHEMES.items() if s.one_bit)
SCHEMES = _INTERLACES + tuple(f"single-rb-{name}" for name in _INTERLACES)
CHANNELS = ("flat", "iid_per_rb")

# Outcome codes; NACK and ACK also index the detectors' score rows.
NACK, ACK, DTX = 0, 1, 2

# Hypothesis stream identifiers baked into the RNG keys.
_HYP_CALIBRATE, _HYP_DTX, _HYP_ACK, _HYP_NACK = range(4)

_KEY_BLOCK = 1000  # trials per random stream
_CHUNK = 4000  # trials per batch, rounded up to whole key blocks
_ROUNDING = 1e-12  # relative, in the checks that the statistics' law rests on
_SEED_LIMIT = 1 << 64
_TRIAL_LIMIT = 1 << 40
_SNR_LIMIT = 1 << 16


class CalibrationError(Exception):
    """The DTX-to-ACK target cannot be realized by the calibration trials."""


@dataclass(frozen=True)
class SimConfig:
    scheme: str = "noncoherent"
    channel: str = "iid_per_rb"
    snr_grid_db: tuple[float, ...] = tuple(float(s) for s in range(-10, 12, 2))
    n_trials: int = 10_000
    rng_seed: int = 1
    calibration_trials: int = 100_000
    energy_norm: str = "equal_total"
    # The geometry of the shipped fixtures (ten blocks of twelve tones
    # spaced 120 apart) and the paper's receive antennas and DTX-to-ACK target.
    n_rb: ClassVar[int] = 10
    n_sc: ClassVar[int] = 12
    n_null: ClassVar[int] = 108
    n_rx: ClassVar[int] = 2
    dtx_target: ClassVar[float] = 0.01

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        # The seed is one 64-bit word of the RNG key, and key-block and SNR
        # indices are 40- and 16-bit fields of the other; values outside
        # would alias other streams.
        seed = self.rng_seed
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _SEED_LIMIT:
            raise ValueError("rng_seed must be an integer in [0, 2**64)")
        for name in ("n_trials", "calibration_trials"):
            if not 1 <= getattr(self, name) < _TRIAL_LIMIT:
                raise ValueError(f"{name} must lie in [1, 2**40)")
        if not 1 <= len(self.snr_grid_db) <= _SNR_LIMIT:
            raise ValueError("snr_grid_db must hold between 1 and 2**16 SNR points")
        if not np.all(np.isfinite(self.snr_grid_db)):
            raise ValueError("snr_grid_db must hold finite SNR points")
        if self.energy_norm not in ("equal_total", "per_tone"):
            raise ValueError("energy_norm must be equal_total or per_tone")


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
        """One row per point, a column per :class:`PointStats` field."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f.name for f in fields(PointStats)])
            writer.writerows([f"{v:.9g}" for v in astuple(p)] for p in self.points)


def _ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the first axis, one slice at a time in index order, so that
    the bits do not depend on the reduction kernel numpy picks."""
    total = x[0].copy()
    for part in x[1:]:
        total += part
    return total


@dataclass(frozen=True, eq=False)
class _Noncoherent:
    """Adds the squared NACK and ACK correlations of every block (iid
    fading), or squares their sums over the blocks (flat)."""

    per_block: bool

    def scores(self, stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        re, im = stats  # (blocks, rx, 2, B): the NACK and ACK correlations
        if not self.per_block:
            re, im = _ordered_sum(re), _ordered_sum(im)
        power = re * re + im * im
        scores = _ordered_sum(power.reshape(-1, *power.shape[-2:]))
        return scores, np.maximum(scores[NACK], scores[ACK])


@dataclass(frozen=True, eq=False)
class _Coherent:
    """Channel estimates from the pilot means, maximum-ratio combining of the
    data sums into one soft symbol z, scored against the NACK and ACK
    payload phases."""

    phases: np.ndarray  # (2,) payload phases in NACK, ACK order
    per_block: bool  # one estimate per block (iid fading) or one for the grid (flat)

    def scores(self, stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Pilot means (the channel estimates) and data sums, (blocks, rx, B) each.
        (est_re, data_re), (est_im, data_im) = stats.transpose(0, 3, 1, 2, 4)
        if not self.per_block:  # the mean over every pilot of the grid
            est_re, est_im = _ordered_sum(est_re) / len(est_re), _ordered_sum(est_im) / len(est_im)
        n_trials = stats.shape[-1]
        # z = sum of conj(estimate) * data over blocks and antennas.
        z_re = _ordered_sum((est_re * data_re + est_im * data_im).reshape(-1, n_trials))
        z_im = _ordered_sum((est_re * data_im - est_im * data_re).reshape(-1, n_trials))
        # Re(z * conj(phase)) per phase, and |z|^2.
        scores = self.phases.real[:, None] * z_re + self.phases.imag[:, None] * z_im
        return scores, z_re * z_re + z_im * z_im


@dataclass(frozen=True, eq=False)
class _SchemeSignals:
    tx: np.ndarray  # (2, tones): NACK and ACK values on the occupied tones
    n_blocks: int
    detector: _Noncoherent | _Coherent
    # Statistic r of a trial sending s: CN(amp * gain * mean[s, r], noise_std[r] ** 2).
    mean: np.ndarray  # (2, 2) complex
    noise_std: np.ndarray  # (2,)


def _build_signals(cfg: SimConfig) -> _SchemeSignals:
    """The NACK and ACK transmissions of member 0 of the scheme, its
    detector (the coherent one for a scheme with pilot tones) and the law
    of the detector's statistics; ``ValueError`` if the scheme breaks what
    that law rests on."""
    scheme = interlace.SCHEMES[cfg.scheme.removeprefix("single-rb-")]
    geometry = InterlaceConfig(cfg.n_rb, cfg.n_sc, cfg.n_null)
    member = scheme.members(geometry)[0]
    per_block = cfg.channel != "flat"

    resources = [(PILOT_PHASE, bit) if scheme.pilot_tones else bit for bit in scheme.one_bit]
    tx = scheme.build(geometry, member, resources)
    if cfg.scheme.startswith("single-rb-"):  # the first block of the interlace
        tx = tx[:, : cfg.n_sc]
    n_blocks = tx.shape[1] // cfg.n_sc

    if not scheme.pilot_tones:
        templates = tx.reshape(2, n_blocks, cfg.n_sc)
        gram = np.einsum("cks,dks->kcd", templates, np.conj(templates))
        if np.max(np.abs(gram - cfg.n_sc * np.eye(2))) > _ROUNDING * cfg.n_sc:
            raise ValueError(f"{cfg.scheme}: NACK and ACK are not orthogonal with energy "
                             f"{cfg.n_sc} in every block")
        return _SchemeSignals(tx, n_blocks, _Noncoherent(per_block),
                              cfg.n_sc * np.eye(2, dtype=complex), np.full(2, np.sqrt(cfg.n_sc)))

    if np.max(np.abs(np.abs(tx) - 1.0)) > _ROUNDING:
        raise ValueError(f"{cfg.scheme}: the reference tones are not of unit modulus")
    # Pilots on the even tones of each block, data on the odd ones.
    phases = np.array(scheme.one_bit)  # NACK, ACK
    n_p = cfg.n_sc // 2
    mean = np.stack([np.ones(2), n_p * phases], axis=1)  # pilot mean, data sum
    noise_std = np.array([1.0 / np.sqrt(n_p), np.sqrt(n_p)])
    return _SchemeSignals(tx, n_blocks, _Coherent(phases, per_block), mean, noise_std)


def _tone_amplitude(cfg: SimConfig, signals: _SchemeSignals, snr_db: float) -> float:
    es = 10.0 ** (snr_db / 10.0)
    if cfg.energy_norm == "equal_total":
        es *= cfg.n_rb * cfg.n_sc / signals.tx.shape[1]  # the reference interlace's tones
    return float(np.sqrt(es))


def _batches(n: int) -> list[range]:
    step = -(-_CHUNK // _KEY_BLOCK) * _KEY_BLOCK  # _CHUNK trials in whole key blocks
    return [range(start, min(start + step, n)) for start in range(0, n, step)]


def _draw_statistics(cfg: SimConfig, signals: _SchemeSignals, snr_idx: int, hyp: int,
                     trials: range, amp: float, sent: int | None) -> np.ndarray:
    """Detector statistics (re/im, block, rx, row, trial) of a range of
    trials; ``sent`` is NACK or ACK, or None for noise only.

    A key block's stream gives the gains of all its trials (per block and
    antenna, or per antenna on a flat channel), then the noise, real parts
    before imaginary ones, each a standard normal scaled by 1/sqrt(2).
    """
    groups = 1 if cfg.channel == "flat" else signals.n_blocks
    shape = (signals.n_blocks, cfg.n_rx, 2, _KEY_BLOCK)
    noise_scale = (signals.noise_std / np.sqrt(2.0))[:, None]
    mean_re, mean_im = signals.mean.real[:, :, None], signals.mean.imag[:, :, None]
    key = np.array([cfg.rng_seed, 0], dtype=np.uint64)
    stream = (snr_idx << 48) | (hyp << 40)
    blocks = []
    for block in range(trials.start // _KEY_BLOCK, -(-trials.stop // _KEY_BLOCK)):
        key[1] = stream | block
        gen = np.random.Generator(np.random.Philox(key=key))
        if sent is not None:
            gains = gen.standard_normal((2, groups, cfg.n_rx, 1, _KEY_BLOCK))
            gains *= amp / np.sqrt(2.0)
        stats = gen.standard_normal((2, *shape))
        stats *= noise_scale
        if sent is not None:  # amp * gain * mean[sent], in real arithmetic
            g_re, g_im = gains
            stats[0] += mean_re[sent] * g_re - mean_im[sent] * g_im
            stats[1] += mean_re[sent] * g_im + mean_im[sent] * g_re
        blocks.append(stats)
    offset = trials.start % _KEY_BLOCK
    return np.concatenate(blocks, axis=-1)[..., offset : offset + len(trials)]


def _decide(stats: np.ndarray, detector: _Noncoherent | _Coherent, threshold: float) -> np.ndarray:
    """Outcome codes (B,) of a batch of statistics: the better scoring of
    NACK and ACK (NACK on a tie), or DTX where the energy is below the
    threshold."""
    scores, energy = detector.scores(stats)
    codes = np.argmax(scores, axis=0)
    codes[energy < threshold] = DTX
    return codes


def _ack_claim_statistic(stats: np.ndarray, detector: _Noncoherent | _Coherent) -> np.ndarray:
    """Per-trial energy, masked to -inf where NACK outscores ACK (ACK wins a
    tie); the statistic that threshold calibration ranks."""
    scores, energy = detector.scores(stats)
    return np.where(scores[ACK] >= scores[NACK], energy, -np.inf)


def calibrate_dtx_threshold(cfg: SimConfig, signals: _SchemeSignals | None = None) -> float:
    """Energy threshold whose noise-only ACK-declaration rate hits the
    DTX-to-ACK target :attr:`SimConfig.dtx_target`.

    The threshold sits midway between the k-th and (k+1)-th largest
    noise-only statistics, k the target share of the calibration trials
    (the declaration rate is monotone in the threshold).  Raises
    :class:`CalibrationError` when k is 0 or not below the number of ACK
    claims, or when the achieved rate misses the target by more than 10 %
    relative.  ``signals``, built from ``cfg`` if not given, are run_sim's.
    """
    target = cfg.dtx_target
    n = cfg.calibration_trials
    signals = _build_signals(cfg) if signals is None else signals
    stats = np.empty(n)
    for trials in _batches(n):
        batch = _draw_statistics(cfg, signals, 0, _HYP_CALIBRATE, trials, 0.0, None)
        stats[trials] = _ack_claim_statistic(batch, signals.detector)

    finite = np.sort(stats[np.isfinite(stats)])[::-1]
    k = int(round(n * target))
    if not 0 < k < finite.size:
        raise CalibrationError(f"target {target:.6f} of {n} calibration trials is {k} of their "
                               f"{finite.size} ACK claims; a threshold needs 1 to all but one")
    threshold = float((finite[k - 1] + finite[k]) / 2.0)
    achieved = float(np.mean(stats >= threshold))
    if abs(achieved - target) > 0.1 * target:
        raise CalibrationError(
            f"achieved rate {achieved:.6f} misses target {target:.6f} by >10% "
            f"({n} calibration trials are too few or too degenerate)"
        )
    return threshold


def _binomial_ci(p: float, n: int) -> float:
    """Half-width of the 95 % Wilson interval of a rate p over n trials, on
    its wider side: unlike the Wald interval, not 0 at a rate of 0 or 1."""
    z2 = 1.96**2
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = math.sqrt(z2 * p * (1 - p) / n + z2 * z2 / (4 * n * n)) / (1 + z2 / n)
    return half + abs(centre - p)


def run_sim(cfg: SimConfig) -> SimReport:
    """Calibrate, then sweep the SNR grid with DTX/ACK/NACK transmissions.

    Deterministic for a fixed ``rng_seed`` independent of batching; every
    rate comes with a 95 % Wilson confidence half-width.
    """
    signals = _build_signals(cfg)  # built and certified once per run
    threshold = calibrate_dtx_threshold(cfg, signals)
    n = cfg.n_trials
    points = []
    for snr_idx, snr_db in enumerate(cfg.snr_grid_db):
        amp = _tone_amplitude(cfg, signals, snr_db)
        acks = {}  # hypothesis -> trials decided ACK
        for hyp, sent in ((_HYP_DTX, None), (_HYP_ACK, ACK), (_HYP_NACK, NACK)):
            tally = np.zeros(3, dtype=np.int64)
            for trials in _batches(n):
                stats = _draw_statistics(cfg, signals, snr_idx, hyp, trials, amp, sent)
                tally += np.bincount(_decide(stats, signals.detector, threshold), minlength=3)
            acks[hyp] = int(tally[ACK])
        # DTX-to-ACK, NACK-to-ACK and ACK miss, then their interval half-widths.
        rates = (acks[_HYP_DTX] / n, acks[_HYP_NACK] / n, (n - acks[_HYP_ACK]) / n)
        points.append(PointStats(float(snr_db), *rates, *(_binomial_ci(r, n) for r in rates)))
    return SimReport(config=cfg, threshold=threshold, points=tuple(points))
