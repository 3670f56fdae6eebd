"""Monte-Carlo link simulation of the uplink control detection chain.

Per trial, one OFDM symbol carrying DTX (nothing), ACK, or NACK passes
through flat or per-block-independent Rayleigh fading with per-tone complex
Gaussian noise and two receive antennas; as in the paper, the antenna count
and the 1 % DTX-to-ACK target are fixed.  Outcomes are the integer codes
``NACK, ACK, DTX = 0, 1, 2``.  The NACK and ACK transmissions are an
interlace of :data:`csinterlace.interlace.SCHEMES` with the scheme's one-bit
resources; a ``single-rb-`` form sends the first block of that interlace.

The simulator draws what the detectors decide on, not the grid.  The n_blk
blocks fade in G groups of b = n_blk/G with one unit-power gain g per group
and antenna (G = 1 when flat, n_blk under ``iid_per_rb``); the tone noise
has unit power and the tones amplitude amp.  Non-coherent: a group's
correlations with the NACK and ACK transmissions are independent
CN(amp·b·n_sc·g·[that one sent], b·n_sc), the two being orthogonal with
energy n_sc in every block, so their squares added over groups and
antennas, the NACK and ACK scores, are v·Gamma(G·n_rx) with v =
b·n_sc·(1 + amp²·b·n_sc) for the one sent and b·n_sc for the other; the
energy is the larger score.  Coherent, over the b·n_p pilot and data tones
of a group (n_p = n_sc/2): the mean of received/reference, CN(amp·g,
1/(b·n_p)), and the sum of received·conj(reference), CN(b·n_p·amp·g·φ,
b·n_p) for payload phase φ, the reference having unit modulus; the pilot
means weight the data sums into one soft symbol z, scored against the two
payload phases, of energy |z|².  ``_build_signals`` checks both laws.  A
decision is the better score (NACK on a tie), or DTX below an energy
threshold set on noise-only trials, where a trial claims ACK when the ACK
score is at least the NACK score, to fix the DTX-to-ACK rate.

Randomness is counter-based (Salmon et al., SC'11): each block of
``_KEY_BLOCK`` trials is drawn whole from a Philox stream keyed by
(rng_seed, snr index, hypothesis, key-block index), so no trial depends on
batching or on the trial count.  The variates come from numpy's scalar
samplers and the statistics use real +, - and × only, summed in a fixed
order, so reports do not depend on the CPU's SIMD kernels.

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
from typing import ClassVar, Iterator

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
    # The blocks of the shipped fixtures (ten of twelve tones; the statistics
    # never see the nulls between them) and the paper's receive antennas and
    # DTX-to-ACK target.
    n_rb: ClassVar[int] = 10
    n_sc: ClassVar[int] = 12
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


@dataclass(frozen=True, eq=False)
class _Noncoherent:
    """The NACK and ACK scores, squared correlations added over ``shape`` =
    G·n_rx groups and antennas: v·Gamma(shape) with v = n·(1 + amp²·n) for
    the transmission sent and v = ``n`` = b·n_sc otherwise."""

    shape: int
    n: int

    def draw(self, gen: np.random.Generator, amp: float, sent: int | None) -> np.ndarray:
        power = np.full(2, float(self.n))
        if sent is not None:
            power[sent] += amp * amp * self.n * self.n
        return gen.standard_gamma(self.shape, (2, _KEY_BLOCK)) * power[:, None]

    def scores(self, stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return stats, np.maximum(stats[NACK], stats[ACK])


@dataclass(frozen=True, eq=False)
class _Coherent:
    """Pilot means as maximum-ratio weights of the data sums in one soft
    symbol z, scored against the NACK and ACK payload phases."""

    phases: np.ndarray  # (2,) payload phases in NACK, ACK order
    shape: tuple[int, int]  # fading groups, antennas
    # Statistic r of a group sending s: CN(amp * gain * mean[s, r], noise_std[r] ** 2).
    mean: np.ndarray  # (2, 2) complex
    noise_std: np.ndarray  # (2,)

    def draw(self, gen: np.random.Generator, amp: float, sent: int | None) -> np.ndarray:
        """(re/im, group, rx, row, trial): all the gains, then the noise, each re before im."""
        if sent is not None:
            gains = gen.standard_normal((2, *self.shape, 1, _KEY_BLOCK))
            gains *= amp / np.sqrt(2.0)
        stats = gen.standard_normal((2, *self.shape, 2, _KEY_BLOCK))
        stats *= (self.noise_std / np.sqrt(2.0))[:, None]
        if sent is not None:  # amp * gain * mean[sent], in real arithmetic
            (g_re, g_im), mean = gains, self.mean[sent][:, None]
            stats[0] += mean.real * g_re - mean.imag * g_im
            stats[1] += mean.real * g_im + mean.imag * g_re
        return stats

    def scores(self, stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Pilot means (the channel estimates) and data sums, (groups, rx, B) each.
        (est_re, data_re), (est_im, data_im) = stats.transpose(0, 3, 1, 2, 4)
        # z = sum of conj(estimate) * data over groups and antennas, added in index order by
        # Python's sum, so that the bits do not depend on numpy's reduction kernels.
        terms = np.stack([est_re * data_re + est_im * data_im, est_re * data_im - est_im * data_re],
                         axis=2).reshape(-1, 2, stats.shape[-1])
        z_re, z_im = sum(terms[1:], terms[0])
        # Re(z * conj(phase)) per phase, and |z|^2.
        scores = self.phases.real[:, None] * z_re + self.phases.imag[:, None] * z_im
        return scores, z_re * z_re + z_im * z_im


@dataclass(frozen=True, eq=False)
class _SchemeSignals:
    tx: np.ndarray  # (2, tones): NACK and ACK values on the occupied tones
    detector: _Noncoherent | _Coherent


def _build_signals(cfg: SimConfig) -> _SchemeSignals:
    """The NACK and ACK transmissions of member 0 of the scheme and its
    detector (coherent for a scheme with pilot tones), with the law of its
    statistics; ``ValueError`` if the scheme breaks what that law rests on."""
    scheme = interlace.SCHEMES[cfg.scheme.removeprefix("single-rb-")]
    geometry = InterlaceConfig(cfg.n_rb, cfg.n_sc)
    resources = [(PILOT_PHASE, bit) if scheme.pilot_tones else bit for bit in scheme.one_bit]
    tx = scheme.build(geometry, scheme.members(geometry)[0], resources)
    if cfg.scheme.startswith("single-rb-"):  # the first block of the interlace
        tx = tx[:, : cfg.n_sc]
    n_blocks = tx.shape[1] // cfg.n_sc
    groups = 1 if cfg.channel == "flat" else n_blocks
    pool = n_blocks // groups  # blocks that fade as one gain: b

    if not scheme.pilot_tones:
        templates = tx.reshape(2, n_blocks, cfg.n_sc)
        gram = np.einsum("cks,dks->kcd", templates, np.conj(templates))
        if np.max(np.abs(gram - cfg.n_sc * np.eye(2))) > _ROUNDING * cfg.n_sc:
            raise ValueError(f"{cfg.scheme}: NACK and ACK are not orthogonal with energy "
                             f"{cfg.n_sc} in every block")
        return _SchemeSignals(tx, _Noncoherent(groups * cfg.n_rx, pool * cfg.n_sc))

    if np.max(np.abs(np.abs(tx) - 1.0)) > _ROUNDING:
        raise ValueError(f"{cfg.scheme}: the reference tones are not of unit modulus")
    # Pilots on the even tones of each block, data on the odd ones.
    phases = np.array(scheme.one_bit)  # NACK, ACK
    n_p = pool * (cfg.n_sc // 2)
    mean = np.stack([np.ones(2), n_p * phases], axis=1)  # pilot mean, data sum
    noise_std = np.array([1.0 / np.sqrt(n_p), np.sqrt(n_p)])
    return _SchemeSignals(tx, _Coherent(phases, (groups, cfg.n_rx), mean, noise_std))


def _tone_amplitude(cfg: SimConfig, signals: _SchemeSignals, snr_db: float) -> float:
    es = 10.0 ** (snr_db / 10.0)
    if cfg.energy_norm == "equal_total":
        es *= cfg.n_rb * cfg.n_sc / signals.tx.shape[1]  # the reference interlace's tones
    return float(np.sqrt(es))


def _batches(n: int) -> Iterator[range]:
    step = -(-_CHUNK // _KEY_BLOCK) * _KEY_BLOCK  # _CHUNK trials in whole key blocks
    return (range(start, min(start + step, n)) for start in range(0, n, step))


def _draw_statistics(cfg: SimConfig, signals: _SchemeSignals, snr_idx: int, hyp: int,
                     trials: range, amp: float, sent: int | None) -> np.ndarray:
    """The detector's statistics of a range of trials, trial last; ``sent``
    is NACK or ACK, or None for noise only.  One Philox is re-keyed for
    each key block: counter 0 and an empty buffer, as a new one."""
    bit_generator = np.random.Philox(0)
    gen, state = np.random.Generator(bit_generator), bit_generator.state
    key = state["state"]["key"]
    key[0], stream = cfg.rng_seed, (snr_idx << 48) | (hyp << 40)
    blocks = []
    for block in range(trials.start // _KEY_BLOCK, -(-trials.stop // _KEY_BLOCK)):
        key[1] = stream | block
        bit_generator.state = state
        blocks.append(signals.detector.draw(gen, amp, sent))
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
    target, n = cfg.dtx_target, cfg.calibration_trials
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
