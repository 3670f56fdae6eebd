"""Independent oracles shared by the test modules.

These deliberately avoid the library's coefficient-domain code paths:
polynomials are evaluated by direct summation so they can vouch for
``golay.combine_gcps``, and :func:`xcorr_oracle` sweeps every shift of a
grid explicitly to vouch for the FFT cross-correlation peaks of
``metrics.xcorr_matrix`` and the set search's fractional-shift grid,
spectra are synthesized by an O(N^2) loop to vouch for the FFT path, the
proposed interlaces are placed block by block and tone by tone from the
paper's equations (:func:`noncoherent_model`, :func:`coherent_model`) to
vouch for the builders, and :func:`on_grid` puts support values back on the
dense grid for the checks that read whole sequences,
autocorrelations are summed term by term to vouch for ``seqcore``'s
autocorrelation kernel, and the pair library is enumerated from the full
table of all canonical autocorrelation keys, with no spectral
filter, to vouch for the filtered enumeration.  The link simulator draws
only what its detectors decide on: the non-coherent scores and the coherent
statistics pooled per fading group.  Full received grids are built here
trial by trial, with explicit loops over blocks, antennas and tones, and a
scalar reference receiver scores them, to vouch for the detectors on the
grids' projection onto those statistics; the same projection of the grid
model gives the statistics' covariance, to vouch for the draws, and the
non-coherent error rates have closed forms, computed with ``math`` alone,
to vouch for ``run_sim``.
``EXPECTED`` holds the output digests that ``perfbench/expected.json``
records for the benchmark, and :func:`load_bench_checks` imports the
benchmark's ``checks.py``.
"""

import cmath
import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from csinterlace.linksim import SimConfig, run_sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


def load_bench_checks():
    """``perfbench/checks.py`` as a module, imported as it stands."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def poly_eval(coeffs, z: complex) -> complex:
    """Evaluate sum(coeffs[i] * z**i) by direct accumulation."""
    total = 0j
    power = 1.0 + 0j
    for c in np.asarray(coeffs, dtype=complex):
        total += c * power
        power *= z
    return total


def xcorr_oracle(x, y, n_idft: int) -> float:
    """Peak over the dense grid and over the rows (blocks) of x * conj(y),
    by direct evaluation of each row's polynomial at every grid point.
    With ``n_idft = N * u`` it is the maximum over the fractional shifts
    0, 1/u, ..., N - 1/u of the set search's grid of density u."""
    n = np.shape(x)[-1]
    points = np.exp(2j * np.pi * np.arange(n_idft) / n_idft)
    return max(np.max(np.abs(poly_eval(row, points)))
               for row in np.atleast_2d(x * np.conj(y))) / n


def apac(seq, k: int) -> complex:
    """Aperiodic autocorrelation sum(conj(a[n]) * a[n + k]) at integer lag
    ``k``, one term at a time; negative lags by conjugate symmetry, zero at
    and beyond the length.  Exact on quaternary input."""
    arr = np.asarray(seq, dtype=complex).reshape(-1)
    if k < 0:
        return complex(np.conj(apac(arr, -k)))
    total = 0j
    for n in range(arr.size - k):
        total += np.conj(arr[n]) * arr[n + k]
    return complex(total)


def on_grid(cfg, rows) -> np.ndarray:
    """Rows of values on ``cfg.support()`` placed on the dense grid of
    ``cfg.grid_size`` tones, zero on the nulls."""
    rows = np.asarray(rows, dtype=complex)
    dense = np.zeros(rows.shape[:-1] + (cfg.grid_size,), dtype=complex)
    dense[..., cfg.support()] = rows
    return dense


# The phase coefficient of both non-coherent branches, exp(j pi / 4).
_NONCOHERENT_PHASE = cmath.exp(1j * math.pi / 4)


def noncoherent_model(cfg, spread, pair, shift, adjacent: bool) -> np.ndarray:
    """The dense first sequence of the non-coherent interlace.  Block k and, in
    the standard layout, block k + n_rb / 2 (block 2k and 2k + 1 if ``adjacent``)
    carry spread.a[k] * c and spread.b[k] * d, times the phase, where (c, d) is
    ``pair`` cyclically shifted by ``shift``: tone t times exp(2j pi t shift / n_sc)."""
    dense = np.zeros(cfg.grid_size, dtype=complex)
    half = cfg.n_rb // 2
    for block in range(cfg.n_rb):
        k, second = divmod(block, 2) if adjacent else (block % half, block // half)
        weight = _NONCOHERENT_PHASE * complex(spread.b[k] if second else spread.a[k])
        members = (pair.b if second else pair.a).tolist()
        for tone in range(cfg.n_sc):
            turn = cmath.exp(2j * math.pi * tone * shift / cfg.n_sc)
            dense[block * cfg.rb_spacing + tone] = weight * members[tone] * turn
    return dense


def coherent_model(cfg, spread, half, phases) -> np.ndarray:
    """The dense first sequence of the coherent interlace: tone 2t of block r
    carries w1 * spread.a[r] * half.a[t], the pilot, and tone 2t + 1 carries
    w2 * spread.b[r] * half.b[t], the data, for ``phases`` (w1, w2)."""
    dense = np.zeros(cfg.grid_size, dtype=complex)
    w1, w2 = phases
    for block in range(cfg.n_rb):
        for t in range(cfg.n_sc // 2):
            at = block * cfg.rb_spacing + 2 * t
            dense[at] = w1 * complex(spread.a[block]) * complex(half.a[t])
            dense[at + 1] = w2 * complex(spread.b[block]) * complex(half.b[t])
    return dense


def cycling_model(cfg, base) -> np.ndarray:
    """The dense cycling baseline: tone t of block k carries
    base[t] * exp(2j pi k t / n_sc), the base cyclically shifted in time by k."""
    dense = np.zeros(cfg.grid_size, dtype=complex)
    for block in range(cfg.n_rb):
        for tone in range(cfg.n_sc):
            turn = cmath.exp(2j * math.pi * (block * tone % cfg.n_sc) / cfg.n_sc)
            dense[block * cfg.rb_spacing + tone] = complex(base[tone]) * turn
    return dense


ZC_LENGTH = 113  # the baseline's odd prime


def zc_model(root: int, total: int) -> list[complex]:
    """Zadoff-Chu root ``root`` of length 113, exp(-j pi root n (n + 1) / 113),
    cyclically extended to ``total`` values by n = m mod 113."""
    return [cmath.exp(-1j * math.pi * root * (n * (n + 1) % (2 * ZC_LENGTH)) / ZC_LENGTH)
            for n in (m % ZC_LENGTH for m in range(total))]


def dft_synthesis_oracle(indices, values, n_idft: int) -> np.ndarray:
    """Unnormalized inverse DFT by direct evaluation on the unit circle, of
    one row of values on ``indices`` or of each row of a stack."""
    t = np.arange(n_idft)
    values = np.asarray(values, dtype=complex)
    out = np.zeros(values.shape[:-1] + (n_idft,), dtype=complex)
    for idx, val in zip(indices, np.moveaxis(values, -1, 0)):
        out += val[..., None] * np.exp(2j * np.pi * idx * t / n_idft)
    return out


def unit_circle_points(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(count))


def random_unimodular(rng: np.random.Generator, length: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(length))


SYMBOL_VALUES = np.array([1.0, -1.0, 1.0j, -1.0j], dtype=complex)  # code order of "+-ij"


def canonical_rank(seq) -> int:
    """Base-4 rank of a sequence's symbol codes after the first (first
    symbol most significant); canonical sequences start with +1."""
    codes = [int(np.flatnonzero(SYMBOL_VALUES == value)[0]) for value in seq[1:]]
    return sum(code * 4 ** (len(codes) - 1 - pos) for pos, code in enumerate(codes))


def canonical_pair(a, b) -> tuple[str, str]:
    """Canonical symbol-string form of a quaternary pair, the key of the
    brute-force enumeration oracle.

    Normalizes each member's global phase (first element to +1) and orders
    the two sequences lexicographically by symbol code.
    """
    codes = []
    for seq in (a, b):
        arr = np.asarray(seq, dtype=complex).reshape(-1)
        if not all(value in SYMBOL_VALUES for value in arr):
            raise ValueError("canonical form is defined for quaternary sequences")
        normalized = arr * np.conj(arr[0])  # exact: a product of quaternary symbols
        codes.append(tuple(int(np.flatnonzero(SYMBOL_VALUES == v)[0]) for v in normalized))
    return tuple("".join("+-ij"[code] for code in member) for member in sorted(codes))


def _decode_canonical(indices: np.ndarray, length: int) -> np.ndarray:
    codes = np.zeros((indices.size, length), dtype=np.int8)
    rem = indices.astype(np.int64)
    for pos in range(length - 1, 0, -1):
        codes[:, pos] = rem % 4
        rem //= 4
    return SYMBOL_VALUES[codes]


def _apac_keys(length: int, chunk: int = 1 << 19) -> np.ndarray:
    """Integer autocorrelation keys (re/im interleaved, lags 1..N-1) for all
    canonical sequences of the given length, in lexicographic order."""
    total = 4 ** (length - 1)
    keys = np.empty((total, 2 * (length - 1)), dtype=np.int8)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        arr = _decode_canonical(np.arange(start, stop), length)
        for k in range(1, length):
            acf = np.sum(np.conj(arr[:, : length - k]) * arr[:, k:], axis=1)
            keys[start:stop, 2 * (k - 1)] = acf.real.astype(np.int8)
            keys[start:stop, 2 * (k - 1) + 1] = acf.imag.astype(np.int8)
    return keys


def _pack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack signed key rows into (hi, lo) uint64 words preserving lex order."""
    shifted = keys.astype(np.int64) + 16  # |component| <= 12, so 5 bits suffice
    ncols = shifted.shape[1]
    hi = np.zeros(shifted.shape[0], dtype=np.uint64)
    lo = np.zeros(shifted.shape[0], dtype=np.uint64)
    for col in range(min(ncols, 12)):
        hi = (hi << np.uint64(5)) | shifted[:, col].astype(np.uint64)
    for col in range(12, ncols):
        lo = (lo << np.uint64(5)) | shifted[:, col].astype(np.uint64)
    return hi, lo


def reference_mate_ranks(length: int) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j) canonical-rank pairs whose autocorrelations cancel, i < j,
    in lexicographic order: every key of all 4**(length - 1) canonical
    sequences is bucketed with its exact negation."""
    keys = _apac_keys(length)
    pos_hi, pos_lo = _pack_keys(keys)
    neg_hi, neg_lo = _pack_keys(-keys)
    total = pos_hi.size

    all_hi = np.concatenate([pos_hi, neg_hi])
    all_lo = np.concatenate([pos_lo, neg_lo])
    order = np.lexsort((all_lo, all_hi))
    sh = all_hi[order]
    sl = all_lo[order]
    new_group = np.empty(order.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (sh[1:] != sh[:-1]) | (sl[1:] != sl[:-1])
    gid = np.cumsum(new_group) - 1
    from_pos = order < total

    n_pos = np.bincount(gid, weights=from_pos).astype(np.int64)
    n_neg = np.bincount(gid, weights=~from_pos).astype(np.int64)
    starts = np.flatnonzero(new_group)
    ends = np.r_[starts[1:], order.size]

    first_idx: list[np.ndarray] = []
    second_idx: list[np.ndarray] = []
    for g in np.flatnonzero((n_pos > 0) & (n_neg > 0)):
        members = order[starts[g] : ends[g]]
        seqs_v = members[members < total]
        seqs_neg_v = members[members >= total] - total
        # Each unordered pair lives in two groups (key v and key -v);
        # emit only from the lexicographically smaller key.
        j0 = seqs_neg_v[0]
        if (sh[starts[g]], sl[starts[g]]) >= (pos_hi[j0], pos_lo[j0]):
            continue
        first_idx.append(np.repeat(seqs_v, seqs_neg_v.size))
        second_idx.append(np.tile(seqs_neg_v, seqs_v.size))

    if not first_idx:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    fa = np.concatenate(first_idx)
    fb = np.concatenate(second_idx)
    swap = fa > fb
    fa[swap], fb[swap] = fb[swap], fa[swap].copy()
    order = np.lexsort((fb, fa))
    return fa[order], fb[order]


def _trial_rng(seed: int, snr_idx: int, hyp: int, trial: int) -> np.random.Generator:
    """A fresh generator per trial, keyed by the seed, then (snr index,
    hypothesis, trial index) packed into 16/8/40 bits."""
    word = (
        (np.uint64(snr_idx & 0xFFFF) << np.uint64(48))
        | (np.uint64(hyp & 0xFF) << np.uint64(40))
        | np.uint64(trial & 0xFFFFFFFFFF)
    )
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Unit-power complex Gaussians from consecutive (re, im) normal pairs."""
    flat = rng.standard_normal(2 * int(np.prod(shape)))
    return (flat[0::2] + 1j * flat[1::2]).reshape(shape) / np.sqrt(2.0)


def received_grids_oracle(seed, channel, tx, n_blocks, n_rx, snr_idx, hyp, trials, amp, sent):
    """Received grids (trials, tones, rx), one trial at a time: noise only
    when ``sent`` is None, else the gains (one per block and antenna under
    ``iid_per_rb``, one per antenna for the whole grid under ``flat``) drawn
    before the noise, and ``amp * gain * tx[sent][tone] + noise`` per tone."""
    n_tones = tx.shape[1]
    n_sc = n_tones // n_blocks
    out = np.empty((len(trials), n_tones, n_rx), dtype=complex)
    for row, trial in enumerate(trials):
        rng = _trial_rng(seed, snr_idx, hyp, trial)
        if sent is None:
            out[row] = _complex_normal(rng, (n_tones, n_rx))
            continue
        gains = _complex_normal(rng, (n_blocks if channel == "iid_per_rb" else 1, n_rx))
        noise = _complex_normal(rng, (n_tones, n_rx))
        for block in range(n_blocks):
            gain = gains[block] if channel == "iid_per_rb" else gains[0]
            for ant in range(n_rx):
                for tone in range(block * n_sc, (block + 1) * n_sc):
                    out[row, tone, ant] = amp * gain[ant] * tx[sent, tone] + noise[tone, ant]
    return out


NACK, ACK = 0, 1  # rows of ``tx`` and columns of the reference scores


def reference_receiver(grids, tx, n_blocks, coherent, per_block):
    """NACK and ACK scores (trials, 2) and energies (trials,) of received
    grids (trials, tones, rx), one trial, block, antenna and tone at a time.

    Non-coherent: each block of each antenna is correlated with the NACK
    and ACK transmissions ``tx``; the energies of the correlations are added
    (``per_block``) or the correlations are first added over the blocks;
    the energy is the larger score.  Coherent: the even local tones of a
    block are pilots, the odd ones data.  The least-squares channel
    estimate of an antenna is the mean of received/sent over the pilots of
    its block (``per_block``) or of the whole grid; the score of a
    hypothesis is the real part of the maximum-ratio combination of the
    data tones against that hypothesis' data values, and the energy is the
    squared magnitude of the same combination, which the unit-modulus
    payload phase does not change.
    """
    n_trials, n_tones, n_rx = grids.shape
    n_sc = n_tones // n_blocks
    scores = np.empty((n_trials, 2))
    energy = np.empty(n_trials)
    for t in range(n_trials):
        r = [[complex(grids[t, tone, ant]) for ant in range(n_rx)] for tone in range(n_tones)]
        x = [[complex(tx[c, tone]) for tone in range(n_tones)] for c in (NACK, ACK)]
        if not coherent:
            for c in (NACK, ACK):
                corr = [[0j] * n_rx for _ in range(n_blocks)]
                for k in range(n_blocks):
                    for a in range(n_rx):
                        for tone in range(k * n_sc, (k + 1) * n_sc):
                            corr[k][a] += r[tone][a] * x[c][tone].conjugate()
                score = 0.0
                for a in range(n_rx):
                    if per_block:
                        for k in range(n_blocks):
                            score += abs(corr[k][a]) ** 2
                    else:
                        combined = 0j
                        for k in range(n_blocks):
                            combined += corr[k][a]
                        score += abs(combined) ** 2
                scores[t, c] = score
            energy[t] = max(scores[t])
            continue
        pilots = [[tone for tone in range(k * n_sc, (k + 1) * n_sc) if (tone - k * n_sc) % 2 == 0]
                  for k in range(n_blocks)]
        data = [[tone for tone in range(k * n_sc, (k + 1) * n_sc) if (tone - k * n_sc) % 2 == 1]
                for k in range(n_blocks)]
        estimate = [[0j] * n_rx for _ in range(n_blocks)]
        for a in range(n_rx):
            for k in range(n_blocks):
                used = pilots[k] if per_block else [p for block in pilots for p in block]
                total = 0j
                for tone in used:
                    total += r[tone][a] / x[NACK][tone]
                estimate[k][a] = total / len(used)
        combined = [0j, 0j]
        for c in (NACK, ACK):
            for k in range(n_blocks):
                for a in range(n_rx):
                    for tone in data[k]:
                        combined[c] += (estimate[k][a].conjugate() * r[tone][a]
                                        * x[c][tone].conjugate())
            scores[t, c] = combined[c].real
        energy[t] = abs(combined[NACK]) ** 2
    return scores, energy


def pooled_statistics(grids, tx, groups, phases=None):
    """Received grids (trials, tones, rx) projected onto the link
    simulator's statistics per fading group of equally many consecutive
    blocks, complex (trials, group, rx, row).  Non-coherent (no
    ``phases``): the correlations of each group with ``tx[NACK]`` and
    ``tx[ACK]``.  Coherent: the mean of received·conj(reference) over the
    even local tones of a group's blocks and its sum over the odd ones, the
    reference being ``tx[NACK]`` with the NACK payload phase taken off its
    data tones."""
    n_trials, _, n_rx = grids.shape
    blocks = grids.reshape(n_trials, groups, -1, n_rx)  # a group's tones in block order
    if phases is None:
        return np.einsum("bgsa,cgs->bgac", blocks, np.conj(tx.reshape(2, groups, -1)))
    reference = tx[NACK].copy()
    reference[1::2] *= np.conj(phases[NACK])
    derotated = blocks * np.conj(reference.reshape(groups, -1))[None, :, :, None]
    rows = [derotated[:, :, 0::2].mean(axis=2), derotated[:, :, 1::2].sum(axis=2)]
    return np.stack(rows, axis=-1)


def project_statistics(grids, tx, groups, phases=None):
    """:func:`pooled_statistics` in the simulator's form: the NACK and ACK
    scores (row, trial), the squared correlations added over the groups and
    antennas, or the coherent statistics (re/im, group, rx, row, trial)."""
    pooled = pooled_statistics(grids, tx, groups, phases)
    if phases is None:
        return (pooled.real ** 2 + pooled.imag ** 2).sum(axis=(1, 2)).T
    rows = pooled.transpose(1, 2, 3, 0)
    return np.stack([rows.real, rows.imag])


def statistics_covariance(tx, n_blocks, n_rx, groups, phases, flat, amp, sent):
    """E[s s^H] of one trial's complex :func:`pooled_statistics` s,
    flattened from (group, rx, row), under the grid model: unit-power white
    noise on every tone and antenna, plus ``amp * gain * tx[sent]`` (unless
    ``sent`` is None) with independent unit-power gains per block and
    antenna, or per antenna when ``flat``.  The statistics are linear in the
    grid, so every independent unit-power term adds the outer product of its
    projection."""
    n_tones = tx.shape[1]
    n_sc = n_tones // n_blocks
    terms = list(np.eye(n_tones * n_rx, dtype=complex).reshape(-1, n_tones, n_rx))
    if sent is not None:
        for group in range(1 if flat else n_blocks):
            tones = slice(None) if flat else slice(group * n_sc, (group + 1) * n_sc)
            for ant in range(n_rx):
                grid = np.zeros((n_tones, n_rx), dtype=complex)
                grid[tones, ant] = amp * tx[sent, tones]
                terms.append(grid)
    projected = pooled_statistics(np.array(terms), tx, groups, phases)
    projected = projected.reshape(len(terms), -1).T
    return projected @ projected.conj().T


def score_cumulants(covariance, row):
    """Mean, variance and fourth cumulant of the squared magnitudes of the
    ``row`` statistics (every other entry of a (group, rx, row) flattening)
    added up, for circular Gaussian statistics of this covariance: a sum of
    independent exponentials whose means are the eigenvalues of the row's
    covariance, of cumulants (m - 1)! * sum(eigenvalue ** m)."""
    eig = np.linalg.eigvalsh(covariance[row::2, row::2])
    return float(np.sum(eig)), float(np.sum(eig ** 2)), 6.0 * float(np.sum(eig ** 4))


def two_sample_ks(x, y) -> tuple[float, float]:
    """The two-sample Kolmogorov-Smirnov statistic of samples x and y, and
    its asymptotic p-value, from Kolmogorov's series (Smirnov 1948)."""
    x, y = np.sort(x), np.sort(y)
    both = np.concatenate([x, y])
    gap = (np.searchsorted(x, both, side="right") / x.size
           - np.searchsorted(y, both, side="right") / y.size)
    d = float(np.max(np.abs(gap)))
    lam = d * math.sqrt(x.size * y.size / (x.size + y.size))
    p = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 101))
    return d, min(1.0, max(0.0, p))


def _poisson(j: int, u: float) -> float:
    """P(Poisson(u) = j)."""
    return math.exp(j * math.log(u) - u - math.lgamma(j + 1)) if u > 0 else float(j == 0)


def gamma_sf(shape: int, u: float) -> float:
    """P(Gamma(shape) >= u) for integer shape: P(Poisson(u) < shape)."""
    return sum(_poisson(j, u) for j in range(shape))


def gamma_cdf(shape: int, u: float) -> float:
    """P(Gamma(shape) < u) for integer shape: P(Poisson(u) >= shape), the
    positive series summed to convergence instead of 1 - :func:`gamma_sf`."""
    total, j = 0.0, shape
    while True:
        term = _poisson(j, u)
        total += term
        if j > u and term <= 1e-17 * total:
            return total
        j += 1


def _race_weight(shape: int, k: int, x: float, y: float) -> float:
    """C(L + k - 1, k) p^L q^k with p = y/(x + y) and q = x/(x + y): the
    weight of the k-th term of the race between x·Gamma(L) and y·Gamma(L)."""
    log_c = math.lgamma(shape + k) - math.lgamma(shape) - math.lgamma(k + 1)
    return math.exp(log_c + shape * math.log(y / (x + y)) + k * math.log(x / (x + y)))


def win_probability(x: float, y: float, t: float, shape: int) -> float:
    """P(X >= t, X > Y) for independent X ~ x·Gamma(L) and Y ~ y·Gamma(L),
    integer L: the integral over s >= t of f_X(s)·P(Y < s), whose Poisson
    series gives sum over k >= L of C(L + k - 1, k) p^L q^k P(Gamma(L + k) >=
    t/x + t/y).  Every term is positive, summed until the weights' geometric
    tail is below 1e-17 of the sum."""
    u = t / x + t / y
    sf, total, k = gamma_sf(2 * shape, u), 0.0, shape
    while True:
        weight = _race_weight(shape, k, x, y)
        total += weight * sf
        ratio = x / (x + y) * (shape + k) / (k + 1)  # the next weight over this one
        if ratio < 1.0 and weight * ratio / (1.0 - ratio) <= 1e-17 * total:
            return total
        sf += _poisson(shape + k, u)  # P(Gamma(L + k + 1) >= u)
        k += 1


def loss_probability(x: float, y: float, t: float, shape: int) -> float:
    """1 - :func:`win_probability` as positive terms: P(X < t) plus
    P(X >= t, Y >= X), the finite sum over k < L."""
    u = t / x + t / y
    return gamma_cdf(shape, t / x) + sum(_race_weight(shape, k, x, y) * gamma_sf(shape + k, u)
                                         for k in range(shape))


def noncoherent_rates(n: int, shape: int, es: float, threshold: float) -> tuple[float, ...]:
    """The DTX-to-ACK, NACK-to-ACK and ACK-miss probabilities of the
    non-coherent detector at a threshold, from the scores' law: the score of
    the transmission sent is a·Gamma(L) and the other b·Gamma(L), with a =
    n(1 + n·Es) and b = n, n the tones combined coherently (n_sc per block
    with iid fading, the whole grid when flat) and L the independent terms
    added (blocks times antennas, or antennas).  An ACK is declared when
    the ACK score beats the NACK score and reaches the threshold, so
    P(ACK | ACK) = 1 - miss and P(ACK | NACK) = win(b, a)."""
    a, b = n * (1.0 + n * es), float(n)
    return (win_probability(b, b, threshold, shape), win_probability(b, a, threshold, shape),
            loss_probability(a, b, threshold, shape))


# (scheme, channel) of the small link-simulation reports pinned by digest.
# Both channels for each interlace; one for each single-block scheme, whose
# flat and iid reports coincide because one block fades as one gain.
SIM_GATE_CONFIGS = (
    ("noncoherent", "flat"), ("noncoherent", "iid_per_rb"),
    ("coherent", "flat"), ("coherent", "iid_per_rb"),
    ("single-rb-noncoherent", "iid_per_rb"), ("single-rb-coherent", "iid_per_rb"),
)


def sim_gate_report(scheme, channel):
    """``run_sim`` with 200 trials per point, 2,000 calibration trials,
    SNR -10/0/6 dB and seed 3."""
    return run_sim(SimConfig(scheme=scheme, channel=channel, n_trials=200,
                             calibration_trials=2000, snr_grid_db=(-10.0, 0.0, 6.0), rng_seed=3))


def sim_report_digest(report, directory) -> str:
    """sha256 of ``SimReport.write_csv`` bytes followed by ``threshold.hex()``,
    the CSV written into ``directory``."""
    out = Path(directory) / "report.csv"
    report.write_csv(out)
    return sha256(out.read_bytes() + report.threshold.hex().encode())
