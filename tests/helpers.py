"""Independent oracles shared by the test modules.

These deliberately avoid the library's coefficient-domain code paths:
polynomials are evaluated by direct summation so they can vouch for
``golay.combine_gcps``, and :func:`xcorr_oracle` sweeps every shift of a
grid explicitly to vouch for the FFT cross-correlation peaks of
``metrics.xcorr_matrix`` and the set search's fractional-shift grid,
spectra are synthesized by an O(N^2) loop to vouch for the FFT path,
autocorrelations are summed term by term to vouch for ``seqcore``'s
autocorrelation kernel, and the pair library is enumerated from the full
table of all canonical autocorrelation keys, with no spectral
filter, to vouch for the filtered enumeration.  The link simulator draws
only its detectors' statistics; full received grids are built here trial
by trial, with explicit loops over blocks, antennas and tones, and a scalar
reference receiver scores them, to vouch for the detectors on the grids'
projection onto the statistics; the same projection of the grid model
gives the statistics' covariance, to vouch for the draws.
``EXPECTED`` holds the output digests that ``perfbench/expected.json``
records for the benchmark, and :func:`load_bench_checks` imports the
benchmark's ``checks.py``.
"""

import hashlib
import importlib.util
import json
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


def dft_synthesis_oracle(indices, values, n_idft: int) -> np.ndarray:
    """Unnormalized inverse DFT by direct evaluation on the unit circle."""
    t = np.arange(n_idft)
    out = np.zeros(n_idft, dtype=complex)
    for idx, val in zip(indices, values):
        out += val * np.exp(2j * np.pi * idx * t / n_idft)
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


def project_statistics(grids, tx, n_blocks, phases=None):
    """Received grids (trials, tones, rx) projected onto the link
    simulator's detector statistics, in its layout (re/im, block, rx, row,
    trial).  Non-coherent (no ``phases``): the correlations of each block
    with ``tx[NACK]`` and ``tx[ACK]``.  Coherent: the mean of
    received·conj(reference) over the even local tones of each block and
    its sum over the odd ones, the reference being ``tx[NACK]`` with the
    NACK payload phase taken off its data tones."""
    n_trials, _, n_rx = grids.shape
    blocks = grids.reshape(n_trials, n_blocks, -1, n_rx)
    if phases is None:
        rows = np.einsum("bksa,cks->kacb", blocks, np.conj(tx.reshape(2, n_blocks, -1)))
    else:
        reference = tx[NACK].copy()
        reference[1::2] *= np.conj(phases[NACK])
        derotated = blocks * np.conj(reference.reshape(n_blocks, -1))[None, :, :, None]
        rows = np.stack([derotated[:, :, 0::2].mean(axis=2), derotated[:, :, 1::2].sum(axis=2)])
        rows = rows.transpose(2, 3, 0, 1)
    return np.stack([rows.real, rows.imag])


def statistics_covariance(tx, n_blocks, n_rx, phases, flat, amp, sent):
    """E[s s^H] of one trial's complex statistics s, flattened from (block,
    rx, row), under the grid model: unit-power white noise on every tone and
    antenna, plus ``amp * gain * tx[sent]`` (unless ``sent`` is None) with
    independent unit-power gains per block and antenna, or per antenna when
    ``flat``.  The statistics are linear in the grid, so every independent
    unit-power term adds the outer product of its projection."""
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
    stats = project_statistics(np.array(terms), tx, n_blocks, phases)
    projected = (stats[0] + 1j * stats[1]).reshape(-1, len(terms))
    return projected @ projected.conj().T


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
