"""Independent oracles shared by the test modules.

These deliberately avoid the library's coefficient-domain code paths:
polynomials are evaluated by direct summation so they can vouch for the
upsample/convolve/pad implementations and the FFT cross-correlation peaks,
spectra are synthesized by an O(N^2) loop to vouch for the FFT path,
autocorrelations are summed term by term to vouch for
``seqcore.apac_vector``, and the pair library is enumerated from the full
table of all canonical autocorrelation keys, with no spectral
filter, to vouch for the filtered enumeration.  Link-simulation grids are
rebuilt trial by trial from a fresh Philox generator per trial and explicit
loops over blocks, antennas and tones, to vouch for the batched draws.
``EXPECTED`` holds the output digests that ``perfbench/expected.json``
records for the benchmark, and :func:`load_bench_checks` imports the
benchmark's ``checks.py``.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

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
    """A fresh generator on the link simulator's per-trial key: the seed,
    then (snr index, hypothesis, trial index) packed into 16/8/40 bits."""
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
                    # A one-element slice, so that the complex product takes
                    # numpy's array kernel, which may fuse multiply-adds where
                    # scalar arithmetic rounds twice.
                    signal = amp * gain[ant] * tx[sent, tone : tone + 1]
                    out[row, tone, ant] = signal[0] + noise[tone, ant]
    return out
