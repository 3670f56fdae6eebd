"""Command-line front end and reproduction pipelines.

Every command is deterministic given its parameters; each output file gets
a sibling ``<name>.manifest.json`` recording the command name, its click
parameters as parsed (paths as strings), the toolkit version and the
digests of its input files, so equal manifests imply byte-identical
outputs.  Numeric CSV fields are printed with 9 significant digits for
stable diffs.

Every option that sizes an array (``--n-idft``, ``search-sets --u``, the
calibration's trials, a build's geometry) is checked against
:data:`_MEMORY_BUDGET` before anything is allocated; a value over it is a
usage error that writes no file.  A sweep refuses a grid wider than
``--n-idft`` before it builds.

``build-interlace``, the ``eval-papr``/``eval-cm`` sweeps and ``reproduce
papr|cm`` read their schemes from :data:`csinterlace.interlace.SCHEMES`:
its members, resources and builders, and which schemes are proposed.

``reproduce <figure>`` is a lookup in :data:`FIGURES`, which maps each
figure to a producer and a tuple of checks.  The producer writes the
figure's files and returns their data (sweep rows, cross-correlation
maxima or simulation reports); each check is a pure function of that data
yielding failure messages, and any failure makes the command exit 1.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import SparseSpectrum, __version__
from .fixtures import load_reference_pairs, reference_set_params
from .golay import (
    MAX_ENUMERATION_LENGTH,
    cached_enumerate_gcps,
    enumerate_gcps,
    read_library,
    write_library,
)
from .interlace import PILOT_PHASE, SCHEMES, InterlaceConfig, payload_phase
from .linksim import _SNR_LIMIT, CHANNELS, CalibrationError, SimConfig, run_sim
from .linksim import SCHEMES as SIM_SCHEMES
from .metrics import _SYNTH_ENTRIES, _XCORR_CHUNK_ROWS, _idft_points, _waveforms, ccdf, cm_db
from .metrics import papr_db, xcorr_matrix
from .seqcore import _decode_json, sequence_from_json
from .setsearch import _REFINED_U, build_sets, verify_sets

PAPR_BOUND_DB = 10 * np.log10(2.0)
DEFAULT_N_IDFT = 4096
_MEMORY_BUDGET = 1 << 26  # complex entries (1 GiB) the arrays sized by one option may hold
_CALIBRATION_ENTRIES = 2  # per calibration trial: statistic, finite copy, sort (3 floats)
_SIM_CALIBRATION = 20_000  # calibration trials of the sim figures, at least
_GEOMETRY = ("--nrb", "--nsc")  # a build holds its support alone


def _check_budget(entries: int, *options: str) -> None:
    """Refuse values of the ``options`` whose arrays hold more than
    :data:`_MEMORY_BUDGET` complex entries at once."""
    if entries > _MEMORY_BUDGET:
        raise click.BadParameter(
            f"needs {entries} complex entries, over the budget of {_MEMORY_BUDGET}",
            param_hint=options)


def _build_entries(cfg: InterlaceConfig, rows: int) -> int:
    """Complex entries of ``rows`` constructions, f and g each on the n_rb * n_sc support."""
    return 2 * rows * cfg.n_rb * cfg.n_sc


def _idft_entries(n_idft: int, rows: int) -> int:
    """Complex entries of ``rows`` zero-padded ``n_idft``-point inverse
    DFTs: the padded rows, their transform and the metrics' real arrays.  A
    sweep's batch counts as one row of max(n_idft, _SYNTH_ENTRIES) points;
    :func:`xcorr_matrix` holds as many as F times its rows on a coarse grid."""
    return 4 * rows * n_idft


def _search_entries(n: int, u: int, rows: int) -> int:
    """Complex entries of ``search-sets`` on length-``n`` seeds: the (n*u) x n shift
    tables cached in :mod:`csinterlace.setsearch`, of density ``u`` and, below it, the
    refined one, and one candidate's correlations with ``rows`` members and their moduli."""
    tables = n * n * (u + (_REFINED_U if u < _REFINED_U else 0))
    return tables + 2 * n * u * rows


class _OutputPath(click.Path):
    """A path a command writes, checked as click parses it, before any work:
    a file in an existing directory or, with ``directory``, a directory
    whose nearest existing ancestor (or itself) is a directory."""

    def __init__(self, directory: bool = False):
        super().__init__(path_type=Path, file_okay=not directory, dir_okay=directory)

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)  # refuses a file for a directory and back
        base = path.parent
        if self.dir_okay:  # made with its parents, under the nearest existing path
            base = next((p for p in (path, *path.parents) if p.exists()), path)
        if not base.is_dir():
            self.fail(f"'{base}' is not an existing directory", param, ctx)
        return path


_OUT_FILE = _OutputPath()
_OUT_DIR = _OutputPath(directory=True)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _write_manifest(anchor: Path, outputs, inputs=()) -> None:
    """Manifest of the running command; ``None`` entries are skipped."""
    ctx = click.get_current_context()
    manifest = {
        "command": ctx.info_name,
        "params": {k: str(v) if isinstance(v, Path) else v for k, v in ctx.params.items()},
        "toolkit_version": __version__,
        "inputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in inputs if p is not None},
        "outputs": [str(p) for p in outputs if p is not None],
    }
    anchor.with_suffix(anchor.suffix + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _geometry_options(command):
    """Add the interlace geometry options ``--nrb``, ``--nsc`` and ``--nnull``."""
    for name, default in (("--nnull", 108), ("--nsc", 12), ("--nrb", 10)):
        command = click.option(name, default=default, show_default=True)(command)
    return command


@contextmanager
def _refuse_bad_input():
    """Report a ValueError from the library's validation of the command's
    parameters or input files as a click error rather than a traceback."""
    try:
        yield
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None


def _finite(ctx, param, value):
    if not np.isfinite(value):
        raise click.BadParameter(f"{value} is not finite")
    return value


@click.group()
@click.version_option(version=__version__)
def main():
    """Complementary-sequence interlace toolkit."""


@main.command("build-interlace")
@click.option("--scheme", default="noncoherent", type=click.Choice(list(SCHEMES)))
@_geometry_options
@click.option("--seq-index", default=0, show_default=True, help="Member of the scheme.")
@click.option("--shift", default=0.0, show_default=True, callback=_finite,
              help="Cyclic shift; read by noncoherent and noncoherent-adjacent.")
@click.option("--bits", default=1, show_default=True, type=click.IntRange(1, 2),
              help="Payload bits; read by coherent.")
@click.option("--value", default=0, show_default=True, type=click.IntRange(min=0),
              help="Payload value, below 2**bits; read by coherent.")
@click.option("--out", type=_OUT_FILE, default=None)
def build_interlace(scheme, nrb, nsc, nnull, seq_index, shift, bits, value, out):
    """Emit one frequency-domain interlace as JSON."""
    entry = SCHEMES[scheme]
    with _refuse_bad_input():
        cfg = InterlaceConfig(nrb, nsc, nnull)
        _check_budget(_build_entries(cfg, 1), *_GEOMETRY)
        members = entry.members(cfg, DEFAULT_N_IDFT)
        if not 0 <= seq_index < len(members):
            raise click.BadParameter(f"{seq_index} is outside [0, {len(members)}) for {scheme}",
                                     param_hint="'--seq-index'")
        resource = (PILOT_PHASE, payload_phase(bits, value)) if entry.pilot_tones else shift
        values = entry.build(cfg, members[seq_index], [resource])[0]
    spectrum = SparseSpectrum(cfg.support(), values, cfg.grid_size)
    payload = json.dumps(spectrum.to_json_dict(), sort_keys=True)
    if out is None:
        click.echo(payload)
    else:
        out.write_text(payload + "\n")
        _write_manifest(out, [out])


_SWEEP_HEADER = ["scheme", "seq_index", "selector", "papr_db", "cm_db"]


def _metric_sweep(cfg: InterlaceConfig, schemes, n_idft: int) -> list[tuple]:
    """A ``_SWEEP_HEADER`` row per waveform; a member's resources make one stack."""
    rows = []
    for name in schemes:
        scheme = SCHEMES[name]
        selectors, resources = zip(*scheme.resources(cfg))
        for index, member in enumerate(scheme.members(cfg, n_idft)):
            stack = scheme.build(cfg, member, resources)
            waves = _waveforms(cfg.support(), stack, cfg.grid_size, n_idft)
            rows += [(name, index, selector, papr_db(wave), cm_db(wave))
                     for selector, wave in zip(selectors, waves)]
    return rows


def _sweep_command(name: str, column: int, label: str, doc: str) -> None:
    """Register ``name`` as a sweep command echoing the worst ``label``."""

    @main.command(name, help=doc)
    @click.option("--scheme", default="all", type=click.Choice(["all", *SCHEMES]))
    @_geometry_options
    @click.option("--n-idft", default=DEFAULT_N_IDFT, show_default=True)
    @click.option("--out", type=_OUT_FILE, required=True)
    def command(scheme, nrb, nsc, nnull, n_idft, out):
        schemes = SCHEMES if scheme == "all" else (scheme,)
        _check_budget(_idft_entries(max(n_idft, _SYNTH_ENTRIES), 1), "--n-idft")  # one batch
        with _refuse_bad_input():
            cfg = InterlaceConfig(nrb, nsc, nnull)
            _idft_points(n_idft, cfg.grid_size)
            stack = max(len(SCHEMES[name].resources(cfg)) for name in schemes)
            _check_budget(_build_entries(cfg, stack), *_GEOMETRY)
            rows = _metric_sweep(cfg, schemes, n_idft)
        _write_csv(out, _SWEEP_HEADER, rows)
        _write_manifest(out, [out])
        worst = max(r[column] for r in rows)
        click.echo(f"{len(rows)} waveforms, max {label} {worst:.6f} dB")


_sweep_command("eval-papr", 3, "PAPR",
               "PAPR/CM sweep: one CSV row per (scheme, sequence, shift/payload).")
_sweep_command("eval-cm", 4, "CM", "Cubic-metric sweep (same rows as eval-papr).")


def _read_sequences(path: Path) -> list[np.ndarray]:
    """The ``sequences`` list of a JSON object, each entry a symbol string or
    a list of [re, im] pairs, all finite and of one length.  Anything else
    is a click error naming the file and, for an entry, its index."""
    try:
        payload = _decode_json(path.read_text())
    except ValueError as exc:  # malformed JSON or a duplicate key
        raise click.ClickException(f"{path}: {exc}")
    if not isinstance(payload, dict) or not isinstance(payload.get("sequences"), list):
        raise click.ClickException(f"{path}: expected an object with a 'sequences' list")
    sequences = []
    for index, entry in enumerate(payload["sequences"]):
        try:
            seq = sequence_from_json(entry)
        except (ValueError, TypeError) as exc:
            raise click.ClickException(f"{path}: sequence {index}: {exc}")
        if sequences and seq.size != sequences[0].size:
            raise click.ClickException(
                f"{path}: sequence {index} has length {seq.size}, expected {sequences[0].size}")
        sequences.append(seq)
    return sequences


# ``eval-xcorr --set``: the first or second members of the reference pairs, or the ZC set of
# ``SCHEMES["zc"]`` (ranked at the command's ``n_idft``) as per-block rows, since the
# cross-correlation that matters for interference is block by block and every ZC block differs.
_XCORR_SETS = {
    "reference-c": lambda cfg, n_idft: [p.a for p in load_reference_pairs()],
    "reference-d": lambda cfg, n_idft: [p.b for p in load_reference_pairs()],
    "zc": lambda cfg, n_idft: SCHEMES["zc"].members(cfg, n_idft).reshape(-1, cfg.n_rb, cfg.n_sc),
}


def _xcorr_members(which: str, cfg: InterlaceConfig, n_idft: int, seq_file: Path | None):
    if seq_file is None:
        return _XCORR_SETS[which](cfg, n_idft)
    members = _read_sequences(seq_file)
    if len(members) < 2:
        raise click.ClickException(
            f"{seq_file}: need at least two sequences to correlate, found {len(members)}")
    _check_budget(len(members) ** 2, "--seq-file")  # K x K floats and masks, before they exist
    return members


def _write_xcorr(members, n_idft: int, out: Path, ccdf_out: Path | None) -> float:
    """Write the peak cross-correlation (:func:`xcorr_matrix`) of every ordered
    pair, line by line from the matrix, and, if asked, its CCDF; return the max
    rho.  2-D members are compared per block, the worst block kept; only the
    pairs i < j are computed, and row (j, i) repeats (i, j)."""
    rho = xcorr_matrix(members, n_idft)
    _write_csv(out, ["i", "j", "rho"], ((i, j, v) for i, row in enumerate(rho)
                                        for j, v in enumerate(row.tolist()) if j != i))
    if ccdf_out is not None:
        off_diagonal = rho.reshape(-1)[:-1].reshape(len(rho) - 1, -1)[:, 1:]  # a view
        thresholds, exceed_prob = ccdf(off_diagonal, np.linspace(0, 1, 101))
        _write_csv(ccdf_out, ["threshold", "exceed_prob"],
                   list(zip(thresholds.tolist(), exceed_prob.tolist())))
    return float(rho.max())


@main.command("eval-xcorr")
@click.option("--set", "which", default="reference-c", type=click.Choice(list(_XCORR_SETS)))
@click.option("--seq-file", type=click.Path(path_type=Path, exists=True), default=None,
              help="JSON file with a 'sequences' list; overrides --set.")
@_geometry_options
@click.option("--n-idft", default=DEFAULT_N_IDFT, show_default=True)
@click.option("--out", type=_OUT_FILE, required=True)
@click.option("--ccdf-out", type=_OUT_FILE, default=None)
def eval_xcorr(which, seq_file, nrb, nsc, nnull, n_idft, out, ccdf_out):
    """Pairwise peak cross-correlation matrix and optional CCDF."""
    # xcorr_matrix holds up to max(chunk, nrb) n_idft-point rows at once, coarse or refined
    _check_budget(_idft_entries(n_idft, max(_XCORR_CHUNK_ROWS, nrb)), "--n-idft")
    with _refuse_bad_input():
        members = _xcorr_members(which, InterlaceConfig(nrb, nsc, nnull), n_idft, seq_file)
        rho = _write_xcorr(members, n_idft, out, ccdf_out)
    _write_manifest(out, [out, ccdf_out], [seq_file])
    n = len(members)
    click.echo(f"max rho {rho:.6f} over {n * (n - 1)} ordered pairs")


_LENGTH = click.IntRange(1, MAX_ENUMERATION_LENGTH)


@main.command("enumerate-gcps")
@click.option("--length", default=12, show_default=True, type=_LENGTH)
@click.option("--cache-dir", type=_OUT_DIR, default=None)
@click.option("--out", type=_OUT_FILE, required=True)
def enumerate_gcps_cmd(length, cache_dir, out):
    """Exhaustively enumerate canonical quaternary pairs of one length."""
    with _refuse_bad_input():  # a library file that fails its checks
        pairs = cached_enumerate_gcps(length, cache_dir) if cache_dir else enumerate_gcps(length)
    write_library(out, length, pairs)
    _write_manifest(out, [out])
    click.echo(f"{len(pairs)} pairs of length {length}")


@main.command("search-sets")
@click.option("--beta", default=0.715, show_default=True, callback=_finite,
              type=click.FloatRange(0, 1, min_open=True))
@click.option("--u", default=128, show_default=True, type=click.IntRange(min=1))
@click.option("--k", "k_target", default=30, show_default=True, type=click.IntRange(min=1))
@click.option("--length", default=12, show_default=True, type=_LENGTH)
@click.option("--seed-file", type=click.Path(path_type=Path, exists=True), default=None,
              help="JSON pair library {\"length\", \"count\", \"pairs\"}, as "
                   "enumerate-gcps writes it; defaults to the enumerated library.")
@click.option("--cache-dir", type=_OUT_DIR, default=Path(".csinterlace-cache"))
@click.option("--out", type=_OUT_FILE, required=True)
def search_sets(beta, u, k_target, length, seed_file, cache_dir, out):
    """Greedy low-cross-correlation set construction over a seed library."""
    with _refuse_bad_input():  # a library file that fails its checks
        seeds = read_library(seed_file) if seed_file else cached_enumerate_gcps(length, cache_dir)
    if seeds:  # a set holds at most k_target pairs, and at most 8 per seed
        _check_budget(_search_entries(seeds[0].length, u, min(k_target, 8 * len(seeds))), "--u")
    sets = build_sets(seeds, beta, u, k_target)
    report = verify_sets(sets)
    payload = {
        "beta": beta,
        "u": u,
        "k_target": k_target,
        "admitted": sets.size,
        "pairs": [list(p.as_strings()) for p in sets.pairs],
        "max_xcorr": {
            "first": report.max_xcorr_first,
            "second": report.max_xcorr_second,
        },
        "verified": report.ok,
        "admission_log": [
            {"seed": r.seed_index, "orbit": r.orbit_index,
             "admitted": r.admitted, "max_xcorr": r.max_xcorr}
            for r in sets.admission_log
        ],
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    _write_manifest(out, [out], [seed_file])
    click.echo(
        f"admitted {sets.size}/{k_target}; "
        f"max xcorr {max(report.max_xcorr_first, report.max_xcorr_second):.6f}; "
        f"verified={report.ok}"
    )
    if not report.ok:
        raise click.ClickException("verification failed: " + "; ".join(report.violations))


def _snr_point_count(snr_from: float, snr_to: float, snr_step: float) -> float:
    """Length of the ``simulate-link`` SNR grid, counted as ``np.arange``
    counts it but without building it: infinite if the span overflows."""
    return float(np.ceil((snr_to + snr_step / 2 - snr_from) / snr_step))


@main.command("simulate-link")
@click.option("--scheme", default="noncoherent", type=click.Choice(SIM_SCHEMES))
@click.option("--channel", default="iid_per_rb", type=click.Choice(CHANNELS))
@click.option("--snr-from", default=-10.0, show_default=True, callback=_finite)
@click.option("--snr-to", default=10.0, show_default=True, callback=_finite)
@click.option("--snr-step", default=2.0, show_default=True, callback=_finite,
              type=click.FloatRange(0, min_open=True))
@click.option("--trials", default=10_000, show_default=True, type=click.IntRange(1, 2**40 - 1))
@click.option("--calibration-trials", default=100_000, show_default=True,
              type=click.IntRange(1, 2**40 - 1))
@click.option("--seed", default=1, show_default=True, type=click.IntRange(0, 2**64 - 1))
@click.option("--energy-norm", default="equal_total",
              type=click.Choice(["equal_total", "per_tone"]))
@click.option("--out", type=_OUT_FILE, required=True)
def simulate_link(scheme, channel, snr_from, snr_to, snr_step, trials,
                  calibration_trials, seed, energy_norm, out):
    """Monte-Carlo DTX/ACK/NACK detection rates over an SNR grid."""
    if _snr_point_count(snr_from, snr_to, snr_step) > _SNR_LIMIT:  # refused before allocating
        raise click.BadParameter(f"more than {_SNR_LIMIT} SNR points", param_hint="'--snr-step'")
    _check_budget(_CALIBRATION_ENTRIES * calibration_trials, "--calibration-trials")
    grid = tuple(np.arange(snr_from, snr_to + snr_step / 2, snr_step).tolist())
    with _refuse_bad_input():
        cfg = SimConfig(
            scheme=scheme, channel=channel, snr_grid_db=grid, n_trials=trials,
            calibration_trials=calibration_trials, rng_seed=seed, energy_norm=energy_norm,
        )
    try:
        report = run_sim(cfg)
    except CalibrationError as exc:  # too few trials to realize the target
        raise click.BadParameter(str(exc), param_hint="'--calibration-trials'") from None
    report.write_csv(out)
    _write_manifest(out, [out])
    click.echo(f"threshold {report.threshold:.6g}; wrote {len(report.points)} SNR points")


@main.command("import-sequences")
@click.argument("path", type=click.Path(path_type=Path, exists=True))
@click.option("--out", type=_OUT_FILE, required=True)
def import_sequences(path, out):
    """Validate an external sequence file into an ``eval-xcorr --seq-file`` input.

    Accepts a JSON object with a ``sequences`` list of symbol strings or
    [re, im] arrays.  Entries must be unimodular and of one shared length.
    """
    sequences = _read_sequences(path)
    if not sequences:
        raise click.ClickException(f"{path}: 'sequences' list is empty")
    for index, seq in enumerate(sequences):
        if np.max(np.abs(np.abs(seq) - 1.0)) > 1e-9:
            raise click.ClickException(f"{path}: sequence {index} is not unimodular")
    length = sequences[0].size
    pairs = np.stack(sequences).view(float).reshape(len(sequences), length, 2).tolist()
    payload = {"length": length, "count": len(sequences), "sequences": pairs}
    out.write_text(json.dumps(payload) + "\n")
    _write_manifest(out, [out], [path])
    click.echo(f"wrote {len(sequences)} sequences of length {length} to {out}")


def _produce_sweep(figure: str, out_dir: Path, trials: int, seed: int) -> list[tuple]:
    rows = _metric_sweep(InterlaceConfig(10, 12, 108), SCHEMES, DEFAULT_N_IDFT)
    out = out_dir / f"{figure}.csv"
    _write_csv(out, _SWEEP_HEADER, rows)
    _write_manifest(out, [out])
    proposed = [r[3] for r in rows if SCHEMES[r[0]].proposed]
    click.echo(f"max proposed PAPR {max(proposed):.6f} dB over {len(proposed)} waveforms")
    return rows


def _produce_xcorr(figure: str, out_dir: Path, trials: int, seed: int) -> dict[str, float]:
    cfg = InterlaceConfig(10, 12, 108)
    maxima = {}
    for which in _XCORR_SETS:
        out = out_dir / f"xcorr_{which}.csv"
        ccdf_out = out_dir / f"xcorr_{which}_ccdf.csv"
        members = _xcorr_members(which, cfg, DEFAULT_N_IDFT, None)
        maxima[which] = _write_xcorr(members, DEFAULT_N_IDFT, out, ccdf_out)
        _write_manifest(out, [out, ccdf_out])
    click.echo(" ".join(f"{k}:{v:.4f}" for k, v in maxima.items()))
    return maxima


def _produce_sim(figure: str, out_dir: Path, trials: int, seed: int) -> list:
    scheme = figure.removeprefix("sim-")
    reports = []
    for channel in ("flat", "iid_per_rb"):
        for sch in (scheme, f"single-rb-{scheme}"):
            cfg = SimConfig(
                scheme=sch, channel=channel, n_trials=trials, rng_seed=seed,
                calibration_trials=max(_SIM_CALIBRATION, trials),
            )
            report = run_sim(cfg)
            out = out_dir / f"{figure}_{channel}_{sch}.csv"
            report.write_csv(out)
            _write_manifest(out, [out])
            reports.append(report)
    click.echo(f"wrote {len(reports)} reports to {out_dir}")
    return reports


def _check_papr_bound(rows):
    worst = max(r[3] for r in rows if SCHEMES[r[0]].proposed)
    if worst > PAPR_BOUND_DB + 1e-6:
        yield f"proposed max PAPR {worst:.6f} dB exceeds the 3 dB bound"


def _check_cm_below_cycling(rows):
    worst = max(r[4] for r in rows if SCHEMES[r[0]].proposed)
    cycling = max(r[4] for r in rows if r[0] == "cycling")
    if worst >= cycling:
        yield f"proposed CM {worst:.3f} dB is not below cycling {cycling:.3f} dB"


def _check_reference_beta(maxima):
    beta, _ = reference_set_params()
    for which in ("reference-c", "reference-d"):
        if maxima[which] > beta + 1e-9:
            yield f"{which} max rho {maxima[which]:.6f} exceeds beta {beta}"


def _check_zc_rho(maxima):
    if not 0.92 <= maxima["zc"] <= 0.98:
        yield f"zc max rho {maxima['zc']:.6f} outside 0.95 +/- 0.03"


def _check_miss_monotone(reports):
    for report in reports:
        for k, (p, q) in enumerate(zip(report.points, report.points[1:]), 1):
            if q.ack_miss > p.ack_miss + p.ci_miss + q.ci_miss:
                yield (f"{report.config.channel}/{report.config.scheme}: "
                       f"ack_miss not monotone within CI at point {k}")


def _check_interlace_diversity(reports):
    top_miss = {r.config.scheme.startswith("single-rb-"): r.points[-1].ack_miss
                for r in reports if r.config.channel == "iid_per_rb"}
    if top_miss[False] > top_miss[True]:
        yield "iid fading: interlace misses more than single block at top SNR"


FIGURES = {
    "papr": (_produce_sweep, (_check_papr_bound,)),
    "cm": (_produce_sweep, (_check_papr_bound, _check_cm_below_cycling)),
    "xcorr": (_produce_xcorr, (_check_reference_beta, _check_zc_rho)),
    "sim-noncoherent": (_produce_sim, (_check_miss_monotone, _check_interlace_diversity)),
    "sim-coherent": (_produce_sim, (_check_miss_monotone, _check_interlace_diversity)),
}


@main.command("reproduce")
@click.argument("figure", type=click.Choice(list(FIGURES)))
@click.option("--out-dir", type=_OUT_DIR, default=Path("reproduction"))
@click.option("--trials", default=2000, show_default=True, type=click.IntRange(1, 2**40 - 1),
              help="Trials per SNR point for the sim pipelines.")
@click.option("--seed", default=1, show_default=True, type=click.IntRange(0, 2**64 - 1),
              help="RNG seed of the sim pipelines.")
@click.pass_context
def reproduce(ctx, figure, out_dir, trials, seed):
    """Run one reporting pipeline; exit nonzero if its embedded checks fail."""
    if figure.startswith("sim-"):
        _check_budget(_CALIBRATION_ENTRIES * max(_SIM_CALIBRATION, trials), "--trials")
    out_dir.mkdir(parents=True, exist_ok=True)
    produce, checks = FIGURES[figure]
    data = produce(figure, out_dir, trials, seed)
    failures = [message for check in checks for message in check(data)]
    if failures:
        for message in failures:
            click.echo(f"CHECK FAILED: {message}", err=True)
        ctx.exit(1)
    click.echo("embedded checks passed")


if __name__ == "__main__":
    main()
