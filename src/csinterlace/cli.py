"""Command-line front end and reproduction pipelines.

Every command is deterministic given its parameters; each output file gets
a sibling ``<name>.manifest.json`` recording the command name, its click
parameters as parsed (paths as strings), the toolkit version and the
digests of its input files, so equal manifests imply byte-identical
outputs.  Numeric CSV fields are printed with 9 significant digits for
stable diffs.

``reproduce <figure>`` is a lookup in :data:`FIGURES`, which maps each
figure to a producer and a tuple of checks.  The producer writes the
figure's files and returns their data (sweep rows, cross-correlation
maxima or simulation reports); each check is a pure function of that data
yielding failure messages, and any failure makes the command exit 1.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import click
import numpy as np

from . import __version__
from .fixtures import (
    load_coherent_example,
    load_noncoherent_spread,
    load_reference_pairs,
    reference_set_params,
)
from .golay import GolayPair, cached_enumerate_gcps, enumerate_gcps, library_payload
from .interlace import (
    InterlaceConfig,
    QPSK_PHASES,
    SparseSpectrum,
    UciPayload,
    build_coherent,
    build_noncoherent,
    build_noncoherent_adjacent,
    cycling_baseline,
    rb_values,
    zadoff_chu_set,
)
from .linksim import SimConfig, run_sim
from .metrics import ccdf, cm_db, papr_db, peak_xcorr, synthesize
from .seqcore import sequence_from_json

PAPR_BOUND_DB = 10 * np.log10(2.0)
DEFAULT_N_IDFT = 4096


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


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


def _build_spectrum(
    scheme: str, cfg: InterlaceConfig, seq_index: int, shift: float, bits: int, value: int
) -> SparseSpectrum:
    pairs = load_reference_pairs()
    pair = pairs[seq_index % len(pairs)]
    if scheme == "noncoherent":
        return build_noncoherent(cfg, load_noncoherent_spread(), pair, shift)
    if scheme == "noncoherent-adjacent":
        return build_noncoherent_adjacent(cfg, load_noncoherent_spread(), pair, shift)
    if scheme == "coherent":
        spread, half = load_coherent_example()
        payload = UciPayload("coherent", bits, value)
        return build_coherent(cfg, spread, half, payload.phases())
    if scheme == "cycling":
        return cycling_baseline(cfg, pair.a)
    return zadoff_chu_set(cfg, 30)[seq_index % 30]


@click.group()
@click.version_option(version=__version__)
def main():
    """Complementary-sequence interlace toolkit."""


@main.command("build-interlace")
@click.option("--scheme", default="noncoherent",
              type=click.Choice(["noncoherent", "noncoherent-adjacent", "coherent", "cycling", "zc"]))
@_geometry_options
@click.option("--seq-index", default=0, show_default=True)
@click.option("--shift", default=0.0, show_default=True, help="Cyclic-shift resource (non-coherent).")
@click.option("--bits", default=1, show_default=True)
@click.option("--value", default=0, show_default=True, help="Payload value (coherent).")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def build_interlace(scheme, nrb, nsc, nnull, seq_index, shift, bits, value, out):
    """Emit one frequency-domain interlace as JSON."""
    cfg = InterlaceConfig(nrb, nsc, nnull)
    spectrum = _build_spectrum(scheme, cfg, seq_index, shift, bits, value)
    payload = json.dumps(spectrum.to_json_dict(), sort_keys=True)
    if out is None:
        click.echo(payload)
    else:
        out.write_text(payload + "\n")
        _write_manifest(out, [out])


_SWEEP_SCHEMES = ("noncoherent", "noncoherent-adjacent", "coherent", "cycling", "zc")
_PROPOSED_SCHEMES = ("noncoherent", "noncoherent-adjacent", "coherent")
_SWEEP_HEADER = ["scheme", "seq_index", "selector", "papr_db", "cm_db"]


def _sweep_spectra(cfg: InterlaceConfig, scheme: str, n_idft: int):
    """Yield ``(seq_index, selector, spectrum)`` for every waveform of ``scheme``."""
    pairs = load_reference_pairs()
    if scheme in ("noncoherent", "noncoherent-adjacent"):
        build = build_noncoherent if scheme == "noncoherent" else build_noncoherent_adjacent
        spread = load_noncoherent_spread()
        for i, pair in enumerate(pairs):
            for shift in range(cfg.n_sc):
                yield i, f"shift={shift}", build(cfg, spread, pair, shift)
    elif scheme == "coherent":
        spread, half = load_coherent_example()
        for w1_idx, w1 in enumerate(QPSK_PHASES):
            for w2_idx, w2 in enumerate(QPSK_PHASES):
                yield 0, f"phases={w1_idx}{w2_idx}", build_coherent(cfg, spread, half, (w1, w2))
    elif scheme == "cycling":
        for i, pair in enumerate(pairs):
            yield i, "", cycling_baseline(cfg, pair.a)
    else:
        for i, spectrum in enumerate(zadoff_chu_set(cfg, 30, n_idft)):
            yield i, "", spectrum


def _metric_sweep(cfg: InterlaceConfig, schemes: tuple[str, ...], n_idft: int) -> list[tuple]:
    rows = []
    for scheme in schemes:
        for index, selector, spectrum in _sweep_spectra(cfg, scheme, n_idft):
            wave = synthesize(spectrum, n_idft)
            rows.append((scheme, index, selector, papr_db(wave), cm_db(wave)))
    return rows


def _sweep_command(name: str, column: int, label: str, doc: str) -> None:
    """Register ``name`` as a sweep command echoing the worst ``label``."""

    @main.command(name, help=doc)
    @click.option("--scheme", default="all",
                  type=click.Choice(("all",) + _SWEEP_SCHEMES))
    @_geometry_options
    @click.option("--n-idft", default=DEFAULT_N_IDFT, show_default=True)
    @click.option("--out", type=click.Path(path_type=Path), required=True)
    def command(scheme, nrb, nsc, nnull, n_idft, out):
        schemes = _SWEEP_SCHEMES if scheme == "all" else (scheme,)
        rows = _metric_sweep(InterlaceConfig(nrb, nsc, nnull), schemes, n_idft)
        _write_csv(out, _SWEEP_HEADER, rows)
        _write_manifest(out, [out])
        worst = max(r[column] for r in rows)
        click.echo(f"{len(rows)} waveforms, max {label} {worst:.6f} dB")


_sweep_command("eval-papr", 3, "PAPR",
               "PAPR/CM sweep: one CSV row per (scheme, sequence, shift/payload).")
_sweep_command("eval-cm", 4, "CM", "Cubic-metric sweep (same rows as eval-papr).")


def _xcorr_members(which: str, cfg: InterlaceConfig, seq_file: Path | None):
    if seq_file is not None:
        payload = json.loads(seq_file.read_text())
        members = [sequence_from_json(s) for s in payload["sequences"]]
        if len(members) < 2:
            raise click.ClickException(
                f"{seq_file}: need at least two sequences to correlate, found {len(members)}")
        return members
    if which == "zc":
        # Per-block slices: cross-correlation that matters for interference
        # is block-by-block, and for this scheme every block differs.
        return [rb_values(s, cfg) for s in zadoff_chu_set(cfg, 30)]
    return [p.a if which == "reference-c" else p.b for p in load_reference_pairs()]


def _write_xcorr(members, n_idft: int, out: Path, ccdf_out: Path | None) -> float:
    """Write the peak cross-correlation of every ordered pair and, if asked,
    its CCDF; return the max rho.  2-D members are compared row by row (per
    block) and their worst row is kept."""
    rows = []
    for i, mi in enumerate(members):
        for j, mj in enumerate(members):
            if i != j:
                rho = max(peak_xcorr(x, y, n_idft)
                          for x, y in zip(np.atleast_2d(mi), np.atleast_2d(mj)))
                rows.append((i, j, rho))
    _write_csv(out, ["i", "j", "rho"], rows)
    if ccdf_out is not None:
        curve = ccdf(np.array([r[2] for r in rows]), np.linspace(0.0, 1.0, 101))
        _write_csv(ccdf_out, ["threshold", "exceed_prob"],
                   list(zip(curve.thresholds.tolist(), curve.exceed_prob.tolist())))
    return float(max(r[2] for r in rows))


@main.command("eval-xcorr")
@click.option("--set", "which", default="reference-c",
              type=click.Choice(["reference-c", "reference-d", "zc"]))
@click.option("--seq-file", type=click.Path(path_type=Path, exists=True), default=None,
              help="JSON file with a 'sequences' list; overrides --set.")
@_geometry_options
@click.option("--n-idft", default=DEFAULT_N_IDFT, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), required=True)
@click.option("--ccdf-out", type=click.Path(path_type=Path), default=None)
def eval_xcorr(which, seq_file, nrb, nsc, nnull, n_idft, out, ccdf_out):
    """Pairwise peak cross-correlation matrix and optional CCDF."""
    members = _xcorr_members(which, InterlaceConfig(nrb, nsc, nnull), seq_file)
    rho = _write_xcorr(members, n_idft, out, ccdf_out)
    _write_manifest(out, [out, ccdf_out], [seq_file])
    n = len(members)
    click.echo(f"max rho {rho:.6f} over {n * (n - 1)} ordered pairs")


@main.command("enumerate-gcps")
@click.option("--length", default=12, show_default=True)
@click.option("--cache-dir", type=click.Path(path_type=Path), default=None)
@click.option("--out", type=click.Path(path_type=Path), required=True)
def enumerate_gcps_cmd(length, cache_dir, out):
    """Exhaustively enumerate canonical quaternary pairs of one length."""
    if cache_dir is not None:
        pairs = cached_enumerate_gcps(length, cache_dir)
    else:
        pairs = enumerate_gcps(length)
    out.write_text(json.dumps(library_payload(length, pairs)) + "\n")
    _write_manifest(out, [out])
    click.echo(f"{len(pairs)} pairs of length {length}")


@main.command("search-sets")
@click.option("--beta", default=0.715, show_default=True)
@click.option("--u", default=128, show_default=True)
@click.option("--k", "k_target", default=30, show_default=True)
@click.option("--length", default=12, show_default=True)
@click.option("--seed-file", type=click.Path(path_type=Path, exists=True), default=None,
              help="JSON pair library; defaults to the enumerated library.")
@click.option("--cache-dir", type=click.Path(path_type=Path), default=Path(".csinterlace-cache"))
@click.option("--out", type=click.Path(path_type=Path), required=True)
def search_sets(beta, u, k_target, length, seed_file, cache_dir, out):
    """Greedy low-cross-correlation set construction over a seed library."""
    from .setsearch import build_sets, verify_sets

    if seed_file is not None:
        payload = json.loads(seed_file.read_text())
        seeds = [GolayPair.from_strings(sa, sb) for sa, sb in payload["pairs"]]
    else:
        seeds = cached_enumerate_gcps(length, cache_dir)
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


@main.command("simulate-link")
@click.option("--scheme", default="noncoherent",
              type=click.Choice(["noncoherent", "coherent", "single-rb-noncoherent",
                                 "single-rb-coherent"]))
@click.option("--channel", default="iid_per_rb", type=click.Choice(["flat", "iid_per_rb"]))
@click.option("--snr-from", default=-10.0, show_default=True)
@click.option("--snr-to", default=10.0, show_default=True)
@click.option("--snr-step", default=2.0, show_default=True)
@click.option("--trials", default=10_000, show_default=True)
@click.option("--calibration-trials", default=100_000, show_default=True)
@click.option("--seed", default=1, show_default=True)
@click.option("--energy-norm", default="equal_total",
              type=click.Choice(["equal_total", "per_tone"]))
@click.option("--out", type=click.Path(path_type=Path), required=True)
def simulate_link(scheme, channel, snr_from, snr_to, snr_step, trials,
                  calibration_trials, seed, energy_norm, out):
    """Monte-Carlo DTX/ACK/NACK detection rates over an SNR grid."""
    grid = tuple(np.arange(snr_from, snr_to + snr_step / 2, snr_step).tolist())
    try:
        cfg = SimConfig(
            scheme=scheme, channel=channel, snr_grid_db=grid, n_trials=trials,
            calibration_trials=calibration_trials, rng_seed=seed, energy_norm=energy_norm,
        )
    except ValueError as exc:
        raise click.ClickException(str(exc))
    report = run_sim(cfg)
    report.write_csv(out)
    _write_manifest(out, [out])
    click.echo(f"threshold {report.threshold:.6g}; wrote {len(report.points)} SNR points")


@main.command("import-sequences")
@click.argument("path", type=click.Path(path_type=Path, exists=True))
@click.option("--out", type=click.Path(path_type=Path), required=True)
def import_sequences(path, out):
    """Validate an external sequence file and register it for sweeps.

    Accepts a JSON object with a ``sequences`` list of symbol strings or
    [re, im] arrays.  Entries must be unimodular and of one shared length.
    """
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(payload, dict) or "sequences" not in payload:
        raise click.ClickException(f"{path}: expected an object with a 'sequences' list")
    raw = payload["sequences"]
    if not raw:
        raise click.ClickException(f"{path}: 'sequences' list is empty")
    sequences = []
    length = None
    for index, entry in enumerate(raw):
        try:
            seq = sequence_from_json(entry)
        except (ValueError, TypeError) as exc:
            raise click.ClickException(f"{path}: sequence {index}: {exc}")
        if np.max(np.abs(np.abs(seq) - 1.0)) > 1e-9:
            raise click.ClickException(f"{path}: sequence {index} is not unimodular")
        if length is None:
            length = seq.size
        elif seq.size != length:
            raise click.ClickException(
                f"{path}: sequence {index} has length {seq.size}, expected {length}"
            )
        sequences.append(seq)
    normalized = {
        "length": length,
        "count": len(sequences),
        "sequences": [
            [[float(v.real), float(v.imag)] for v in seq] for seq in sequences
        ],
    }
    out.write_text(json.dumps(normalized) + "\n")
    _write_manifest(out, [out], [path])
    click.echo(f"registered {len(sequences)} sequences of length {length}")


def _produce_sweep(figure: str, out_dir: Path, trials: int, seed: int) -> list[tuple]:
    rows = _metric_sweep(InterlaceConfig(10, 12, 108), _SWEEP_SCHEMES, DEFAULT_N_IDFT)
    out = out_dir / f"{figure}.csv"
    _write_csv(out, _SWEEP_HEADER, rows)
    _write_manifest(out, [out])
    proposed = [r[3] for r in rows if r[0] in _PROPOSED_SCHEMES]
    click.echo(f"max proposed PAPR {max(proposed):.6f} dB over {len(proposed)} waveforms")
    return rows


def _produce_xcorr(figure: str, out_dir: Path, trials: int, seed: int) -> dict[str, float]:
    cfg = InterlaceConfig(10, 12, 108)
    maxima = {}
    for which in ("reference-c", "reference-d", "zc"):
        out = out_dir / f"xcorr_{which}.csv"
        ccdf_out = out_dir / f"xcorr_{which}_ccdf.csv"
        maxima[which] = _write_xcorr(_xcorr_members(which, cfg, None), DEFAULT_N_IDFT,
                                     out, ccdf_out)
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
                calibration_trials=max(20_000, trials),
            )
            report = run_sim(cfg)
            out = out_dir / f"{figure}_{channel}_{sch}.csv"
            report.write_csv(out)
            _write_manifest(out, [out])
            reports.append(report)
    click.echo(f"wrote {len(reports)} reports to {out_dir}")
    return reports


def _check_papr_bound(rows):
    worst = max(r[3] for r in rows if r[0] in _PROPOSED_SCHEMES)
    if worst > PAPR_BOUND_DB + 1e-6:
        yield f"proposed max PAPR {worst:.6f} dB exceeds the 3 dB bound"


def _check_cm_below_cycling(rows):
    worst = max(r[4] for r in rows if r[0] in _PROPOSED_SCHEMES)
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
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("reproduction"))
@click.option("--trials", default=2000, show_default=True, type=click.IntRange(min=1),
              help="Trials per SNR point for the sim pipelines.")
@click.option("--seed", default=1, show_default=True)
@click.pass_context
def reproduce(ctx, figure, out_dir, trials, seed):
    """Run one reporting pipeline; exit nonzero if its embedded checks fail."""
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
