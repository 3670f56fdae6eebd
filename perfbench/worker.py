"""One sample of one benchmark workload, in a fresh process.

``run.py`` starts this script once per sample and waits for it.  The script
imports the program from ``src/`` of the checkout it lives in, makes the
workload's inputs from the seed, runs the workload's fixed work once while
timing it, checks every output, and writes one JSON result to
``<sample-dir>/result.json``.  With ``--trace`` it also wraps the program's
layers (see ``tracer.py``) and writes the spans to ``<sample-dir>/spans.json``.
The program runs in this process only: the CLI is invoked in-process, no
process is started here, and the only threads are OpenBLAS's own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import CANDIDATES_12, Tracer  # noqa: E402

import csinterlace  # noqa: E402
from csinterlace import cli, fixtures, golay, linksim  # noqa: E402

SIM_CONFIGS = (
    ("noncoherent", "iid_per_rb"),
    ("coherent", "flat"),
    ("single-rb-noncoherent", "iid_per_rb"),
    ("single-rb-coherent", "flat"),
)
SIM_TRIALS = 2000  # per SNR point and hypothesis, as in ``reproduce sim-*``
SIM_CALIBRATION = 20_000
SMOKE_TRIALS = 300  # enough for the signal-path checks to have power
SMOKE_CALIBRATION = 2000

LIBRARY_LENGTH = 12
QUERIES_PER_KIND = 600  # library members, one-symbol mutants, uniform draws

WAVEFORMS = 736  # interlace constructions in ``reproduce papr``
XCORR_FILES = [f"xcorr_{s}{t}.csv" for s in ("reference-c", "reference-d", "zc")
               for t in ("", "_ccdf")]


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Wall and process CPU time summed over the ``with`` blocks it times."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._wall0 = time.perf_counter()
        self._cpu0 = cpu_seconds()

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._wall0
        self.cpu += cpu_seconds() - self._cpu0


class Sample:
    def __init__(self, args):
        self.args = args
        self.dir = args.sample_dir
        self.clock = Clock()
        self.tracer: Tracer | None = None
        self.checks: list[tuple[str, bool, str]] = []
        self.info: dict = {}
        self.sim_trials: list[tuple[str, int, int]] | None = None

    def attempt(self, name: str, fn, *args):
        """Run one operation of the program; a raised error is a failed check."""
        try:
            result = fn(*args)
        except Exception:  # the benchmark must report, not stop, on any failure
            traceback.print_exc()
            self.checks.append(checks.check(f"op:{name}", False, "raised"))
            return None
        self.checks.append(checks.check(f"op:{name}", True))
        return result

    def cli(self, span: str, *argv: str) -> bool:
        """Invoke the click CLI in-process; a non-zero exit is a failed check."""

        def invoke():
            code = cli.main.main(args=list(argv), prog_name="csinterlace",
                                 standalone_mode=False)
            if code not in (None, 0):
                raise RuntimeError(f"exit code {code}")
            return True

        with self.tracer.span(f"cli.{span}") if self.tracer else nullcontext():
            return self.attempt(span, invoke) is not None


# ---------------------------------------------------------------------------
# Workloads: setup(sample) makes the inputs, run(sample, inputs) does the
# timed work inside ``sample.clock`` and checks the outputs outside it.
# ---------------------------------------------------------------------------

def linksim_setup(sample: Sample):
    trials, calibration = ((SMOKE_TRIALS, SMOKE_CALIBRATION) if sample.args.smoke
                           else (SIM_TRIALS, SIM_CALIBRATION))
    return [linksim.SimConfig(scheme=scheme, channel=channel, n_trials=trials,
                              calibration_trials=calibration, rng_seed=sample.args.seed)
            for scheme, channel in SIM_CONFIGS]


def linksim_run(sample: Sample, configs) -> int:
    reports = []
    for cfg in configs:
        with sample.clock:
            reports.append(sample.attempt(f"run_sim:{cfg.scheme}", linksim.run_sim, cfg))
    digests = {}
    for cfg, report in zip(configs, reports):
        if report is None:
            continue
        sample.checks += checks.sim_checks(checks.report_dict(report))
        # Informational only: a declared change of random stream changes it.
        path = sample.dir / f"sim_{cfg.scheme}_{cfg.channel}.csv"
        report.write_csv(path)
        digests[path.name] = checks.sha256(path.read_bytes())
        sample.info[f"threshold.{cfg.scheme}"] = report.threshold
    sample.info["sim_csv_sha256"] = digests
    sample.sim_trials = [
        (cfg.scheme, cfg.calibration_trials, 3 * len(cfg.snr_grid_db) * cfg.n_trials)
        for cfg in configs]
    return sum(c + s for _, c, s in sample.sim_trials)


def library_setup(sample: Sample):
    cache = sample.dir / "cache"
    cache.mkdir()
    rng = np.random.default_rng(sample.args.seed % 2**64)
    n = QUERIES_PER_KIND
    plan = {
        "member": (rng.integers(0, 1 << 30, n), rng.integers(0, 2, n), rng.integers(0, 4, n)),
        "mutant": (rng.integers(0, 1 << 30, n), rng.integers(0, 2, n),
                   rng.integers(0, LIBRARY_LENGTH, n), rng.integers(1, 4, n)),
        "uniform": rng.integers(0, 4, (n, LIBRARY_LENGTH)),
    }
    return cache, plan


def make_queries(pairs: list[list[str]], plan) -> list[np.ndarray]:
    """The seeded query batch: library members under a random global phase,
    members with one symbol changed, and uniform quaternary draws."""
    values = checks.SYMBOL_VALUES
    queries = []
    index, which, phase = plan["member"]
    for i, w, p in zip(index, which, phase):
        queries.append(checks.parse_symbols(pairs[i % len(pairs)][w]) * values[p])
    index, which, position, step = plan["mutant"]
    for i, w, pos, s in zip(index, which, position, step):
        seq = checks.parse_symbols(pairs[i % len(pairs)][w])
        seq[pos] = values[(checks.SYMBOLS.index(pairs[i % len(pairs)][w][pos]) + s) % 4]
        queries.append(seq)
    queries.extend(values[row] for row in plan["uniform"])
    return queries


def library_run(sample: Sample, inputs) -> int:
    cache, plan = inputs
    enum_out = sample.dir / "enumerate.json"
    with sample.clock:
        ok = sample.cli("enumerate-gcps", "enumerate-gcps", "--length", str(LIBRARY_LENGTH),
                        "--cache-dir", str(cache), "--out", str(enum_out))
    sample.checks += checks.output_checks(enum_out, checks.enumerate_checks)
    if not ok or not enum_out.is_file():
        return CANDIDATES_12
    data = enum_out.read_bytes()
    sets_out = sample.dir / "search-sets.json"
    with sample.clock:
        sample.cli("search-sets", "search-sets", "--cache-dir", str(cache),
                   "--out", str(sets_out))
    sample.checks += checks.output_checks(sets_out, checks.search_sets_checks)
    pairs = json.loads(data)["pairs"]
    queries = make_queries(pairs, plan)
    with sample.clock:
        answers = sample.attempt("is_complementary_sequence",
                                 lambda: [golay.is_complementary_sequence(q) for q in queries])
    if answers is not None:
        sample.checks += checks.oracle_checks(queries, answers, checks.library_members(pairs))
        sample.info["queries_true"] = sum(answers)
    return CANDIDATES_12


def figures_setup(sample: Sample):
    warm = sample.args.warm_cache
    if not (warm / f"gcps_len{LIBRARY_LENGTH}.json").is_file():
        raise SystemExit(f"warm cache {warm} is not prepared")
    return warm


def figures_run(sample: Sample, warm: Path) -> int:
    d = sample.dir
    with sample.clock:
        sample.cli("enumerate-gcps", "enumerate-gcps", "--length", str(LIBRARY_LENGTH),
                   "--cache-dir", str(warm), "--out", str(d / "enumerate.json"))
        sample.cli("search-sets", "search-sets", "--cache-dir", str(warm),
                   "--out", str(d / "search-sets.json"))
        sample.cli("reproduce-papr", "reproduce", "papr", "--out-dir", str(d / "papr"))
        sample.cli("reproduce-xcorr", "reproduce", "xcorr", "--out-dir", str(d / "xcorr"))
    sample.checks += checks.output_checks(d / "enumerate.json", checks.enumerate_checks)
    sample.checks += checks.output_checks(d / "search-sets.json", checks.search_sets_checks)
    sample.checks += checks.file_digest_checks(d / "papr", ["papr.csv"])
    sample.checks += checks.file_digest_checks(d / "xcorr", XCORR_FILES)
    return WAVEFORMS


WORKLOADS = {
    "linksim-mc": (linksim_setup, linksim_run),
    "library-cold": (library_setup, library_run),
    "figures-warm": (figures_setup, figures_run),
}


# ---------------------------------------------------------------------------

def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    with open("/proc/self/maps") as handle:
        libs = {line.split()[5] for line in handle
                if len(line.split()) >= 6 and "openblas" in line.split()[5].lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "openblas_threads": openblas_threads(),
        "CSINTERLACE_THREADS": os.environ.get("CSINTERLACE_THREADS"),
    }


def prepare_cache(args) -> int:
    """Build the warm cache with the code under test (not timed)."""
    out = args.sample_dir / "prepare.json"
    code = cli.main.main(args=["enumerate-gcps", "--length", str(LIBRARY_LENGTH),
                               "--cache-dir", str(args.prepare_cache), "--out", str(out)],
                         prog_name="csinterlace", standalone_mode=False)
    found = [checks.check("prepare:exit", code in (None, 0), f"exit {code}")]
    found += (checks.enumerate_checks(out.read_bytes()) if out.is_file()
              else [checks.check("prepare:output", False, "missing")])
    result = {"checks": found}
    (args.sample_dir / "result.json").write_text(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample-dir", type=Path, required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() at which the caller started this process")
    parser.add_argument("--warm-cache", type=Path)
    parser.add_argument("--prepare-cache", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.prepare_cache is not None:
        return prepare_cache(args)

    fixtures.load_reference_pairs()
    fixtures.load_noncoherent_spread()
    fixtures.load_coherent_example()
    setup, run = WORKLOADS[args.workload]
    sample = Sample(args)
    inputs = setup(sample)
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            sample.tracer = Tracer()
            sample.tracer.install(csinterlace)
        units = run(sample, inputs)
        result.update(wall_s=sample.clock.wall, cpu_s=sample.clock.cpu,
                      peak_rss_mb=maxrss_mb(), units=units, checks=sample.checks,
                      info=sample.info, provenance=provenance())
        if sample.tracer is not None:
            result["layers"] = sample.tracer.layer_metrics(sample.sim_trials)
            sample.tracer.dump(sample.dir / "spans.json")
    (sample.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
