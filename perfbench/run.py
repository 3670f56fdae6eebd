"""Benchmark of the csinterlace toolkit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
    python3 perfbench/run.py --all --smoke

Workloads (see BENCHMARK.json for why each exists):

* ``linksim-mc``   -- ``linksim.run_sim`` on four detector/channel configs at
  the ``reproduce sim-*`` sizes, random stream keyed by the seed;
* ``library-cold`` -- CLI ``enumerate-gcps --length 12`` into an empty cache,
  CLI ``search-sets`` on it, then ``golay.is_complementary_sequence`` over a
  seeded query batch;
* ``figures-warm`` -- CLI ``enumerate-gcps`` and ``search-sets`` on a cache
  prepared before timing, then ``reproduce papr`` and ``reproduce xcorr``.

Every sample is a fresh process (``worker.py``) started one at a time, so
``peak_rss_mb`` is that process's own ``ru_maxrss`` and ``setup_s`` runs from
process launch until the inputs are ready.  Samples repeat until ``--seconds``
have passed, three at least; timings are medians over the untraced samples.  With
``--trace 1`` traced and untraced samples alternate, and the per-layer
metrics are medians over the traced ones.  Every output is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Provenance, per-sample figures
and failed checks go to ``.perfbench/results/``.

This file imports neither numpy nor the program, so its own memory stays
out of the workers' ``ru_maxrss``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS  # noqa: E402  (standard library only)

WORKLOADS = ("linksim-mc", "library-cold", "figures-warm")
# us_per_unit divides wall_s by a fixed count per workload.  Only on
# linksim-mc is that a cost per unit (per Monte-Carlo trial); on the others
# it is wall_s rescaled, reported because every end-to-end metric must be
# reported on every workload.
UNIT_OF_WORK = {
    "linksim-mc": "per Monte-Carlo trial",
    "library-cold": "wall_s / 4^11, only wall_s rescaled",
    "figures-warm": "wall_s / 736, only wall_s rescaled",
}
END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("us_per_unit", "us")]
SETUP_PROBES = 5
MIN_SAMPLES = 3
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


class Run:
    """One workload at one seed: prepares, samples, aggregates."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.dir = WORK / f"run-{self.tag}-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.checks: list[list] = []
        self.setups: list[float] = []
        self.samples: list[dict] = []
        self.count = 0

    def worker(self, *extra: str) -> dict | None:
        """Start one worker, wait for it, and return its result."""
        self.count += 1
        sample_dir = self.dir / f"sample-{self.count:03d}"
        sample_dir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--sample-dir", str(sample_dir),
               "--seed", str(self.seed), *extra]
        if self.smoke:
            cmd.append("--smoke")
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(sample_dir / "log.txt", "wb") as log:
            launched = time.monotonic()
            try:
                proc = subprocess.run(cmd + ["--launched", repr(launched)], stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout, cwd=ROOT)
            except subprocess.TimeoutExpired:
                self.checks.append([f"worker:{sample_dir.name}", False, "timed out"])
                return None
        result_file = sample_dir / "result.json"
        if proc.returncode != 0 or not result_file.is_file():
            log_tail = (sample_dir / "log.txt").read_text(errors="replace")[-2000:]
            self.checks.append([f"worker:{sample_dir.name}", False,
                                f"exit {proc.returncode}: {log_tail}"])
            return None
        result = json.loads(result_file.read_text())
        result["dir"] = sample_dir
        self.checks.extend(result.get("checks", []))
        return result

    def execute(self) -> dict:
        extra = ["--workload", self.workload]
        warm = None
        if self.workload == "figures-warm":
            warm = self.dir / "warm-cache"
            prepared = self.worker("--prepare-cache", str(warm))
            cache_file = warm / "gcps_len12.json"
            if prepared is None or not cache_file.is_file():
                self.checks.append(["prepare-cache", False, "warm cache was not built"])
                return self.finish()
            before = _stamp(cache_file)
            extra += ["--warm-cache", str(warm)]
        for _ in range(0 if self.smoke else SETUP_PROBES):
            probe = self.worker(*extra, "--setup-only")
            if probe is not None:
                self.setups.append(probe["setup_s"])
        start = time.monotonic()
        # At least three samples for a median, whatever the machine's speed;
        # a smoke run takes one of each kind.
        minimum = (2 if self.trace else 1) if self.smoke else MIN_SAMPLES
        failures = 0
        while len(self.samples) < minimum or time.monotonic() - start < self.seconds:
            if self.smoke and len(self.samples) >= minimum:
                break
            if time.monotonic() > self.deadline - 20:
                self.checks.append(["run:deadline", len(self.samples) >= minimum,
                                    f"stopped after {len(self.samples)} samples"])
                break
            traced = self.trace and len(self.samples) % 2 == 1
            result = self.worker(*extra, *(["--trace"] if traced else []))
            if result is None:
                failures += 1
                if failures == 3:
                    break
                continue
            result["traced"] = traced
            self.setups.append(result["setup_s"])
            self.samples.append(result)
        if warm is not None:
            self.checks.append(["warm-cache:read-only", _stamp(cache_file) == before,
                                "the prepared cache is never written while timing"])
        return self.finish()

    def finish(self) -> dict:
        plain = [s for s in self.samples if not s["traced"]]
        traced = [s for s in self.samples if s["traced"]]
        failed = sum(1 for c in self.checks if not c[1])
        record = {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "smoke": self.smoke,
            "unit_of_work": UNIT_OF_WORK[self.workload],
            "provenance": dict(self.samples[0]["provenance"] if self.samples else {},
                               git_revision=_git_revision(), nproc=len(os.sched_getaffinity(0)),
                               seed=self.seed),
            "attempted": max(1, len(self.checks)), "failed": failed,
            "failed_checks": [c for c in self.checks if not c[1]],
            "setup_s": self.setups,
            "samples": [{k: s.get(k) for k in ("traced", "setup_s", "wall_s", "cpu_s",
                                               "peak_rss_mb", "units", "info")}
                        for s in self.samples],
        }
        metrics = {}
        counts = {}
        if plain and self.setups:
            values = {
                "wall_s": [s["wall_s"] for s in plain],
                "cpu_s": [s["cpu_s"] for s in plain],
                "setup_s": self.setups,
                "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
                "us_per_unit": [s["wall_s"] / s["units"] * 1e6 for s in plain],
            }
            for name, unit in END_TO_END:
                metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
                counts[name] = len(values[name])
        layers = {}
        if traced and plain:
            for name, unit in LAYER_METRICS:
                if name == "trace.overhead":
                    value = (statistics.median(s["wall_s"] for s in traced)
                             / statistics.median(s["wall_s"] for s in plain))
                else:
                    value = statistics.median(s["layers"].get(name, 0) for s in traced)
                layers[name] = {"value": value, "unit": unit}
            shutil.copyfile(traced[-1]["dir"] / "spans.json",
                            WORK / "results" / f"{self.tag}-spans.json")
        record.update(metrics=metrics, counts=counts, layers=layers, traced_samples=len(traced))
        (WORK / "results" / f"{self.tag}.json").write_text(
            json.dumps(record, indent=2, default=str) + "\n")
        shutil.rmtree(self.dir, ignore_errors=True)
        return record


def _stamp(path: Path) -> tuple:
    stat = path.stat()
    return stat.st_mtime_ns, stat.st_size, path.read_bytes()


def _git_revision() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def print_record(record: dict) -> None:
    prov = record["provenance"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}")
    print("   " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    for name, metric in record["metrics"].items():
        per = f" ({record['unit_of_work']})" if name == "us_per_unit" else ""
        print(f"   {name:<14} {metric['value']:>14.6f} {metric['unit']:<5}"
              f" median of {record['counts'][name]} samples{per}")
    ratio = record["failed"] / record["attempted"]
    print(f"   {'fail_ratio':<14} {ratio:>14.6f} {'ratio':<5}"
          f" {record['failed']} failed of {record['attempted']} checks")
    if record["layers"]:
        print(f"   per layer, median of {record['traced_samples']} traced samples"
              " (0 where the layer does no work in this workload):")
    for name, metric in record["layers"].items():
        digits = 0 if metric["unit"] == "count" else 6
        print(f"   {name:<48} {metric['value']:>14.{digits}f} {metric['unit']}")
    for failure in record["failed_checks"][:20]:
        print(f"   FAILED {failure[0]}: {failure[2]}")


def main() -> int:
    parser = argparse.ArgumentParser(description="csinterlace benchmark")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=WORKLOADS)
    group.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short sample per workload, for testing the benchmark")
    args = parser.parse_args()

    if not (ROOT / "src" / "csinterlace" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'csinterlace'} is missing",
              file=sys.stderr)
        return 2
    threads = os.environ.get("CSINTERLACE_THREADS")
    if threads not in (None, "1"):
        print(f"CSINTERLACE_THREADS={threads}: the benchmark needs it unset or 1",
              file=sys.stderr)
        return 2
    (WORK / "results").mkdir(parents=True, exist_ok=True)

    workloads = WORKLOADS if args.all else (args.workload,)
    records = [Run(w, args.seed, args.seconds, bool(args.trace), args.smoke).execute()
               for w in workloads]
    for record in records:
        print_record(record)
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    if args.all:
        print(json.dumps({r["workload"]: {"failed": r["failed"], "attempted": r["attempted"],
                                          "metrics": r["metrics"] | r["layers"]}
                          for r in records}))
    else:
        metrics = records[0]["layers" if args.trace else "metrics"]
        print(json.dumps({"correct": failed == 0 and bool(metrics),
                          "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
