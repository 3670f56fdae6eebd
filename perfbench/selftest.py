"""Tests of the benchmark itself.

    python3 perfbench/selftest.py   # checks, BENCHMARK.json, smoke runs

1. Every output check passes on genuine output and fails on tampered output
   (a changed enumerate JSON; sim reports whose DTX->ACK rate is 0.05, whose
   ACK-miss rate is 0.99 or 0 at every SNR, or whose NACK->ACK rate is 0.05;
   a wrong ``is_complementary_sequence`` answer), so no check is vacuous.
2. The analytic DTX null reproduces the thresholds derived by hand.
3. ``BENCHMARK.json`` names exactly the metrics and workloads ``run.py``
   reports.
4. Smoke: ``run.py --all --smoke`` with and without tracing passes every
   check and reports every metric, and ``run.py`` exits non-zero in a copy
   that holds only ``BENCHMARK.json`` and the benchmark's own files.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

from csinterlace import cli, golay, linksim  # noqa: E402


def expect(label: str, found, want_failures: bool) -> None:
    failed, attempted = checks.fail_ratio(found)
    ok = failed > 0 if want_failures else failed == 0
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {failed}/{attempted} checks failed")
    if not ok:
        for name, passed, detail in found:
            if passed == want_failures:
                print(f"     {name}: {detail}")
        raise SystemExit(1)


def test_enumerate_checks(workdir: Path) -> list[list[str]]:
    out = workdir / "enumerate.json"
    assert cli.main.main(args=["enumerate-gcps", "--length", "12", "--out", str(out)],
                         standalone_mode=False) in (None, 0)
    data = out.read_bytes()
    expect("genuine enumerate JSON", checks.enumerate_checks(data), False)
    payload = json.loads(data)
    pairs = payload["pairs"]
    swapped = dict(payload, pairs=[pairs[1], pairs[0]] + pairs[2:])
    expect("enumerate JSON with two pairs swapped",
           checks.enumerate_checks((json.dumps(swapped) + "\n").encode()), True)
    shortened = dict(payload, pairs=pairs[:-1])
    expect("enumerate JSON missing a pair",
           checks.enumerate_checks((json.dumps(shortened) + "\n").encode()), True)
    return pairs


def test_oracle(pairs: list[list[str]]) -> None:
    rng = np.random.default_rng(7)
    plan = {"member": (rng.integers(0, 1 << 30, 20), rng.integers(0, 2, 20),
                       rng.integers(0, 4, 20)),
            "mutant": (rng.integers(0, 1 << 30, 20), rng.integers(0, 2, 20),
                       rng.integers(0, 12, 20), rng.integers(1, 4, 20)),
            "uniform": rng.integers(0, 4, (20, 12))}
    queries = worker.make_queries(pairs, plan)
    answers = [golay.is_complementary_sequence(q) for q in queries]
    members = checks.library_members(pairs)
    assert any(answers) and not all(answers)
    expect("genuine is_complementary_sequence answers",
           checks.oracle_checks(queries, answers, members), False)
    wrong = list(answers)
    wrong[0] = not wrong[0]
    expect("one wrong is_complementary_sequence answer",
           checks.oracle_checks(queries, wrong, members), True)


def test_sim_checks() -> None:
    for scheme, channel in worker.SIM_CONFIGS:
        cfg = linksim.SimConfig(scheme=scheme, channel=channel, n_trials=300,
                                calibration_trials=5000, rng_seed=11)
        report = checks.report_dict(linksim.run_sim(cfg))
        expect(f"genuine sim report {scheme}/{channel}", checks.sim_checks(report), False)
        for key, rate in (("dtx_to_ack", 0.05), ("ack_miss", 0.99), ("ack_miss", 0.0),
                          ("nack_to_ack", 0.05)):
            tampered = dict(report, points=[dict(p, **{key: rate}) for p in report["points"]])
            expect(f"sim report {scheme}/{channel} with {key} {rate} at every SNR",
                   checks.sim_checks(tampered), True)


def test_null() -> None:
    def threshold(shape: int) -> float:
        lo, hi = 0.0, 2000.0
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if checks.null_false_ack(mid, shape, 12.0) > 0.01 else (lo, mid)
        return lo

    for shape, want in ((20, 382.007), (2, 79.59)):
        got = threshold(shape)
        ok = abs(got - want) < 0.01
        print(f"{'ok  ' if ok else 'FAIL'} analytic threshold 12*Gamma({shape}): {got:.4f}"
              f" (want {want})")
        if not ok:
            raise SystemExit(1)
    lo, hi = checks.wilson_interval(0, 1000)
    assert lo < 1e-12 < hi, "a Wilson interval at p=0 must not collapse"


def test_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == LAYER_METRICS
    print("ok   BENCHMARK.json matches the metrics run.py reports")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_smoke() -> None:
    for trace in ("0", "1"):
        proc = run_bench("--all", "--smoke", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout.strip().splitlines()[-1])
        want = {n for n, _ in (LAYER_METRICS if trace == "1" else run.END_TO_END)}
        for workload, result in results.items():
            ok = result["failed"] == 0 and want <= set(result["metrics"])
            print(f"{'ok  ' if ok else 'FAIL'} smoke {workload} trace {trace}: "
                  f"{result['failed']}/{result['attempted']} failed")
            if not ok:
                print(proc.stdout)
                raise SystemExit(1)


def test_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "figures-warm", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'ok  ' if ok else 'FAIL'} refuses to run without the program "
          f"(exit {proc.returncode})")
    if not ok:
        raise SystemExit(1)


def main() -> int:
    test_null()
    test_benchmark_json()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        pairs = test_enumerate_checks(Path(tmp))
    test_oracle(pairs)
    test_sim_checks()
    test_refuses_without_program()
    test_smoke()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
