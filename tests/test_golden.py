"""Golden outputs: the pipelines' bytes against the SHA-256 digests that
``perfbench/expected.json`` records for the benchmark, the bytes of
``build-interlace`` and ``eval-papr`` for every scheme, and the RNG-stream
digests of small link-simulation reports.

The link simulator forms its statistics with real +, - and × only and sums
small axes in a fixed order, so its pinned digests do not depend on the
SIMD kernels numpy selects: they are checked again in a subprocess under
numpy's x86-64-v2 baseline kernels (no AVX2, FMA or AVX-512).  So are the
``build-interlace`` and ``eval-papr`` pins, but ``--shift 0.5``.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import csinterlace
from csinterlace.cli import main
from helpers import EXPECTED, sha256, sim_report_digest


def test_enumerate_12_cold_matches_recorded_digest(enumerate_12_output):
    assert sha256(enumerate_12_output) == EXPECTED["sha256"]["enumerate-gcps-12.json"]
    payload = json.loads(enumerate_12_output)
    assert payload["count"] == len(payload["pairs"]) == EXPECTED["enumerate_pairs"] == 1152


def test_enumerate_12_warm_cache_matches_recorded_digest(enumerate_12_dir, tmp_path):
    out = tmp_path / "warm.json"
    result = CliRunner().invoke(main, ["enumerate-gcps", "--length", "12",
                                       "--cache-dir", str(enumerate_12_dir / "cache"),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sha256(out.read_bytes()) == EXPECTED["sha256"]["enumerate-gcps-12.json"]


# ``helpers.sim_report_digest`` of ``helpers.sim_gate_report``.  Only a
# change that declares a new random stream may change these.
SIM_DIGESTS = {
    ("noncoherent", "flat"): "006e541068316f76e375959831a1ec9253552e1f9e4e88b743f1d54f66b6a4a5",
    ("noncoherent", "iid_per_rb"):
        "c871fc6a8e2e383fb8df222d21a8f7e4f616cc79d81101c5e77158a834bb45f1",
    ("coherent", "flat"): "0028c87235947c085aad53472ffb12c84b627da28ac7f71fc8e44d9f37b132e1",
    ("coherent", "iid_per_rb"): "6b2820e2072b1477cbd7b6976c08e6a1112736639aed114fb7142af240614d5d",
    ("single-rb-noncoherent", "iid_per_rb"):
        "863f5eb30ad25eeaac69a20ebf843bd3f797ff658aa79e5c0c5b9eeaf34d554a",
    ("single-rb-coherent", "iid_per_rb"):
        "18546ab1d23903dcb289058699f13315edd972fbebe09243a56f28d47b58bc75",
}


@pytest.mark.parametrize("key", list(SIM_DIGESTS), ids="/".join)
def test_sim_report_matches_rng_stream_digest(sim_gate_reports, key, tmp_path):
    assert sim_report_digest(sim_gate_reports[key], tmp_path) == SIM_DIGESTS[key]


BASELINE_KERNELS = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

_DIGESTS_SCRIPT = """
import json, tempfile
from numpy._core._multiarray_umath import __cpu_features__
from helpers import SIM_GATE_CONFIGS, sim_gate_report, sim_report_digest
with tempfile.TemporaryDirectory() as tmp:
    digests = {"/".join(key): sim_report_digest(sim_gate_report(*key), tmp)
               for key in SIM_GATE_CONFIGS}
enabled = [f for f in %r.split() if __cpu_features__.get(f)]
print(json.dumps({"digests": digests, "enabled": enabled}))
""" % BASELINE_KERNELS


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the baseline kernels are named for x86-64")
def test_sim_digests_hold_under_baseline_kernels():
    paths = [str(Path(csinterlace.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_KERNELS,
               PYTHONPATH=os.pathsep.join(paths))
    result = subprocess.run([sys.executable, "-c", _DIGESTS_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["enabled"] == []  # the kernels were switched off
    assert payload["digests"] == {"/".join(key): d for key, d in SIM_DIGESTS.items()}


# sha256 of the stdout of ``build-interlace`` with these arguments.
BUILD_INTERLACE_DIGESTS = {
    ("--scheme", "noncoherent", "--seq-index", "7"):
        "f5deef0ef95f7075491ef9c483e7e700757395fc5809d1d1ef28a33e46338823",
    ("--scheme", "noncoherent-adjacent", "--seq-index", "7"):
        "bd3976c873da68df6478cc6c1c42f93c12127f553d6a9e27e62f083e0e152b04",
    ("--scheme", "coherent", "--seq-index", "0"):
        "e5acd1f31e0f6b4821d7f05a7adfaf763ee24ba7346f05e76489b0d36e459563",
    ("--scheme", "cycling", "--seq-index", "7"):
        "c6fd2c377c4eaf1fa586ee112f8dc14e1321a99a2a5525982ea6a7a4810ff5fb",
    ("--scheme", "zc", "--seq-index", "7"):
        "9e2ecaffadf45a46a52b12c0383aa7848cc230185edbdb8a0f467a9235d16401",
    ("--shift", "0.5"): "3341949baa578a440cd5fdece3338cb214994a35eb2f46a0785b7f9c60328efa",
    ("--scheme", "coherent", "--bits", "2", "--value", "3"):
        "0b22192ed2cd593a3e259a77ad66fe2eb83cb4ea9b85645a0271f8719f3bbcc6",
    # The one-bit ACK phase is -PILOT_PHASE, the phase the link simulator sends.
    ("--scheme", "coherent", "--bits", "1", "--value", "1"):
        "b32c90005ebc1fc6b257dcf4d9483e6856b8016403f40061a9873aa95066ee04",
    ("--scheme", "noncoherent-adjacent", "--nnull", "0", "--shift", "3"):
        "e06d24b0a2dcb39cde962ca6ae08bb0d9687befea3c54486af1c77ccff7ceeea",
}


@pytest.mark.parametrize("args", list(BUILD_INTERLACE_DIGESTS), ids=" ".join)
def test_build_interlace_matches_pinned_digest(args):
    result = CliRunner().invoke(main, ["build-interlace", *args])
    assert result.exit_code == 0, result.output
    assert sha256(result.stdout.encode()) == BUILD_INTERLACE_DIGESTS[args]


# sha256 of the ``eval-papr --nnull 40 --n-idft 2048`` CSV: off the fixture
# geometry and FFT size, where the ZC set is ranked at 2,048 points.
EVAL_PAPR_DIGESTS = {
    "all": "4aa6daed6cf181837624aed7825a144dec543b2cf7ba41b4f550d2a547be518c",
    "zc": "0ec8ca870558b05b9b5149f29b03db167d0f4ecc2c33364d6fe6410dd1fb3112",
}


@pytest.mark.parametrize("scheme", list(EVAL_PAPR_DIGESTS))
def test_eval_papr_matches_pinned_digest(scheme, tmp_path):
    out = tmp_path / "papr.csv"
    result = CliRunner().invoke(main, ["eval-papr", "--scheme", scheme, "--nnull", "40",
                                       "--n-idft", "2048", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sha256(out.read_bytes()) == EVAL_PAPR_DIGESTS[scheme]


# The sweep and build pins in a subprocess under the same baseline kernels:
# the stacked constructions and the batched inverse FFTs must not depend on
# how SIMD lanes split their rows.  ``--shift 0.5`` is left out: its phasors
# come from numpy's complex ``exp``, whose baseline kernel differs in the
# last bit (ROADMAP item 17), so that pin fails under these kernels.
_PINS_SCRIPT = """
import hashlib, json, sys, tempfile
from pathlib import Path
from click.testing import CliRunner
from numpy._core._multiarray_umath import __cpu_features__
from csinterlace.cli import main
builds, sweeps, kernels = json.loads(sys.argv[1])
digests = {}
for args in builds:
    result = CliRunner().invoke(main, ["build-interlace", *args])
    digests[" ".join(args)] = hashlib.sha256(result.stdout.encode()).hexdigest()
with tempfile.TemporaryDirectory() as tmp:
    for scheme in sweeps:
        out = Path(tmp, scheme + ".csv")
        CliRunner().invoke(main, ["eval-papr", "--scheme", scheme, "--nnull", "40",
                                  "--n-idft", "2048", "--out", str(out)])
        digests[scheme] = hashlib.sha256(out.read_bytes()).hexdigest()
print(json.dumps({"digests": digests, "enabled": [f for f in kernels if __cpu_features__.get(f)]}))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the baseline kernels are named for x86-64")
def test_sweep_and_build_pins_hold_under_baseline_kernels():
    builds = {args: d for args, d in BUILD_INTERLACE_DIGESTS.items() if args != ("--shift", "0.5")}
    paths = [str(Path(csinterlace.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_KERNELS,
               PYTHONPATH=os.pathsep.join(paths))
    result = subprocess.run([sys.executable, "-c", _PINS_SCRIPT,
                             json.dumps([list(builds), list(EVAL_PAPR_DIGESTS),
                                         BASELINE_KERNELS.split()])],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["enabled"] == []  # the kernels were switched off
    expected = {" ".join(args): digest for args, digest in builds.items()}
    assert payload["digests"] == expected | EVAL_PAPR_DIGESTS
