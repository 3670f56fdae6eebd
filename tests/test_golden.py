"""Golden outputs: the pipelines' bytes against the SHA-256 digests that
``perfbench/expected.json`` records for the benchmark, the bytes of
``build-interlace`` and ``eval-papr`` for every scheme, and the RNG-stream
digests of small link-simulation reports.

The pinned sim digests hold only where numpy selects the same SIMD kernels.
Fused and unfused complex products differ in the last bit: with numpy's
x86-64-v2 kernels (no AVX2/FMA, e.g. ``NPY_DISABLE_CPU_FEATURES="X86_V3
X86_V4 AVX512_ICL AVX512_SPR"``) the two non-coherent digests fail while
the trial-by-trial oracle of ``test_linksim.TestReceivedBatch`` still
passes, so a sim digest failure on another CPU need not be a bug.
"""

import json

import pytest
from click.testing import CliRunner

from csinterlace.cli import main
from helpers import EXPECTED, sha256


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


# sha256 of ``SimReport.write_csv`` bytes followed by ``threshold.hex()``.
# Only a change that declares a new random stream may change these.
SIM_DIGESTS = {
    ("noncoherent", "flat"): "47e5d9ed03079c4fa1768cd951a0bdb1b84f10ae31a952d80777ca201133b80b",
    ("noncoherent", "iid_per_rb"):
        "c8f4f045370d944d879a23d32bba1d5258fb009ee21cc2db00ac3a308d1e06d9",
    ("coherent", "flat"): "ba0d2a84bab4c7802e45c930e3c0a9f76d3fbe11378cc9863781c4e0fa45bbb8",
    ("coherent", "iid_per_rb"): "409065654631d12b56dea11449ecc637755b3f1812eccf29f6ecffd5bb8827f9",
    ("single-rb-noncoherent", "iid_per_rb"):
        "b5439a04673d3dec669e35dd3ab008b7351dd705ebd1019dd29ca31cbf26c9d2",
    ("single-rb-coherent", "iid_per_rb"):
        "c934c242576a1bd1f7de29171512e5e2ad910dfe376f0cc61a7891410a0e0c47",
}


@pytest.mark.parametrize("key", list(SIM_DIGESTS), ids="/".join)
def test_sim_report_matches_rng_stream_digest(sim_gate_reports, key, tmp_path):
    report = sim_gate_reports[key]
    out = tmp_path / "report.csv"
    report.write_csv(out)
    assert sha256(out.read_bytes() + report.threshold.hex().encode()) == SIM_DIGESTS[key]


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
