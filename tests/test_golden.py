"""Golden outputs: the pipelines' bytes against the SHA-256 digests that
``perfbench/expected.json`` records for the benchmark, and the RNG-stream
digests of small link-simulation reports."""

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
