"""Golden outputs: the pipelines' bytes against the SHA-256 digests that
``perfbench/expected.json`` records for the benchmark."""

import json

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
