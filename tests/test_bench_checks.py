"""The benchmark's output checks fail on tampered outputs.

``perfbench/checks.py`` is imported as it stands and fed the CLI's
length-12 library, set search and ``reproduce papr|xcorr`` files, altered
in one place, and small ``run_sim`` reports of the link-simulation
workload's four configurations with every rate of one kind replaced; no
benchmark workload runs here.
"""

import json
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from csinterlace.cli import main
from csinterlace.golay import is_complementary_sequence
from csinterlace.linksim import SimConfig, run_sim
from helpers import load_bench_checks

checks = load_bench_checks()

XCORR_FILES = sorted(name for name in checks.EXPECTED["sha256"] if name.startswith("xcorr_"))


def failed(results) -> list[str]:
    return [name for name, ok, _ in results if not ok]


def as_output(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode()


def test_enumerate_checks_pass_on_cli_output(enumerate_12_output):
    assert failed(checks.enumerate_checks(enumerate_12_output)) == []


def test_enumerate_checks_fail_on_one_changed_symbol(enumerate_12_output):
    payload = json.loads(enumerate_12_output)
    text = payload["pairs"][500][1]
    payload["pairs"][500][1] = text[:7] + ("+" if text[7] != "+" else "-") + text[8:]
    assert failed(checks.enumerate_checks(as_output(payload))) == [
        "digest:enumerate-gcps-12.json"]


def test_enumerate_checks_fail_on_wrong_count(enumerate_12_output):
    payload = json.loads(enumerate_12_output)
    payload["count"] -= 1
    assert "enumerate:pairs" in failed(checks.enumerate_checks(as_output(payload)))


def test_oracle_checks_fail_on_one_flipped_answer(library_12_pairs):
    rng = np.random.default_rng(7)
    members = [checks.parse_symbols(library_12_pairs[i][w]) * checks.SYMBOL_VALUES[p]
               for i, w, p in zip(rng.integers(0, len(library_12_pairs), 20),
                                  rng.integers(0, 2, 20), rng.integers(0, 4, 20))]
    queries = members + list(checks.SYMBOL_VALUES[rng.integers(0, 4, (20, 12))])
    answers = [is_complementary_sequence(q) for q in queries]
    library = checks.library_members(library_12_pairs)
    assert failed(checks.oracle_checks(queries, answers, library)) == []
    answers[3] = not answers[3]
    assert failed(checks.oracle_checks(queries, answers, library)) == [
        "is_complementary_sequence:3"]


def test_file_digest_checks_pass_on_cli_figures(reproduce_papr, reproduce_xcorr):
    assert failed(checks.file_digest_checks(reproduce_papr[1], ["papr.csv"])) == []
    assert failed(checks.file_digest_checks(reproduce_xcorr[1], XCORR_FILES)) == []


def test_file_digest_checks_fail_on_one_changed_byte(reproduce_papr, tmp_path):
    data = bytearray((reproduce_papr[1] / "papr.csv").read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    (tmp_path / "papr.csv").write_bytes(bytes(data))
    assert failed(checks.file_digest_checks(tmp_path, ["papr.csv"])) == ["digest:papr.csv"]


def test_file_digest_checks_fail_on_missing_xcorr_file(reproduce_xcorr, tmp_path):
    for name in XCORR_FILES[1:]:
        shutil.copy(reproduce_xcorr[1] / name, tmp_path / name)
    assert failed(checks.file_digest_checks(tmp_path, XCORR_FILES)) == [f"digest:{XCORR_FILES[0]}"]


@pytest.fixture(scope="module")
def search_sets_output(enumerate_12_dir, tmp_path_factory):
    """CLI ``search-sets`` with its defaults on the session's length-12 cache."""
    out = tmp_path_factory.mktemp("search-sets") / "search-sets.json"
    result = CliRunner().invoke(main, ["search-sets", "--cache-dir", str(enumerate_12_dir / "cache"),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out.read_bytes()


def test_search_sets_checks_pass_on_cli_output(search_sets_output):
    assert failed(checks.search_sets_checks(search_sets_output)) == []


def test_search_sets_checks_fail_on_tampered_payload(search_sets_output):
    payload = json.loads(search_sets_output)
    payload["admission_log"][3]["max_xcorr"] += 1e-9
    assert failed(checks.search_sets_checks(
        (json.dumps(payload, indent=2) + "\n").encode())) == ["digest:search-sets.json"]
    payload["verified"] = False
    assert failed(checks.search_sets_checks((json.dumps(payload, indent=2) + "\n").encode())) == [
        "digest:search-sets.json", "search-sets:verified"]


# The (scheme, channel) configurations of the ``linksim-mc`` workload, run
# at the sizes that ``perfbench/selftest.py`` gives its own sim checks.
SIM_CONFIGS = [("noncoherent", "iid_per_rb"), ("coherent", "flat"),
               ("single-rb-noncoherent", "iid_per_rb"), ("single-rb-coherent", "flat")]


@pytest.fixture(scope="module", params=SIM_CONFIGS, ids="/".join)
def sim_report(request):
    scheme, channel = request.param
    cfg = SimConfig(scheme=scheme, channel=channel, n_trials=300, calibration_trials=5000,
                    rng_seed=11)
    return checks.report_dict(run_sim(cfg))


def test_sim_checks_pass_on_run_sim_report(sim_report):
    assert failed(checks.sim_checks(sim_report)) == []


@pytest.mark.parametrize("key, rate, broken", [
    ("dtx_to_ack", 0.05, ["dtx_to_ack-vs-{reference}"]),
    ("ack_miss", 0.99, ["ack_miss-falls", "ack_miss-ceiling"]),
    ("ack_miss", 0.0, ["ack_miss-falls"]),
    ("nack_to_ack", 0.05, ["nack_to_ack-ceiling"]),
], ids=["dtx-to-ack-0.05", "ack-miss-0.99", "ack-miss-0", "nack-to-ack-0.05"])
def test_sim_checks_fail_on_tampered_rates(sim_report, key, rate, broken):
    # The same rate at every SNR point; the non-coherent false-ACK rate is
    # held against the analytic null, the coherent one against the target.
    tampered = dict(sim_report, points=[dict(p, **{key: rate}) for p in sim_report["points"]])
    tag = f"sim:{sim_report['scheme']}/{sim_report['channel']}"
    reference = "null" if sim_report["scheme"].endswith("noncoherent") else "target"
    assert failed(checks.sim_checks(tampered)) == [
        f"{tag}:{name.format(reference=reference)}" for name in broken]
