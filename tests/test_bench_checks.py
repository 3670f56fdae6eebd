"""The benchmark's output checks fail on tampered outputs.

``perfbench/checks.py`` is imported as it stands and fed the CLI's
length-12 library, altered in one place; no benchmark workload runs here.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from csinterlace.golay import is_complementary_sequence


def _load_checks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


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
