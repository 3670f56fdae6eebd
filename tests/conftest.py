import json
import sys

import pytest
from click.testing import CliRunner

from csinterlace import fixtures, seqcore
from csinterlace.cli import main
from csinterlace.golay import enumerate_gcps
from csinterlace.interlace import InterlaceConfig
from helpers import SIM_GATE_CONFIGS, sim_gate_report


@pytest.fixture
def as_sequence_calls(monkeypatch):
    """The arguments of every ``seqcore.as_sequence`` call made during the
    test, through any ``csinterlace`` module that binds the function."""
    original, calls = seqcore.as_sequence, []

    def counting(a):
        calls.append(a)
        return original(a)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("csinterlace") and (
                getattr(module, "as_sequence", None) is original):
            monkeypatch.setattr(module, "as_sequence", counting)
    return calls


@pytest.fixture(scope="session")
def reference_pairs():
    return fixtures.load_reference_pairs()


@pytest.fixture(scope="session")
def noncoherent_spread():
    return fixtures.load_noncoherent_spread()


@pytest.fixture(scope="session")
def coherent_example():
    return fixtures.load_coherent_example()


@pytest.fixture(scope="session")
def lte_config():
    return InterlaceConfig(n_rb=10, n_sc=12, n_null=108)


@pytest.fixture(scope="session")
def small_libraries():
    """Enumerated pair libraries for lengths 1..6 (cheap, used as seed pools)."""
    return {n: enumerate_gcps(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def enumerate_12_dir(tmp_path_factory):
    """Directory holding ``enumerate.json`` from CLI ``enumerate-gcps
    --length 12`` run once per session into the empty cache ``cache/``,
    as the benchmark runs it."""
    work = tmp_path_factory.mktemp("enumerate-12")
    result = CliRunner().invoke(main, ["enumerate-gcps", "--length", "12",
                                       "--cache-dir", str(work / "cache"),
                                       "--out", str(work / "enumerate.json")])
    assert result.exit_code == 0, result.output
    return work


@pytest.fixture(scope="session")
def enumerate_12_output(enumerate_12_dir):
    return (enumerate_12_dir / "enumerate.json").read_bytes()


@pytest.fixture(scope="session")
def library_12_pairs(enumerate_12_output):
    """The length-12 library as canonical symbol-string pairs."""
    return json.loads(enumerate_12_output)["pairs"]


def _reproduce(tmp_path_factory, figure: str):
    out_dir = tmp_path_factory.mktemp(f"reproduce-{figure}")
    result = CliRunner().invoke(main, ["reproduce", figure, "--out-dir", str(out_dir)])
    return result, out_dir


@pytest.fixture(scope="session")
def reproduce_papr(tmp_path_factory):
    """``(result, out_dir)`` of CLI ``reproduce papr``, run once per session."""
    return _reproduce(tmp_path_factory, "papr")


@pytest.fixture(scope="session")
def reproduce_xcorr(tmp_path_factory):
    """``(result, out_dir)`` of CLI ``reproduce xcorr``, run once per session."""
    return _reproduce(tmp_path_factory, "xcorr")


@pytest.fixture(scope="session")
def sim_gate_reports():
    """The :func:`helpers.sim_gate_report` reports keyed by (scheme,
    channel), run once per session."""
    return {key: sim_gate_report(*key) for key in SIM_GATE_CONFIGS}
