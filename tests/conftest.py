import json

import pytest
from click.testing import CliRunner

from csinterlace import fixtures
from csinterlace.cli import main
from csinterlace.golay import enumerate_gcps
from csinterlace.interlace import InterlaceConfig
from csinterlace.linksim import SimConfig, run_sim


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


# (scheme, channel) of the small link-simulation reports pinned by digest.
# Both channels for each interlace; one for each single-block scheme, whose
# flat and iid reports coincide because one block fades as one gain.
SIM_GATE_CONFIGS = (
    ("noncoherent", "flat"), ("noncoherent", "iid_per_rb"),
    ("coherent", "flat"), ("coherent", "iid_per_rb"),
    ("single-rb-noncoherent", "iid_per_rb"), ("single-rb-coherent", "iid_per_rb"),
)


@pytest.fixture(scope="session")
def sim_gate_reports():
    """``run_sim`` reports keyed by (scheme, channel), run once per session:
    200 trials per point, 2,000 calibration trials, SNR -10/0/6 dB, seed 3."""
    return {
        (scheme, channel): run_sim(SimConfig(
            scheme=scheme, channel=channel, n_trials=200, calibration_trials=2000,
            snr_grid_db=(-10.0, 0.0, 6.0), rng_seed=3))
        for scheme, channel in SIM_GATE_CONFIGS
    }
