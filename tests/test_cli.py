import dataclasses
import json
import tempfile
import tracemalloc
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from csinterlace import cli, golay, interlace
from csinterlace.cli import FIGURES, main
from csinterlace.fixtures import reference_set_params
from csinterlace.interlace import SCHEMES, InterlaceConfig
from csinterlace.linksim import PointStats, SimConfig, SimReport
from csinterlace.metrics import xcorr_matrix
from csinterlace.setsearch import _REFINED_U, _shift_grid
from csinterlace.seqcore import format_quaternary
from helpers import EXPECTED, random_unimodular, sha256


@pytest.fixture
def runner():
    return CliRunner()


class TestBuildInterlace:
    def test_stdout_json(self, runner):
        result = runner.invoke(main, ["build-interlace", "--scheme", "noncoherent"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["grid_size"] == 1092
        indices = [index for index, _ in payload["entries"]]
        assert indices == InterlaceConfig(10, 12, 108).support().tolist()
        values = [complex(re, im) for _, (re, im) in payload["entries"]]
        assert np.allclose(np.abs(values), 1.0)

    def test_file_output_with_manifest(self, runner, tmp_path):
        out = tmp_path / "interlace.json"
        result = runner.invoke(
            main,
            ["build-interlace", "--scheme", "coherent", "--bits", "2",
             "--value", "3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert out.exists()
        manifest = json.loads((tmp_path / "interlace.json.manifest.json").read_text())
        assert manifest["command"] == "build-interlace"
        assert manifest["params"]["value"] == 3

    def test_zc_scheme(self, runner):
        result = runner.invoke(main, ["build-interlace", "--scheme", "zc", "--seq-index", "3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        values = [complex(re, im) for _, (re, im) in payload["entries"]]
        assert np.allclose(np.abs(values), 1.0)

    def test_build_holds_the_support_at_any_null_count(self, runner):
        result = runner.invoke(main, ["build-interlace", "--nnull", "100000000"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["grid_size"] == 900000120 and len(payload["entries"]) == 120
        indices = [index for index, _ in payload["entries"]]
        assert indices == InterlaceConfig(10, 12, 10**8).support().tolist()

    @pytest.mark.parametrize("shift, reduced", [(2**31, 8), (2**62, 4), (13, 1)])
    def test_shift_is_taken_mod_the_block(self, runner, shift, reduced):
        # Reduced before its phasors are formed, so a huge shift keeps their bits.
        results = [runner.invoke(main, ["build-interlace", "--shift", str(s)])
                   for s in (shift, reduced)]
        assert [r.exit_code for r in results] == [0, 0], results[0].output
        assert results[0].stdout_bytes == results[1].stdout_bytes

    def test_grid_past_64_bit_tone_indices_is_refused(self, runner):
        # Its tone indices would wrap negative in the JSON.
        result = runner.invoke(main, ["build-interlace", "--nnull", str(2**62)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "exceeds 64-bit tone indices" in result.output

    @pytest.mark.parametrize("args", [
        ["--seq-index", "30"], ["--seq-index", "45"], ["--seq-index", "-1"],
        ["--scheme", "coherent", "--seq-index", "1"], ["--scheme", "zc", "--seq-index", "30"],
    ], ids=" ".join)
    def test_seq_index_outside_members_is_a_usage_error(self, runner, tmp_path, args):
        out = tmp_path / "interlace.json"
        result = runner.invoke(main, ["build-interlace", *args, "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "Invalid value for '--seq-index'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    @pytest.mark.parametrize("args, option", [
        (["--bits", "3"], "--bits"), (["--bits", "0"], "--bits"), (["--value", "-1"], "--value"),
    ], ids=["--bits 3", "--bits 0", "--value -1"])
    def test_impossible_payload_is_a_usage_error(self, runner, tmp_path, scheme, args, option):
        # Refused for every scheme, read or not.
        out = tmp_path / "interlace.json"
        result = runner.invoke(main, ["build-interlace", "--scheme", scheme, *args,
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        assert not out.exists()


# Command lines whose parameters the library refuses, with the refusal.
BAD_INPUT = [
    (["build-interlace", "--nrb", "1"], "n_rb must be >= 2"),
    (["build-interlace", "--nrb", "9"], "even block count"),
    (["build-interlace", "--nrb", "8"], "spreading pair of length 5 needs 10 RBs"),
    (["build-interlace", "--scheme", "coherent", "--nsc", "13"], "even block size"),
    (["build-interlace", "--nsc", "8"], "block pair of length 12 needs as many tones per RB"),
    (["build-interlace", "--scheme", "cycling", "--nsc", "8"], "needs 12 tones per RB"),
    (["build-interlace", "--scheme", "zc", "--nrb", "8"], "120 occupied tones"),
    (["eval-cm", "--scheme", "zc", "--nrb", "8"], "120 occupied tones"),
    (["eval-xcorr", "--set", "zc", "--nrb", "8"], "120 occupied tones"),
    (["build-interlace", "--scheme", "coherent", "--bits", "1", "--value", "2"], "out of range"),
    (["eval-papr", "--n-idft", "1024"], "n_idft must cover the spectrum grid"),
    (["eval-xcorr", "--n-idft", "8"], "n_idft must be at least the sequence length"),
]


@pytest.mark.parametrize("args, message", BAD_INPUT, ids=[" ".join(a) for a, _ in BAD_INPUT])
def test_bad_input_is_a_click_error(runner, tmp_path, args, message):
    out = tmp_path / "out"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert "Error:" in result.output and message in result.output
    assert not out.exists()


# Parameters outside the range the library accepts, refused by click
# before the command runs.
OUT_OF_RANGE = [
    (["enumerate-gcps", "--length", "0"], "--length"),
    (["enumerate-gcps", "--length", "13"], "--length"),
    (["search-sets", "--beta", "2"], "--beta"),
    (["search-sets", "--beta", "nan"], "--beta"),
    (["search-sets", "--u", "0"], "--u"),
    (["search-sets", "--k", "0"], "--k"),
    (["search-sets", "--length", "13"], "--length"),
]


@pytest.mark.parametrize("args, option", OUT_OF_RANGE, ids=[" ".join(a) for a, _ in OUT_OF_RANGE])
def test_out_of_range_parameter_is_a_usage_error(runner, tmp_path, args, option):
    out = tmp_path / "out"
    result = runner.invoke(main, [*args, "--cache-dir", str(tmp_path / "cache"),
                                  "--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert f"Invalid value for '{option}'" in result.output
    assert not out.exists() and not (tmp_path / "cache").exists()


# The boundary probe: every numeric option of every command, tried at each
# of PROBE_VALUES on a small base invocation.  PROBE_ACCEPTS lists the
# values each option takes; every other one must be refused, by click
# (exit 2) or by the library's checks (exit 1).  A geometry is refused once
# its last tone index leaves int64, and a build holds its support alone, so
# build-interlace takes --nnull 2**31 and refuses 2**62.
_2_31, _2_62 = str(2**31), str(2**62)
PROBE_VALUES = ("nan", "inf", "-inf", "0", "-1", _2_31, _2_62)
PROBE_BASES = {
    "build-interlace": (["build-interlace"],
                        ["--nrb", "--nsc", "--nnull", "--seq-index", "--shift", "--bits", "--value"]),
    "eval-papr": (["eval-papr", "--scheme", "cycling"], ["--nrb", "--nsc", "--nnull", "--n-idft"]),
    "eval-cm": (["eval-cm", "--scheme", "cycling"], ["--nrb", "--nsc", "--nnull", "--n-idft"]),
    "eval-xcorr": (["eval-xcorr"], ["--nrb", "--nsc", "--nnull", "--n-idft"]),
    "enumerate-gcps": (["enumerate-gcps", "--length", "3"], ["--length"]),
    "search-sets": (["search-sets", "--length", "3", "--u", "16", "--k", "3", "--beta", "1"],
                    ["--beta", "--u", "--k", "--length"]),
    "simulate-link": (["simulate-link", "--scheme", "single-rb-noncoherent", "--snr-from", "0",
                       "--snr-to", "0", "--trials", "100", "--calibration-trials", "1000"],
                      ["--snr-from", "--snr-to", "--snr-step", "--trials", "--calibration-trials",
                       "--seed"]),
    "reproduce": (["reproduce", "xcorr"], ["--trials", "--seed"]),
}
PROBE_ACCEPTS = {
    ("build-interlace", "--nnull"): ("0", _2_31),
    ("build-interlace", "--seq-index"): ("0",),
    ("build-interlace", "--shift"): ("0", "-1", _2_31, _2_62),
    ("build-interlace", "--value"): ("0", _2_31, _2_62),  # read only by coherent
    ("eval-papr", "--nnull"): ("0",),
    ("eval-cm", "--nnull"): ("0",),
    ("eval-xcorr", "--nsc"): (_2_31,),  # read only by the zc set
    ("eval-xcorr", "--nnull"): ("0", _2_31),
    ("search-sets", "--k"): (_2_31, _2_62),  # a target the seeds cannot fill
    ("simulate-link", "--snr-from"): ("0", "-1"),
    ("simulate-link", "--snr-to"): ("0",),
    ("simulate-link", "--snr-step"): (_2_31, _2_62),  # one SNR point
    ("simulate-link", "--seed"): ("0", _2_31, _2_62),
    ("reproduce", "--trials"): (_2_31,),  # read only by the sim figures
    ("reproduce", "--seed"): ("0", _2_31, _2_62),
}
# simulate-link --trials 2**31 is in range and the simulation runs in time
# linear in its trials, for many minutes, so the large values skip that option.
PROBES = [(command, option, value) for command, (_, options) in PROBE_BASES.items()
          for option in options for value in PROBE_VALUES
          if (command, option) != ("simulate-link", "--trials") or value not in (_2_31, _2_62)]


def test_probe_covers_every_numeric_option():
    numeric = (click.types.IntParamType, click.types.FloatParamType)
    found = {name: [opt for p in command.params if isinstance(p.type, numeric) for opt in p.opts]
             for name, command in main.commands.items()}
    want = {name: sorted(PROBE_BASES[name][1]) if name in PROBE_BASES else [] for name in found}
    assert {name: sorted(opts) for name, opts in found.items()} == want


@pytest.mark.parametrize("command, option, value", PROBES, ids=[" ".join(p) for p in PROBES])
def test_boundary_probe(runner, tmp_path, command, option, value):
    base, _ = PROBE_BASES[command]
    out = tmp_path / "out"
    paths = ["--out-dir" if command == "reproduce" else "--out", str(out)]
    if command in ("enumerate-gcps", "search-sets"):
        paths += ["--cache-dir", str(tmp_path / "cache")]
    result = runner.invoke(main, [*base, *paths, option, value])
    assert isinstance(result.exception, (SystemExit, type(None))), result.exception  # no traceback
    accepted = value in PROBE_ACCEPTS.get((command, option), ())
    assert result.exit_code in ((0,) if accepted else (1, 2)), result.output
    assert accepted or not out.exists()


# Output paths that cannot be written, refused before any work: {missing} is
# a directory that does not exist, {file} an existing file, {dir} tmp_path.
BAD_PATHS = [
    (["build-interlace", "--out", "{missing}/x"], "--out"),
    (["build-interlace", "--out", "{dir}"], "--out"),
    (["eval-papr", "--out", "{missing}/x"], "--out"),
    (["eval-cm", "--out", "{file}/x"], "--out"),
    (["eval-xcorr", "--out", "{dir}/x", "--ccdf-out", "{missing}/x"], "--ccdf-out"),
    (["enumerate-gcps", "--length", "3", "--out", "{missing}/x"], "--out"),
    (["enumerate-gcps", "--length", "3", "--cache-dir", "{file}", "--out", "{dir}/x"],
     "--cache-dir"),
    (["search-sets", "--length", "3", "--cache-dir", "{file}/sub", "--out", "{dir}/x"],
     "--cache-dir"),
    (["simulate-link", "--out", "{missing}/x"], "--out"),
    (["import-sequences", "{file}", "--out", "{missing}/x"], "--out"),
    (["reproduce", "papr", "--out-dir", "{file}"], "--out-dir"),
    (["reproduce", "xcorr", "--out-dir", "{file}/sub/figures"], "--out-dir"),
]


@pytest.mark.parametrize("args, option", BAD_PATHS, ids=[" ".join(a) for a, _ in BAD_PATHS])
def test_unwritable_output_path_is_a_usage_error(runner, tmp_path, args, option):
    file = tmp_path / "file"
    file.write_text(json.dumps({"sequences": ["+-", "++"]}))
    paths = {"missing": tmp_path / "missing", "file": file, "dir": tmp_path}
    result = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert f"Invalid value for '{option}'" in result.output
    assert list(tmp_path.iterdir()) == [file]


class TestMemoryBudget:
    """Options that size arrays, checked against ``cli._MEMORY_BUDGET``.
    No command line over the real budget is run: one whose check failed
    would allocate gigabytes."""

    def test_check_budget(self):
        cli._check_budget(cli._MEMORY_BUDGET, "--u")
        with pytest.raises(click.BadParameter, match="over the budget"):
            cli._check_budget(cli._MEMORY_BUDGET + 1, "--u")

    def test_search_entries_count_the_shift_tables(self):
        assert (cli._search_entries(3, 4, 0)
                == _shift_grid(3, 4).size + _shift_grid(3, _REFINED_U).size)
        assert cli._search_entries(3, 256, 5) == _shift_grid(3, 256).size + 2 * 3 * 256 * 5

    def test_unbounded_sizes_exceed_the_budget(self):
        # search-sets --u 100000000 --length 2 --k 2, once killed (exit 137)
        assert cli._search_entries(2, 10 ** 8, 2) > cli._MEMORY_BUDGET
        assert cli._idft_entries(1 << 25, 1) > cli._MEMORY_BUDGET
        # the defaults stay far inside it
        assert cli._search_entries(12, 128, 30) < cli._MEMORY_BUDGET // 100
        assert cli._idft_entries(cli.DEFAULT_N_IDFT, 10) < cli._MEMORY_BUDGET // 100
        # simulate-link --calibration-trials 1099511627775, once an 8 TiB allocation
        assert cli._CALIBRATION_ENTRIES * (2**40 - 1) > cli._MEMORY_BUDGET
        assert cli._CALIBRATION_ENTRIES * 100_000 < cli._MEMORY_BUDGET // 100

    @pytest.mark.parametrize("args, option", [
        (["search-sets", "--u", "64"], "--u"),
        (["eval-papr", "--n-idft", "2048"], "--n-idft"),
        (["eval-cm", "--scheme", "coherent", "--n-idft", "2048"], "--n-idft"),
        (["eval-xcorr", "--n-idft", "256"], "--n-idft"),
    ], ids=["search-sets", "eval-papr", "eval-cm", "eval-xcorr"])
    def test_over_budget_is_a_usage_error(self, runner, tmp_path, monkeypatch, args, option):
        # A budget of 1000 entries: these values exceed it, and would
        # allocate little even unchecked.
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", 1000)
        seed_file = tmp_path / "seeds.json"
        seed_file.write_text(json.dumps({"length": 2, "count": 1, "pairs": [["++", "+-"]]}))
        if args[0] == "search-sets":
            args = [*args, "--seed-file", str(seed_file)]
        out = tmp_path / "out"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"Invalid value for '{option}'" in result.output
        assert "over the budget of 1000" in result.output
        assert not out.exists()

    def test_geometry_entries_count_the_support(self, monkeypatch):
        # A build holds its n_rb * n_sc support values and no null: build-interlace
        # --nnull 100000000, once a 26.8 GiB allocation in _combine_taps, holds 240.
        assert cli._build_entries(InterlaceConfig(10, 12, 10**8), 1) == 2 * 120
        assert cli._build_entries(InterlaceConfig(10, 10**7, 0), 1) > cli._MEMORY_BUDGET
        assert cli._build_entries(InterlaceConfig(10, 12, 108), 16) < cli._MEMORY_BUDGET // 100
        placed, combine = [], interlace._combine_taps
        monkeypatch.setattr(interlace, "_combine_taps",
                            lambda *args: placed.append(combine(*args)) or placed[-1])
        cfg = InterlaceConfig(10, 12, 40)
        for name in ("noncoherent", "noncoherent-adjacent", "coherent"):
            scheme = SCHEMES[name]
            resources = [r for _, r in scheme.resources(cfg)]
            scheme.build(cfg, scheme.members(cfg)[0], resources)
            assert placed[-1].size == cli._build_entries(cfg, len(resources))

    def test_geometry_over_the_real_budget_is_refused_before_building(self, runner):
        result = runner.invoke(main, ["build-interlace", "--nsc", "100000000"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "Invalid value for '--nrb' / '--nsc':" in result.output
        assert "over the budget" in result.output

    @pytest.mark.parametrize("args, budget", [
        (["build-interlace", "--nsc", "100"], 1000),
        (["eval-papr", "--nsc", "60"], 4 * (1 << 14)),
        (["eval-cm", "--scheme", "coherent", "--nsc", "210"], 4 * (1 << 14)),
    ], ids=["build-interlace", "eval-papr", "eval-cm"])
    def test_geometry_over_budget_is_a_usage_error(self, runner, tmp_path, monkeypatch,
                                                   args, budget):
        # 2 x 1 x 1000 entries of one build, 2 x 60 x 600 of a stack of 60 shifts or
        # 2 x 16 x 2100 of a coherent stack, over budgets that admit one 2**14-point
        # synthesis batch, on grids the transform covers.
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", budget)
        out = tmp_path / "out"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "Invalid value for '--nrb' / '--nsc':" in result.output
        assert f"over the budget of {budget}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-papr", "eval-cm"])
    @pytest.mark.parametrize("nnull", ["1000", "400000"])
    def test_grid_wider_than_the_transform_is_refused_before_building(
            self, runner, tmp_path, monkeypatch, command, nnull):
        # --nnull 400000 once built a 659 MiB stack before the n_idft check refused it.
        built = []
        for name, scheme in list(SCHEMES.items()):
            monkeypatch.setitem(SCHEMES, name, dataclasses.replace(
                scheme, build=lambda *args, build=scheme.build: built.append(args) or build(*args)))
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [command, "--nnull", nnull, "--out", str(out)])
        assert result.exit_code == 1 and "n_idft must cover the spectrum grid" in result.output
        assert built == [] and not out.exists()

    def test_oversized_sweep_is_refused_before_listing_its_resources(self, runner, tmp_path):
        # The 2**23 shifts of a 2**23-tone block make a stack far over the budget,
        # sized from their count: listing them first once reached 1.38 GB.
        args = ["eval-papr", "--nrb", "2", "--nsc", str(1 << 23), "--nnull", "0",
                "--n-idft", str(1 << 24), "--out", str(tmp_path / "out.csv")]
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 2 and "over the budget" in result.output, result.output
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("args, option", [
        (["simulate-link", "--calibration-trials", "501", "--out", "{out}"],
         "--calibration-trials"),
        (["reproduce", "sim-noncoherent", "--trials", "10", "--out-dir", "{out}"], "--trials"),
        (["reproduce", "sim-coherent", "--trials", "501", "--out-dir", "{out}"], "--trials"),
    ], ids=["simulate-link", "reproduce-floor", "reproduce"])
    def test_calibration_over_budget_is_a_usage_error(self, runner, tmp_path, monkeypatch,
                                                      args, option):
        # The calibration holds three floats a trial, counted as two complex
        # entries: 501 trials, or the sim figures' floor of 20 000, exceed a
        # budget of 1000 entries.
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", 1000)
        out = tmp_path / "out"
        result = runner.invoke(main, [arg.format(out=out) for arg in args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"Invalid value for '{option}'" in result.output
        assert "over the budget of 1000" in result.output
        assert not out.exists()

    def test_calibration_at_the_budget_runs(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", cli._CALIBRATION_ENTRIES * 2000)
        out = tmp_path / "sim.csv"
        result = runner.invoke(main, ["simulate-link", "--scheme", "single-rb-noncoherent",
                                      "--snr-from", "0", "--snr-to", "0", "--trials", "10",
                                      "--calibration-trials", "2000", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.exists()

    @pytest.mark.parametrize("command", ["eval-papr", "eval-cm"])
    def test_sweep_refusal_boundary(self, runner, tmp_path, command):
        # A batch of syntheses holds max(n_idft, _SYNTH_ENTRIES) dense entries,
        # so the budget admits n_idft = 2**24 and refuses the next, as when
        # every waveform was synthesized alone.  The odd block count fails
        # the build before anything is synthesized.
        for n_idft, code, message in ((1 << 24, 1, "even block count"),
                                      ((1 << 24) + 1, 2, "over the budget")):
            result = runner.invoke(main, [command, "--nrb", "9", "--n-idft", str(n_idft),
                                          "--out", str(tmp_path / "out.csv")])
            assert result.exit_code == code and message in result.output, result.output

    def test_sweep_synthesizes_one_row_at_a_time_at_2_20(self, runner, tmp_path):
        # At 2**20 points a synthesis batch is one row: eval-papr holds that
        # row and the metrics' arrays of its waveform, about three complex
        # rows, not the 16 rows of the coherent sweep at once.
        n_idft = 1 << 20
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["eval-papr", "--scheme", "coherent", "--n-idft",
                                          str(n_idft), "--out", str(tmp_path / "papr.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert len((tmp_path / "papr.csv").read_text().splitlines()) == 1 + 16
        assert peak < 4 * 16 * n_idft

    def test_seq_file_budget_covers_the_xcorr_peak(self):
        # eval-xcorr --seq-file is budgeted K**2 complex entries (16 K**2
        # bytes).  At K = 400, xcorr_matrix walks the pairs i < j chunk by
        # chunk beside the K x K floats, with no index or peak arrays of all
        # the pairs; test_eval_xcorr_writes_row_by_row bounds the command.
        k = 400
        members = random_unimodular(np.random.default_rng(5), 2 * k).reshape(k, 2)
        tracemalloc.start()
        try:
            xcorr_matrix(members, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * k * k

    def test_search_at_the_budget_runs(self, runner, tmp_path, monkeypatch):
        seed_file = tmp_path / "seeds.json"
        seed_file.write_text(json.dumps({"length": 2, "count": 1, "pairs": [["++", "+-"]]}))
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", cli._search_entries(2, 64, 8))
        out = tmp_path / "sets.json"
        result = runner.invoke(main, ["search-sets", "--u", "64", "--seed-file", str(seed_file),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["admitted"] >= 1


class TestMetricSweeps:
    def test_eval_papr_coherent(self, runner, tmp_path):
        out = tmp_path / "papr.csv"
        result = runner.invoke(main, ["eval-papr", "--scheme", "coherent", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scheme,seq_index,selector,papr_db,cm_db"
        assert len(lines) == 17  # header + 16 payload combinations
        worst = max(float(line.split(",")[3]) for line in lines[1:])
        assert worst <= 10 * np.log10(2.0) + 1e-6

    def test_eval_cm_cycling(self, runner, tmp_path):
        out = tmp_path / "cm.csv"
        result = runner.invoke(main, ["eval-cm", "--scheme", "cycling", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().strip().splitlines()) == 31

    def test_eval_xcorr_reference(self, runner, tmp_path):
        out = tmp_path / "xc.csv"
        ccdf_out = tmp_path / "xc_ccdf.csv"
        result = runner.invoke(
            main,
            ["eval-xcorr", "--set", "reference-c", "--out", str(out),
             "--ccdf-out", str(ccdf_out)],
        )
        assert result.exit_code == 0, result.output
        rows = out.read_text().strip().splitlines()[1:]
        rhos = [float(r.split(",")[2]) for r in rows]
        assert len(rhos) == 30 * 29
        assert max(rhos) <= 0.715
        assert ccdf_out.exists()

    def test_eval_xcorr_ranks_zc_at_its_fft_size(self, runner, tmp_path):
        # Ranked at 2,048 points, 8 of the 30 roots differ from the
        # 4,096-point ranking; eval-xcorr correlates the eval-papr set.
        cfg = InterlaceConfig(10, 12, 108)
        out = tmp_path / "xc.csv"
        result = runner.invoke(main, ["eval-xcorr", "--set", "zc", "--n-idft", "2048",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        rho = {(int(i), int(j)): float(value) for i, j, value in rows}
        for n_idft, same in ((2048, True), (4096, False)):
            members = SCHEMES["zc"].members(cfg, n_idft).reshape(30, 10, 12)
            expected = xcorr_matrix(members, 2048)
            assert all(abs(value - expected[key]) < 1e-8 for key, value in rho.items()) is same

    def test_eval_xcorr_writes_row_by_row(self, tmp_path):
        # K = 400: the rows and their CCDF are written from the K x K matrix
        # (1.28 MB), not from a Python tuple per ordered pair (28 matrices),
        # within the budget of K**2 complex entries.  Length-1 members keep
        # the matrix itself cheap to trace.
        members = random_unimodular(np.random.default_rng(4), 400).reshape(400, 1)
        matrix = xcorr_matrix(members, 8)
        out, ccdf_out = tmp_path / "xc.csv", tmp_path / "xc_ccdf.csv"
        tracemalloc.start()
        try:
            rho = cli._write_xcorr(members, 8, out, ccdf_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * 400 * 400 * 16
        lines = out.read_text().splitlines()
        assert lines[0] == "i,j,rho" and len(lines) == 1 + 400 * 399
        assert lines[400] == f"1,0,{matrix[1, 0]:.9g}" and lines[401] == f"1,2,{matrix[1, 2]:.9g}"
        assert rho == matrix.max()
        assert ccdf_out.read_text().splitlines()[1] == "0,1"

    @pytest.mark.parametrize("sequences", [[], ["+-j+"]])
    def test_eval_xcorr_needs_two_sequences(self, runner, tmp_path, sequences):
        seq_file = tmp_path / "seqs.json"
        seq_file.write_text(json.dumps({"sequences": sequences}))
        out = tmp_path / "xc.csv"
        result = runner.invoke(main, ["eval-xcorr", "--seq-file", str(seq_file),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "Error:" in result.output and str(seq_file) in result.output
        assert "at least two sequences" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("sequences, message", [
        (["+-j+", "+-j"], "sequence 1 has length 3, expected 4"),
        ([[[1.0, 0.0], ["x", 0.0]], "++"], "sequence 0:"),
        (["++", [[1.0, 0.0], [float("nan"), 0.0]]], "sequence 1: sequence contains non-finite"),
        (["++", [[1.0, 0.0], [10**400, 0.0]]], "sequence 1: coordinate too large for a float"),
        ([[[True, False], [False, True]], "++"], "sequence 0: coordinate True is not a number"),
    ], ids=["unequal-lengths", "non-numeric", "nan", "overflow", "boolean"])
    def test_eval_xcorr_malformed_sequence_is_a_click_error(self, runner, tmp_path,
                                                             sequences, message):
        seq_file = tmp_path / "seqs.json"
        seq_file.write_text(json.dumps({"sequences": sequences}))
        out = tmp_path / "xc.csv"
        result = runner.invoke(main, ["eval-xcorr", "--seq-file", str(seq_file),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"Error: {seq_file}: {message}" in result.output
        assert not out.exists()


    def test_eval_xcorr_bounds_the_sequence_count(self, runner, tmp_path, monkeypatch):
        # A budget of 40 entries admits --n-idft 1 on length-1 sequences
        # (40 entries) and the 6 x 6 matrix, but not the 7 x 7 one.
        monkeypatch.setattr(cli, "_MEMORY_BUDGET", 40)
        monkeypatch.setattr(cli, "xcorr_matrix", lambda members, n_idft: pytest.fail("allocated"))
        seq_file = tmp_path / "seqs.json"
        seq_file.write_text(json.dumps({"sequences": ["+"] * 7}))
        out = tmp_path / "xc.csv"
        result = runner.invoke(main, ["eval-xcorr", "--seq-file", str(seq_file),
                                      "--n-idft", "1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--seq-file'" in result.output
        assert "needs 49 complex entries, over the budget of 40" in result.output
        assert not out.exists()


class TestEnumerateAndSearch:
    def test_enumerate_small(self, runner, tmp_path):
        out = tmp_path / "lib.json"
        result = runner.invoke(main, ["enumerate-gcps", "--length", "3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["count"] == 4

    def test_cold_cache_formats_no_string(self, runner, tmp_path, monkeypatch, small_libraries):
        # The enumeration seeds each pair's strings from its ranks.
        for pairs in small_libraries.values():
            for pair in pairs:
                assert pair.as_strings() == (format_quaternary(pair.a), format_quaternary(pair.b))
        calls = []

        def counting_format(seq):
            calls.append(1)
            return format_quaternary(seq)

        monkeypatch.setattr(golay, "format_quaternary", counting_format)
        out = tmp_path / "lib.json"
        result = runner.invoke(main, ["enumerate-gcps", "--length", "8",
                                      "--cache-dir", str(tmp_path / "cache"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["count"] == 208
        assert calls == []
        assert (tmp_path / "cache" / "gcps_len8.json").read_bytes() == out.read_bytes()

    def test_warm_cache_formats_no_string(self, runner, tmp_path, monkeypatch):
        args = ["enumerate-gcps", "--length", "8", "--cache-dir", str(tmp_path / "cache")]
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert runner.invoke(main, [*args, "--out", str(cold)]).exit_code == 0
        calls = []

        def counting_format(seq):
            calls.append(1)
            return format_quaternary(seq)

        monkeypatch.setattr(golay, "format_quaternary", counting_format)
        result = runner.invoke(main, [*args, "--out", str(warm)])
        assert result.exit_code == 0, result.output
        assert calls == []
        assert warm.read_bytes() == cold.read_bytes()

    def test_empty_library_round_trip(self, runner, tmp_path):
        # No quaternary pair has length 7 or 9; a cached empty library loads.
        cache = str(tmp_path / "cache")
        for args, echo in [(["enumerate-gcps", "--length", "7"], "0 pairs of length 7"),
                           (["search-sets", "--length", "9"], "admitted 0/30")]:
            for run in ("cold", "warm"):
                out = tmp_path / f"{args[0]}-{run}.json"
                result = runner.invoke(main, [*args, "--cache-dir", cache, "--out", str(out)])
                assert result.exit_code == 0, result.output
                assert echo in result.output
            assert (tmp_path / f"{args[0]}-cold.json").read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("beta, verified", [("0.715", True), ("0.7142", False)])
    def test_coarse_grid_certificate_is_refined(self, runner, enumerate_12_dir, tmp_path,
                                                beta, verified):
        # On the u = 16 grid the Bernstein bound of the library's set
        # exceeds 0.715; on the refined grid it certifies 0.715, while its
        # true maximum 0.7143984 still exceeds 0.7142.
        out = tmp_path / "sets.json"
        result = runner.invoke(main, ["search-sets", "--u", "16", "--beta", beta,
                                      "--cache-dir", str(enumerate_12_dir / "cache"),
                                      "--out", str(out)])
        assert result.exit_code == (0 if verified else 1), result.output
        payload = json.loads(out.read_text())
        assert payload["admitted"] == 30 and payload["verified"] is verified

    def test_search_with_seed_file(self, runner, tmp_path):
        lib = tmp_path / "lib.json"
        runner.invoke(main, ["enumerate-gcps", "--length", "4", "--out", str(lib)])
        out = tmp_path / "sets.json"
        result = runner.invoke(
            main,
            ["search-sets", "--beta", "1.0", "--u", "16", "--k", "3",
             "--seed-file", str(lib), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["admitted"] == 3
        assert payload["verified"] is True
        assert payload["max_xcorr"]["first"] <= 1.0


# Pair-library files every reader refuses: (id, file text, message after
# "invalid pair library <path>: ").  A message naming one pair gives its index.
_GOOD_4 = {"length": 4, "count": 1, "pairs": [["+++-", "++-+"]]}
BAD_LIBRARIES = [
    ("count-too-high", {"length": 4, "count": 99, "pairs": [["++++", "++++"]]},
     "header (length 4, count 99) does not match 1 pairs"),
    ("count-too-low", {**_GOOD_4, "count": 2}, "header (length 4, count 2) does not match 1 pairs"),
    ("no-header", {"pairs": [["++", "+-"]]}, "header (length None, count None) does not match"),
    ("float-length", {"length": 2.0, "count": 1, "pairs": [["++", "+-"]]}, "header (length 2.0,"),
    ("no-pairs-key", {"length": 2, "count": 1}, "expected an object with a 'pairs' list"),
    ("not-an-object", [["++", "+-"]], "expected an object with a 'pairs' list"),
    ("truncated", json.dumps(_GOOD_4)[:30], "malformed JSON at line 1"),
    ("non-complementary", {"length": 4, "count": 1, "pairs": [["++++", "++++"]]},
     "pair 0 ['++++', '++++'] is not complementary"),
    ("second-non-complementary", {"length": 2, "count": 2, "pairs": [["++", "+-"], ["++", "++"]]},
     "pair 1 ['++', '++'] is not complementary"),
    ("header-length-differs", {**_GOOD_4, "length": 3}, "pair 0: expected two symbol strings of length 3"),
    ("short-sequences", {**_GOOD_4, "pairs": [["++-", "+-+"]]},
     "pair 0: expected two symbol strings of length 4"),
    ("mixed-lengths", {**_GOOD_4, "count": 2, "pairs": [["+++-", "++-+"], ["++", "+-"]]},
     "pair 1: expected two symbol strings of length 4"),
    ("three-strings", {**_GOOD_4, "pairs": [["+++-", "++-+", "++++"]]},
     "pair 0: expected two symbol strings of length 4"),
    ("not-a-pair", {"length": 2, "count": 1, "pairs": ["+-"]},
     "pair 0: expected two symbol strings of length 2"),
    ("bad-symbol", {**_GOOD_4, "pairs": [["+++x", "++-+"]]},
     "pair 0: invalid quaternary symbol 'x'"),
    # Parsed in one call, the strings still name their pair; a trailing NUL is refused by name.
    ("bad-second-member", {**_GOOD_4, "count": 4, "pairs": [["+++-", "++-+"]] * 3
                           + [["+++-", "++-\x00"]]}, "pair 3: invalid quaternary symbol '\\x00'"),
    # A dict parses like its keys, "+-", but would not write back as a string.
    ("non-string", {"length": 2, "count": 1, "pairs": [[{"+": 0, "-": 0}, "++"]]},
     "pair 0: expected two symbol strings of length 2"),
    # Read with the last key winning, the header would agree with the pairs.
    ("duplicate-key", '{"length": 3, ' + json.dumps(_GOOD_4)[1:], "duplicate key 'length'"),
]

# How each command reaches a library file ``{dir}/gcps_len{n}.json``, n the
# header's length (4 if it has none): the enumeration cache of --length n,
# or a --seed-file.
LIBRARY_READERS = {
    "enumerate-gcps-cache": ["enumerate-gcps", "--length", "{n}", "--cache-dir", "{dir}"],
    "search-sets-cache": ["search-sets", "--length", "{n}", "--cache-dir", "{dir}"],
    "search-sets-seed-file": ["search-sets", "--seed-file", "{dir}/gcps_len{n}.json"],
}


@pytest.mark.parametrize("reader", list(LIBRARY_READERS))
@pytest.mark.parametrize("payload, message", [case[1:] for case in BAD_LIBRARIES],
                         ids=[case[0] for case in BAD_LIBRARIES])
def test_bad_library_is_refused(runner, tmp_path, reader, payload, message):
    n = payload.get("length") if isinstance(payload, dict) else None
    n = n if type(n) is int else 4
    library = tmp_path / f"gcps_len{n}.json"
    library.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    before = library.read_bytes()
    out = tmp_path / "out.json"
    args = [arg.format(dir=tmp_path, n=n) for arg in LIBRARY_READERS[reader]]
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert f"Error: invalid pair library {library}: {message}" in result.output
    assert not out.exists() and library.read_bytes() == before


# The fuzz of the three readers of JSON input: drawn documents, nested
# values, numbers at and past the float limits, booleans, unicode and
# ragged lengths, each as a pair library or a sequence file.  A reader
# exits 0, 1 or 2 with no traceback, and writes nothing unless it exits 0.
FLOAT_LIMITS = [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -0.0, 2.0**53 + 1,
                10**308 * 10, -(10**309), 2**63, float("inf"), float("nan")]
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.sampled_from(FLOAT_LIMITS), st.text(max_size=4),
                        st.text(alphabet="+-ij", min_size=1, max_size=4))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                           max_leaves=10)
SYMBOLS = st.text(alphabet="+-ij", min_size=1, max_size=4)
LIBRARIES = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({"length": st.integers(1, 4) | JSON_LEAVES,
                           "count": st.integers(0, 3) | JSON_LEAVES,
                           "pairs": st.lists(st.lists(SYMBOLS, min_size=1, max_size=3)
                                             | JSON_VALUES, max_size=3)}),
    st.integers(1, 4).flatmap(lambda n: st.lists(st.sampled_from(golay.enumerate_gcps(n)).map(
        lambda p: list(p.as_strings())), max_size=3).map(
        lambda pairs: {"length": n, "count": len(pairs), "pairs": pairs})),
)
COORDINATES = st.lists(st.lists(JSON_LEAVES | st.floats(-1, 1), min_size=1, max_size=3)
                       | JSON_LEAVES, min_size=1, max_size=4)
SEQUENCE_FILES = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({"sequences": st.lists(SYMBOLS | COORDINATES | JSON_VALUES,
                                                 max_size=4)}),
    st.fixed_dictionaries({"sequences": st.lists(SYMBOLS, max_size=4)}),
)
FUZZ = settings(derandomize=True, max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def read_fuzzed(document, args):
    """Write ``document`` as ``{dir}/gcps_len{n}.json``, run the command line
    ``args`` on it, and check the exit, the traceback and what it wrote."""
    n = document.get("length") if isinstance(document, dict) else None
    n = n if type(n) is int and 1 <= n <= 4 else 4
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, f"gcps_len{n}.json")
        src.write_text(json.dumps(document))
        before = {path: path.read_bytes() for path in Path(tmp).iterdir()}
        out = Path(tmp, "out.json")
        result = CliRunner().invoke(main, [arg.format(dir=tmp, src=src, n=n) for arg in args]
                                    + ["--out", str(out)])
        assert isinstance(result.exception, (SystemExit, type(None))), result.exception
        assert result.exit_code in (0, 1, 2), result.output
        if result.exit_code:
            assert {path: path.read_bytes() for path in Path(tmp).iterdir()} == before
        else:
            assert out.exists()


class TestReaderFuzz:
    @FUZZ
    @given(document=LIBRARIES, reader=st.sampled_from(list(LIBRARY_READERS)))
    def test_library_readers(self, document, reader):
        args = [arg.replace("{dir}/gcps_len{n}.json", "{src}") for arg in LIBRARY_READERS[reader]]
        if reader.startswith("search-sets"):
            args += ["--u", "4", "--k", "2"]
        read_fuzzed(document, args)

    @FUZZ
    @given(document=SEQUENCE_FILES,
           command=st.sampled_from([["import-sequences", "{src}"],
                                    ["eval-xcorr", "--seq-file", "{src}", "--n-idft", "16"]]))
    def test_sequence_readers(self, document, command):
        read_fuzzed(document, command)


class TestSimulateLink:
    def test_small_run(self, runner, tmp_path):
        out = tmp_path / "link.csv"
        result = runner.invoke(
            main,
            ["simulate-link", "--scheme", "single-rb-noncoherent", "--channel", "flat",
             "--snr-from", "0", "--snr-to", "2", "--snr-step", "2",
             "--trials", "200", "--calibration-trials", "3000", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert (tmp_path / "link.csv.manifest.json").exists()

    @pytest.mark.parametrize("args, field", [
        (["--snr-from", "10", "--snr-to", "-10"], "snr_grid_db"),
    ])
    def test_invalid_config_is_a_click_error(self, runner, tmp_path, args, field):
        out = tmp_path / "link.csv"
        result = runner.invoke(main, ["simulate-link", "--trials", "10", *args, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "Error:" in result.output and field in result.output
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [
        ("--trials", "0"), ("--trials", "-1"),
        ("--calibration-trials", "0"), ("--calibration-trials", "-1"),
        ("--seed", "-1"), ("--seed", str(2**64)),
    ])
    def test_count_or_seed_out_of_range_is_a_usage_error(self, runner, tmp_path, option, value):
        # The ranges are SimConfig's own limits, refused before it is built.
        out = tmp_path / "link.csv"
        result = runner.invoke(main, ["simulate-link", option, value, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"Invalid value for '{option}'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args, option", [
        (["--snr-step", "0"], "--snr-step"),
        (["--snr-step", "-2"], "--snr-step"),
        (["--snr-step", "nan"], "--snr-step"),
        (["--snr-from", "nan"], "--snr-from"),
        (["--snr-to", "inf"], "--snr-to"),
        (["--snr-from", "-inf"], "--snr-from"),
        (["--snr-from", "0", "--snr-to", "65536", "--snr-step", "1"], "--snr-step"),
    ])
    def test_bad_snr_grid_is_a_usage_error(self, runner, tmp_path, args, option):
        out = tmp_path / "link.csv"
        result = runner.invoke(main, ["simulate-link", "--trials", "10", *args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"'{option}'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("snr_from, snr_to, snr_step, count", [
        (-10.0, 10.0, 2.0, 11), (0.0, 0.0, 1.0, 1), (0.0, 65535.0, 1.0, 65536),
        (0.0, 65536.0, 1.0, 65537), (10.0, -10.0, 2.0, -9), (0.0, 1e12, 1e-3, 1e15 + 1),
        (-1e308, 1e308, 1.0, float("inf")),
    ])
    def test_snr_point_count(self, snr_from, snr_to, snr_step, count):
        # Counted without building the grid; checked against numpy only
        # where the grid is small.
        assert cli._snr_point_count(snr_from, snr_to, snr_step) == count
        if 0 <= count <= 65537:
            grid = np.arange(snr_from, snr_to + snr_step / 2, snr_step)
            assert grid.size == count

    def test_too_few_calibration_trials_is_a_usage_error(self, runner, tmp_path):
        # 1 % of 150 noise-only trials rounds to 2 claims: 1.33 %, too far off.
        out = tmp_path / "link.csv"
        result = runner.invoke(main, ["simulate-link", "--scheme", "single-rb-noncoherent",
                                      "--trials", "10", "--calibration-trials", "150",
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "'--calibration-trials'" in result.output and "0.013333" in result.output
        assert not out.exists()

    def test_calibration_without_a_claim_to_place_is_a_usage_error(self, runner, tmp_path):
        # 1 % of one noise-only trial rounds to no claim: no threshold
        # realizes the target, and none may be reported as if it did.
        out = tmp_path / "link.csv"
        result = runner.invoke(main, ["simulate-link", "--trials", "2000",
                                      "--calibration-trials", "1", "--snr-from", "0",
                                      "--snr-to", "0", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "'--calibration-trials'" in result.output
        assert not out.exists()

    def test_every_config_field_is_an_option(self, runner, tmp_path, monkeypatch):
        # Every option set away from its default must move every SimConfig
        # field away from its default; a field no option reaches is a
        # setting only the library can change.
        seen = []

        def capture(cfg):
            seen.append(cfg)
            raise RuntimeError("stop before simulating")

        monkeypatch.setattr(cli, "run_sim", capture)
        runner.invoke(main, [
            "simulate-link", "--scheme", "coherent", "--channel", "flat",
            "--snr-from", "0", "--snr-to", "1", "--snr-step", "1", "--trials", "7",
            "--calibration-trials", "9", "--seed", "5", "--energy-norm", "per_tone",
            "--out", str(tmp_path / "link.csv"),
        ])
        default = SimConfig()
        assert [f.name for f in dataclasses.fields(SimConfig)
                if getattr(seen[0], f.name) == getattr(default, f.name)] == []


class TestImportSequences:
    def test_valid_symbol_strings(self, runner, tmp_path):
        src = tmp_path / "seqs.json"
        src.write_text(json.dumps({"sequences": ["++ij", "+-+-"]}))
        out = tmp_path / "registered.json"
        result = runner.invoke(main, ["import-sequences", str(src), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == f"wrote 2 sequences of length 4 to {out}\n"
        payload = json.loads(out.read_text())
        assert payload["count"] == 2 and payload["length"] == 4

    def test_complex_array_form(self, runner, tmp_path):
        src = tmp_path / "seqs.json"
        src.write_text(json.dumps({"sequences": [[[1.0, 0.0], [0.0, -1.0]]]}))
        out = tmp_path / "registered.json"
        result = runner.invoke(main, ["import-sequences", str(src), "--out", str(out)])
        assert result.exit_code == 0, result.output

    def test_empty_list_rejected(self, runner, tmp_path):
        src = tmp_path / "seqs.json"
        src.write_text(json.dumps({"sequences": []}))
        result = runner.invoke(main, ["import-sequences", str(src), "--out", str(tmp_path / "o.json")])
        assert result.exit_code != 0
        assert "empty" in result.output

    def test_zero_element_rejected(self, runner, tmp_path):
        src = tmp_path / "seqs.json"
        src.write_text(json.dumps({"sequences": [[[0.0, 0.0], [1.0, 0.0]]]}))
        result = runner.invoke(main, ["import-sequences", str(src), "--out", str(tmp_path / "o.json")])
        assert result.exit_code != 0
        assert "not unimodular" in result.output

    def test_malformed_json_reports_line(self, runner, tmp_path):
        src = tmp_path / "seqs.json"
        src.write_text('{"sequences": [\n  "++",\n  broken\n]}')
        result = runner.invoke(main, ["import-sequences", str(src), "--out", str(tmp_path / "o.json")])
        assert result.exit_code != 0
        assert "line 3" in result.output

    @pytest.mark.parametrize("command", [["import-sequences", "{src}"],
                                         ["eval-xcorr", "--seq-file", "{src}"]],
                             ids=["import-sequences", "eval-xcorr"])
    def test_duplicate_key_rejected(self, runner, tmp_path, command):
        # Read with the last key winning, the file would hold two valid sequences.
        src = tmp_path / "seqs.json"
        src.write_text('{"sequences": ["++"], "sequences": ["++", "+-"]}')
        out = tmp_path / "o.json"
        result = runner.invoke(main, [*(arg.format(src=src) for arg in command), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"Error: {src}: duplicate key 'sequences'" in result.output
        assert not out.exists()

    def test_boolean_coordinates_rejected(self, runner, tmp_path):
        src = tmp_path / "seqs.json"
        src.write_text(json.dumps({"sequences": [[[True, False], [False, True]]]}))
        out = tmp_path / "o.json"
        result = runner.invoke(main, ["import-sequences", str(src), "--out", str(out)])
        assert result.exit_code == 1
        assert f"Error: {src}: sequence 0: coordinate True is not a number" in result.output
        assert not out.exists()

    def test_mixed_lengths_rejected(self, runner, tmp_path):
        src = tmp_path / "seqs.json"
        src.write_text(json.dumps({"sequences": ["++", "+++"]}))
        result = runner.invoke(main, ["import-sequences", str(src), "--out", str(tmp_path / "o.json")])
        assert result.exit_code != 0
        assert "length" in result.output


class TestReproduce:
    def test_xcorr_pipeline_passes_checks(self, reproduce_xcorr):
        result, out_dir = reproduce_xcorr
        assert result.exit_code == 0, result.output
        assert "embedded checks passed" in result.output
        for name in XCORR_FILES:
            assert sha256((out_dir / name).read_bytes()) == EXPECTED["sha256"][name], name

    def test_papr_pipeline_deterministic(self, runner, reproduce_papr, tmp_path):
        first, first_dir = reproduce_papr
        assert first.exit_code == 0, first.output
        result = runner.invoke(main, ["reproduce", "papr", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        data = (first_dir / "papr.csv").read_bytes()
        assert data == (tmp_path / "papr.csv").read_bytes()
        assert sha256(data) == EXPECTED["sha256"]["papr.csv"]

    def test_failed_check_exits_nonzero(self, runner, tmp_path, monkeypatch):
        def stub_producer(figure, out_dir, trials, seed):
            return sweep_rows(proposed_papr=3.02)

        monkeypatch.setitem(FIGURES, "papr", (stub_producer, FIGURES["papr"][1]))
        result = runner.invoke(main, ["reproduce", "papr", "--out-dir", str(tmp_path)])
        assert result.exit_code == 1
        assert "CHECK FAILED: proposed max PAPR 3.020000 dB exceeds the 3 dB bound" in result.output
        assert "embedded checks passed" not in result.output

    @pytest.mark.parametrize("figure", ["sim-noncoherent", "sim-coherent"])
    def test_zero_trials_is_a_usage_error(self, runner, tmp_path, figure):
        result = runner.invoke(main, ["reproduce", figure, "--trials", "0",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "Invalid value for '--trials'" in result.output
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("trials, message", [
        (2**40, "Invalid value for '--trials'"),  # past the simulator's range
        (2**40 - 1, "over the budget"),  # in range, but its calibration is not
    ], ids=["range", "budget"])
    def test_trials_the_simulator_cannot_run_are_a_usage_error(self, runner, tmp_path, trials,
                                                              message):
        out_dir = tmp_path / "figures"
        result = runner.invoke(main, ["reproduce", "sim-noncoherent", "--trials", str(trials),
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert message in result.output
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_rng_key_is_a_usage_error(self, runner, tmp_path, seed):
        result = runner.invoke(main, ["reproduce", "sim-noncoherent", "--trials", "10",
                                      "--seed", str(seed), "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "Invalid value for '--seed'" in result.output
        assert list(tmp_path.glob("*.csv")) == []

    def test_manifest_records_figure_and_params(self, reproduce_xcorr):
        _, out_dir = reproduce_xcorr
        manifest = json.loads((out_dir / "xcorr_zc.csv.manifest.json").read_text())
        assert manifest["command"] == "reproduce"
        assert manifest["params"] == {"figure": "xcorr", "out_dir": str(out_dir),
                                      "trials": 2000, "seed": 1}
        assert manifest["outputs"] == [str(out_dir / "xcorr_zc.csv"),
                                       str(out_dir / "xcorr_zc_ccdf.csv")]


XCORR_FILES = [f"xcorr_{which}{suffix}.csv" for which in ("reference-c", "reference-d", "zc")
               for suffix in ("", "_ccdf")]


def sweep_rows(proposed_papr=2.9, cycling_cm=3.5):
    """Synthetic ``reproduce papr|cm`` rows: (scheme, index, selector, papr, cm)."""
    return [("noncoherent", 0, "shift=0", proposed_papr, 2.0),
            ("noncoherent-adjacent", 1, "shift=3", 2.8, 2.05),
            ("coherent", 0, "phases=00", 3.0, 2.1),
            ("cycling", 0, "", 5.0, cycling_cm),
            ("zc", 0, "", 4.0, 3.0)]


def sim_reports(iid_top_miss=0.05, flat_misses=(0.5, 0.2, 0.05)):
    """Synthetic ``reproduce sim-noncoherent`` reports, ci_miss 0.01 everywhere."""
    misses = {("flat", "noncoherent"): flat_misses,
              ("flat", "single-rb-noncoherent"): (0.6, 0.3, 0.2),
              ("iid_per_rb", "noncoherent"): (0.5, 0.2, iid_top_miss),
              ("iid_per_rb", "single-rb-noncoherent"): (0.6, 0.3, 0.1)}
    return [SimReport(SimConfig(scheme=scheme, channel=channel), 1.0,
                      tuple(PointStats(snr, 0.01, 0.0, miss, 0.001, 0.0, 0.01)
                            for snr, miss in zip((-4.0, 0.0, 4.0), seq)))
            for (channel, scheme), seq in misses.items()]


def check_failures(figure, data) -> list[str]:
    return [message for check in FIGURES[figure][1] for message in check(data)]


class TestFigureChecks:
    """Each embedded check of ``reproduce`` passes on good data and fails
    on tampered data; no pipeline runs here."""

    BETA = reference_set_params()[0]

    @pytest.mark.parametrize("figure", ["papr", "cm"])
    def test_sweep_checks_pass(self, figure):
        assert check_failures(figure, sweep_rows()) == []

    @pytest.mark.parametrize("figure", ["papr", "cm"])
    def test_proposed_papr_above_3_db_fails(self, figure):
        assert check_failures(figure, sweep_rows(proposed_papr=3.02)) == [
            "proposed max PAPR 3.020000 dB exceeds the 3 dB bound"]

    @pytest.mark.parametrize("cycling_cm", [2.1, 2.0])
    def test_proposed_cm_not_below_cycling_fails(self, cycling_cm):
        assert check_failures("papr", sweep_rows(cycling_cm=cycling_cm)) == []
        assert check_failures("cm", sweep_rows(cycling_cm=cycling_cm)) == [
            f"proposed CM 2.100 dB is not below cycling {cycling_cm:.3f} dB"]

    def maxima(self, **changes):
        return {"reference-c": self.BETA, "reference-d": 0.7, "zc": 0.9576, **changes}

    def test_xcorr_checks_pass(self):
        assert check_failures("xcorr", self.maxima()) == []

    @pytest.mark.parametrize("which", ["reference-c", "reference-d"])
    def test_reference_rho_above_beta_fails(self, which):
        tampered = self.maxima(**{which: self.BETA + 1e-6})
        assert check_failures("xcorr", tampered) == [
            f"{which} max rho {self.BETA + 1e-6:.6f} exceeds beta {self.BETA}"]

    @pytest.mark.parametrize("zc", [0.91, 0.99])
    def test_zc_rho_outside_band_fails(self, zc):
        assert check_failures("xcorr", self.maxima(zc=zc)) == [
            f"zc max rho {zc:.6f} outside 0.95 +/- 0.03"]

    @pytest.mark.parametrize("figure", ["sim-noncoherent", "sim-coherent"])
    def test_sim_checks_pass_within_ci(self, figure):
        assert check_failures(figure, sim_reports()) == []
        # A rise no larger than the two confidence half-widths is tolerated.
        assert check_failures(figure, sim_reports(flat_misses=(0.5, 0.2, 0.21))) == []

    def test_non_monotone_ack_miss_fails(self):
        assert check_failures("sim-noncoherent", sim_reports(flat_misses=(0.5, 0.2, 0.3))) == [
            "flat/noncoherent: ack_miss not monotone within CI at point 2"]

    def test_interlace_missing_more_than_single_block_fails(self):
        assert check_failures("sim-noncoherent", sim_reports(iid_top_miss=0.11)) == [
            "iid fading: interlace misses more than single block at top SNR"]
