import json

import numpy as np
import pytest
from click.testing import CliRunner

from csinterlace import golay
from csinterlace.cli import FIGURES, main
from csinterlace.fixtures import reference_set_params
from csinterlace.interlace import SparseSpectrum
from csinterlace.linksim import PointStats, SimConfig, SimReport
from csinterlace.seqcore import format_quaternary
from helpers import EXPECTED, sha256


@pytest.fixture
def runner():
    return CliRunner()


class TestBuildInterlace:
    def test_stdout_json(self, runner):
        result = runner.invoke(main, ["build-interlace", "--scheme", "noncoherent"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        spectrum = SparseSpectrum.from_json_dict(payload)
        assert spectrum.indices.size == 120
        assert spectrum.grid_size == 1092

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
    ], ids=["unequal-lengths", "non-numeric", "nan"])
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


class TestEnumerateAndSearch:
    def test_enumerate_small(self, runner, tmp_path):
        out = tmp_path / "lib.json"
        result = runner.invoke(main, ["enumerate-gcps", "--length", "3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["count"] == 4

    def test_cold_cache_formats_each_string_once(self, runner, tmp_path, monkeypatch):
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
        assert len(calls) == 2 * 208
        assert (json.loads((tmp_path / "cache" / "gcps_len8.json").read_text())
                == json.loads(out.read_text()))

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
        (["--calibration-trials", "0"], "calibration_trials"),
        (["--seed", "-1"], "rng_seed"),
        (["--seed", str(2**64)], "rng_seed"),
    ])
    def test_invalid_config_is_a_click_error(self, runner, tmp_path, args, field):
        out = tmp_path / "link.csv"
        result = runner.invoke(main, ["simulate-link", "--trials", "10", *args, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "Error:" in result.output and field in result.output
        assert not out.exists()


class TestImportSequences:
    def test_valid_symbol_strings(self, runner, tmp_path):
        src = tmp_path / "seqs.json"
        src.write_text(json.dumps({"sequences": ["++ij", "+-+-"]}))
        out = tmp_path / "registered.json"
        result = runner.invoke(main, ["import-sequences", str(src), "--out", str(out)])
        assert result.exit_code == 0, result.output
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
