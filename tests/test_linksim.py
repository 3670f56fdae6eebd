from dataclasses import replace

import numpy as np
import pytest

from csinterlace import linksim
from csinterlace.linksim import (
    ACK,
    CalibrationError,
    DTX,
    NACK,
    SimConfig,
    calibrate_dtx_threshold,
    run_sim,
    validate_dtx_rate,
)
from helpers import load_bench_checks, received_grids_oracle

checks = load_bench_checks()

FAST = dict(calibration_trials=8000, n_trials=500, snr_grid_db=(0.0, 6.0))


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        {"scheme": "bogus"},
        {"channel": "rician"},
        {"dtx_target": 0.0},
        {"dtx_target": 1.0},
        {"n_trials": 0},
        {"energy_norm": "other"},
        {"n_rx": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [("calibration_trials", 0), ("snr_grid_db", ())])
    def test_boundary_error_names_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    def test_geometry_is_fixed(self):
        assert (SimConfig.n_rb, SimConfig.n_sc, SimConfig.n_null) == (10, 12, 108)
        with pytest.raises(TypeError, match="n_rb"):
            SimConfig(n_rb=8)

    @pytest.mark.parametrize("field", ["n_trials", "calibration_trials"])
    def test_trial_count_beyond_rng_key_names_field(self, field):
        SimConfig(**{field: 2**40 - 1})  # constructing runs no trials
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: 2**40})

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 1.5])
    def test_seed_outside_rng_key_names_field(self, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            SimConfig(rng_seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        assert SimConfig(rng_seed=seed).rng_seed == seed

    def test_snr_grid_beyond_rng_key_names_field(self):
        SimConfig(snr_grid_db=(0.0,) * 2**16)
        with pytest.raises(ValueError, match="snr_grid_db"):
            SimConfig(snr_grid_db=(0.0,) * (2**16 + 1))


class TestCalibration:
    def test_target_one_returns_zero_threshold(self):
        cfg = SimConfig(scheme="single-rb-noncoherent", calibration_trials=2000)
        assert calibrate_dtx_threshold(cfg, target=1.0) == 0.0

    def test_tiny_target_above_observed_max(self):
        cfg = SimConfig(scheme="single-rb-noncoherent", calibration_trials=2000)
        threshold = calibrate_dtx_threshold(cfg, target=1e-9)
        # contract: the threshold clears every statistic seen during calibration
        signals = linksim._build_signals(cfg)
        batch = linksim._received_batch(
            cfg, signals, 0, linksim._HYP_CALIBRATE, range(2000), 0.0, None
        )
        stats = linksim._ack_claim_statistic(batch, signals.detector)
        assert threshold > np.max(stats[np.isfinite(stats)])

    def test_default_target_hits_one_percent(self):
        cfg = SimConfig(scheme="single-rb-noncoherent", calibration_trials=50_000)
        threshold = calibrate_dtx_threshold(cfg)
        rate = validate_dtx_rate(cfg, threshold, 50_000)
        assert rate == pytest.approx(0.01, abs=0.003)

    def test_quantization_limited_target_raises(self):
        cfg = SimConfig(scheme="single-rb-noncoherent", calibration_trials=1000)
        with pytest.raises(CalibrationError):
            calibrate_dtx_threshold(cfg, target=0.0012)

    def test_invalid_target(self):
        cfg = SimConfig(calibration_trials=1000)
        with pytest.raises(CalibrationError):
            calibrate_dtx_threshold(cfg, target=-0.1)

    @pytest.mark.parametrize("n_trials", [0, 2**40])
    def test_validation_trial_count_names_field(self, n_trials):
        cfg = SimConfig(scheme="single-rb-noncoherent")
        with pytest.raises(ValueError, match="n_trials"):
            validate_dtx_rate(cfg, 1.0, n_trials)

    def test_coherent_detector_calibrates(self):
        cfg = SimConfig(scheme="single-rb-coherent", calibration_trials=20_000)
        threshold = calibrate_dtx_threshold(cfg)
        rate = validate_dtx_rate(cfg, threshold, 20_000)
        assert rate == pytest.approx(0.01, abs=0.005)


def decide_one(received, signals, threshold) -> int:
    """Outcome code of one received grid (tones, rx)."""
    return int(linksim._decide(received[None, ...], signals.detector, threshold)[0])


class TestDetectors:
    def test_noiseless_ack_detected(self):
        signals = linksim._build_signals(SimConfig(scheme="noncoherent"))
        rng = np.random.default_rng(0)
        gains = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
        tone_gain = np.repeat(gains, 12, axis=0)
        received = tone_gain * signals.tx[ACK][:, None]
        assert decide_one(received, signals, threshold=1.0) == ACK

    def test_zero_input_is_dtx(self):
        signals = linksim._build_signals(SimConfig(scheme="noncoherent"))
        received = np.zeros((120, 2), dtype=complex)
        assert decide_one(received, signals, threshold=1e-6) == DTX

    def test_noiseless_nack_detected(self):
        signals = linksim._build_signals(SimConfig(scheme="single-rb-noncoherent"))
        received = 0.7 * signals.tx[NACK][:, None] * np.ones((1, 2))
        assert decide_one(received, signals, threshold=1e-3) == NACK

    def test_coherent_noiseless_ack(self):
        signals = linksim._build_signals(SimConfig(scheme="coherent"))
        rng = np.random.default_rng(1)
        gains = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
        tone_gain = np.repeat(gains, 12, axis=0)
        received = tone_gain * signals.tx[ACK][:, None]
        assert decide_one(received, signals, threshold=1e-6) == ACK

    def test_coherent_zero_input_is_dtx(self):
        signals = linksim._build_signals(SimConfig(scheme="coherent"))
        received = np.zeros((120, 2), dtype=complex)
        assert decide_one(received, signals, threshold=1e-9) == DTX

    def test_tie_goes_to_nack_in_decisions_and_to_ack_in_claims(self):
        class Tied:
            def scores(self, received):
                return np.ones((len(received), 2)), np.full(len(received), 5.0)

        received = np.zeros((3, 12, 2), dtype=complex)
        assert linksim._decide(received, Tied(), 1.0).tolist() == [NACK] * 3
        assert linksim._decide(received, Tied(), 6.0).tolist() == [DTX] * 3
        assert linksim._ack_claim_statistic(received, Tied()).tolist() == [5.0] * 3


class TestReceivedBatch:
    """The batched draws against grids rebuilt trial by trial from a fresh
    generator per trial, bit for bit, over a batch boundary."""

    @pytest.mark.parametrize("channel", linksim.CHANNELS)
    @pytest.mark.parametrize("scheme", linksim.SCHEMES)
    @pytest.mark.parametrize("hyp, sent", [
        (linksim._HYP_DTX, None), (linksim._HYP_NACK, NACK), (linksim._HYP_ACK, ACK),
    ])
    def test_matches_per_trial_oracle(self, scheme, channel, hyp, sent):
        cfg = SimConfig(scheme=scheme, channel=channel, rng_seed=2**64 - 7)
        signals = linksim._build_signals(cfg)
        snr_idx = 3
        amp = linksim._tone_amplitude(cfg, signals, 4.0)
        batches = [
            linksim._received_batch(cfg, signals, snr_idx, hyp, trials, amp, sent)
            for trials in (range(90, 97), range(97, 110))
        ]
        expected = received_grids_oracle(
            cfg.rng_seed, channel, signals.tx, signals.n_blocks, cfg.n_rx,
            snr_idx, hyp, range(90, 110), amp, sent,
        )
        assert np.array_equal(np.concatenate(batches), expected)


class TestDtxNull:
    """The calibrated threshold against the analytic noise-only law of the
    non-coherent detector with per-block combining (``perfbench/checks.py``)."""

    @pytest.mark.parametrize("scheme", ["noncoherent", "single-rb-noncoherent"])
    def test_calibrated_threshold_matches_analytic_null(self, sim_gate_reports, scheme):
        report = sim_gate_reports[(scheme, "iid_per_rb")]
        cfg = report.config
        shape = checks.null_shape(checks.report_dict(report))
        n = cfg.calibration_trials
        lo, hi = checks.wilson_interval(round(n * cfg.dtx_target), n)
        assert lo <= checks.null_false_ack(report.threshold, *shape) <= hi
        # The interval has the power to reject a threshold 20 % off.
        assert not lo <= checks.null_false_ack(1.2 * report.threshold, *shape) <= hi


class TestRunSim:
    def test_report_shape_and_ranges(self):
        cfg = SimConfig(scheme="single-rb-noncoherent", channel="flat", rng_seed=3, **FAST)
        report = run_sim(cfg)
        assert len(report.points) == 2
        for p in report.points:
            for rate in (p.dtx_to_ack, p.nack_to_ack, p.ack_miss):
                assert 0.0 <= rate <= 1.0

    def test_reproducible_and_batch_invariant(self, monkeypatch):
        cfg = SimConfig(scheme="single-rb-noncoherent", channel="iid_per_rb",
                        rng_seed=11, **FAST)
        first = run_sim(cfg)
        monkeypatch.setattr(linksim, "_CHUNK", 97)
        second = run_sim(cfg)
        assert first.threshold == second.threshold
        for a, b in zip(first.points, second.points):
            assert a == b

    def test_seed_changes_results(self):
        base = dict(scheme="single-rb-noncoherent", channel="iid_per_rb", **FAST)
        first = run_sim(SimConfig(rng_seed=1, **base))
        second = run_sim(SimConfig(rng_seed=2, **base))
        assert any(a != b for a, b in zip(first.points, second.points))

    def test_high_snr_error_free(self):
        cfg = SimConfig(scheme="noncoherent", channel="iid_per_rb", rng_seed=5,
                        calibration_trials=8000, n_trials=400, snr_grid_db=(40.0,))
        point = run_sim(cfg).points[0]
        assert point.ack_miss == 0.0
        assert point.nack_to_ack == 0.0

    def test_flat_identity_between_interlace_and_single_rb(self):
        cfg = SimConfig(scheme="noncoherent", channel="flat", rng_seed=7,
                        calibration_trials=20_000, n_trials=2000,
                        snr_grid_db=(-8.0, -4.0, 0.0))
        interlace_report = run_sim(cfg)
        single_report = run_sim(replace(cfg, scheme="single-rb-noncoherent"))
        for a, b in zip(interlace_report.points, single_report.points):
            assert abs(a.ack_miss - b.ack_miss) <= a.ci_miss + b.ci_miss

    def test_iid_fading_diversity_gain(self):
        cfg = SimConfig(scheme="noncoherent", channel="iid_per_rb", rng_seed=7,
                        calibration_trials=20_000, n_trials=2000,
                        snr_grid_db=(-6.0, -2.0))
        interlace_report = run_sim(cfg)
        single_report = run_sim(replace(cfg, scheme="single-rb-noncoherent"))
        for a, b in zip(interlace_report.points, single_report.points):
            assert a.ack_miss < b.ack_miss

    def test_per_tone_norm_mode_runs(self):
        cfg = SimConfig(scheme="single-rb-noncoherent", channel="flat",
                        energy_norm="per_tone", rng_seed=13, **FAST)
        report = run_sim(cfg)
        assert report.points[-1].ack_miss <= report.points[0].ack_miss + 0.05

    def test_csv_output(self, tmp_path):
        cfg = SimConfig(scheme="single-rb-coherent", channel="flat", rng_seed=17, **FAST)
        report = run_sim(cfg)
        out = tmp_path / "report.csv"
        report.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("snr_db,dtx_to_ack,nack_to_ack,ack_miss")
        assert len(lines) == 3
