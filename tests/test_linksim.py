import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from csinterlace import interlace, linksim
from csinterlace.linksim import (
    ACK,
    CalibrationError,
    DTX,
    NACK,
    SimConfig,
    calibrate_dtx_threshold,
    run_sim,
)
from helpers import (
    gamma_cdf,
    gamma_sf,
    load_bench_checks,
    loss_probability,
    noncoherent_rates,
    project_statistics,
    received_grids_oracle,
    reference_receiver,
    score_cumulants,
    statistics_covariance,
    two_sample_ks,
    win_probability,
)

checks = load_bench_checks()

FAST = dict(calibration_trials=8000, n_trials=500, snr_grid_db=(0.0, 6.0))


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        {"scheme": "bogus"},
        {"channel": "rician"},
        {"n_trials": 0},
        {"energy_norm": "other"},
        {"snr_grid_db": (float("nan"), 0.0)},
        {"snr_grid_db": (0.0, float("inf"))},
        {"snr_grid_db": (-float("inf"),)},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("calibration_trials", 0), ("snr_grid_db", ()), ("snr_grid_db", (float("nan"), 0.0)),
    ])
    def test_boundary_error_names_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    def test_geometry_is_fixed(self):
        assert (SimConfig.n_rb, SimConfig.n_sc) == (10, 12)
        assert not hasattr(SimConfig, "n_null")  # the statistics never see the nulls
        with pytest.raises(TypeError, match="n_rb"):
            SimConfig(n_rb=8)

    @pytest.mark.parametrize("field, value", [("n_rx", 2), ("dtx_target", 0.01)])
    def test_link_model_is_fixed(self, field, value):
        assert getattr(SimConfig(), field) == getattr(SimConfig, field) == value
        with pytest.raises(TypeError, match=field):
            SimConfig(**{field: value})

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
    """Each branch of the calibration at the fixed 1 % target, reached
    through the trial count and the seed."""

    @staticmethod
    def claim_statistics(cfg):
        signals = linksim._build_signals(cfg)
        stats = linksim._draw_statistics(
            cfg, signals, 0, linksim._HYP_CALIBRATE, range(cfg.calibration_trials), 0.0, None
        )
        return linksim._ack_claim_statistic(stats, signals.detector)

    def first_seed(self, trials, claims):
        """The single-block config of the first seed whose calibration
        trials make an ACK claim (``claims``) or none."""
        for seed in range(1, 200):
            cfg = SimConfig(scheme="single-rb-noncoherent", calibration_trials=trials,
                            rng_seed=seed)
            if np.isfinite(self.claim_statistics(cfg)).any() == claims:
                return cfg
        raise AssertionError("no such seed")

    def test_target_at_or_above_achievable_rate_raises(self):
        # One trial that claims no ACK: the target is at or above the
        # achievable rate 0, which no threshold can raise.
        with pytest.raises(CalibrationError, match="is 0 of their 0 ACK claims"):
            calibrate_dtx_threshold(self.first_seed(1, claims=False))

    def test_target_rounding_to_no_claim_raises(self):
        # 1 % of at most 49 trials rounds to no claim, so a threshold above
        # every statistic seen would reach a rate of 0, not 1 %.
        for trials in (1, 40):
            cfg = self.first_seed(trials, claims=True)
            with pytest.raises(CalibrationError, match=f"of {trials} calibration trials is 0 of"):
                calibrate_dtx_threshold(cfg)

    def test_default_target_hits_one_percent(self):
        # The DTX trials of run_sim draw on a stream calibration never saw.
        cfg = SimConfig(scheme="single-rb-noncoherent", calibration_trials=50_000,
                        n_trials=50_000, snr_grid_db=(0.0,))
        rate = run_sim(cfg).points[0].dtx_to_ack
        assert rate == pytest.approx(0.01, abs=0.003)

    def test_quantization_limited_target_raises(self):
        # 1 % of 150 trials rounds to 2 claims, a rate of 1.33 %.
        cfg = SimConfig(scheme="single-rb-noncoherent", calibration_trials=150)
        with pytest.raises(CalibrationError, match="0.013333"):
            calibrate_dtx_threshold(cfg)

    def test_coherent_detector_calibrates(self):
        cfg = SimConfig(scheme="single-rb-coherent", calibration_trials=20_000,
                        n_trials=20_000, snr_grid_db=(0.0,))
        rate = run_sim(cfg).points[0].dtx_to_ack
        assert rate == pytest.approx(0.01, abs=0.005)


def blocks_of(signals):
    """The blocks of twelve tones that the transmissions occupy."""
    return signals.tx.shape[1] // SimConfig.n_sc


def groups_of(channel, signals):
    """The fading groups of a channel: one for the grid, or one per block."""
    return 1 if channel == "flat" else blocks_of(signals)


def phases_of(signals):
    """The coherent detector's payload phases, or None for the non-coherent one."""
    return signals.detector.phases if isinstance(signals.detector, linksim._Coherent) else None


def statistics_of(grids, signals, channel="iid_per_rb"):
    """Received grids (trials, tones, rx) projected onto the detector's statistics."""
    return project_statistics(grids, signals.tx, groups_of(channel, signals), phases_of(signals))


def decide_one(received, signals, threshold) -> int:
    """Outcome code of one received grid (tones, rx)."""
    stats = statistics_of(received[None, ...], signals)
    return int(linksim._decide(stats, signals.detector, threshold)[0])


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
            def scores(self, stats):
                return np.ones((2, stats.shape[-1])), np.full(stats.shape[-1], 5.0)

        stats = np.zeros((2, 1, 2, 2, 3))
        assert linksim._decide(stats, Tied(), 1.0).tolist() == [NACK] * 3
        assert linksim._decide(stats, Tied(), 6.0).tolist() == [DTX] * 3
        assert linksim._ack_claim_statistic(stats, Tied()).tolist() == [5.0] * 3


class TestBuildSignals:
    """``_build_signals`` refuses a scheme that breaks the law of the
    statistics the simulator draws."""

    @pytest.mark.parametrize("scheme", ["noncoherent", "single-rb-noncoherent"])
    def test_non_orthogonal_templates_refused(self, monkeypatch, scheme):
        # A half-tone shift is not orthogonal to no shift over twelve tones.
        table = interlace.SCHEMES
        monkeypatch.setitem(table, "noncoherent", replace(table["noncoherent"], one_bit=(0, 0.5)))
        with pytest.raises(ValueError, match="not orthogonal"):
            linksim._build_signals(SimConfig(scheme=scheme))

    def test_reference_tones_off_unit_modulus_refused(self, monkeypatch):
        coherent = interlace.SCHEMES["coherent"]

        def build(cfg, member, resources):
            return 1.5 * coherent.build(cfg, member, resources)

        monkeypatch.setitem(interlace.SCHEMES, "coherent", replace(coherent, build=build))
        with pytest.raises(ValueError, match="unit modulus"):
            linksim._build_signals(SimConfig(scheme="coherent"))


class TestOneBitResources:
    """The NACK and ACK transmissions against the one-bit payload maps,
    which no digest has to vouch for: a cyclic shift of 6 of 12 tones
    flips the sign of every odd local tone, and the coherent data phases
    are antipodal with the pilots untouched."""

    @pytest.mark.parametrize("scheme", ["noncoherent", "single-rb-noncoherent"])
    def test_ack_is_nack_with_alternating_sign(self, scheme):
        tx = linksim._build_signals(SimConfig(scheme=scheme)).tx
        k = np.arange(tx.shape[1]) % SimConfig.n_sc
        assert np.max(np.abs(tx[ACK] - tx[NACK] * (-1.0) ** k)) < 1e-12

    @pytest.mark.parametrize("scheme", ["coherent", "single-rb-coherent"])
    def test_coherent_data_phases_antipodal(self, scheme):
        signals = linksim._build_signals(SimConfig(scheme=scheme))
        pilots, data = slice(0, None, 2), slice(1, None, 2)  # even and odd tones
        assert abs(signals.detector.phases[ACK] + signals.detector.phases[NACK]) < 1e-12
        assert np.array_equal(signals.tx[ACK][pilots], signals.tx[NACK][pilots])
        assert np.max(np.abs(signals.tx[ACK][data] + signals.tx[NACK][data])) < 1e-12


class TestReceivedBatch:
    """Noisy received grids, built trial by trial, projected onto the
    scores or the pooled statistics and scored and decided by the
    detectors, against the scalar reference receiver on the same grids, to
    rounding: the receive chain checked without the simulator's random
    stream."""

    @pytest.mark.parametrize("channel", linksim.CHANNELS)
    @pytest.mark.parametrize("scheme", linksim.SCHEMES)
    @pytest.mark.parametrize("hyp, sent", [
        (linksim._HYP_DTX, None), (linksim._HYP_NACK, NACK), (linksim._HYP_ACK, ACK),
    ])
    def test_matches_per_trial_oracle(self, scheme, channel, hyp, sent):
        cfg = SimConfig(scheme=scheme, channel=channel, rng_seed=2**64 - 7)
        signals = linksim._build_signals(cfg)
        amp = linksim._tone_amplitude(cfg, signals, 4.0)
        grids = received_grids_oracle(cfg.rng_seed, channel, signals.tx, blocks_of(signals),
                                      cfg.n_rx, 3, hyp, range(90, 110), amp, sent)
        stats = statistics_of(grids, signals, channel)
        scores, energy = signals.detector.scores(stats)
        want_scores, want_energy = reference_receiver(
            grids, signals.tx, blocks_of(signals),
            coherent=isinstance(signals.detector, linksim._Coherent), per_block=channel != "flat")
        atol = 1e-12 * np.max(want_energy)
        np.testing.assert_allclose(scores.T, want_scores, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(energy, want_energy, rtol=1e-12, atol=atol)
        # A threshold midway between two energies puts trials on both sides.
        ranked = np.sort(want_energy)
        threshold = (ranked[9] + ranked[10]) / 2.0
        want = np.where(want_energy < threshold, DTX, np.argmax(want_scores, axis=1))
        assert linksim._decide(stats, signals.detector, threshold).tolist() == want.tolist()


@pytest.mark.parametrize("sent", [None, ACK])
def test_draws_of_any_range_slice_whole_key_blocks(sent):
    for scheme in ("coherent", "noncoherent"):
        cfg = SimConfig(scheme=scheme, channel="iid_per_rb", rng_seed=9)
        signals = linksim._build_signals(cfg)
        whole = linksim._draw_statistics(cfg, signals, 1, linksim._HYP_ACK, range(3000), 2.0, sent)
        for trials in (range(90, 110), range(990, 2010), range(2999, 3000)):
            part = linksim._draw_statistics(cfg, signals, 1, linksim._HYP_ACK, trials, 2.0, sent)
            assert np.array_equal(part, whole[..., trials.start:trials.stop])


@pytest.mark.parametrize("scheme", ["coherent", "noncoherent"])
def test_each_key_block_is_drawn_from_a_new_philox_of_its_key(scheme):
    # The re-keyed generator gives the bytes of Philox(key=(seed, stream | block)).
    cfg = SimConfig(scheme=scheme, channel="flat", rng_seed=2**64 - 3)
    signals = linksim._build_signals(cfg)
    drawn = linksim._draw_statistics(cfg, signals, 5, linksim._HYP_NACK, range(3000), 1.5, NACK)
    for block in range(3):
        key = np.array([cfg.rng_seed, (5 << 48) | (linksim._HYP_NACK << 40) | block], np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        want = signals.detector.draw(gen, 1.5, NACK)
        assert np.array_equal(drawn[..., block * 1000:(block + 1) * 1000], want)


def test_taking_the_first_batch_allocates_no_list_of_batches():
    tracemalloc.start()
    try:
        batches = linksim._batches(2**40 - 1)
        first = next(iter(batches))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == range(0, 4000)
    assert peak < 4096  # a list of every batch would hold 2**28 ranges


HYPOTHESES = [(linksim._HYP_DTX, None), (linksim._HYP_NACK, NACK), (linksim._HYP_ACK, ACK)]
NONCOHERENT = ["noncoherent", "single-rb-noncoherent"]
COHERENT = ["coherent", "single-rb-coherent"]


class TestStatisticDraws:
    """The drawn statistics against the grid model projected onto the pooled
    statistics of each fading group.  The coherent ones are jointly circular
    Gaussian with zero mean, so the covariance is their whole law, and each
    sample moment over n trials has standard deviation at most
    sqrt(2 C_ii C_jj / n).  A non-coherent score adds the squared moduli of
    such statistics: a sum of exponentials whose means are the eigenvalues
    of their covariance."""

    @pytest.mark.parametrize("channel", linksim.CHANNELS)
    @pytest.mark.parametrize("scheme", COHERENT)
    @pytest.mark.parametrize("hyp, sent", HYPOTHESES)
    def test_second_moments_match_projected_grid_model(self, scheme, channel, hyp, sent):
        cfg = SimConfig(scheme=scheme, channel=channel, rng_seed=5)
        signals = linksim._build_signals(cfg)
        amp = linksim._tone_amplitude(cfg, signals, 0.0)
        n = 4000
        stats = linksim._draw_statistics(cfg, signals, 2, hyp, range(n), amp, sent)
        drawn = (stats[0] + 1j * stats[1]).reshape(-1, n)
        want = statistics_covariance(signals.tx, blocks_of(signals), cfg.n_rx,
                                     groups_of(channel, signals), signals.detector.phases,
                                     channel == "flat", amp, sent)
        power = np.diag(want).real
        bound = 6.0 * np.sqrt(2.0 * np.outer(power, power) / n)
        assert np.all(np.abs(drawn @ drawn.conj().T / n - want) <= bound)
        assert np.all(np.abs(drawn @ drawn.T / n) <= bound)  # circular: no pseudo-covariance

    @pytest.mark.parametrize("channel", linksim.CHANNELS)
    @pytest.mark.parametrize("scheme", NONCOHERENT)
    @pytest.mark.parametrize("hyp, sent", HYPOTHESES)
    def test_scores_match_projected_grid_model(self, scheme, channel, hyp, sent):
        # Mean within 6 sqrt(k2 / n), and variance within 6 sqrt((k4 + 2 k2^2) / n),
        # the standard deviation of a sample variance; the two scores uncorrelated.
        cfg = SimConfig(scheme=scheme, channel=channel, rng_seed=5)
        signals = linksim._build_signals(cfg)
        amp = linksim._tone_amplitude(cfg, signals, 3.0)
        n = 4000
        scores = linksim._draw_statistics(cfg, signals, 2, hyp, range(n), amp, sent)
        covariance = statistics_covariance(signals.tx, blocks_of(signals), cfg.n_rx,
                                           groups_of(channel, signals), None,
                                           channel == "flat", amp, sent)
        cumulants = [score_cumulants(covariance, row) for row in (NACK, ACK)]
        for row, (mean, k2, k4) in zip((NACK, ACK), cumulants):
            assert abs(np.mean(scores[row]) - mean) <= 6.0 * np.sqrt(k2 / n)
            assert abs(np.var(scores[row]) - k2) <= 6.0 * np.sqrt((k4 + 2.0 * k2 * k2) / n)
        cross = np.mean((scores[NACK] - cumulants[NACK][0]) * (scores[ACK] - cumulants[ACK][0]))
        assert abs(cross) <= 6.0 * np.sqrt(cumulants[NACK][1] * cumulants[ACK][1] / n)

    @pytest.mark.parametrize("channel", linksim.CHANNELS)
    @pytest.mark.parametrize("scheme", NONCOHERENT)
    @pytest.mark.parametrize("hyp, sent", [HYPOTHESES[0], HYPOTHESES[2]])
    def test_scores_match_reference_receiver_in_law(self, scheme, channel, hyp, sent):
        # Two-sample Kolmogorov-Smirnov at a fixed level of 1e-6: the drawn
        # scores against the scalar receiver's on grids built trial by trial.
        cfg = SimConfig(scheme=scheme, channel=channel, rng_seed=19)
        signals = linksim._build_signals(cfg)
        amp = linksim._tone_amplitude(cfg, signals, 3.0)
        drawn = linksim._draw_statistics(cfg, signals, 4, hyp, range(4000), amp, sent)
        grids = received_grids_oracle(cfg.rng_seed, channel, signals.tx, blocks_of(signals),
                                      cfg.n_rx, 4, hyp, range(400), amp, sent)
        want, _ = reference_receiver(grids, signals.tx, blocks_of(signals), coherent=False,
                                     per_block=channel != "flat")
        for row in (NACK, ACK):
            assert two_sample_ks(drawn[row], want[:, row])[1] > 1e-6


class TestAnalyticOracle:
    """``run_sim``'s non-coherent rates at their calibrated threshold against
    the closed forms of ``helpers.noncoherent_rates``, each inside the Wilson
    interval at z = 5 of its count."""

    def test_race_probabilities_are_complementary(self):
        for x, y, t, shape in ((12.0, 500.0, 40.0, 2), (500.0, 12.0, 700.0, 20),
                               (3.0, 3.0, 9.0, 1)):
            total = win_probability(x, y, t, shape) + loss_probability(x, y, t, shape)
            assert total == pytest.approx(1.0, abs=1e-13)
            total = gamma_cdf(shape, t / x) + gamma_sf(shape, t / x)
            assert total == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("shape, scale, t", [
        (20, 12.0, 400.0), (2, 120.0, 700.0), (2, 12.0, 1.0),
    ])
    def test_null_matches_the_benchmark_copy(self, shape, scale, t):
        got = win_probability(scale, scale, t, shape)
        assert got == pytest.approx(checks.null_false_ack(t, shape, scale), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("scheme, channel", [
        ("noncoherent", "flat"), ("noncoherent", "iid_per_rb"),
        ("single-rb-noncoherent", "iid_per_rb"),
    ])
    def test_run_sim_rates_match_closed_forms(self, scheme, channel):
        cfg = SimConfig(scheme=scheme, channel=channel, n_trials=20_000,
                        calibration_trials=20_000, snr_grid_db=(-13.0, -10.0, -7.0), rng_seed=23)
        report = run_sim(cfg)
        blocks = 1 if scheme.startswith("single-rb-") else cfg.n_rb
        # Tones combined coherently and independent terms added, per score.
        flat = channel == "flat"
        n, shape = (blocks * cfg.n_sc, cfg.n_rx) if flat else (cfg.n_sc, blocks * cfg.n_rx)
        for point in report.points:
            es = 10.0 ** (point.snr_db / 10.0) * cfg.n_rb / blocks  # equal total energy
            want = noncoherent_rates(n, shape, es, report.threshold)
            got = (point.dtx_to_ack, point.nack_to_ack, point.ack_miss)
            for rate, p in zip(got, want):
                lo, hi = checks.wilson_interval(round(rate * cfg.n_trials), cfg.n_trials, z=5.0)
                assert lo <= p <= hi, (point.snr_db, got, want)


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

    @pytest.mark.parametrize("k, n", [(0, 200), (1, 200), (100, 200), (200, 200), (0, 1)])
    def test_interval_is_wilson_half_width(self, k, n):
        # The wider side of the benchmark's Wilson interval at z = 1.96,
        # which is not 0 at a rate of 0 or 1.
        lo, hi = checks.wilson_interval(k, n, z=1.96)
        half = linksim._binomial_ci(k / n, n)
        assert half == pytest.approx(max(k / n - lo, hi - k / n), rel=1e-12)
        assert half > 0.0

    def test_csv_output(self, tmp_path):
        cfg = SimConfig(scheme="single-rb-coherent", channel="flat", rng_seed=17, **FAST)
        report = run_sim(cfg)
        out = tmp_path / "report.csv"
        report.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("snr_db,dtx_to_ack,nack_to_ack,ack_miss")
        assert len(lines) == 3
