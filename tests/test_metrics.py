import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csinterlace.interlace import SparseSpectrum, rb_values, zadoff_chu_set
from csinterlace.metrics import (
    ccdf,
    cm_db,
    fractional_xcorr_max,
    papr_db,
    synthesize,
    xcorr_matrix,
)

from helpers import dft_synthesis_oracle, poly_eval, random_unimodular


def xcorr_oracle(x, y, n_idft: int) -> float:
    """Peak over the dense grid and over the rows (blocks) of x * conj(y),
    by direct evaluation of each row's polynomial at every grid point."""
    n = np.shape(x)[-1]
    points = np.exp(2j * np.pi * np.arange(n_idft) / n_idft)
    return max(abs(poly_eval(row, z)) for row in np.atleast_2d(x * np.conj(y))
               for z in points) / n


class TestSynthesize:
    def test_single_tone_constant_modulus(self):
        spectrum = SparseSpectrum(np.array([3]), np.array([1.0 + 0j]), 8)
        wave = synthesize(spectrum, 64)
        assert np.allclose(np.abs(wave), 1.0)
        assert papr_db(wave) == pytest.approx(0.0, abs=1e-12)

    def test_two_tone_beat(self):
        spectrum = SparseSpectrum(np.array([0, 1]), np.array([1.0, 1.0]), 4)
        wave = synthesize(spectrum, 256)
        power = np.abs(wave) ** 2
        assert np.max(power) == pytest.approx(4.0, rel=1e-9)
        assert np.mean(power) == pytest.approx(2.0, rel=1e-12)
        assert papr_db(wave) == pytest.approx(10 * np.log10(2.0), abs=1e-9)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(17)
        idx = np.sort(rng.choice(50, size=8, replace=False))
        vals = rng.normal(size=8) + 1j * rng.normal(size=8)
        spectrum = SparseSpectrum(idx, vals, 50)
        wave = synthesize(spectrum, 64)
        oracle = dft_synthesis_oracle(idx, vals, 64)
        assert np.max(np.abs(wave - oracle)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(23)
        idx = np.sort(rng.choice(100, size=12, replace=False))
        vals = rng.normal(size=12) + 1j * rng.normal(size=12)
        spectrum = SparseSpectrum(idx, vals, 100)
        wave = synthesize(spectrum, 128)
        sample_energy = np.sum(np.abs(wave) ** 2)
        spectrum_energy = 128 * np.sum(np.abs(vals) ** 2)
        assert sample_energy == pytest.approx(spectrum_energy, rel=1e-9)

    def test_size_validation(self):
        spectrum = SparseSpectrum(np.array([0]), np.array([1.0]), 100)
        with pytest.raises(ValueError):
            synthesize(spectrum, 64)
        with pytest.raises(ValueError):
            synthesize(spectrum, 130)


@pytest.mark.parametrize("metric", [papr_db, cm_db])
@pytest.mark.parametrize("samples", [np.ones(0), np.ones((2, 4))], ids=["empty", "2-D"])
def test_metric_rejects_non_waveform(metric, samples):
    with pytest.raises(ValueError, match="nonempty 1-D"):
        metric(samples)


class TestPapr:
    def test_zero_waveform_rejected(self):
        with pytest.raises(ValueError):
            papr_db(np.zeros(8, dtype=complex))

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.0, max_value=2 * np.pi))
    @settings(max_examples=30)
    def test_scale_and_phase_invariance(self, scale, angle):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=64) + 1j * rng.normal(size=64)
        base = papr_db(samples)
        transformed = papr_db(scale * np.exp(1j * angle) * samples)
        assert transformed == pytest.approx(base, abs=1e-9)


class TestCubicMetric:
    def test_constant_envelope_exactly_zero(self):
        spectrum = SparseSpectrum(np.array([5]), np.array([2.0 + 0j]), 16)
        assert cm_db(synthesize(spectrum, 64)) == 0.0

    def test_scaling_invariance(self):
        rng = np.random.default_rng(31)
        samples = rng.normal(size=128) + 1j * rng.normal(size=128)
        assert cm_db(3.7 * samples) == pytest.approx(cm_db(samples), abs=1e-12)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            cm_db(np.zeros(4, dtype=complex))


class TestPeakXcorr:
    """The peak of one pair: an off-diagonal entry of :func:`xcorr_matrix`."""

    def test_self_correlation_unity(self):
        x = random_unimodular(np.random.default_rng(2), 12)
        assert xcorr_matrix([x, x])[0, 1] == pytest.approx(1.0, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x = random_unimodular(rng, 12)
        y = random_unimodular(rng, 12)
        assert xcorr_matrix([x, y])[0, 1] == pytest.approx(xcorr_matrix([y, x])[0, 1], abs=1e-12)

    def test_reference_set_bound(self, reference_pairs):
        assert xcorr_matrix([p.a for p in reference_pairs]).max() <= 0.715

    def test_zc_set_reaches_high_correlation(self, lte_config):
        # Block by block: the worst of the ten blocks of every pair.
        blocks = [rb_values(s, lte_config) for s in zadoff_chu_set(lte_config)]
        assert 0.92 <= xcorr_matrix(blocks).max() <= 0.98

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xcorr_matrix([np.ones(4), np.ones(5)])

    def test_transform_size_validation(self):
        with pytest.raises(ValueError):
            xcorr_matrix([np.ones(8), np.ones(8)], n_idft=4)


class TestXcorrMatrix:
    @pytest.mark.parametrize("shape", [(7, 12), (7, 3, 12), (4, 10, 6)],
                             ids=["1-D", "3 blocks", "10 blocks"])
    def test_matches_direct_evaluation(self, shape):
        # 21 pairs, a multiple of neither the 8-row chunk nor its 2 pairs of
        # 3 blocks; 10 blocks exceed a chunk, so those go one pair at a time.
        rng = np.random.default_rng(sum(shape))
        members = random_unimodular(rng, int(np.prod(shape))).reshape(shape)
        rho = xcorr_matrix(members, 64)
        for i in range(shape[0]):
            for j in range(i + 1, shape[0]):
                assert rho[i, j] == pytest.approx(xcorr_oracle(members[i], members[j], 64),
                                                  abs=1e-12)

    def test_symmetric_with_zero_diagonal(self):
        members = random_unimodular(np.random.default_rng(12), 9 * 12).reshape(9, 12)
        rho = xcorr_matrix(members)
        assert np.array_equal(rho, rho.T)
        assert np.array_equal(np.diag(rho), np.zeros(9))

    @pytest.mark.parametrize("members", [np.ones(4), np.ones((2, 0)), np.ones((2, 1, 1, 3))])
    def test_shape_validation(self, members):
        with pytest.raises(ValueError):
            xcorr_matrix(members)

    def test_non_finite_rejected(self):
        members = np.ones((3, 4), dtype=complex)
        members[1, 2] = np.nan
        with pytest.raises(ValueError):
            xcorr_matrix(members)


class TestFractionalXcorr:
    def test_self_unity_at_zero_shift(self):
        x = random_unimodular(np.random.default_rng(4), 12)
        assert fractional_xcorr_max(x, x, 16) == pytest.approx(1.0, rel=1e-12)

    def test_matches_fft_route(self):
        # algebraic identity: the dense-IDFT peak over N*u bins equals the
        # explicit inner-product sweep over the same fractional shifts
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = random_unimodular(rng, 12)
            y = random_unimodular(rng, 12)
            u = int(rng.integers(2, 64))
            explicit = fractional_xcorr_max(x, y, u)
            fft_route = xcorr_matrix([x, y], 12 * u)[0, 1]
            assert explicit == pytest.approx(fft_route, abs=1e-9)

    def test_grid_refinement_monotone(self, reference_pairs):
        a = reference_pairs[0].a
        b = reference_pairs[5].a
        coarse = fractional_xcorr_max(a, b, 32)
        fine = fractional_xcorr_max(a, b, 64)
        assert fine >= coarse - 1e-12

    def test_reference_pair_certificate(self, reference_pairs):
        value = fractional_xcorr_max(reference_pairs[0].a, reference_pairs[1].a, 128)
        assert value <= 0.715 + 1e-9

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            fractional_xcorr_max(np.ones(4), np.ones(4), 0)


class TestCcdf:
    def test_all_values_above_threshold(self):
        _, exceed_prob = ccdf([2.0, 2.0, 2.0], [1.9])
        assert exceed_prob[0] == 1.0

    def test_threshold_above_max(self):
        _, exceed_prob = ccdf([1.0, 2.0], [5.0])
        assert exceed_prob[0] == 0.0

    def test_monotone_output(self):
        rng = np.random.default_rng(8)
        thresholds, exceed_prob = ccdf(rng.normal(size=500), np.linspace(3, -3, 20))
        assert np.all(np.diff(thresholds) > 0)
        assert np.all(np.diff(exceed_prob) <= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf([], [0.0])
