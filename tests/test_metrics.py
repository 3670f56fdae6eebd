import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csinterlace.interlace import SparseSpectrum, zadoff_chu_set
from csinterlace.metrics import ccdf, cm_db, papr_db, synthesize, xcorr_matrix
from csinterlace.setsearch import _grid_peak

from helpers import dft_synthesis_oracle, random_unimodular, xcorr_oracle


def plain_xcorr(members, n_idft: int) -> np.ndarray:
    """Peaks of the pairs i < j, each from full ``n_idft``-point inverse FFTs
    of its block rows, in ``np.triu_indices`` order."""
    stack = np.asarray(members, dtype=complex)
    first, second = np.triu_indices(len(stack), 1)
    return np.array([np.abs(np.fft.ifft(stack[i] * np.conj(stack[j]), n_idft)).max()
                     * n_idft / stack.shape[-1] for i, j in zip(first, second)])


def xcorr_and_fft_sizes(monkeypatch, members, n_idft: int):
    """:func:`xcorr_matrix` of the members and the sizes of its inverse FFTs."""
    sizes, ifft = set(), np.fft.ifft
    with monkeypatch.context() as patch:
        patch.setattr(np.fft, "ifft", lambda x, n=None, **kw: sizes.add(n) or ifft(x, n, **kw))
        return xcorr_matrix(members, n_idft), sizes


def peak_between_coarse_points(n: int, n_idft: int, at: int) -> np.ndarray:
    """Coefficients whose polynomial peaks, at modulus n, on grid point ``at``."""
    return np.exp(-2j * np.pi * np.arange(n) * at / n_idft)


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
        blocks = zadoff_chu_set(lte_config).reshape(30, 10, 12)
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

    @pytest.mark.parametrize("shape", [(6, 12), (4, 10, 12)], ids=["1-D", "10 blocks"])
    def test_coarse_grid_matches_direct_evaluation(self, monkeypatch, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        members = random_unimodular(rng, int(np.prod(shape))).reshape(shape)
        rho, sizes = xcorr_and_fft_sizes(monkeypatch, members, 4096)
        assert sizes == {512}
        first, second = np.triu_indices(shape[0], 1)
        plain = plain_xcorr(members, 4096)
        assert np.max(np.abs(rho[first, second] - plain)) <= 1e-12
        for i, j in zip(first, second):
            assert rho[i, j] == pytest.approx(xcorr_oracle(members[i], members[j], 4096),
                                              abs=1e-12)

    def test_coarse_grid_finds_peaks_between_its_points(self):
        # Against members[0] = 1, pair (0, j) correlates the coefficients
        # conj(members[j]).  Row 1 peaks midway between coarse points 8 and
        # 16.  Row 2 (tapered against sidelobes) peaks at 516, between
        # coarse points, a little above a peak on coarse point 2560 that
        # holds its largest coarse sample: a near tie across intervals.
        # Row 3 is zero and row 4 is not unimodular.  Row 5, 1 + z**11
        # rotated to peak on grid point 511, is as sharp as degree 11 allows:
        # of its coarse samples 504 and 512 only the second passes the level,
        # so just the interval before that sample holds the peak.
        n = 12
        taper = np.hanning(n + 2)[1:-1]
        tie = taper * (peak_between_coarse_points(n, 4096, 516)
                       + 0.9999 * peak_between_coarse_points(n, 4096, 2560))
        sharp = np.zeros(n, dtype=complex)
        sharp[[0, -1]] = peak_between_coarse_points(n, 4096, 511)[[0, -1]]
        rows = [np.ones(n), peak_between_coarse_points(n, 4096, 12), tie, np.zeros(n),
                np.random.default_rng(5).normal(size=n) + 0.5j, sharp]
        assert np.abs(np.fft.ifft(rows[1], 512)).max() * 512 < n - 1e-3
        assert np.abs(np.fft.ifft(tie, 512)).argmax() * 8 == 2560
        assert np.abs(np.fft.ifft(tie, 4096)).argmax() == 516
        members = np.conj(rows)
        rho = xcorr_matrix(members, 4096)
        first, second = np.triu_indices(len(rows), 1)
        assert np.max(np.abs(rho[first, second] - plain_xcorr(members, 4096))) <= 1e-12
        for i, j in zip(first, second):
            assert rho[i, j] == pytest.approx(xcorr_oracle(members[i], members[j], 4096),
                                              abs=1e-12)
        assert rho[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert rho[0, 3] == 0.0
        assert rho[0, 5] == pytest.approx(2 / n, abs=1e-12)

    @pytest.mark.parametrize("n, n_idft, factor", [
        (60, 4096, 4), (120, 4096, 2), (200, 1024, 1), (12, 100, 1), (1, 8, 8),
    ])
    def test_every_coarse_factor_matches_the_plain_transform(self, monkeypatch, n, n_idft,
                                                              factor):
        rng = np.random.default_rng(n + n_idft)
        members = random_unimodular(rng, 5 * n).reshape(5, n)
        members[1] = np.conj(members[0]) * np.conj(
            peak_between_coarse_points(n, n_idft, factor // 2))
        rho, sizes = xcorr_and_fft_sizes(monkeypatch, members, n_idft)
        assert sizes == {n_idft // factor}
        first, second = np.triu_indices(5, 1)
        assert np.max(np.abs(rho[first, second] - plain_xcorr(members, n_idft))) <= 1e-12

    def test_reproduced_sets_print_as_the_plain_transform(self, lte_config, reference_pairs):
        # The reproduce xcorr CSVs print each entry with 9 significant digits.
        for members in ([p.a for p in reference_pairs], [p.b for p in reference_pairs],
                        zadoff_chu_set(lte_config, 4096).reshape(30, 10, 12)):
            first, second = np.triu_indices(len(members), 1)
            rho = xcorr_matrix(members, 4096)[first, second]
            assert [f"{v:.9g}" for v in rho] == [f"{v:.9g}" for v in plain_xcorr(members, 4096)]

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
    """The set search's explicit sweep over its fractional-shift grid
    (``setsearch._grid_peak``), held against the FFT peak of :func:`xcorr_matrix`."""

    def test_self_unity_at_zero_shift(self):
        x = random_unimodular(np.random.default_rng(4), 12)
        assert _grid_peak(x, x, 16)[0] == pytest.approx(1.0, rel=1e-12)

    def test_matches_fft_route(self):
        # algebraic identity: the dense-IDFT peak over N*u bins equals the
        # explicit inner-product sweep over the same fractional shifts
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = random_unimodular(rng, 12)
            y = random_unimodular(rng, 12)
            u = int(rng.integers(2, 64))
            explicit = _grid_peak(x, y, u)[0]
            fft_route = xcorr_matrix([x, y], 12 * u)[0, 1]
            assert explicit == pytest.approx(fft_route, abs=1e-9)

    def test_grid_refinement_monotone(self, reference_pairs):
        a = reference_pairs[0].a
        b = reference_pairs[5].a
        coarse = _grid_peak(a, b, 32)[0]
        fine = _grid_peak(a, b, 64)[0]
        assert fine >= coarse - 1e-12

    def test_reference_pair_certificate(self, reference_pairs):
        value = _grid_peak(reference_pairs[0].a, reference_pairs[1].a, 128)[0]
        assert value <= 0.715 + 1e-9


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
