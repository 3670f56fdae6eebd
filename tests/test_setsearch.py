import numpy as np
import pytest

from csinterlace import golay
from csinterlace.fixtures import reference_set_params
from csinterlace.metrics import xcorr_matrix
from csinterlace.setsearch import SequenceSetPair, _grid_peak, build_sets, verify_sets

from helpers import random_unimodular, xcorr_oracle

DENSE_N_IDFT = 12 * 1024  # 1,024 points per integer shift of a length-12 member


class TestBuildSets:
    def test_beta_one_admits_immediately(self, small_libraries):
        seeds = small_libraries[4][:2]
        sets = build_sets(seeds, beta=1.0, u=16, k_target=2)
        assert sets.size == 2

    def test_duplicate_seed_rejected(self, small_libraries):
        seed = small_libraries[4][0]
        sets = build_sets([seed, seed], beta=0.9, u=16, k_target=4)
        admitted_strings = [p.as_strings() for p in sets.pairs]
        # the second copy's orbit reproduces already-admitted sequences,
        # which self-correlate at 1 > beta
        assert len(admitted_strings) == len(set(admitted_strings))

    def test_determinism(self, small_libraries):
        seeds = small_libraries[4]
        first = build_sets(seeds, beta=0.8, u=32, k_target=5)
        second = build_sets(seeds, beta=0.8, u=32, k_target=5)
        assert [p.as_strings() for p in first.pairs] == [p.as_strings() for p in second.pairs]

    def test_short_set_is_reported_not_raised(self, small_libraries):
        sets = build_sets(small_libraries[2], beta=0.2, u=16, k_target=30)
        assert sets.size < 30

    def test_admission_log_records_all_tested(self, small_libraries):
        sets = build_sets(small_libraries[4][:3], beta=0.05, u=16, k_target=30)
        # first candidate admitted against an empty set, everything else logged
        assert len(sets.admission_log) == 3 * 8
        assert sets.admission_log[0].admitted

    def test_admitted_members_satisfy_constraints(self, small_libraries):
        sets = build_sets(small_libraries[5], beta=0.9, u=32, k_target=6)
        for i in range(sets.size):
            for j in range(i + 1, sets.size):
                assert xcorr_oracle(sets.pairs[i].a, sets.pairs[j].a, 5 * 32) <= 0.9
                assert xcorr_oracle(sets.pairs[i].b, sets.pairs[j].b, 5 * 32) <= 0.9

    def test_parameter_validation(self, small_libraries):
        with pytest.raises(ValueError):
            build_sets(small_libraries[2], beta=0.0, u=16, k_target=2)
        with pytest.raises(ValueError):
            build_sets(small_libraries[2], beta=0.5, u=0, k_target=2)
        with pytest.raises(ValueError):
            build_sets(small_libraries[2], beta=0.5, u=16, k_target=0)


class TestVerifySets:
    def test_reference_fixture_verifies(self, reference_pairs):
        # The fixture claims beta = 0.715 at u = 128; its grid maximum there
        # is 0.7143984, and the continuous bound 0.7144888 stays below beta,
        # so the claim holds for every shift.
        beta, u = reference_set_params()
        sets = SequenceSetPair(tuple(reference_pairs), beta, u)
        report = verify_sets(sets)
        assert report.ok, report.violations
        assert report.size == 30
        assert report.max_xcorr_first <= beta
        assert report.max_xcorr_second <= beta
        for members in ([p.a for p in sets.pairs], [p.b for p in sets.pairs]):
            assert xcorr_matrix(members, DENSE_N_IDFT).max() <= beta

    def test_false_grid_certificate_refused(self, reference_pairs):
        # On the u = 16 grid the fixture peaks at 0.7141007 < 0.7142, but
        # between the grid points it reaches 0.7143984.
        sets = SequenceSetPair(tuple(reference_pairs), 0.7142, 16)
        report = verify_sets(sets)
        assert max(report.max_xcorr_first, report.max_xcorr_second) <= 0.7142
        assert xcorr_matrix([p.a for p in sets.pairs], DENSE_N_IDFT).max() > 0.7142
        assert not report.ok
        assert any("between its points" in v for v in report.violations)

    @pytest.mark.parametrize("u", [4, 16])
    def test_true_certificate_on_coarse_grid_refined(self, reference_pairs, u):
        # The u = 16 bound of the grid maximum 0.7141007 is 0.71996 > 0.715;
        # the pairs re-evaluated on the denser grid certify 0.715, and the
        # report keeps the maximum of the coarse grid, below 0.7143984.
        report = verify_sets(SequenceSetPair(tuple(reference_pairs), 0.715, u))
        assert report.ok, report.violations
        assert max(report.max_xcorr_first, report.max_xcorr_second) < 0.71415

    def test_non_complementary_pair_flagged(self, reference_pairs):
        a, b = np.array([reference_pairs[0].a]), np.array([reference_pairs[1].b])
        (tampered,) = golay._proven_pairs(a, b)  # unchecked, as pairs proved elsewhere
        sets = SequenceSetPair((tampered, *reference_pairs[2:]), 0.715, 128)
        assert verify_sets(sets).violations[0] == "pair 0 is not complementary"

    @pytest.mark.parametrize("u", [1, 2, 4, 16])
    def test_continuous_bound_holds_between_grid_points(self, u):
        rng = np.random.default_rng(u)
        for length in (5, 12):
            members = random_unimodular(rng, 6 * length).reshape(6, length)
            dense = xcorr_matrix(members, 1024 * length)
            for i in range(6):
                for j in range(i + 1, 6):
                    grid, bound = _grid_peak(members[i], members[j], u)
                    oracle = xcorr_oracle(members[i], members[j], length * u)
                    assert grid == pytest.approx(oracle, abs=1e-12)
                    assert grid - 1e-12 <= dense[i, j] <= bound + 1e-12

    def test_reference_fixture_at_finer_grid(self, reference_pairs):
        beta, _ = reference_set_params()
        sets = SequenceSetPair(tuple(reference_pairs), beta, 256)
        report = verify_sets(sets)
        assert report.max_xcorr_first <= beta + 1e-3
        assert report.max_xcorr_second <= beta + 1e-3

    def test_duplicate_flagged(self, reference_pairs):
        sets = SequenceSetPair(
            (reference_pairs[0], reference_pairs[0]), 0.715, 64
        )
        report = verify_sets(sets)
        assert not report.ok
        assert any("correlate" in v for v in report.violations)

    def test_tight_budget_flags_violation(self, reference_pairs):
        sets = SequenceSetPair(tuple(reference_pairs[:5]), 0.1, 64)
        report = verify_sets(sets)
        assert not report.ok

    def test_search_output_passes_verification(self, small_libraries):
        sets = build_sets(small_libraries[5], beta=0.95, u=32, k_target=4)
        assert verify_sets(sets).ok

    def test_members_are_validated_once(self, as_sequence_calls, reference_pairs):
        # Only the complementarity check, is_gcp, validates the members;
        # the u = 16 sweep also takes the refined u = 128 route.
        verify_sets(SequenceSetPair(tuple(reference_pairs), 0.715, 16))
        assert len(as_sequence_calls) == 2 * len(reference_pairs)

    @pytest.mark.parametrize("u", [0, -1])
    def test_density_below_one_refused(self, reference_pairs, u):
        with pytest.raises(ValueError, match="density must be >= 1"):
            verify_sets(SequenceSetPair(tuple(reference_pairs[:2]), 0.715, u))

    def test_unequal_lengths_refused(self, reference_pairs, small_libraries):
        sets = SequenceSetPair((reference_pairs[0], small_libraries[4][0]), 0.715, 16)
        with pytest.raises(ValueError, match="share one length"):
            verify_sets(sets)
