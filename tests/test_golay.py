import io
import itertools
import json

import numpy as np
import pytest

from csinterlace.golay import (
    CertificationError,
    ConstructionParams,
    GolayPair,
    cached_enumerate_gcps,
    canonical_pair,
    combine_gcps,
    enumerate_gcps,
    equivalence_orbit,
    is_complementary_sequence,
)
from csinterlace.interlace import SparseSpectrum
from csinterlace.metrics import synthesize
from csinterlace.seqcore import (
    QUATERNARY_VALUES,
    format_quaternary,
    is_gcp,
    parse_quaternary,
)

from helpers import apac, canonical_rank, random_unimodular, reference_mate_ranks


def brute_force_canonical_pairs(length):
    """All-pairs oracle: every canonical (a, b) combination checked directly."""
    seqs = [
        np.array((1.0 + 0j,) + combo)
        for combo in itertools.product(QUATERNARY_VALUES, repeat=length - 1)
    ]
    found = set()
    for i, a in enumerate(seqs):
        for j in range(i, len(seqs)):
            if is_gcp(a, seqs[j], 0.0):
                found.add(canonical_pair(a, seqs[j]))
    return found


class TestGolayPair:
    def test_certify_accepts_pair(self):
        pair = GolayPair.from_strings("++", "+-")
        assert pair.certified and pair.length == 2 and pair.energy == 4

    def test_certify_rejects_non_pair(self):
        with pytest.raises(CertificationError):
            GolayPair.from_strings("++", "++")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            GolayPair.certify([1, 1], [1])

    def test_members_immutable(self):
        pair = GolayPair.from_strings("++", "+-")
        with pytest.raises(ValueError):
            pair.a[0] = 5.0

    def test_value_equality(self):
        assert GolayPair.from_strings("++", "+-") == GolayPair.from_strings("++", "+-")
        assert GolayPair.from_strings("++", "+-") != GolayPair.from_strings("+i", "+j")


class TestConstructionParams:
    def test_defaults_valid(self):
        ConstructionParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"phase1": 2.0},
            {"phase2": 0.0},
            {"step1": 0},
            {"step2": -1},
            {"offset": -3},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ConstructionParams(**kwargs)


class TestCombineGcps:
    def test_concatenation_special_case(self):
        unit = GolayPair.from_strings("+", "+")
        block = GolayPair.from_strings("++", "+-")
        out = combine_gcps(unit, block, ConstructionParams(step1=1, step2=1, offset=2))
        assert np.allclose(out.a, parse_quaternary("+++-"))
        # mate is reverse-conjugated d followed by negated reverse-conjugated c
        assert np.allclose(out.b, parse_quaternary("-+--"))
        assert is_gcp(out.a, out.b, 0.0)

    def test_interleaving_special_case(self):
        spread = GolayPair.from_strings("++", "+-")
        unit = GolayPair.from_strings("+", "+")
        out = combine_gcps(spread, unit, ConstructionParams(step1=2, step2=1, offset=1))
        assert np.allclose(out.a, parse_quaternary("+++-"))

    def test_lte_noncoherent_support(self, reference_pairs, noncoherent_spread):
        params = ConstructionParams(
            phase1=np.exp(1j * np.pi / 4), phase2=np.exp(1j * np.pi / 4),
            step1=120, step2=1, offset=600,
        )
        out = combine_gcps(noncoherent_spread, reference_pairs[0], params)
        support = np.flatnonzero(out.a)
        expected = (120 * np.arange(10)[:, None] + np.arange(12)[None, :]).reshape(-1)
        assert np.array_equal(support, expected)
        assert is_gcp(out.a, out.b, 1e-9)

    def test_overlapping_supports_allowed(self, small_libraries):
        first = small_libraries[2][0]
        second = small_libraries[4][0]
        out = combine_gcps(first, second, ConstructionParams(step1=1, step2=1, offset=0))
        assert out.certified

    def test_random_closure(self, small_libraries):
        rng = np.random.default_rng(42)
        pools = [p for n in small_libraries.values() for p in n]
        for _ in range(50):
            first = pools[rng.integers(len(pools))]
            second = pools[rng.integers(len(pools))]
            params = ConstructionParams(
                phase1=np.exp(2j * np.pi * rng.random()),
                phase2=np.exp(2j * np.pi * rng.random()),
                step1=int(rng.integers(1, 17)),
                step2=int(rng.integers(1, 17)),
                offset=int(rng.integers(0, 65)),
            )
            out = combine_gcps(first, second, params)  # certifies internally
            assert out.certified

    def test_exact_when_phases_are_gaussian_units(self, small_libraries):
        first = small_libraries[3][0]
        second = small_libraries[3][1]
        out = combine_gcps(
            first, second,
            ConstructionParams(phase1=1j, phase2=-1.0, step1=3, step2=1, offset=2),
            tol=0.0,
        )
        assert out.certified

    def test_peak_power_bound(self, small_libraries):
        rng = np.random.default_rng(9)
        pools = small_libraries[4] + small_libraries[5]
        for _ in range(20):
            first = pools[rng.integers(len(pools))]
            second = pools[rng.integers(len(pools))]
            params = ConstructionParams(step1=int(rng.integers(1, 9)),
                                        step2=int(rng.integers(1, 9)),
                                        offset=int(rng.integers(0, 33)))
            out = combine_gcps(first, second, params)
            ef, eg = apac(out.a, 0).real, apac(out.b, 0).real
            if abs(ef - eg) > 1e-9:
                continue
            spectrum = SparseSpectrum.from_dense(out.a)
            peak = synthesize(spectrum, 4096).peak_power
            assert peak <= ef + eg + 1e-6


class TestEquivalenceOrbit:
    def test_orbit_size_and_certification(self):
        orbit = equivalence_orbit(GolayPair.from_strings("++", "+-"))
        assert len(orbit) == 8
        assert all(p.certified for p in orbit)

    def test_orbit_contains_identity(self, reference_pairs):
        pair = reference_pairs[0]
        orbit = equivalence_orbit(pair)
        assert any(p == pair for p in orbit)

    def test_orbit_of_reference_pair_all_certified(self, reference_pairs):
        orbit = equivalence_orbit(reference_pairs[0])
        assert len(orbit) == 8
        assert all(is_gcp(p.a, p.b, 0.0) for p in orbit)

    def test_orbit_closure(self, reference_pairs):
        pair = reference_pairs[4]
        orbit = {p.as_strings() for p in equivalence_orbit(pair)}
        member = equivalence_orbit(pair)[5]
        again = {p.as_strings() for p in equivalence_orbit(member)}
        assert orbit == again


class TestEnumeration:
    def test_length_one(self):
        pairs = enumerate_gcps(1)
        assert [p.as_strings() for p in pairs] == [("+", "+")]

    def test_length_two_ground_truth(self):
        got = {p.as_strings() for p in enumerate_gcps(2)}
        assert got == {("++", "+-"), ("+i", "+j")}

    def test_length_three_regression(self):
        # frozen from the exhaustive run; cross-checked by the all-pairs oracle
        pairs = enumerate_gcps(3)
        assert len(pairs) == 4
        assert {p.as_strings() for p in pairs} == brute_force_canonical_pairs(3)

    def test_length_four_matches_brute_force(self):
        got = {p.as_strings() for p in enumerate_gcps(4)}
        assert got == brute_force_canonical_pairs(4)
        assert len(got) == 16

    def test_all_outputs_certified(self):
        assert all(p.certified for p in enumerate_gcps(4))

    def test_capacity_error(self):
        with pytest.raises(ValueError):
            enumerate_gcps(13)

    def test_deterministic_order(self):
        first = [p.as_strings() for p in enumerate_gcps(5)]
        second = [p.as_strings() for p in enumerate_gcps(5)]
        assert first == second

    def test_cache_roundtrip(self, tmp_path):
        fresh = cached_enumerate_gcps(4, tmp_path)
        assert (tmp_path / "gcps_len4.json").exists()
        cached = cached_enumerate_gcps(4, tmp_path)
        assert [p.as_strings() for p in fresh] == [p.as_strings() for p in cached]

    @pytest.mark.parametrize("length", range(2, 11))
    def test_matches_full_table_oracle(self, length):
        want = list(zip(*(ranks.tolist() for ranks in reference_mate_ranks(length))))
        got = [(canonical_rank(p.a), canonical_rank(p.b)) for p in enumerate_gcps(length)]
        assert got == want


class _FullDisk:
    """A text file whose first write stores half its data and then fails."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


class TestCache:
    @pytest.mark.parametrize("payload", [
        {"length": 4, "count": 99, "pairs": [["++++", "++++"]]},
        {"length": 4, "count": 1, "pairs": [["++++", "++++"]]},
        {"length": 4, "count": 2, "pairs": [["+++-", "++-+"]]},
        {"length": 3, "count": 1, "pairs": [["+++-", "++-+"]]},
        {"length": 4, "count": 1, "pairs": [["++-", "+-+"]]},
        {"length": 4, "count": 1, "pairs": [["+++-", "++-+", "++++"]]},
        {"length": 4, "count": 1, "pairs": [["+++x", "++-+"]]},
    ])
    def test_invalid_file_raises_naming_it(self, tmp_path, payload):
        (tmp_path / "gcps_len4.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="gcps_len4.json"):
            cached_enumerate_gcps(4, tmp_path)

    def test_non_string_entry_raises_naming_it(self, tmp_path):
        # A dict parses like its keys, "+-", but would not write back as a string.
        payload = {"length": 2, "count": 1, "pairs": [[{"+": 0, "-": 0}, "++"]]}
        (tmp_path / "gcps_len2.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="gcps_len2.json"):
            cached_enumerate_gcps(2, tmp_path)

    def test_truncated_file_raises_naming_it(self, tmp_path):
        cache_file = tmp_path / "gcps_len4.json"
        cached_enumerate_gcps(4, tmp_path)
        cache_file.write_text(cache_file.read_text()[:100])
        with pytest.raises(ValueError, match="gcps_len4.json"):
            cached_enumerate_gcps(4, tmp_path)

    def test_loaded_pairs_are_complementary_and_immutable(self, tmp_path):
        cached_enumerate_gcps(6, tmp_path)
        pairs = cached_enumerate_gcps(6, tmp_path)
        assert len(pairs) == 64 and all(is_gcp(p.a, p.b, 0.0) for p in pairs)
        with pytest.raises(ValueError):
            pairs[0].a[0] = -1.0

    def test_interrupted_write_leaves_no_cache_file(self, tmp_path, monkeypatch):
        real_open = io.open

        def failing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return _FullDisk(handle) if "w" in mode else handle

        monkeypatch.setattr(io, "open", failing_open)
        with pytest.raises(OSError):
            cached_enumerate_gcps(4, tmp_path)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
        assert len(cached_enumerate_gcps(4, tmp_path)) == 16


class TestIsComplementarySequence:
    def test_short_positives(self):
        assert is_complementary_sequence(parse_quaternary("++"))
        assert is_complementary_sequence(parse_quaternary("+"))

    def test_reference_member(self, reference_pairs):
        assert is_complementary_sequence(reference_pairs[0].a)

    def test_all_ones_length_three(self):
        # no quaternary mate exists: lag-1 cancellation forces b1 = -b0,
        # b2 = -b1, which contradicts the lag-2 requirement
        assert not is_complementary_sequence(parse_quaternary("+++"))

    def test_capacity_error(self):
        with pytest.raises(ValueError):
            is_complementary_sequence(np.ones(13, dtype=complex))

    def test_non_quaternary_rejected(self):
        with pytest.raises(ValueError):
            is_complementary_sequence(random_unimodular(np.random.default_rng(0), 4))

    def test_length_12_seeded_batch(self, library_12_pairs):
        members = {text for pair in library_12_pairs for text in pair}
        rng = np.random.default_rng(1904)
        queries = []
        for _ in range(300):
            pair = library_12_pairs[rng.integers(len(library_12_pairs))]
            member = parse_quaternary(pair[rng.integers(2)])
            queries.append(member * QUATERNARY_VALUES[rng.integers(4)])
            mutant = member.copy()
            pos = rng.integers(12)
            code = int(np.flatnonzero(QUATERNARY_VALUES == mutant[pos])[0])
            mutant[pos] = QUATERNARY_VALUES[(code + rng.integers(1, 4)) % 4]
            queries.append(mutant * QUATERNARY_VALUES[rng.integers(4)])
            queries.append(QUATERNARY_VALUES[rng.integers(0, 4, 12)])
        answers = [is_complementary_sequence(q) for q in queries]
        expected = [format_quaternary(q * np.conj(q[0])) in members for q in queries]
        assert answers == expected
        assert 300 <= sum(answers) < len(queries)

    def test_agrees_with_enumeration(self, small_libraries):
        members = {s for p in small_libraries[4] for s in p.as_strings()}
        seqs = [
            np.array((1.0 + 0j,) + combo)
            for combo in itertools.product(QUATERNARY_VALUES, repeat=3)
        ]
        for seq in seqs:
            expected = format_quaternary(seq) in members
            assert is_complementary_sequence(seq) == expected


class TestCanonicalPair:
    def test_phase_normalization(self):
        a = parse_quaternary("i+ij")
        b = parse_quaternary("-+-+")
        norm_a, norm_b = canonical_pair(a, b)
        assert norm_a.startswith("+") and norm_b.startswith("+")

    def test_order_invariance(self, reference_pairs):
        pair = reference_pairs[2]
        assert canonical_pair(pair.a, pair.b) == canonical_pair(pair.b, pair.a)

    def test_rejects_float_sequences(self):
        with pytest.raises(ValueError):
            canonical_pair(random_unimodular(np.random.default_rng(1), 4), parse_quaternary("++++"))
