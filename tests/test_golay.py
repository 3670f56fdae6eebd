import io
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from csinterlace import golay, seqcore
from csinterlace.golay import (
    CertificationError,
    ConstructionParams,
    GolayPair,
    cached_enumerate_gcps,
    combine_gcps,
    enumerate_gcps,
    equivalence_orbit,
    is_complementary_sequence,
    read_library,
    write_library,
)
from csinterlace.interlace import SparseSpectrum
from csinterlace.metrics import synthesize
from csinterlace.seqcore import (
    QUATERNARY_VALUES,
    format_quaternary,
    is_gcp,
    parse_quaternary,
)

from helpers import (
    apac,
    canonical_pair,
    canonical_rank,
    poly_eval,
    random_unimodular,
    reference_mate_ranks,
    unit_circle_points,
)


def brute_force_canonical_pairs(length):
    """All-pairs oracle: every canonical (a, b) combination checked directly."""
    seqs = [
        np.array((1.0 + 0j,) + combo)
        for combo in itertools.product(QUATERNARY_VALUES, repeat=length - 1)
    ]
    found = set()
    for i, a in enumerate(seqs):
        for j in range(i, len(seqs)):
            if is_gcp(a, seqs[j]):
                found.add(canonical_pair(a, seqs[j]))
    return found


class TestGolayPair:
    def test_certify_accepts_pair(self):
        pair = GolayPair(parse_quaternary("++"), parse_quaternary("+-"))
        assert pair.length == 2 and pair == GolayPair.from_strings("++", "+-")

    def test_certify_rejects_non_pair(self):
        with pytest.raises(CertificationError):
            GolayPair.from_strings("++", "++")
        a = parse_quaternary("++")
        for non_mate in ("++", "+i", "--"):
            with pytest.raises(CertificationError, match="not complementary"):
                GolayPair(a, parse_quaternary(non_mate))
        assert issubclass(CertificationError, ValueError)  # a click error at the CLI

    def test_no_unchecked_public_constructor(self):
        # The fields (a, b) are pinned by tests/test_api.py.
        assert not hasattr(GolayPair, "certify")

    def test_float_pair_checked(self, reference_pairs):
        pair = reference_pairs[0]
        assert GolayPair(pair.a * np.exp(0.3j), pair.b).length == 12
        bent = pair.a * np.exp(0.3j)
        bent[4] += 1e-7
        with pytest.raises(CertificationError):
            GolayPair(bent, pair.b)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            GolayPair([1, 1], [1])

    def test_block_members_refused(self):
        # Flattened, these would make the length-4 pair ("+++-", "++-+").
        with pytest.raises(ValueError, match="1-D"):
            GolayPair([[1, 1], [1, -1]], [[1, 1], [-1, 1]])

    def test_members_immutable(self):
        pair = GolayPair.from_strings("++", "+-")
        with pytest.raises(ValueError):
            pair.a[0] = 5.0

    def test_members_are_copies(self):
        a, b = parse_quaternary("++"), parse_quaternary("+-")
        pair = GolayPair(a, b)
        a[1] = -1.0
        assert pair.as_strings() == ("++", "+-")

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
        assert is_gcp(out.a, out.b)

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
        assert is_gcp(out.a, out.b)

    def test_overlapping_supports_allowed(self, small_libraries):
        first = small_libraries[2][0]
        second = small_libraries[4][0]
        out = combine_gcps(first, second, ConstructionParams(step1=1, step2=1, offset=0))
        assert is_gcp(out.a, out.b)

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
            assert is_gcp(out.a, out.b)

    def test_matches_polynomial_formulas(self, small_libraries):
        # f(z) = p1 A(z^s1) C(z^s2) + p2 z^off B(z^s1) D(z^s2) and
        # g(z) = p1 A(z^s1) D~(z^s2) - p2 z^off B(z^s1) C~(z^s2), where
        # X~(w) = w^(N-1) conj(X(w)) on the unit circle is the reverse
        # conjugate of a length-N member of the second pair.
        rng = np.random.default_rng(24)
        pools = [p for n in small_libraries.values() for p in n]
        overlapping = []
        for trial in range(50):
            first, second = (pools[rng.integers(len(pools))] for _ in range(2))
            s1, s2 = (int(s) for s in rng.integers(1, 9, size=2))
            span = s1 * (first.length - 1) + s2 * (second.length - 1) + 1  # one branch
            offset = int(rng.integers(0, span)) if trial % 2 else span + int(rng.integers(0, 8))
            overlapping.append(offset < span)
            p1, p2 = np.exp(2j * np.pi * rng.random(2))
            params = ConstructionParams(phase1=p1, phase2=p2, step1=s1, step2=s2, offset=offset)
            out = combine_gcps(first, second, params)
            assert out.length == offset + span
            for z in unit_circle_points(rng, 3):
                w = z**s2
                a, b = poly_eval(first.a, z**s1), poly_eval(first.b, z**s1)
                c, d = poly_eval(second.a, w), poly_eval(second.b, w)
                c_rc, d_rc = (w ** (second.length - 1) * np.conj(x) for x in (c, d))
                assert poly_eval(out.a, z) == pytest.approx(
                    p1 * a * c + p2 * z**offset * b * d, abs=1e-9)
                assert poly_eval(out.b, z) == pytest.approx(
                    p1 * a * d_rc - p2 * z**offset * b * c_rc, abs=1e-9)
        assert any(overlapping) and not all(overlapping)

    def test_first_branch_is_the_product_polynomial(self, small_libraries):
        # With the second branch past the first, f starts with A(z) C(z).
        rng = np.random.default_rng(5)
        pools = [p for n in small_libraries.values() for p in n]
        for _ in range(25):
            first, second = (pools[rng.integers(len(pools))] for _ in range(2))
            span = first.length + second.length - 1
            out = combine_gcps(first, second, ConstructionParams(offset=span))
            for z in unit_circle_points(rng, 3):
                assert poly_eval(out.a[:span], z) == pytest.approx(
                    poly_eval(first.a, z) * poly_eval(second.a, z), abs=1e-12)

    def test_offset_prepends_nulls_to_second_branch(self):
        unit = GolayPair.from_strings("+", "+")
        block = GolayPair.from_strings("++", "+-")
        out = combine_gcps(unit, block, ConstructionParams(offset=3))
        assert np.array_equal(out.a, np.array([1, 1, 0, 1, -1], dtype=complex))
        assert np.array_equal(out.b, np.array([-1, 1, 0, -1, -1], dtype=complex))

    def test_mate_reverse_conjugates_the_second_pair(self, small_libraries):
        # With the unit pair first, g starts with rc(d) upsampled by k, and
        # rc(d)(z^k) = z^(k(N-1)) conj(d)(z^-k) for a length-N member d.
        unit = GolayPair.from_strings("+", "+")
        rng = np.random.default_rng(3)
        pools = [p for n in small_libraries.values() for p in n]
        for _ in range(25):
            seed = pools[rng.integers(len(pools))]
            rot_a, rot_b = np.exp(2j * np.pi * rng.random(2))
            second = GolayPair(seed.a * rot_a, seed.b * rot_b)
            k, n = int(rng.integers(1, 6)), second.length
            span = k * (n - 1) + 1
            out = combine_gcps(unit, second, ConstructionParams(step2=k, offset=span))
            for z in unit_circle_points(rng, 3):
                rhs = poly_eval(np.conj(second.b), z**-k) * z ** (k * (n - 1))
                assert poly_eval(out.b[:span], z) == pytest.approx(rhs, abs=1e-12)

    def test_steps_upsample_the_seeds(self, small_libraries):
        # With the unit pair second, f is a(z^k) followed by z^span b(z^k).
        unit = GolayPair.from_strings("+", "+")
        rng = np.random.default_rng(11)
        pools = [p for n in small_libraries.values() for p in n]
        for _ in range(25):
            first = pools[rng.integers(len(pools))]
            k = int(rng.integers(1, 8))
            span = k * (first.length - 1) + 1
            out = combine_gcps(first, unit, ConstructionParams(step1=k, offset=span))
            for z in unit_circle_points(rng, 4):
                assert poly_eval(out.a[:span], z) == pytest.approx(
                    poly_eval(first.a, z**k), abs=1e-12)
                assert poly_eval(out.a[span:], z) == pytest.approx(
                    poly_eval(first.b, z**k), abs=1e-12)

    def test_certified_members_are_not_validated_again(self, as_sequence_calls, small_libraries,
                                                       reference_pairs, noncoherent_spread):
        # The seeds are certified pairs; only the output's check, is_gcp,
        # validates sequences: its two members, once each.
        lte = ConstructionParams(phase1=1j, step1=120, offset=600)
        for first, second, params in [
            (small_libraries[4][0], small_libraries[5][1], ConstructionParams(step1=2, offset=3)),
            (noncoherent_spread, reference_pairs[0], lte),
        ]:
            as_sequence_calls.clear()
            combine_gcps(first, second, params)
            assert len(as_sequence_calls) == 2

    def test_exact_when_phases_are_gaussian_units(self, small_libraries):
        first = small_libraries[3][0]
        second = small_libraries[3][1]
        out = combine_gcps(
            first, second,
            ConstructionParams(phase1=1j, phase2=-1.0, step1=3, step2=1, offset=2),
        )
        # Gaussian-integer coefficients, so the check cancelled exactly.
        both = np.concatenate([out.a, out.b])
        assert np.array_equal(both, np.round(both))
        assert not any(apac(out.a, k) + apac(out.b, k) for k in range(1, out.length))

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
            support = np.flatnonzero(out.a)
            spectrum = SparseSpectrum(support, out.a[support], out.a.size)
            peak = np.max(np.abs(synthesize(spectrum, 4096)) ** 2)
            assert peak <= ef + eg + 1e-6


class TestEquivalenceOrbit:
    def test_orbit_size_and_certification(self):
        orbit = equivalence_orbit(GolayPair.from_strings("++", "+-"))
        assert len(orbit) == 8
        assert all(is_gcp(p.a, p.b) for p in orbit)

    def test_orbit_contains_identity(self, reference_pairs):
        pair = reference_pairs[0]
        orbit = equivalence_orbit(pair)
        assert any(p == pair for p in orbit)

    def test_orbit_of_reference_pair_all_certified(self, reference_pairs):
        orbit = equivalence_orbit(reference_pairs[0])
        assert len(orbit) == 8
        assert all(is_gcp(p.a, p.b) for p in orbit)

    def test_orbit_closure(self, reference_pairs):
        pair = reference_pairs[4]
        orbit = {p.as_strings() for p in equivalence_orbit(pair)}
        member = equivalence_orbit(pair)[5]
        again = {p.as_strings() for p in equivalence_orbit(member)}
        assert orbit == again

    def test_unchecked_non_complementary_pair_refused(self, reference_pairs):
        # Built unchecked, as pairs proved elsewhere are, with its second member
        # moved a lag: every variant fails, and the first one is named.
        pair = reference_pairs[0]
        (tampered,) = golay._proven_pairs(pair.a[None].copy(), np.roll(pair.b, 1)[None])
        with pytest.raises(CertificationError, match="orbit variant 0 is not complementary"):
            equivalence_orbit(tampered)

    def test_stack_certified_in_one_pass(self, monkeypatch, reference_pairs):
        calls = []
        route = golay._noncomplementary
        monkeypatch.setattr(golay, "_noncomplementary",
                            lambda a, b: calls.append(a.shape) or route(a, b))
        monkeypatch.setattr(golay, "is_gcp", lambda a, b: pytest.fail("a variant checked alone"))
        assert len(equivalence_orbit(reference_pairs[3])) == 8
        assert calls == [(8, 12)]

    def test_matches_explicit_definitions(self, reference_pairs, small_libraries):
        # Documented order: swap outermost, then reverse, then reverse-conjugate.
        def same(a, b):
            return a, b

        def swap(a, b):
            return b, a

        def reverse(a, b):
            return a[::-1], b[::-1]

        def reverse_conjugate(a, b):
            return [v.conjugate() for v in reversed(a)], [v.conjugate() for v in reversed(b)]

        rotated = GolayPair(reference_pairs[2].a * np.exp(0.7j), reference_pairs[2].b)
        for pair in (small_libraries[3][0], reference_pairs[1], rotated):
            members = (list(pair.a), list(pair.b))
            expected = [rc(*rev(*sw(*members))) for sw in (same, swap)
                        for rev in (same, reverse) for rc in (same, reverse_conjugate)]
            assert [(list(p.a), list(p.b)) for p in equivalence_orbit(pair)] == expected


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
        assert all(is_gcp(p.a, p.b) for p in enumerate_gcps(4))

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


class TestSpectralFilter:
    """``golay._psd_survivors``, the |A(w)|^2 <= 2N filter in front of the
    exact key match."""

    @pytest.mark.parametrize("length", range(2, 11))
    def test_block_size_does_not_change_survivors(self, length, monkeypatch):
        default = golay._psd_survivors(length)
        monkeypatch.setattr(golay, "_PSD_BLOCK", 1 << 6)
        assert np.array_equal(golay._psd_survivors(length), default)

    def test_grids_map_onto_themselves_under_a_quarter_turn(self):
        # w -> w - pi/2 moves grid point m to m - points/4: the invariance
        # that lets the filter scan only the representatives with a_1 = +1.
        assert all(points % 4 == 0 for points, _ in golay._PSD_GRIDS)

    @pytest.mark.parametrize("length", range(3, 11))
    def test_survivors_are_closed_under_quarter_turns(self, length):
        survivors = golay._psd_survivors(length)
        seqs = QUATERNARY_VALUES[golay._digits(survivors, length)]
        for k in range(1, 4):
            turn = np.array([1, 1j, -1, -1j])[k * np.arange(length) % 4]  # j**(k*n)
            turned = [canonical_rank(seq) for seq in seqs * turn]
            assert sorted(turned) == survivors.tolist()

    @pytest.mark.parametrize("length", range(2, 9))
    def test_keeps_exactly_the_ranks_within_the_bound(self, length):
        # Every canonical sequence summed directly on all 88 grid points.
        seqs = np.array([(1.0 + 0j,) + combo
                         for combo in itertools.product(QUATERNARY_VALUES, repeat=length - 1)])
        w = 2 * np.pi * np.concatenate([(np.arange(p) + offset) / p
                                        for p, offset in golay._PSD_GRIDS])
        assert w.size == 88
        spectra = seqs @ np.exp(-1j * np.outer(np.arange(length), w))
        within = np.all(np.abs(spectra) ** 2 <= 2 * length + golay._PSD_SLACK, axis=1)
        survivors = golay._psd_survivors(length)
        assert np.array_equal(survivors, np.flatnonzero(within))
        members = np.concatenate(reference_mate_ranks(length))  # none at length 7
        assert np.isin(members, survivors).all()

    def test_peak_memory_is_the_tables_plus_one_block(self, monkeypatch):
        # At length 10 the 88-point tables of the 4**3 representative heads
        # and the 4**5 tails take 1.5 MB; a block of one head row adds a few
        # 1024-entry arrays.  Running all 4**8 representatives as one block
        # would add 2.2 MB.
        monkeypatch.setattr(golay, "_PSD_BLOCK", 1 << 6)
        tables = 88 * (4 ** 3 + 4 ** 5) * np.dtype(complex).itemsize
        golay._psd_survivors(10)
        tracemalloc.start()
        try:
            golay._psd_survivors(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tables + (1 << 18)

    @pytest.mark.parametrize("length", range(1, 13))
    def test_symbol_strings_from_ranks(self, length):
        rng = np.random.default_rng(length)
        ranks = np.concatenate([[0, 4 ** length - 1], rng.integers(0, 4 ** length, 200)])
        codes = golay._digits(ranks, length)
        want = [format_quaternary(seq) for seq in QUATERNARY_VALUES[codes]]
        assert seqcore._format_symbols(codes) == want


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
    """Pair-library files and the enumeration cache; the bad files every
    reader refuses are in ``tests/test_cli.py`` (``BAD_LIBRARIES``)."""

    def test_loaded_pairs_are_complementary_and_immutable(self, tmp_path):
        cached_enumerate_gcps(6, tmp_path)
        pairs = cached_enumerate_gcps(6, tmp_path)
        assert len(pairs) == 64 and all(is_gcp(p.a, p.b) for p in pairs)
        with pytest.raises(ValueError):
            pairs[0].a[0] = -1.0

    @pytest.mark.parametrize("length", [7, 9])
    def test_empty_library_round_trip(self, tmp_path, length):
        # No quaternary pair has length 7 or 9.
        assert cached_enumerate_gcps(length, tmp_path) == []
        assert cached_enumerate_gcps(length, tmp_path) == []
        assert (tmp_path / f"gcps_len{length}.json").read_text() == (
            f'{{"length": {length}, "count": 0, "pairs": []}}\n')

    def test_written_bytes_and_a_file_without_newline(self, tmp_path):
        pairs = enumerate_gcps(3)
        path = tmp_path / "lib.json"
        write_library(path, 3, pairs)
        text = path.read_text()
        assert text == json.dumps({"length": 3, "count": 4,
                                   "pairs": [list(p.as_strings()) for p in pairs]}) + "\n"
        path.write_text(text.rstrip("\n"))  # as caches were written before the newline
        assert read_library(path, 3) == pairs and read_library(path) == pairs

    def test_cache_of_another_length_refused(self, tmp_path):
        write_library(tmp_path / "gcps_len4.json", 3, enumerate_gcps(3))
        with pytest.raises(ValueError, match=r"gcps_len4\.json: header \(length 3, count 4\) "
                                             r"does not match 4 pairs of length 4"):
            cached_enumerate_gcps(4, tmp_path)

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
