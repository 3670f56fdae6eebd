import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from csinterlace import interlace, seqcore
from csinterlace.golay import ConstructionParams, combine_gcps
from csinterlace.interlace import QPSK_PHASES, InterlaceConfig
from csinterlace.seqcore import (
    QUATERNARY_SYMBOLS,
    _autocorrelations,
    _format_symbols,
    _modulate,
    _parse_symbols,
    format_quaternary,
    is_gcp,
    parse_quaternary,
    sequence_from_json,
)

from helpers import apac, on_grid, random_unimodular

QUATERNARY = np.array([1.0, -1.0, 1.0j, -1.0j])
PLUS_PLUS = parse_quaternary("++")
PLUS_MINUS = parse_quaternary("+-")

complex_sequences = arrays(
    np.complex128,
    st.integers(min_value=1, max_value=16),
    elements=st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
)

quaternary_strings = st.text(alphabet="+-ij", min_size=1, max_size=12)
# Lists of equal-length symbol strings, as a pair library's or a stack's rows.
symbol_stacks = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.text(alphabet="+-ij", min_size=n, max_size=n), min_size=1, max_size=8))
# Characters off the alphabet: drawn ones, and NUL (which numpy strips from the end of
# a string it converts back) and non-ASCII ones, sampled often.
foreign_characters = (st.sampled_from(["\x00", "x", "é", "\u2212", "\U0001d7d9"])
                      | st.characters(exclude_characters=QUATERNARY_SYMBOLS))


class TestApac:
    def test_hand_values(self):
        assert apac(PLUS_PLUS, 1) == 1
        assert apac(PLUS_MINUS, 1) == -1

    def test_energy_of_reference_sequence(self, reference_pairs):
        assert apac(reference_pairs[0].a, 0) == 12

    def test_conjugate_symmetry_example(self):
        seq = parse_quaternary("+i")
        assert apac(seq, 1) == 1j
        assert apac(seq, -1) == complex(np.conj(apac(seq, 1))) == -1j

    def test_zero_beyond_length(self):
        assert apac(PLUS_PLUS, 2) == 0
        assert apac(PLUS_PLUS, -5) == 0

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            is_gcp([], [])

    @given(complex_sequences, st.integers(min_value=-20, max_value=20))
    def test_conjugate_symmetry(self, seq, k):
        assert apac(seq, -k) == pytest.approx(complex(np.conj(apac(seq, k))), abs=1e-9)

    @given(quaternary_strings)
    def test_exact_gaussian_integers_on_quaternary(self, text):
        vec = _autocorrelations(parse_quaternary(text))
        assert np.array_equal(vec.real, np.round(vec.real))
        assert np.array_equal(vec.imag, np.round(vec.imag))

    def test_lag_zero_is_energy(self):
        seq = np.array([1.0, 2.0j, -3.0])
        assert apac(seq, 0) == pytest.approx(14.0)


class TestApacVector:
    """``seqcore._autocorrelations``, the direct kernel behind :func:`is_gcp`,
    the library loader and the orbits: lags 1 .. N-1 of every row of a stack."""

    @pytest.mark.parametrize("length", [1, 2, 12, 64, 65])
    def test_equals_explicit_loop_on_quaternary(self, length):
        rng = np.random.default_rng(length)
        stack = QUATERNARY[rng.integers(4, size=(2, 3, length))]
        expected = [[[apac(seq, k) for k in range(1, length)] for seq in rows] for rows in stack]
        assert np.array_equal(_autocorrelations(stack), np.array(expected).reshape(2, 3, -1))
        assert np.array_equal(_autocorrelations(stack[0, 1]), expected[0][1])

    def test_matches_explicit_loop_on_unimodular(self):
        rng = np.random.default_rng(13)
        for length in (3, 12, 40, 100):
            seq = random_unimodular(rng, length)
            expected = np.array([apac(seq, k) for k in range(1, length)])
            assert np.max(np.abs(_autocorrelations(seq) - expected)) < 1e-12

    def test_float_is_gcp_decisions(self, reference_pairs):
        # A rotated reference pair goes through the float path of is_gcp;
        # a 1e-11 error stays within its 1e-9 tolerance and 1e-7 does not.
        pair = reference_pairs[0]
        a = pair.a * np.exp(0.3j)
        b = pair.b * np.exp(-1.1j)
        for delta, accepted in ((1e-11, True), (1e-7, False)):
            bent = a.copy()
            bent[4] += delta
            assert is_gcp(bent, b) is accepted


class TestIsGcp:
    def test_classic_binary_pair(self):
        assert is_gcp(PLUS_PLUS, PLUS_MINUS)

    def test_reference_pair_exact(self, reference_pairs):
        assert is_gcp(reference_pairs[0].a, reference_pairs[0].b)

    def test_identical_sequences_fail(self):
        assert not is_gcp(PLUS_PLUS, PLUS_PLUS)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_gcp(PLUS_PLUS, parse_quaternary("+"))

    @pytest.mark.parametrize("a, b", [([[1, 1]], [[1, -1]]), (1.0, 1.0)],
                             ids=["2-D", "0-D"])
    def test_members_must_be_1d(self, a, b):
        # Refused, not flattened into a pair of sequences.
        with pytest.raises(ValueError, match="1-D"):
            is_gcp(a, b)

    def test_energy_sum_for_unimodular_pair(self, reference_pairs):
        pair = reference_pairs[3]
        assert apac(pair.a, 0) + apac(pair.b, 0) == pair.a.size + pair.b.size

    def test_route_follows_the_input(self, monkeypatch):
        # Gaussian-integer members take exact direct sums at any length;
        # float members above length 64 take the FFT.
        routes = []

        def spy(pairs):
            routes.append(pairs.shape[-1])
            return real_fft(pairs)

        real_fft = seqcore._fft_apac_sums
        monkeypatch.setattr(seqcore, "_fft_apac_sums", spy)
        a, b = parse_quaternary("++"), parse_quaternary("+-")
        for _ in range(6):  # length 128 by concatenation
            a, b = np.concatenate([a, b]), np.concatenate([a, -b])
        assert is_gcp(a, b) and not is_gcp(a, np.roll(b, 1))
        assert routes == []
        phase = np.exp(0.3j)
        assert is_gcp(a * phase, b * phase)
        assert routes == [128]

    def test_fft_length_is_the_least_5_smooth_cover(self, monkeypatch):
        def smooth(m):
            for prime in (2, 3, 5):
                while m % prime == 0:
                    m //= prime
            return m == 1

        sizes, fft = [], np.fft.fft
        monkeypatch.setattr(np.fft, "fft",
                            lambda x, n=None, **kw: sizes.append(n) or fft(x, n, **kw))
        lengths = range(1, 1300)
        for n in lengths:
            seqcore._fft_apac_sums(np.ones((2, 1, n), dtype=complex))
        assert sizes == [next(m for m in range(2 * n - 1, 4 * n) if smooth(m)) for n in lengths]
        assert sizes[1092 - 1] == 2187

    def test_fft_kernel_matches_direct_sums(self):
        # Random unimodular pairs, no pair among them, at every length 1-300.
        rng = np.random.default_rng(3)
        for n in range(1, 301):
            pairs = random_unimodular(rng, 2 * 3 * n).reshape(2, 3, n)
            sums = seqcore._fft_apac_sums(pairs)
            assert sums.shape == (3, n - 1)
            assert np.max(np.abs(sums - np.sum(_autocorrelations(pairs), axis=0)),
                          initial=0.0) <= 1e-12

    def test_fft_route_matches_direct_sums_on_constructions(
            self, monkeypatch, small_libraries, reference_pairs, noncoherent_spread,
            coherent_example):
        # Float interlace constructions of lengths 65-300 over several
        # geometries certify through the FFT at the smooth length (at length
        # 65, 2N - 2 = 128 is smooth but one lag short).
        # Its sums agree with the direct ones, also on a one-symbol mutant,
        # which is refused.
        pairs = [(p.a, p.b) for p in [
            combine_gcps(noncoherent_spread, reference_pairs[2],
                         ConstructionParams(phase1=np.exp(0.3j), step1=13, offset=1)),
            combine_gcps(small_libraries[6][3], reference_pairs[4],
                         ConstructionParams(phase2=np.exp(-1.1j), step1=12, offset=20))]]
        for n_null in (0, 2, 7, 20):
            cfg = InterlaceConfig(10, 12, n_null)
            stacks = [interlace._noncoherent_rows(cfg, noncoherent_spread,
                                                  reference_pairs[n_null], [0.5], False),
                      interlace._noncoherent_rows(cfg, noncoherent_spread, reference_pairs[1],
                                                  [2.25], True),
                      interlace._coherent_rows(cfg, *coherent_example,
                                               [(QPSK_PHASES[1], QPSK_PHASES[2])])]
            pairs += [(f, g) for fg in stacks for f, g in zip(*on_grid(cfg, fg))]
        routes = []
        real_fft = seqcore._fft_apac_sums
        monkeypatch.setattr(seqcore, "_fft_apac_sums",
                            lambda p: routes.append(p.shape[-1]) or real_fft(p))
        lengths = []
        for a, b in pairs:
            a, b = np.array(a), np.array(b)
            for mutant in (False, True):
                a[0] *= -1 if mutant else 1  # moves every lag, the last one too
                first, second = _autocorrelations(np.stack([a, b]))
                sums = real_fft(np.stack([a, b])[:, None])[0]
                assert np.max(np.abs(sums - (first + second))) <= 1e-12
            assert not is_gcp(a, b)
            lengths.append(a.size)
        assert routes == lengths
        assert min(lengths) == 65 and max(lengths) == 300 and len(set(lengths)) == 6

    def test_validates_each_member_once(self, as_sequence_calls):
        a, b = parse_quaternary("++-+"), parse_quaternary("+++-")
        for _ in range(5):  # lengths 8 .. 128; at 128 the float pair takes the FFT
            a, b = np.concatenate([a, b]), np.concatenate([a, -b])
            for pair in [(a, b), (a * np.exp(0.3j), b)]:
                as_sequence_calls.clear()
                is_gcp(*pair)
                assert len(as_sequence_calls) == 2

    def test_fft_path_matches_direct(self):
        rng = np.random.default_rng(7)
        # long float pair constructed by concatenation keeps the pair property
        a = np.concatenate([random_unimodular(rng, 40), random_unimodular(rng, 40)])
        n = a.size
        # build mate via reverse-conjugate halves (classic concatenation mate)
        c, d = a[:40], a[40:]
        mate = np.concatenate([np.conj(d[::-1]), -np.conj(c[::-1])])
        direct = all(
            abs(apac(a, k) + apac(mate, k)) <= 1e-9 for k in range(1, n)
        )
        assert is_gcp(a, mate) == direct


class TestFoldedCertificate:
    """What ``interlace._certified_rows`` certifies: the rows of float interlace
    constructions laid out with n_sc - 1 nulls between blocks, where every block
    lag (dq, dt) has a sequence lag of its own.  Their FFT sums are the direct
    ones, and the constructions that cancel there are complementary on the grid
    at null counts below, at and above n_sc - 1 (0, 3 and 10, 11, 40 and 108),
    while a one-symbol mutant is refused at each."""

    @staticmethod
    def constructions(cfg, spread, rb_pair, example):
        """(2, rows, n_rb * n_sc) f and g of both non-coherent layouts and the coherent
        scheme, at float shifts and phases, with a one-symbol mutant row each."""
        stacks = [interlace._noncoherent_rows(cfg, spread, rb_pair, [0.3, 2.25, 7], adjacent)
                  for adjacent in (False, True)]
        stacks.append(interlace._coherent_rows(cfg, *example, [(QUATERNARY[0], QPSK_PHASES[2]),
                                                               (np.exp(0.7j), QPSK_PHASES[1])]))
        for fg in stacks:
            fg = np.array(fg)
            fg[0, -1, 17] *= 1j  # the last row is no pair any more
            yield fg

    @pytest.mark.parametrize("n_null", [0, 3, 10, 11, 40, 108])
    def test_matches_direct_sums(self, n_null, noncoherent_spread, reference_pairs,
                                 coherent_example):
        cfg = InterlaceConfig(10, 12, n_null)
        spaced_cfg = InterlaceConfig(10, 12, 11)
        for fg in self.constructions(cfg, noncoherent_spread, reference_pairs[4], coherent_example):
            spaced = on_grid(spaced_cfg, fg)
            sums = seqcore._fft_apac_sums(spaced)
            first, second = _autocorrelations(spaced)
            assert np.max(np.abs(sums - (first + second))) <= 1e-12
            f, g = spaced[:, -1]  # the mutant, term by term at every lag
            oracle = [apac(f, k) + apac(g, k) for k in range(1, spaced_cfg.grid_size)]
            assert np.max(np.abs(sums[-1] - oracle)) <= 1e-12
            peaks = np.max(np.abs(sums), axis=1)
            assert np.all(peaks[:-1] <= 1e-12) and peaks[-1] > 1.0
            dense = on_grid(cfg, fg)
            assert [is_gcp(f, g) for f, g in zip(*dense)] == [True] * (fg.shape[1] - 1) + [False]


class TestCyclicModulate:
    """``seqcore._modulate``, the cyclic modulation of the interlace builders."""

    def test_zero_shift_identity(self):
        x = random_unimodular(np.random.default_rng(0), 12)
        assert np.array_equal(_modulate(x, 0), x)

    def test_full_period_identity(self):
        x = random_unimodular(np.random.default_rng(1), 12)
        assert np.array_equal(_modulate(x, 12), x)

    def test_integer_shifts_orthogonal(self):
        x = random_unimodular(np.random.default_rng(2), 12)
        for d1 in range(3):
            for d2 in range(3):
                ip = np.vdot(_modulate(x, d1), _modulate(x, d2))
                if d1 == d2:
                    assert ip == pytest.approx(12.0)
                else:
                    assert abs(ip) == pytest.approx(0.0, abs=1e-9)

    def test_preserves_modulus(self):
        x = np.array([0.5, 2.0, 1.0j])
        out = _modulate(x, 0.37)
        assert np.allclose(np.abs(out), np.abs(x))

    def test_preserves_pair_property(self, reference_pairs):
        pair = reference_pairs[7]
        for delta in (1, 5, 2.5):
            assert is_gcp(_modulate(pair.a, delta), _modulate(pair.b, delta))


class TestSerialization:
    @given(quaternary_strings)
    def test_symbol_roundtrip(self, text):
        assert format_quaternary(parse_quaternary(text)) == text

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(symbol_stacks, st.data())
    def test_stacked_codec_is_the_one_row_codec_per_row(self, texts, data):
        n = len(texts[0])
        values = _parse_symbols(texts, n)
        assert np.array_equal(values, np.stack([parse_quaternary(text) for text in texts]))
        codes = [[QUATERNARY_SYMBOLS.index(symbol) for symbol in text] for text in texts]
        assert _format_symbols(np.array(codes)) == texts
        # Replace one or more drawn characters; the error names the first in row order.
        spots = data.draw(st.lists(st.tuples(st.integers(0, len(texts) - 1),
                                             st.integers(0, n - 1), foreign_characters),
                                   min_size=1, max_size=3))
        rows = [list(text) for text in texts]
        for row, column, character in spots:
            rows[row][column] = character
        row, column = min((row, column) for row, column, _ in spots)
        character = rows[row][column]
        with pytest.raises(ValueError) as info:
            _parse_symbols(["".join(chars) for chars in rows], n, "row {}: ")
        assert str(info.value) == f"row {row}: invalid quaternary symbol {character!r}"
        with pytest.raises(ValueError) as info:
            parse_quaternary("".join(rows[row]))
        assert str(info.value) == f"invalid quaternary symbol {character!r}"

    def test_bad_symbol(self):
        with pytest.raises(ValueError):
            parse_quaternary("+x")

    @pytest.mark.parametrize("value", [["+", "-"], {"+": 0}, 12])
    def test_parse_rejects_non_strings(self, value):
        # Only a string formats back to itself, which the cache loader relies on.
        with pytest.raises(TypeError):
            parse_quaternary(value)

    def test_json_roundtrip(self):
        seq = np.array([1.5 - 2j, 0.25j])
        assert np.array_equal(sequence_from_json([[1.5, -2.0], [0.0, 0.25]]), seq)

    @pytest.mark.parametrize("data, message", [
        ([[True, 0.0]], "coordinate True is not a number"),
        ([[1.0, False]], "coordinate False is not a number"),
        ([["1", 0.0]], "coordinate '1' is not a number"),
        ([[None, 0.0]], "coordinate None is not a number"),
        ([[10**400, 0.0]], "coordinate too large for a float"),
        ([[1.0, -(10**309)]], "coordinate too large for a float"),
    ], ids=["true", "false", "string", "null", "huge", "huge-negative"])
    def test_json_coordinates_are_finite_numbers(self, data, message):
        with pytest.raises(ValueError, match=message):
            sequence_from_json(data)

    def test_json_accepts_symbol_strings(self):
        assert np.array_equal(sequence_from_json("+j"), parse_quaternary("+j"))

    def test_format_rejects_non_quaternary(self):
        with pytest.raises(ValueError):
            format_quaternary(np.array([0.5 + 0.5j]))

    def test_format_tolerates_rounding_near_symbols(self):
        values = np.array([1 + 1e-12j, -1 - 1e-13, 1e-12 + 1j, 1e-14 - 1j, 1.0])
        assert format_quaternary(values) == "+-ij+"

    def test_format_names_first_non_quaternary_element(self):
        with pytest.raises(ValueError, match=r"element \(0\.5\+0\.5j\) is not a quaternary"):
            format_quaternary(np.array([1.0, 0.5 + 0.5j, 2.0, 1j]))
