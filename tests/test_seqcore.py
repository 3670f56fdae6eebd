import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from csinterlace import seqcore
from csinterlace.seqcore import (
    apac_vector,
    convolve,
    cyclic_modulate,
    format_quaternary,
    inner_product,
    is_gcp,
    pad,
    parse_quaternary,
    reverse_conjugate,
    sequence_from_json,
    sequence_to_json,
    upsample,
)

from helpers import apac, poly_eval, random_unimodular, unit_circle_points

QUATERNARY = np.array([1.0, -1.0, 1.0j, -1.0j])
PLUS_PLUS = parse_quaternary("++")
PLUS_MINUS = parse_quaternary("+-")

complex_sequences = arrays(
    np.complex128,
    st.integers(min_value=1, max_value=16),
    elements=st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
)

quaternary_strings = st.text(alphabet="+-ij", min_size=1, max_size=12)


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
        with pytest.raises(ValueError):
            apac_vector([])

    @given(complex_sequences, st.integers(min_value=-20, max_value=20))
    def test_conjugate_symmetry(self, seq, k):
        assert apac(seq, -k) == pytest.approx(complex(np.conj(apac(seq, k))), abs=1e-9)

    @given(quaternary_strings)
    def test_exact_gaussian_integers_on_quaternary(self, text):
        vec = apac_vector(parse_quaternary(text))
        assert np.array_equal(vec.real, np.round(vec.real))
        assert np.array_equal(vec.imag, np.round(vec.imag))

    def test_lag_zero_is_energy(self):
        seq = np.array([1.0, 2.0j, -3.0])
        assert apac(seq, 0) == pytest.approx(14.0)


class TestApacVector:
    @pytest.mark.parametrize("length", [1, 2, 12, 64, 65])
    def test_equals_explicit_loop_on_quaternary(self, length):
        rng = np.random.default_rng(length)
        seq = QUATERNARY[rng.integers(4, size=length)]
        expected = np.array([apac(seq, k) for k in range(length)])
        assert np.array_equal(apac_vector(seq), expected)

    def test_matches_explicit_loop_on_unimodular(self):
        rng = np.random.default_rng(13)
        for length in (3, 12, 40, 100):
            seq = random_unimodular(rng, length)
            expected = np.array([apac(seq, k) for k in range(length)])
            assert np.max(np.abs(apac_vector(seq) - expected)) < 1e-12

    def test_float_is_gcp_decisions(self, reference_pairs):
        # A rotated reference pair goes through the float path of is_gcp;
        # a 1e-11 error stays within its 1e-9 tolerance and 1e-7 does not.
        pair = reference_pairs[0]
        a = pair.a * np.exp(0.3j)
        b = pair.b * np.exp(-1.1j)
        for delta, accepted in ((1e-11, True), (1e-7, False)):
            bent = a.copy()
            bent[4] += delta
            assert is_gcp(bent, b, tol=1e-9) is accepted


class TestIsGcp:
    def test_classic_binary_pair(self):
        assert is_gcp(PLUS_PLUS, PLUS_MINUS)

    def test_reference_pair_exact(self, reference_pairs):
        assert is_gcp(reference_pairs[0].a, reference_pairs[0].b, tol=0.0)

    def test_identical_sequences_fail(self):
        assert not is_gcp(PLUS_PLUS, PLUS_PLUS)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_gcp(PLUS_PLUS, parse_quaternary("+"))

    def test_energy_sum_for_unimodular_pair(self, reference_pairs):
        pair = reference_pairs[3]
        assert apac(pair.a, 0) + apac(pair.b, 0) == pair.a.size + pair.b.size

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
        assert is_gcp(a, mate, tol=1e-9) == direct


class TestUpsample:
    def test_identity(self):
        assert np.array_equal(upsample(PLUS_MINUS, 1), PLUS_MINUS)

    def test_two_nulls(self):
        assert np.array_equal(upsample(PLUS_MINUS, 3), np.array([1, 0, 0, -1], dtype=complex))

    def test_length_contract(self):
        assert upsample(np.ones(5), 4).size == 4 * 4 + 1

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            upsample(PLUS_MINUS, 0)

    def test_polynomial_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            seq = rng.normal(size=6) + 1j * rng.normal(size=6)
            k = int(rng.integers(1, 8))
            for z in unit_circle_points(rng, 4):
                assert poly_eval(upsample(seq, k), z) == pytest.approx(
                    poly_eval(seq, z**k), abs=1e-12
                )


class TestReverseConjugate:
    def test_hand_example(self):
        assert np.array_equal(reverse_conjugate(parse_quaternary("+i")), parse_quaternary("j+"))

    @given(complex_sequences)
    def test_involution(self, seq):
        assert np.array_equal(reverse_conjugate(reverse_conjugate(seq)), seq)

    def test_proof_identity(self):
        # poly(rc(a))(z^k) == poly(conj(a))(z^-k) * z^(k(N-1))
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            seq = rng.normal(size=n) + 1j * rng.normal(size=n)
            k = int(rng.integers(1, 6))
            for z in unit_circle_points(rng, 3):
                lhs = poly_eval(reverse_conjugate(seq), z**k)
                rhs = poly_eval(np.conj(seq), z**-k) * z ** (k * (n - 1))
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestConvolve:
    def test_identity_element(self):
        x = np.array([2.0, -1.0j, 3.0])
        assert np.array_equal(convolve(np.array([1.0]), x), x)

    def test_hand_example(self):
        assert np.array_equal(convolve(PLUS_PLUS, PLUS_MINUS), np.array([1, 0, -1], dtype=complex))

    def test_polynomial_product_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.normal(size=int(rng.integers(1, 7))) + 1j * rng.normal()
            b = rng.normal(size=int(rng.integers(1, 7))) + 1j * rng.normal()
            for z in unit_circle_points(rng, 3):
                assert poly_eval(convolve(a, b), z) == pytest.approx(
                    poly_eval(a, z) * poly_eval(b, z), abs=1e-12
                )

    @settings(max_examples=50)
    @given(complex_sequences, complex_sequences)
    def test_commutative(self, a, b):
        assert np.allclose(convolve(a, b), convolve(b, a), atol=1e-12)

    def test_associative_and_exact_on_gaussian_integers(self):
        a = parse_quaternary("+ij")
        b = parse_quaternary("-+")
        c = parse_quaternary("ji-")
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        assert np.array_equal(left, right)
        assert np.array_equal(left.real, np.round(left.real))


class TestPad:
    def test_prepends_nulls(self):
        assert np.array_equal(pad(PLUS_MINUS, 2), np.array([0, 0, 1, -1], dtype=complex))

    def test_zero_pad_identity(self):
        assert np.array_equal(pad(PLUS_MINUS, 0), PLUS_MINUS)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pad(PLUS_MINUS, -1)


class TestCyclicModulate:
    def test_zero_shift_identity(self):
        x = random_unimodular(np.random.default_rng(0), 12)
        assert np.array_equal(cyclic_modulate(x, 0), x)

    def test_full_period_identity(self):
        x = random_unimodular(np.random.default_rng(1), 12)
        assert np.allclose(cyclic_modulate(x, 12), x, atol=1e-12)

    def test_integer_shifts_orthogonal(self):
        x = random_unimodular(np.random.default_rng(2), 12)
        for d1 in range(3):
            for d2 in range(3):
                ip = inner_product(cyclic_modulate(x, d1), cyclic_modulate(x, d2))
                if d1 == d2:
                    assert ip == pytest.approx(12.0)
                else:
                    assert abs(ip) == pytest.approx(0.0, abs=1e-9)

    def test_preserves_modulus(self):
        x = np.array([0.5, 2.0, 1.0j])
        out = cyclic_modulate(x, 0.37)
        assert np.allclose(np.abs(out), np.abs(x))

    def test_preserves_pair_property(self, reference_pairs):
        pair = reference_pairs[7]
        for delta in (1, 5, 2.5):
            assert is_gcp(
                cyclic_modulate(pair.a, delta), cyclic_modulate(pair.b, delta), tol=1e-9
            )


class TestSerialization:
    @given(quaternary_strings)
    def test_symbol_roundtrip(self, text):
        assert format_quaternary(parse_quaternary(text)) == text

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
        assert np.array_equal(sequence_from_json(sequence_to_json(seq)), seq)

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
