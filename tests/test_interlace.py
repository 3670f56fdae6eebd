import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csinterlace import cli, golay, interlace, linksim
from csinterlace.golay import CertificationError, GolayPair
from csinterlace.interlace import (
    SCHEMES,
    InterlaceConfig,
    PILOT_PHASE,
    QPSK_PHASES,
    SparseSpectrum,
    cycling_baseline,
    payload_phase,
    rb_values,
    zadoff_chu_set,
    zc_sequence,
)
from csinterlace.linksim import SimConfig
from csinterlace.metrics import papr_db, synthesize
from csinterlace.seqcore import _modulate, is_gcp, parse_quaternary
from helpers import sha256

PAPR_BOUND = 10 * np.log10(2.0) + 1e-6


def build(scheme, cfg, member, resource) -> SparseSpectrum:
    """The spectrum of one resource of a scheme: the one-row stack."""
    (values,) = SCHEMES[scheme].build(cfg, member, [resource])
    return SparseSpectrum(cfg.support(), values, cfg.grid_size)


class TestInterlaceConfig:
    def test_lte_geometry(self, lte_config):
        assert lte_config.grid_size == 1092
        assert lte_config.rb_spacing == 120

    def test_support_structure(self):
        cfg = InterlaceConfig(3, 2, 4)
        assert np.array_equal(cfg.support(), [0, 1, 6, 7, 12, 13])

    @pytest.mark.parametrize("kwargs", [
        {"n_rb": 1, "n_sc": 12}, {"n_rb": 10, "n_sc": 1}, {"n_rb": 10, "n_sc": 12, "n_null": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            InterlaceConfig(**kwargs)


class TestSparseSpectrum:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseSpectrum(np.array([3, 1]), np.array([1.0, 1.0j]), 8)
        with pytest.raises(ValueError):
            SparseSpectrum(np.array([0, 9]), np.array([1.0, 1.0]), 8)

    def test_json_roundtrip(self):
        spectrum = SparseSpectrum(np.array([0, 2]), np.array([1.0 + 1j, -2.0]), 4)
        payload = json.loads(json.dumps(spectrum.to_json_dict()))
        assert payload == {"grid_size": 4, "entries": [[0, [1.0, 1.0]], [2, [-2.0, 0.0]]]}


class TestRbValues:
    def test_one_row_per_block(self, lte_config):
        values = np.arange(120, dtype=complex)
        spectrum = SparseSpectrum(lte_config.support(), values, lte_config.grid_size)
        assert np.array_equal(rb_values(spectrum, lte_config), values.reshape(10, 12))

    @pytest.mark.parametrize("indices, grid_size", [
        (InterlaceConfig(10, 12, 108).support(), 1093), (np.arange(120), 1092),
    ], ids=["other grid", "other tones"])
    def test_other_pattern_rejected(self, lte_config, indices, grid_size):
        spectrum = SparseSpectrum(indices, np.ones(120), grid_size)
        with pytest.raises(ValueError, match="does not occupy"):
            rb_values(spectrum, lte_config)


class TestNoncoherentBuilder:
    def test_lte_support_and_bound(self, lte_config, reference_pairs):
        assert SCHEMES["noncoherent"].build(lte_config, reference_pairs[0], [0]).shape == (1, 120)
        spectrum = build("noncoherent", lte_config, reference_pairs[0], 0)
        assert rb_values(spectrum, lte_config).shape == (10, 12)
        assert papr_db(synthesize(spectrum, 4096)) <= PAPR_BOUND

    def test_degenerate_concatenation(self):
        cfg = InterlaceConfig(2, 2, 0)
        spread = GolayPair.from_strings("+", "+")
        rb_pair = GolayPair.from_strings("++", "+-")
        f, g = interlace._noncoherent_rows(cfg, spread, rb_pair, [0], False)[:, 0]
        assert np.allclose(f, PILOT_PHASE * parse_quaternary("+++-"))
        assert is_gcp(f, g)

    def test_shift_modulates_blocks(self, lte_config, reference_pairs):
        base = build("noncoherent", lte_config, reference_pairs[0], 0)
        shifted = build("noncoherent", lte_config, reference_pairs[0], 6)
        assert np.array_equal(base.indices, shifted.indices)
        expected = np.tile(np.exp(2j * np.pi * np.arange(12) * 6 / 12), 10)
        assert np.allclose(shifted.values, base.values * expected)
        assert papr_db(synthesize(shifted, 4096)) <= PAPR_BOUND

    def test_fractional_shift_keeps_bound(self, lte_config, reference_pairs):
        spectrum = build("noncoherent", lte_config, reference_pairs[1], 3.5)
        assert papr_db(synthesize(spectrum, 4096)) <= PAPR_BOUND

    def test_certified_members_are_not_validated_again(
            self, as_sequence_calls, lte_config, noncoherent_spread, reference_pairs):
        # The members are certified pairs, and the fold certifies the output
        # from its block matrices: no sequence is validated.
        SCHEMES["noncoherent"].build(lte_config, reference_pairs[0], [0.5])
        assert len(as_sequence_calls) == 0

    def test_pair_mate_is_complementary(self, lte_config, noncoherent_spread, reference_pairs):
        f, g = interlace._noncoherent_rows(lte_config, noncoherent_spread, reference_pairs[2],
                                           [5], False)[:, 0]
        assert is_gcp(f, g)

    def test_odd_block_count_rejected(self, noncoherent_spread, reference_pairs):
        cfg = InterlaceConfig(5, 12, 108)
        with pytest.raises(ValueError):
            interlace._noncoherent_rows(cfg, noncoherent_spread, reference_pairs[0], [0], False)

    def test_length_mismatches_rejected(self, lte_config, reference_pairs):
        bad_spread = GolayPair.from_strings("++", "+-")
        with pytest.raises(ValueError):
            interlace._noncoherent_rows(lte_config, bad_spread, reference_pairs[0], [0], False)
        with pytest.raises(ValueError):
            interlace._noncoherent_rows(lte_config, GolayPair.from_strings("+++ji", "+i-+j"),
                                        GolayPair.from_strings("++", "+-"), [0], False)


class TestAdjacentVariant:
    def test_same_support_as_standard(self, lte_config, reference_pairs):
        standard = build("noncoherent", lte_config, reference_pairs[0], 0)
        adjacent = build("noncoherent-adjacent", lte_config, reference_pairs[0], 0)
        assert np.array_equal(standard.indices, adjacent.indices)

    def test_blocks_alternate(self, lte_config, reference_pairs):
        pair = reference_pairs[0]
        spectrum = build("noncoherent-adjacent", lte_config, pair, 0)
        blocks = rb_values(spectrum, lte_config)
        # even blocks carry phase-rotated copies of the first member,
        # odd blocks of the second: modulus-1 ratios must be constant per block
        for r in range(10):
            source = pair.a if r % 2 == 0 else pair.b
            ratio = blocks[r] / source
            assert np.allclose(ratio, ratio[0])

    def test_bound_over_all_pairs(self, lte_config, reference_pairs):
        for pair in reference_pairs:
            spectrum = build("noncoherent-adjacent", lte_config, pair, 0)
            assert papr_db(synthesize(spectrum, 4096)) <= PAPR_BOUND


class TestCoherentBuilder:
    def test_lte_structure(self, lte_config, coherent_example):
        spread, half = coherent_example
        phases = (PILOT_PHASE, complex(QPSK_PHASES[2]))
        spectrum = build("coherent", lte_config, (spread, half), phases)
        blocks = rb_values(spectrum, lte_config)  # raises off the interlace pattern
        for r in range(10):
            assert np.allclose(blocks[r][0::2], phases[0] * spread.a[r] * half.a)
            assert np.allclose(blocks[r][1::2], phases[1] * spread.b[r] * half.b)

    def test_all_payloads_bounded(self, lte_config, coherent_example):
        spread, half = coherent_example
        for w1 in QPSK_PHASES:
            for w2 in QPSK_PHASES:
                spectrum = build("coherent", lte_config, (spread, half), (w1, w2))
                assert papr_db(synthesize(spectrum, 4096)) <= PAPR_BOUND

    def test_mate_complementary(self, lte_config, coherent_example):
        spread, half = coherent_example
        f, g = interlace._coherent_rows(lte_config, spread, half, [(PILOT_PHASE, PILOT_PHASE)])[:, 0]
        assert is_gcp(f, g)

    def test_multiple_access_shifts(self, coherent_example):
        _, half = coherent_example
        for delta in range(half.length):
            assert is_gcp(_modulate(half.a, delta), _modulate(half.b, delta))

    def test_odd_block_size_rejected(self, coherent_example):
        spread, half = coherent_example
        with pytest.raises(ValueError):
            interlace._coherent_rows(InterlaceConfig(10, 13, 107), spread, half, [(1.0, 1.0)])


class TestFlexibility:
    @pytest.mark.parametrize("n_null", [0, 1, 54, 108, 200])
    def test_any_null_count_keeps_bound(self, n_null, reference_pairs):
        cfg = InterlaceConfig(10, 12, n_null)
        spectrum = build("noncoherent", cfg, reference_pairs[0], 0)
        assert rb_values(spectrum, cfg).shape == (10, 12)
        assert papr_db(synthesize(spectrum, 4096)) <= PAPR_BOUND


class TestStackedBuilder:
    """``Scheme.build`` places a member once per resource as one stack: the
    bytes of the one-resource builds, each row certified once by the block
    fold, and a mutant row refused by its resource."""

    @pytest.mark.parametrize("n_null", [108, 0, 3, 11, 40])
    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_stack_bytes_are_the_one_resource_builds(self, name, n_null):
        cfg = InterlaceConfig(10, 12, n_null)
        scheme = SCHEMES[name]
        resources = [resource for _, resource in scheme.resources(cfg)]
        if name.startswith("noncoherent"):
            resources += [0.3, 0.5, 2.25, -1]
        for member in scheme.members(cfg)[:4]:
            stack = scheme.build(cfg, member, resources)
            assert stack.shape == (len(resources), 120)
            singles = b"".join(scheme.build(cfg, member, [r]).tobytes() for r in resources)
            assert sha256(stack.tobytes()) == sha256(singles)

    def test_each_construction_certified_once_by_the_fold(
            self, monkeypatch, lte_config, reference_pairs, noncoherent_spread, coherent_example):
        # The fixtures, certified when loaded, are loaded before counting.
        folds, checks = [], []
        fold, check = interlace._folded_apac_sums, golay.is_gcp

        def counted_fold(blocks, spacing):
            folds.append(blocks.shape[1])
            return fold(blocks, spacing)

        monkeypatch.setattr(interlace, "_folded_apac_sums", counted_fold)
        monkeypatch.setattr(golay, "is_gcp", lambda a, b: checks.append(a.size) or check(a, b))
        assert len(cli._metric_sweep(lte_config, SCHEMES, 2048)) == 796
        linksim.run_sim(SimConfig(scheme="coherent", snr_grid_db=(0.0,), n_trials=10,
                                  calibration_trials=2000))
        assert folds == [12] * 60 + [16, 2]  # a stack per member, and the NACK/ACK pair once
        assert checks == []  # no GolayPair is built, of the blocks or of the output

    @pytest.mark.parametrize("n_null", [108, 0, 3])
    @pytest.mark.parametrize("name", ["noncoherent", "noncoherent-adjacent", "coherent"])
    def test_mutant_row_refused_by_its_resource(self, monkeypatch, name, n_null):
        cfg = InterlaceConfig(10, 12, n_null)
        scheme = SCHEMES[name]
        resources = [resource for _, resource in scheme.resources(cfg)]
        member, taps = scheme.members(cfg)[0], interlace._combine_taps
        for row in (0, 5, len(resources) - 1):
            def one_symbol_flipped(*args, row=row):
                fg = taps(*args)
                fg[0, row, cfg.support()[30]] *= -1
                return fg

            monkeypatch.setattr(interlace, "_combine_taps", one_symbol_flipped)
            with pytest.raises(CertificationError, match=re.escape(f"{resources[row]!r}:")):
                scheme.build(cfg, member, resources)

    def test_builds_refuse_a_mutant_member(self, lte_config, noncoherent_spread,
                                           reference_pairs, coherent_example):
        # Unchecked pairs with one symbol of the first member turned.
        pair = reference_pairs[0]
        (mutant,) = golay._proven_pairs((pair.a * np.where(np.arange(12) == 3, -1, 1))[None],
                                        pair.b[None].copy())
        with pytest.raises(CertificationError, match="0.5"):
            SCHEMES["noncoherent"].build(lte_config, mutant, [0.5])
        spread, half = coherent_example
        (mutant,) = golay._proven_pairs((half.a * np.where(np.arange(6) == 2, 1j, 1))[None],
                                        half.b[None].copy())
        with pytest.raises(CertificationError):
            SCHEMES["coherent"].build(lte_config, (spread, mutant), [(PILOT_PHASE, PILOT_PHASE)])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_over_drawn_geometries(self, small_libraries, data):
        # Any spreading and block pair, any null count and resources: the
        # construction sits on the support with unit modulus, certifies
        # (by the fold, and again by is_gcp) and keeps the 3 dB bound.
        coherent = data.draw(st.booleans())
        spread = data.draw(st.sampled_from(small_libraries[data.draw(st.integers(2 if coherent
                                                                                 else 1, 6))]))
        block = data.draw(st.sampled_from(small_libraries[data.draw(st.integers(2, 6))]))
        n_null = data.draw(st.integers(0, 40))
        phase = st.sampled_from(list(QPSK_PHASES))
        if coherent:
            cfg = InterlaceConfig(spread.length, 2 * block.length, n_null)
            resources = data.draw(st.lists(st.tuples(phase, phase), min_size=1, max_size=4))
            fg = interlace._coherent_rows(cfg, spread, block, resources)
        else:
            cfg = InterlaceConfig(2 * spread.length, block.length, n_null)
            resources = data.draw(st.lists(st.floats(-block.length, block.length),
                                           min_size=1, max_size=4))
            fg = interlace._noncoherent_rows(cfg, spread, block, resources, data.draw(st.booleans()))
        support = cfg.support()
        assert not np.any(np.delete(fg, support, axis=2))
        assert np.max(np.abs(np.abs(fg[:, :, support]) - 1.0)) <= 1e-12
        n_idft = 1 << (4 * cfg.grid_size - 1).bit_length()
        for f, g in zip(*fg):
            assert is_gcp(f, g)
            wave = synthesize(SparseSpectrum(support, f[support], cfg.grid_size), n_idft)
            assert papr_db(wave) <= 10 * np.log10(2.0) + 1e-9


class TestZadoffChu:
    def test_sequences_unimodular(self):
        for root in (1, 57, 112):
            seq = zc_sequence(root, 120)
            assert np.allclose(np.abs(seq), 1.0)

    def test_cyclic_extension(self):
        seq = zc_sequence(5, 120)
        assert np.allclose(seq[113:], seq[:7])

    def test_root_range(self):
        with pytest.raises(ValueError):
            zc_sequence(0, 120)
        with pytest.raises(ValueError):
            zc_sequence(113, 120)

    def test_best_set_papr_band(self, lte_config):
        spectra = zadoff_chu_set(lte_config)
        assert len(spectra) == 30
        worst = max(papr_db(synthesize(s, 4096)) for s in spectra)
        assert 5.7 <= worst <= 6.3

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError):
            zadoff_chu_set(InterlaceConfig(8, 12, 10))

    def test_ranked_once_per_geometry_and_size(self, lte_config, monkeypatch):
        zadoff_chu_set.cache_clear()
        ranked = []
        monkeypatch.setattr(interlace, "papr_db", lambda wave: ranked.append(1) or 0.0)
        try:
            spectra = zadoff_chu_set(lte_config, 2048)
            assert zadoff_chu_set(InterlaceConfig(10, 12, 108), 2048) is spectra
        finally:
            zadoff_chu_set.cache_clear()  # the stub's ranking goes with it
        assert len(ranked) == 112

    def test_cached_spectra_are_read_only(self, lte_config):
        spectrum = zadoff_chu_set(lte_config)[0]
        for array in (spectrum.indices, spectrum.values):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestCyclingBaseline:
    def test_first_block_unmodified(self, lte_config, reference_pairs):
        base = reference_pairs[0].a
        blocks = rb_values(cycling_baseline(lte_config, base), lte_config)
        assert np.array_equal(blocks[0], base)
        assert np.allclose(blocks[3], _modulate(base, 3))

    def test_support_matches_interlace(self, lte_config, reference_pairs):
        spectrum = cycling_baseline(lte_config, reference_pairs[0].a)
        assert rb_values(spectrum, lte_config).shape == (10, 12)

    def test_validates_the_base_once(self, as_sequence_calls, lte_config, reference_pairs):
        cycling_baseline(lte_config, reference_pairs[0].a)
        assert len(as_sequence_calls) == 1

    def test_no_papr_guarantee(self, lte_config, reference_pairs):
        worst = max(
            papr_db(synthesize(cycling_baseline(lte_config, p.a), 4096))
            for p in reference_pairs
        )
        assert worst > 10 * np.log10(2.0)


class TestUciPayload:
    """The data phase of a coherent payload (:func:`payload_phase`)."""

    def test_coherent_phases(self):
        data = payload_phase(1, 1)
        assert data == pytest.approx(complex(QPSK_PHASES[3]))
        assert abs(data + payload_phase(1, 0)) < 1e-12
        assert payload_phase(1, 0) == PILOT_PHASE

    def test_one_bit_phases_are_the_simulated_ones(self):
        # build-interlace places what the link simulator sends, bit for bit.
        assert [payload_phase(1, v) for v in (0, 1)] == list(SCHEMES["coherent"].one_bit)

    def test_two_bit_alphabet(self):
        seen = {payload_phase(2, v) for v in range(4)}
        assert len(seen) == 4

    @pytest.mark.parametrize("kwargs", [
        {"bits": 1, "value": -1},
        {"bits": 3, "value": 0},
        {"bits": 1, "value": 2},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            payload_phase(**kwargs)
