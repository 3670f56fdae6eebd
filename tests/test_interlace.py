import json
import re
import tracemalloc

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
    zadoff_chu_set,
    zc_sequence,
)
from csinterlace.linksim import SimConfig
from csinterlace.metrics import papr_db, synthesize
from csinterlace.seqcore import _modulate, is_gcp, parse_quaternary
from helpers import (
    ZC_LENGTH,
    coherent_model,
    cycling_model,
    dft_synthesis_oracle,
    noncoherent_model,
    on_grid,
    sha256,
    zc_model,
)

PAPR_BOUND = 10 * np.log10(2.0) + 1e-6


def on_support(cfg, values) -> SparseSpectrum:
    return SparseSpectrum(cfg.support(), values, cfg.grid_size)


def build(scheme, cfg, member, resource) -> SparseSpectrum:
    """The spectrum of one resource of a scheme: the one-row stack."""
    (values,) = SCHEMES[scheme].build(cfg, member, [resource])
    return on_support(cfg, values)


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

    def test_last_tone_index_fits_in_int64(self):
        # 2**63 tones end at index 2**63 - 1; one more tone would wrap.
        cfg = InterlaceConfig(2, 2, 2**63 - 4)
        assert cfg.support().tolist() == [0, 1, 2**63 - 2, 2**63 - 1]
        for geometry in ((2, 2, 2**63 - 3), (10, 12, 2**62), (2**62, 4, 0), (2, 2**63, 0)):
            with pytest.raises(ValueError, match="64-bit tone indices"):
                InterlaceConfig(*geometry)


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


class TestNoncoherentBuilder:
    def test_lte_support_and_bound(self, lte_config, reference_pairs):
        assert SCHEMES["noncoherent"].build(lte_config, reference_pairs[0], [0]).shape == (1, 120)
        spectrum = build("noncoherent", lte_config, reference_pairs[0], 0)
        assert np.array_equal(spectrum.indices, lte_config.support())
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
        # The members are certified pairs, and the router certifies the
        # output's rows as they are: no sequence is validated.
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
        blocks = spectrum.values.reshape(10, 12)
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
        blocks = spectrum.values.reshape(10, 12)
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
        assert spectrum.values.shape == (120,) and spectrum.indices[-1] == cfg.grid_size - 1
        assert papr_db(synthesize(spectrum, 4096)) <= PAPR_BOUND


class TestReferenceModel:
    """Every build of the proposed schemes, each member at each sweep resource,
    against the block-by-block models of :mod:`helpers`, at null counts below,
    at and above n_sc - 1."""

    @pytest.mark.parametrize("n_null", [0, 3, 11, 108])
    @pytest.mark.parametrize("name", ["noncoherent", "noncoherent-adjacent", "coherent"])
    def test_builds_match_the_model(self, name, n_null, noncoherent_spread):
        cfg = InterlaceConfig(10, 12, n_null)
        scheme = SCHEMES[name]
        resources = [resource for _, resource in scheme.resources(cfg)]
        for member in scheme.members(cfg):
            if name == "coherent":
                model = [coherent_model(cfg, *member, phases) for phases in resources]
            else:
                model = [noncoherent_model(cfg, noncoherent_spread, member, shift,
                                           adjacent=name.endswith("adjacent"))
                         for shift in resources]
            stack = scheme.build(cfg, member, resources)
            assert np.max(np.abs(stack - np.array(model)[:, cfg.support()])) <= 1e-12

    @pytest.mark.parametrize("geometry", [(10, 12, 108), (20, 12, 3)], ids=str)
    def test_cycling_matches_the_model(self, geometry, reference_pairs):
        # At 20 blocks, blocks 12-19 shift by a full period and more.
        cfg = InterlaceConfig(*geometry)
        for pair in reference_pairs:
            (row,) = SCHEMES["cycling"].build(cfg, pair, [None])
            assert np.max(np.abs(on_grid(cfg, row) - cycling_model(cfg, pair.a))) <= 1e-12

    def test_zc_rows_are_the_lowest_papr_roots(self, lte_config):
        # The build's phase arguments reach 4e4 rad unreduced, so its
        # values round at about 1e-11; the model reduces them exactly.
        formula = np.array([zc_model(root, 120) for root in range(1, ZC_LENGTH)])
        samples = np.abs(dft_synthesis_oracle(lte_config.support(), formula, 4096)) ** 2
        papr = 10 * np.log10(samples.max(axis=1) / samples.mean(axis=1))
        members = SCHEMES["zc"].members(lte_config)
        kept = [int(np.argmin(np.max(np.abs(formula - row), axis=1))) for row in members]
        rows = np.concatenate([SCHEMES["zc"].build(lte_config, row, [None]) for row in members])
        assert np.max(np.abs(rows - formula[kept])) <= 1e-10
        others = np.setdiff1d(np.arange(ZC_LENGTH - 1), kept)
        assert len(set(kept)) == 30 and np.max(papr[kept]) <= np.min(papr[others]) + 1e-9


class TestStackedBuilder:
    """``Scheme.build`` places a member once per resource as one stack: the
    bytes of the one-resource builds at any null count, each row certified
    once for every null count, and a mutant row refused by its resource."""

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

    @pytest.mark.parametrize("name", ["noncoherent", "noncoherent-adjacent", "coherent"])
    def test_build_memory_follows_the_support(self, name):
        # A member's build over all its resources peaks alike at 108 nulls
        # and at a million: no array the size of the grid is made.
        scheme, peaks = SCHEMES[name], []
        for n_null in (108, 108, 10**6):  # the first build reads the fixtures
            cfg = InterlaceConfig(10, 12, n_null)
            member, resources = scheme.members(cfg)[0], [r for _, r in scheme.resources(cfg)]
            tracemalloc.start()
            try:
                scheme.build(cfg, member, resources)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) <= 0.1 * peaks[1]

    @pytest.mark.parametrize("name", ["noncoherent", "noncoherent-adjacent", "coherent"])
    def test_stack_bytes_are_the_same_at_every_null_count(self, name):
        scheme = SCHEMES[name]
        for member in scheme.members(InterlaceConfig(10, 12)):
            stacks = {scheme.build(cfg, member, [r for _, r in scheme.resources(cfg)]).tobytes()
                      for cfg in (InterlaceConfig(10, 12, n) for n in (0, 3, 108, 10**6))}
            assert len(stacks) == 1

    def test_certificate_holds_at_every_spacing(self, monkeypatch, library_12_pairs):
        # Each length-12 library pair, split into two blocks of six, is
        # complementary with its blocks touching; only 768 of the 1,152 are
        # at spacings 7, 10, 11 and 17.  The certificate accepts those alone,
        # even at n_null = 0.
        fg = np.array([[parse_quaternary(a), parse_quaternary(b)]
                       for a, b in library_12_pairs]).transpose(1, 0, 2)
        complementary = [[is_gcp(f, g) for f, g in zip(*on_grid(InterlaceConfig(2, 6, n), fg))]
                         for n in (0, 1, 4, 5, 11)]
        assert fg.shape == (2, 1152, 12) and all(complementary[0])
        kept = np.array(complementary[1])
        assert kept.sum() == 768 and all(c == complementary[1] for c in complementary[2:])
        cfg = InterlaceConfig(2, 6, 0)
        monkeypatch.setattr(interlace, "_combine_taps", lambda *args: fg[:, kept])
        interlace._certified_rows(cfg, None, None, None, None, None, [])
        for index in np.flatnonzero(~kept).tolist():
            monkeypatch.setattr(interlace, "_combine_taps", lambda *args: fg[:, index:index + 1])
            with pytest.raises(CertificationError, match=f"resource {index}:"):
                interlace._certified_rows(cfg, None, None, None, None, None, [index])

    def test_each_construction_certified_once_by_the_fold(
            self, monkeypatch, lte_config, reference_pairs, noncoherent_spread, coherent_example):
        # The fixtures, certified when loaded, are loaded before counting.
        certified, checks = [], []
        route, check = interlace._noncomplementary, golay.is_gcp

        def counted_route(a_rows, b_rows):
            certified.append(len(a_rows))
            return route(a_rows, b_rows)

        monkeypatch.setattr(interlace, "_noncomplementary", counted_route)
        monkeypatch.setattr(golay, "is_gcp", lambda a, b: checks.append(a.size) or check(a, b))
        assert len(cli._metric_sweep(lte_config, SCHEMES, 2048)) == 796
        linksim.run_sim(SimConfig(scheme="coherent", snr_grid_db=(0.0,), n_trials=10,
                                  calibration_trials=2000))
        assert certified == [12] * 60 + [16, 2]  # a stack per member, and the NACK/ACK pair once
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
                fg[0, row, 30] *= -1
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
        # (once for every null count, and again by is_gcp at this one) and
        # keeps the 3 dB bound.
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
        assert fg.shape == (2, len(resources), cfg.n_rb * cfg.n_sc)
        assert np.max(np.abs(np.abs(fg) - 1.0)) <= 1e-12
        n_idft = 1 << (4 * cfg.grid_size - 1).bit_length()
        for (f, g), values in zip(zip(*on_grid(cfg, fg)), fg[0]):
            assert is_gcp(f, g)
            assert papr_db(synthesize(on_support(cfg, values), n_idft)) <= 10 * np.log10(2.0) + 1e-9


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
        rows = zadoff_chu_set(lte_config)
        assert rows.shape == (30, 120)
        worst = max(papr_db(synthesize(on_support(lte_config, row), 4096)) for row in rows)
        assert 5.7 <= worst <= 6.3

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError):
            zadoff_chu_set(InterlaceConfig(8, 12, 10))

    def test_ranked_once_per_geometry_and_size(self, lte_config, monkeypatch):
        zadoff_chu_set.cache_clear()
        ranked = []
        monkeypatch.setattr(interlace, "papr_db", lambda wave: ranked.append(1) or 0.0)
        try:
            rows = zadoff_chu_set(lte_config, 2048)
            assert zadoff_chu_set(InterlaceConfig(10, 12, 108), 2048) is rows
        finally:
            zadoff_chu_set.cache_clear()  # the stub's ranking goes with it
        assert len(ranked) == 112

    def test_cached_set_is_read_only(self, lte_config):
        with pytest.raises(ValueError, match="read-only"):
            zadoff_chu_set(lte_config)[0, 0] = 0


class TestCyclingBaseline:
    def test_first_block_unmodified(self, lte_config, reference_pairs):
        base = reference_pairs[0].a
        blocks = cycling_baseline(lte_config, base).reshape(10, 12)
        assert np.array_equal(blocks[0], base)
        assert np.allclose(blocks[3], _modulate(base, 3))

    def test_one_value_per_support_tone(self, lte_config, reference_pairs):
        assert cycling_baseline(lte_config, reference_pairs[0].a).shape == (120,)

    def test_validates_the_base_once(self, as_sequence_calls, lte_config, reference_pairs):
        cycling_baseline(lte_config, reference_pairs[0].a)
        assert len(as_sequence_calls) == 1

    def test_no_papr_guarantee(self, lte_config, reference_pairs):
        worst = max(
            papr_db(synthesize(on_support(lte_config, cycling_baseline(lte_config, p.a)), 4096))
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
