"""Tests for N:M pattern descriptions."""

import pytest

from repro.core.patterns import (
    NMPattern,
    PATTERN_1_2,
    PATTERN_2_4,
    default_pattern_for_dtype,
    pattern_pair_shapes,
    resolve_pattern,
)


class TestNMPattern:
    def test_density_1_2(self):
        assert PATTERN_1_2.density == 0.5
        assert PATTERN_1_2.sparsity == 0.5

    def test_density_2_4(self):
        assert PATTERN_2_4.density == 0.5

    def test_density_general(self):
        assert NMPattern(1, 4).density == 0.25
        assert NMPattern(3, 4).density == 0.75

    def test_invalid_n_ge_m(self):
        with pytest.raises(ValueError):
            NMPattern(2, 2)
        with pytest.raises(ValueError):
            NMPattern(4, 2)

    def test_invalid_nonpositive(self):
        with pytest.raises(ValueError):
            NMPattern(0, 2)
        with pytest.raises(ValueError):
            NMPattern(1, 0)

    def test_name(self):
        assert PATTERN_2_4.name == "2:4"
        assert NMPattern(4, 8).name == "4:8"

    def test_metadata_bits_standard_patterns(self):
        assert PATTERN_1_2.metadata_bits_per_group == 4
        assert PATTERN_2_4.metadata_bits_per_group == 4

    def test_metadata_fraction_matches_paper(self):
        # "the metadata is only 1/16 of the original dense matrix in terms of bits"
        assert PATTERN_2_4.metadata_fraction(element_bits=16) == pytest.approx(1 / 16)
        assert PATTERN_1_2.metadata_fraction(element_bits=32) == pytest.approx(1 / 16)

    def test_validate_length(self):
        PATTERN_2_4.validate_length(128)
        with pytest.raises(ValueError):
            PATTERN_2_4.validate_length(130)

    def test_padded_rounds_up_to_whole_groups(self):
        assert [PATTERN_2_4.padded(n) for n in (0, 1, 3, 4, 5, 130)] == [0, 4, 4, 4, 8, 132]
        assert PATTERN_1_2.padded(129) == 130

    def test_groups_and_kept(self):
        assert PATTERN_2_4.groups(128) == 32
        assert PATTERN_2_4.kept(128) == 64
        assert PATTERN_1_2.kept(128) == 64
        assert NMPattern(1, 4).kept(128) == 32

    def test_hashable_and_frozen(self):
        assert hash(NMPattern(2, 4)) == hash(PATTERN_2_4)
        with pytest.raises(Exception):
            PATTERN_2_4.n = 3  # frozen dataclass


class TestResolvePattern:
    def test_from_string(self):
        assert resolve_pattern("2:4") == PATTERN_2_4
        assert resolve_pattern("1:2") == PATTERN_1_2
        assert resolve_pattern("4:8") == NMPattern(4, 8)

    def test_from_alias(self):
        assert resolve_pattern("2_4") == PATTERN_2_4

    def test_from_tuple(self):
        assert resolve_pattern((1, 4)) == NMPattern(1, 4)
        assert resolve_pattern([2, 4]) == PATTERN_2_4

    def test_identity(self):
        assert resolve_pattern(PATTERN_1_2) is PATTERN_1_2

    def test_invalid_string(self):
        with pytest.raises(ValueError):
            resolve_pattern("dense")

    def test_invalid_type(self):
        with pytest.raises(TypeError):
            resolve_pattern(3.5)


class TestDefaults:
    def test_float32_defaults_to_1_2(self):
        assert default_pattern_for_dtype("float32") == PATTERN_1_2
        assert default_pattern_for_dtype("float") == PATTERN_1_2

    def test_bfloat16_defaults_to_2_4(self):
        assert default_pattern_for_dtype("bfloat16") == PATTERN_2_4
        assert default_pattern_for_dtype("float16") == PATTERN_2_4

    def test_unknown_dtype(self):
        with pytest.raises(ValueError):
            default_pattern_for_dtype("int8")

    def test_pair_shapes(self):
        assert pattern_pair_shapes(256, 512, PATTERN_2_4) == (256, 256)
