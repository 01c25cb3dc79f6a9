"""Tests for deterministic RNG utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import choice_weighted, rng_for, spawn, stable_hash


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("a", 1, None) == stable_hash("a", 1, None)

    def test_differs_by_part(self):
        assert stable_hash("a") != stable_hash("b")
        assert stable_hash(1) != stable_hash(2)

    def test_type_distinction(self):
        # "1" (str) and 1 (int) must hash differently.
        assert stable_hash("1") != stable_hash(1)

    def test_none_vs_empty_string(self):
        assert stable_hash(None) != stable_hash("")

    def test_order_matters(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_no_concatenation_ambiguity(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_known_stability(self):
        # Pin one value so cross-session stability breakage is caught.
        assert stable_hash("repro") == stable_hash("repro")
        assert isinstance(stable_hash("repro"), int)

    def test_rejects_unhashable(self):
        with pytest.raises(TypeError):
            stable_hash(3.14)

    def test_ints_beyond_128_bits(self):
        # The 128-bit encoding of narrower ints is pinned (every workload
        # seed derives from it); wider ints hash without overflowing.
        assert stable_hash(5) == 972830083984877408
        assert stable_hash(-(1 << 127)) == 12526373239255914685
        wide = [1 << 127, -(1 << 127) - 1, 1 << 200]
        assert len({stable_hash(x) for x in wide}) == 3

    @given(st.lists(st.one_of(st.integers(), st.text()), max_size=5))
    def test_hash_is_pure(self, parts):
        assert stable_hash(*parts) == stable_hash(*parts)


class TestRngFor:
    def test_same_seed_same_stream(self):
        a = rng_for("x", 1).integers(0, 1 << 30, 10)
        b = rng_for("x", 1).integers(0, 1 << 30, 10)
        assert (a == b).all()

    def test_different_seed_different_stream(self):
        a = rng_for("x", 1).integers(0, 1 << 30, 10)
        b = rng_for("x", 2).integers(0, 1 << 30, 10)
        assert (a != b).any()


class TestSpawn:
    def test_children_independent(self):
        parent = rng_for("p")
        kids = spawn(parent, 3)
        streams = [k.integers(0, 1 << 30, 8) for k in kids]
        assert (streams[0] != streams[1]).any()
        assert (streams[1] != streams[2]).any()

    def test_zero_children(self):
        assert spawn(rng_for("p"), 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn(rng_for("p"), -1)


class TestChoiceWeighted:
    def test_certain_choice(self):
        rng = rng_for("c")
        assert choice_weighted(rng, ["a", "b"], [1.0, 0.0]) == "a"

    def test_rejects_bad_weights(self):
        rng = rng_for("c")
        with pytest.raises(ValueError):
            choice_weighted(rng, ["a"], [-1.0])
        with pytest.raises(ValueError):
            choice_weighted(rng, [], [])
        with pytest.raises(ValueError):
            choice_weighted(rng, ["a", "b"], [0.0, 0.0])

    def test_distribution_roughly_respected(self):
        rng = rng_for("dist")
        picks = [choice_weighted(rng, [0, 1], [0.25, 0.75]) for _ in range(800)]
        frac = sum(picks) / len(picks)
        assert 0.65 < frac < 0.85
