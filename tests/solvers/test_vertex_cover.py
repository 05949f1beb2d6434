"""Unit tests for exact minimum-weight hitting sets / vertex covers."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.solvers.vertex_cover import (
    _minimize_family,
    greedy_hitting_set,
    minimum_hitting_set,
)


def brute_force(sets, weights=None):
    elements = sorted({e for group in sets for e in group}, key=repr)
    weight = lambda e: (weights or {}).get(e, 1.0)
    best = None
    for size in range(len(elements) + 1):
        for combo in itertools.combinations(elements, size):
            chosen = set(combo)
            if all(group & chosen for group in sets):
                cost = sum(weight(e) for e in chosen)
                if best is None or cost < best:
                    best = cost
        # Cannot early-exit by size when weighted; keep scanning.
    return best if best is not None else 0.0


class TestBasics:
    def test_empty_family(self):
        assert minimum_hitting_set([]) == (0.0, set())

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            minimum_hitting_set([frozenset()])

    def test_singleton_forced(self):
        value, cover = minimum_hitting_set([frozenset({"a"}), frozenset({"a", "b"})])
        assert value == 1.0
        assert cover == {"a"}

    def test_triangle(self):
        value, cover = minimum_hitting_set(
            [frozenset("ab"), frozenset("bc"), frozenset("ac")]
        )
        assert value == 2.0
        assert len(cover) == 2

    def test_weighted_star(self):
        sets = [frozenset({"c", f"l{i}"}) for i in range(3)]
        value, cover = minimum_hitting_set(sets, weights={"c": 10.0})
        assert value == 3.0
        assert "c" not in cover

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            minimum_hitting_set([frozenset("ab")], weights={"a": 0.0})

    def test_superset_dropped(self):
        # {a,b,c} is implied by {a,b}; answer is a plain vertex cover.
        value, _ = minimum_hitting_set([frozenset("ab"), frozenset("abc")])
        assert value == 1.0

    def test_hypergraph_hub(self):
        value, cover = minimum_hitting_set([frozenset("abc"), frozenset("cde")])
        assert value == 1.0
        assert cover == {"c"}

    def test_cover_is_valid(self):
        sets = [frozenset("ab"), frozenset("bc"), frozenset("cd"), frozenset("ad")]
        _, cover = minimum_hitting_set(sets)
        assert all(group & cover for group in sets)


class TestGreedy:
    def test_greedy_hits_everything(self):
        rng = random.Random(0)
        sets = [
            frozenset(rng.sample(range(10), rng.randint(1, 3))) for _ in range(12)
        ]
        cover = greedy_hitting_set(sets)
        assert all(group & cover for group in sets)

    def test_greedy_upper_bounds_optimum(self):
        sets = [frozenset("ab"), frozenset("bc"), frozenset("ac")]
        greedy = greedy_hitting_set(sets)
        optimal, _ = minimum_hitting_set(sets)
        assert len(greedy) >= optimal


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_pair_instances(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        sets = sorted(
            {
                frozenset(rng.sample(range(n), 2))
                for _ in range(rng.randint(2, 2 * n))
            },
            key=sorted,
        )
        value, cover = minimum_hitting_set(sets)
        assert value == pytest.approx(brute_force(sets))
        assert all(group & cover for group in sets)

    @pytest.mark.parametrize("seed", range(12, 20))
    def test_random_weighted_instances(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        weights = {e: rng.choice([0.5, 1.0, 2.0, 3.5]) for e in range(n)}
        sets = sorted(
            {
                frozenset(rng.sample(range(n), rng.choice([1, 2, 2, 3])))
                for _ in range(rng.randint(2, 10))
            },
            key=sorted,
        )
        value, cover = minimum_hitting_set(sets, weights)
        assert value == pytest.approx(brute_force(sets, weights))

    @pytest.mark.parametrize("seed", range(20, 26))
    def test_random_hypergraph_instances(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        sets = sorted(
            {
                frozenset(rng.sample(range(n), rng.randint(2, 4)))
                for _ in range(rng.randint(3, 9))
            },
            key=sorted,
        )
        value, cover = minimum_hitting_set(sets)
        assert value == pytest.approx(brute_force(sets))
        assert all(group & cover for group in sets)


# ----------------------------------------------------------------------
# Family minimization: indexed scan == the quadratic reference
# ----------------------------------------------------------------------
def _reference_minimize(sets):
    """The original O(n²) minimization: sort, then scan every kept set."""
    unique = sorted(
        set(sets), key=lambda group: (len(group), repr(sorted(group, key=repr)))
    )
    for group in unique:
        if not group:
            raise ValueError("an empty conflict set makes the instance infeasible")
    kept = []
    for group in unique:
        if not any(other <= group for other in kept):
            kept.append(group)
    return kept


# Mixed element types on purpose: ints whose repr order differs from their
# numeric order (9 vs 10), strings and tuples, so the repr-based sort key
# is exercised beyond the fact-id case.
_elements = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.sampled_from(["a", "b", "c", "ab", "10"]),
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from("xy")),
)
_group = st.frozensets(_elements, min_size=1, max_size=4)


@st.composite
def _families(draw):
    """Families with duplicates, singletons and nested supersets."""
    family = draw(st.lists(_group, max_size=14))
    if family:
        # Duplicates of drawn sets.
        family += draw(st.lists(st.sampled_from(family), max_size=3))
        # Supersets of drawn sets (nested chains included).
        for base in draw(st.lists(st.sampled_from(family), max_size=4)):
            family.append(base | draw(_group))
        # Singletons carved out of drawn sets.
        for base in draw(st.lists(st.sampled_from(family), max_size=3)):
            family.append(frozenset([sorted(base, key=repr)[0]]))
    return draw(st.permutations(family))


class TestMinimizeFamily:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_families())
    def test_matches_quadratic_reference(self, family):
        assert _minimize_family(family) == _reference_minimize(family)

    @settings(max_examples=50, deadline=None)
    @given(_families())
    def test_empty_set_still_rejected(self, family):
        with pytest.raises(ValueError):
            _minimize_family(family + [frozenset()])

    def test_order_is_repr_order_not_numeric(self):
        family = [frozenset({10, 11}), frozenset({9, 12}), frozenset({9})]
        assert _minimize_family(family) == [frozenset({9}), frozenset({10, 11})]

    def test_equal_width_family_kept_whole(self):
        family = [frozenset("ab"), frozenset("bc"), frozenset("ab")]
        assert _minimize_family(family) == [frozenset("ab"), frozenset("bc")]
