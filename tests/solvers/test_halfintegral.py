"""Unit tests for the half-integral vertex-cover LP (Nemhauser–Trotter)."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.solvers.halfintegral import (
    kernel_partition,
    nemhauser_trotter_kernel,
    vertex_cover_lp,
)

from .reference_flow import reference_vertex_cover_lp


class TestSmallGraphs:
    def test_single_edge(self):
        value, x = vertex_cover_lp(["a", "b"], [("a", "b")])
        assert value == pytest.approx(1.0)
        assert sum(x.values()) == Fraction(1)

    def test_triangle_all_halves(self):
        value, x = vertex_cover_lp(list("abc"), [("a", "b"), ("b", "c"), ("a", "c")])
        assert value == pytest.approx(1.5)
        assert all(v == Fraction(1, 2) for v in x.values())

    def test_star_center_is_one(self):
        edges = [("c", f"l{i}") for i in range(4)]
        vertices = ["c"] + [f"l{i}" for i in range(4)]
        value, x = vertex_cover_lp(vertices, edges)
        assert value == pytest.approx(1.0)
        assert x["c"] == Fraction(1)
        assert all(x[f"l{i}"] == 0 for i in range(4))

    def test_weighted_star_prefers_leaves(self):
        edges = [("c", f"l{i}") for i in range(3)]
        vertices = ["c", "l0", "l1", "l2"]
        value, x = vertex_cover_lp(vertices, edges, weights={"c": 10.0})
        assert value == pytest.approx(3.0)
        assert x["c"] == Fraction(0)

    def test_self_loops_forced(self):
        value, x = vertex_cover_lp(["a", "b"], [("a", "b")], self_loops=["a"])
        assert x["a"] == Fraction(1)
        assert x["b"] == Fraction(0)
        assert value == pytest.approx(1.0)

    def test_isolated_vertices_zero(self):
        value, x = vertex_cover_lp(["a", "b", "z"], [("a", "b")])
        assert x["z"] == Fraction(0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            vertex_cover_lp(["a", "b"], [("a", "b")], weights={"a": -1})

    def test_half_integrality(self):
        rng = random.Random(3)
        vertices = list(range(12))
        edges = [tuple(rng.sample(vertices, 2)) for _ in range(20)]
        _, x = vertex_cover_lp(vertices, edges)
        assert all(v in (Fraction(0), Fraction(1, 2), Fraction(1)) for v in x.values())


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_weighted_graphs(self, seed):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        vertices = list(range(n))
        edges = set()
        for _ in range(rng.randint(2, 2 * n)):
            u, v = rng.sample(vertices, 2)
            edges.add((min(u, v), max(u, v)))
        edges = sorted(edges)
        weights = {v: rng.uniform(0.5, 3.0) for v in vertices}
        value, x = vertex_cover_lp(vertices, edges, weights)
        costs = [weights[v] for v in vertices]
        a_ub = []
        for u, v in edges:
            row = [0.0] * n
            row[u] = row[v] = -1.0
            a_ub.append(row)
        reference = linprog(
            costs,
            A_ub=a_ub,
            b_ub=[-1.0] * len(edges),
            bounds=[(0, 1)] * n,
            method="highs",
        )
        assert value == pytest.approx(reference.fun, abs=1e-7)
        # Feasibility of the half-integral assignment.
        for u, v in edges:
            assert x[u] + x[v] >= 1


class TestKernel:
    def test_partition_covers_everything(self):
        rng = random.Random(11)
        vertices = list(range(10))
        edges = sorted(
            {tuple(sorted(rng.sample(vertices, 2))) for _ in range(15)}
        )
        ones, zeros, halves = nemhauser_trotter_kernel(vertices, edges)
        assert ones | zeros | halves == set(vertices)
        assert not (ones & zeros or ones & halves or zeros & halves)
        # No edge is entirely inside `zeros` and no zero-half edges exist.
        for u, v in edges:
            assert not (u in zeros and v in zeros)
            assert not (
                (u in zeros and v in halves) or (v in zeros and u in halves)
            )


def _assert_same_solution(got, expected):
    """Bit-identical value, and the same ``x`` values in the same key order."""
    assert got[0] == expected[0]
    assert list(got[1].items()) == list(expected[1].items())


#: Fractional costs whose sums round, exact ones, zero, tiny ones (flows
#: far below 1 but far above the saturation threshold), and arbitrary floats.
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1e-6, 0.001, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.25]),
    st.floats(min_value=1e-6, max_value=10.0),
)


@st.composite
def _instances(draw):
    """``(vertices, pairs, weights, self_loops)`` in every shape callers use.

    Vertices are ints, strings or tuples; pairs may repeat, come reversed,
    join a vertex to itself, or leave vertices isolated; weights may be
    missing, partial, zero or fractional.
    """
    kind = draw(st.sampled_from(["int", "str", "tuple"]))
    size = draw(st.integers(min_value=1, max_value=14))
    vertices = [
        {"int": i, "str": f"v{i}", "tuple": ("R", i)}[kind] for i in range(size)
    ]
    vertices = draw(st.permutations(vertices))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
            max_size=3 * size,
        )
    )
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    weighted = draw(st.lists(st.sampled_from(vertices), unique=True))
    weights = (
        {vertex: draw(_WEIGHTS) for vertex in weighted}
        if draw(st.booleans())
        else None
    )
    loops = draw(st.lists(st.sampled_from(vertices), max_size=3))
    return vertices, pairs, weights, loops


class TestAgainstReferenceFlow:
    """The double-cover Dinic gives the generic-network LP's exact answer."""

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_instances())
    def test_same_value_and_assignment(self, instance):
        vertices, pairs, weights, loops = instance
        _assert_same_solution(
            vertex_cover_lp(vertices, pairs, weights, self_loops=loops),
            reference_vertex_cover_lp(vertices, pairs, weights, self_loops=loops),
        )

    def test_endpoints_missing_from_vertices_come_last_by_repr(self):
        pairs = [("z", "a"), ("m", "y"), ("a", "m")]
        weights = {"z": 1.0, "m": 0.5, "y": 2.0}
        args = (["a", "q"], pairs, weights)
        _assert_same_solution(
            vertex_cover_lp(*args), reference_vertex_cover_lp(*args)
        )
        assert list(vertex_cover_lp(*args)[1]) == ["a", "q", "m", "y", "z"]

    def test_kernel_partition_accepts_caller_fractions(self):
        x = {"a": Fraction(2, 2), "b": Fraction(0, 5), "c": Fraction(3, 6)}
        assert kernel_partition("abc", x) == ({"a"}, {"b"}, {"c"})

    @pytest.mark.slow
    def test_large_hub_is_identical_and_phase_bound(self):
        """A 3000-vertex hub plus random pairs, fractional weights.

        Blocking-flow phases keep the solve within a small factor of the
        generic network; re-searching from scratch for every augmenting path
        is an order of magnitude slower on this instance.
        """
        rng = random.Random(2024)
        vertices = list(range(3000))
        pairs = [(0, v) for v in range(1, 3000, 3)]
        pairs += [tuple(rng.sample(vertices, 2)) for _ in range(6000)]
        costs = [0.1, 0.2, 0.3, 0.7, 1.0, 1.5, 2.25, 3.0]
        weights = {v: rng.choice(costs) * rng.randint(1, 3) for v in vertices}
        weights[0] = 300.0
        start = time.perf_counter()
        got = vertex_cover_lp(vertices, pairs, weights)
        elapsed = time.perf_counter() - start
        start = time.perf_counter()
        expected = reference_vertex_cover_lp(vertices, pairs, weights)
        reference_elapsed = time.perf_counter() - start
        _assert_same_solution(got, expected)
        assert elapsed <= 2 * reference_elapsed + 0.05
