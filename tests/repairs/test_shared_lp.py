"""One half-integral LP per component, shared by ``I_R`` and ``I_lin_R``.

The memo on a component is valid only for the MI family and the weights it
was solved with; these tests change a fact's ``cost`` (an attribute no
constraint mentions) under every read path and compare against the
stateless oracle, and check that the exact solver's kernel read off the
shared solution gives the same bits as a solve from scratch.
"""

from __future__ import annotations

import random

import pytest

import repro.repairs.minimum_repair as minimum_repair
import repro.solvers.vertex_cover as vertex_cover
from repro.constraints import FunctionalDependency, parse_dc
from repro.measures import make_measure
from repro.relational import Database, Schema
from repro.repairs.costs import deletion_costs, subset_cost
from repro.repairs.minimum_repair import (
    component_hitting_set,
    component_lp_relaxation,
    half_integral_lp,
)
from repro.repairs.operations import UpdateOperation
from repro.session import make_session
from repro.solvers.vertex_cover import minimum_hitting_set
from repro.violations import build_violation_index

SCHEMA = Schema.from_dict({"R": ["A", "B", "High", "Low", "cost"]})

#: An FD (pairs) and a unary DC (self-loops): width ≤ 2 components with
#: forced facts, the case where the kernel is read off the I_lin_R LP.
CONSTRAINTS = [
    FunctionalDependency("R", {"A"}, {"B"}),
    parse_dc("not(t.High < t.Low)", "R"),
]

MEASURES = ("I_lin_R", "I_R")


def _database(seed: int, facts: int = 40) -> Database:
    rng = random.Random(seed)
    rows = []
    for _ in range(facts):
        high = rng.randint(0, 9)
        low = rng.randint(0, 9) if rng.random() < 0.15 else high - 1
        cost = rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, 1.5, 2.25, 3.0])
        rows.append((rng.randint(0, 7), rng.choice("xyz"), high, low, cost))
    return Database.from_rows(SCHEMA, "R", rows)


def _oracle(database: Database) -> dict[str, float]:
    index = build_violation_index(CONSTRAINTS, database)
    return {
        name: make_measure(name).value(CONSTRAINTS, database, index)
        for name in MEASURES
    }


def _problematic_fact(database: Database) -> int:
    index = build_violation_index(CONSTRAINTS, database)
    # The largest component's smallest fact: a pair member, not only forced.
    component = max(index.components(), key=lambda c: len(c.problematic))
    return min(component.problematic)


@pytest.mark.parametrize("shards", [None, "auto"])
@pytest.mark.parametrize("seed", range(4))
def test_cost_update_in_session_matches_oracle(seed, shards):
    database = _database(seed)
    session = make_session(CONSTRAINTS, database, shards=shards)
    measures = [make_measure(name) for name in MEASURES]
    assert session.measure_all(measures) == _oracle(database)
    target = _problematic_fact(database)
    for cost in (9.5, 0.05, 1.0):
        session.update(target, "cost", cost)
        assert session.measure_all(measures) == _oracle(database)
    session.close()


@pytest.mark.parametrize("seed", range(4))
def test_speculated_cost_updates_match_oracle(seed):
    database = _database(seed)
    session = make_session(CONSTRAINTS, database)
    measures = [make_measure(name) for name in MEASURES]
    session.measure_all(measures)
    target = _problematic_fact(database)
    candidates = [[UpdateOperation(target, "cost", cost)] for cost in (9.5, 0.05)]
    scored = session.speculate_batch(candidates, measures)
    for (operation,), values in zip(candidates, scored):
        patched = database.copy()
        operation.apply_in_place(patched)
        assert values == _oracle(patched)
    session.close()


def test_reused_index_after_cost_update_is_not_stale():
    """A component object that outlives a cost change is solved afresh."""
    database = _database(1)
    index = build_violation_index(CONSTRAINTS, database)
    measures = [make_measure(name) for name in MEASURES]
    for measure in measures:
        measure.value(CONSTRAINTS, database, index)
    target = _problematic_fact(database)
    database.update(target, "cost", 7.75)
    # Same index, same component objects (memoized split), new weights.
    for measure in measures:
        assert measure.value(CONSTRAINTS, database, index) == _oracle(database)[
            measure.name
        ]


@pytest.mark.parametrize("seed", range(12))
def test_shared_kernel_is_bit_identical_with_fractional_costs(seed):
    database = _database(seed, facts=60)
    index = build_violation_index(CONSTRAINTS, database)
    assert index.max_width <= 2
    for component in index.components():
        weights = deletion_costs(database, subset_cost, component.problematic)
        alone = minimum_hitting_set(list(component.mi_sets), weights)
        # I_lin_R first, so I_R reads its kernel off the memoized solution.
        component_lp_relaxation(component, database)
        shared = component_hitting_set(component, database)
        assert shared[0] == alone[0]
        assert shared[1] == alone[1]


def test_one_lp_per_component(monkeypatch):
    """I_lin_R and I_R over one component solve the LP once, no NT re-solve."""
    database = _database(2, facts=60)
    index = build_violation_index(CONSTRAINTS, database)
    calls = []
    solve = minimum_repair.vertex_cover_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    exact = vertex_cover._exact_vertex_cover
    kernels = []

    def handed_kernel(*args, **kwargs):
        # Without a kernel handed over, the solver would re-solve the LP.
        kernels.append(args[4])
        return exact(*args, **kwargs)

    monkeypatch.setattr(minimum_repair, "vertex_cover_lp", counted)
    monkeypatch.setattr(vertex_cover, "_exact_vertex_cover", handed_kernel)
    solved = 0
    for component in index.components():
        before = len(calls)
        make_measure("I_lin_R").component_value(CONSTRAINTS, database, component)
        make_measure("I_R").component_value(CONSTRAINTS, database, component)
        assert len(calls) - before <= 1
        solved += len(calls) - before
    assert solved > 0
    assert kernels and all(kernel is not None for kernel in kernels)


def test_memo_tracks_the_family():
    database = _database(3)
    index = build_violation_index(CONSTRAINTS, database)
    component = max(index.components(), key=lambda c: len(c.mi_sets))
    weights = deletion_costs(database, subset_cost, component.problematic)
    first = half_integral_lp(component, weights)
    assert half_integral_lp(component, dict(weights)) is first
    component.mi_sets = component.mi_sets[:1]
    weights = deletion_costs(database, subset_cost, component.problematic)
    assert half_integral_lp(component, weights) is not first
