"""Minimal inconsistent subsets (``MI_Σ(D)``) and per-constraint violations.

For a set Σ of anti-monotonic constraints, ``MI_Σ(D)`` is the family of
minimal subsets of ``D`` violating Σ (Section 3 of the paper).  Constraints
are lowered to denial constraints; a witness of a DC is a tuple-variable
assignment satisfying its body, and the family of witness fact-id sets,
minimized under ⊆, is exactly ``MI_Σ(D)``.

Binary DCs (the common case: FDs and all mined constraints) run through the
SQL engine; wider DCs use a recursive join that exploits equality predicates
with hash indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..constraints.base import ComparisonOp, Constraint
from ..constraints.dc import DenialConstraint, Predicate
from ..relational.database import Database
from .sqlgen import conflict_rows


@dataclass
class MinimalViolation:
    """A minimal violation: the fact-id set and the constraint it violates.

    This is the ``(F, σ)`` notion discussed for update repairs in §5.3.
    """

    fact_ids: frozenset[int]
    constraint: DenialConstraint


def _connected_groups(
    groups: Sequence[frozenset[int]],
) -> list[tuple[set[int], list[frozenset[int]]]]:
    """Connected components of a set family, ordered by smallest member.

    Two groups are connected when they share a fact.  Returns ``(member
    facts, groups)`` pairs; within a component the groups keep their input
    order.  The single union-find behind :meth:`ViolationIndex.components`,
    the live topology's regional re-split and the speculative preview split
    — one implementation, one ordering contract.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for group in groups:
        root = None
        for fact in group:
            # One root lookup per member.  Path compression leaves most
            # facts one hop below their root, so ``find`` runs only on
            # longer chains.
            top = parent.get(fact)
            if top is None:
                top = parent[fact] = fact
            elif parent[top] != top:
                top = find(fact)
            # The group's first root stays a root: the others hang under it.
            if root is None:
                root = top
            elif top != root:
                parent[top] = root
    root_of = {
        fact: top if parent[top] == top else find(fact)
        for fact, top in parent.items()
    }
    members: dict[int, set[int]] = {}
    for fact, root in root_of.items():
        members.setdefault(root, set()).add(fact)
    bucket: dict[int, list[frozenset[int]]] = {}
    for group in groups:
        bucket.setdefault(root_of[next(iter(group))], []).append(group)
    return sorted(
        ((members[root], grouped) for root, grouped in bucket.items()),
        key=lambda piece: min(piece[0]),
    )


@dataclass
class ViolationIndex:
    """Everything the measures need, computed once per (Σ, D).

    * ``mi_sets`` — ``MI_Σ(D)`` as frozensets of fact identifiers;
    * ``per_constraint`` — all minimal violations, keyed by lowered DC;
    * ``problematic`` — ``∪ MI_Σ(D)``;
    * ``self_inconsistent`` — facts forming singleton MI sets (contradictory
      tuples in the sense of Parisi & Grant).
    """

    mi_sets: list[frozenset[int]] = field(default_factory=list)
    per_constraint: list[MinimalViolation] = field(default_factory=list)
    _components_cache: "tuple[tuple, list[ViolationIndex]] | None" = field(
        default=None, repr=False, compare=False
    )
    # ``(MI family, weights, solution)`` of the last half-integral LP solved
    # over this index (see ``repairs.minimum_repair.half_integral_lp``).
    _lp_memo: "tuple[list, dict, tuple] | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def problematic(self) -> set[int]:
        union: set[int] = set()
        for group in self.mi_sets:
            union |= group
        return union

    @property
    def self_inconsistent(self) -> set[int]:
        return {next(iter(group)) for group in self.mi_sets if len(group) == 1}

    @property
    def max_width(self) -> int:
        return max((len(group) for group in self.mi_sets), default=0)

    def is_consistent(self) -> bool:
        return not self.mi_sets

    def components(self) -> list["ViolationIndex"]:
        """Split into sub-indexes per connected component of ``MI_Σ(D)``.

        Two MI sets are connected when they share a fact; the conflict
        (hyper)graph decomposes along these components, and every measure
        built on the MI family alone decomposes with it (hitting sets and
        covering LPs split by additivity, MCS counts by multiplicativity).
        Components are ordered by their smallest fact identifier.  A raw
        per-constraint witness may span several components (its extra facts
        need not be problematic); it is attached to every component it
        intersects.

        The split is memoized: a batch of component-wise measures over one
        shared index pays for the union-find once.  The cache key tracks
        the identity and length of both backing lists, which covers how
        indexes are actually populated (list assignment and append).
        """
        key = (
            id(self.mi_sets),
            len(self.mi_sets),
            id(self.per_constraint),
            len(self.per_constraint),
        )
        if self._components_cache is not None and self._components_cache[0] == key:
            return self._components_cache[1]
        pieces = _connected_groups(self.mi_sets)
        component_of = {
            fact_id: position
            for position, (facts, _) in enumerate(pieces)
            for fact_id in facts
        }
        result = []
        for _, grouped in pieces:
            component = ViolationIndex()
            component.mi_sets = grouped
            result.append(component)
        for violation in self.per_constraint:
            touched = {
                component_of[fact_id]
                for fact_id in violation.fact_ids
                if fact_id in component_of
            }
            for position in touched:
                result[position].per_constraint.append(violation)
        self._components_cache = (key, result)
        return result

    def adopt_components(self, components: list["ViolationIndex"]) -> None:
        """Pre-seed the memoized component split with a maintained view.

        A live :class:`~repro.violations.topology.ComponentTopology` already
        holds the split this index would derive; adopting it makes
        :meth:`components` O(1) instead of an O(database) union-find.  The
        adopted list must be content-identical to what :meth:`components`
        would compute (the session-layer equivalence tests enforce this).
        """
        self._components_cache = (
            (
                id(self.mi_sets),
                len(self.mi_sets),
                id(self.per_constraint),
                len(self.per_constraint),
            ),
            list(components),
        )


def lower_constraints(
    constraints: Sequence[Constraint], schema=None
) -> list[DenialConstraint]:
    """Lower a mixed constraint set to denial constraints.

    *schema*, when given, lets EGDs resolve positional variables to the
    actual attribute names of their relations.
    """
    from ..constraints.egd import EqualityGeneratingDependency
    from ..constraints.fd import FunctionalDependency

    lowered: list[DenialConstraint] = []
    for constraint in constraints:
        if isinstance(constraint, FunctionalDependency):
            lowered.extend(constraint.to_dcs())
        else:
            if schema is not None and isinstance(
                constraint, EqualityGeneratingDependency
            ):
                constraint.bind_schema(schema)
            lowered.append(constraint.to_dc())
    return lowered


def build_violation_index(
    constraints: Sequence[Constraint],
    database: Database,
    *,
    force_nested_loop: bool = False,
) -> ViolationIndex:
    """Compute ``MI_Σ(D)`` and the per-constraint violation list."""
    index = ViolationIndex()
    raw_sets: set[frozenset[int]] = set()
    for dc in lower_constraints(constraints, database.schema):
        for ids in _witness_id_sets(dc, database, force_nested_loop):
            violation_set = frozenset(ids)
            index.per_constraint.append(MinimalViolation(violation_set, dc))
            raw_sets.add(violation_set)
    index.mi_sets = _minimize(raw_sets)
    return index


def is_consistent(constraints: Sequence[Constraint], database: Database) -> bool:
    """``D ⊨ Σ`` — with early exit on the first witness."""
    for dc in lower_constraints(constraints, database.schema):
        for _ in _witness_id_sets(dc, database, False, first_only=True):
            return False
    return True


def find_first_violation(
    constraints: Sequence[Constraint], database: Database
) -> MinimalViolation | None:
    """The first witness found, or None when consistent (early exit)."""
    for dc in lower_constraints(constraints, database.schema):
        for ids in _witness_id_sets(dc, database, False, first_only=True):
            return MinimalViolation(frozenset(ids), dc)
    return None


def violations_of(
    dc: DenialConstraint,
    database: Database,
    *,
    force_nested_loop: bool = False,
) -> list[frozenset[int]]:
    """Minimal violations of a single DC (not minimized across constraints)."""
    return [
        frozenset(ids)
        for ids in _witness_id_sets(dc, database, force_nested_loop)
    ]


# ----------------------------------------------------------------------
# Witness enumeration
# ----------------------------------------------------------------------
def _witness_id_sets(
    dc: DenialConstraint,
    database: Database,
    force_nested_loop: bool,
    first_only: bool = False,
) -> Iterable[tuple[int, ...]]:
    """Yield deduplicated, subset-minimal-per-witness id tuples."""
    seen: set[frozenset[int]] = set()
    if dc.width <= 2:
        rows = conflict_rows(
            dc, database, force_nested_loop=force_nested_loop
        )
    else:
        rows = _wide_witnesses(dc, database)
    for row in rows:
        key = frozenset(row)
        if key in seen:
            continue
        seen.add(key)
        yield tuple(sorted(key))
        if first_only:
            return


def _wide_witnesses(
    dc: DenialConstraint, database: Database
) -> Iterable[tuple[int, ...]]:
    """Recursive join for DCs with three or more tuple variables.

    Binds variables left to right; equality predicates whose right side binds
    the current variable are served from hash indices, remaining predicates
    are checked as soon as both sides are bound.
    """
    schema = database.schema
    variables = [variable for variable, _ in dc.variables]
    relations = dict(dc.variables)
    position = {variable: i for i, variable in enumerate(variables)}

    def ready_at(predicate: Predicate) -> int:
        return max(
            (position[v] for v in predicate.variables()), default=0
        )

    checks_at: dict[int, list[Predicate]] = {i: [] for i in range(len(variables))}
    for predicate in dc.predicates:
        checks_at[ready_at(predicate)].append(predicate)

    ids_by_relation = {
        relation: database.relation_ids(relation)
        for relation in set(relations.values())
    }

    def recurse(level: int, assignment: dict, chosen_ids: list[int]):
        if level == len(variables):
            yield tuple(chosen_ids)
            return
        variable = variables[level]
        for identifier in ids_by_relation[relations[variable]]:
            fact = database[identifier]
            assignment[variable] = fact
            if all(
                predicate.evaluate(assignment, schema)
                for predicate in checks_at[level]
            ):
                chosen_ids.append(identifier)
                yield from recurse(level + 1, assignment, chosen_ids)
                chosen_ids.pop()
            del assignment[variable]

    yield from recurse(0, {}, [])


def _width_then_ids(group: frozenset[int]) -> tuple[int, list[int]]:
    return len(group), sorted(group)


def _minimize(
    sets: set[frozenset[int]],
    key: Callable[[frozenset[int]], tuple] = _width_then_ids,
) -> list[frozenset[int]]:
    """⊆-minimal members of the family, deterministic order.

    The order is ``(width, sorted fact ids)``.  A caller-supplied *key*
    must order members the same way (the live topology passes the
    ``mi_sort_key`` it already holds per witness instead of rebuilding one
    per sort).
    """
    if not sets:
        return []
    widths = set(map(len, sets))
    if len(widths) == 1:
        # Equal-width families are antichains: no proper subset relation can
        # hold between distinct same-size sets, so the input is its own
        # minimization (the common all-binary-DC case lands here).
        return sorted(sets, key=key)
    if widths == {1, 2}:
        # Singleton absorption: a pair is non-minimal exactly when it
        # contains a self-inconsistent fact.
        poisoned = {next(iter(group)) for group in sets if len(group) == 1}
        kept = [
            group
            for group in sets
            if len(group) == 1 or poisoned.isdisjoint(group)
        ]
        return sorted(kept, key=key)
    ordered = sorted(sets, key=key)
    kept = []
    for group in ordered:
        if not any(other <= group for other in kept):
            kept.append(group)
    return kept
