"""LP/ILP/graph solvers — the from-scratch Gurobi substitute."""

from .cliques import (
    EnumerationBudgetExceeded,
    count_maximal_independent_sets,
    maximal_cliques,
    maximal_independent_sets,
    maximal_sets_avoiding,
)
from .halfintegral import nemhauser_trotter_kernel, vertex_cover_lp
from .ilp import BudgetExceeded, IlpSolution, solve_binary_ilp
from .simplex import LpProblem, LpRow, LpSolution, LpStatus, Sense, solve_lp
from .vertex_cover import greedy_hitting_set, minimum_hitting_set

__all__ = [
    "BudgetExceeded",
    "EnumerationBudgetExceeded",
    "IlpSolution",
    "LpProblem",
    "LpRow",
    "LpSolution",
    "LpStatus",
    "Sense",
    "count_maximal_independent_sets",
    "greedy_hitting_set",
    "maximal_cliques",
    "maximal_independent_sets",
    "maximal_sets_avoiding",
    "minimum_hitting_set",
    "nemhauser_trotter_kernel",
    "solve_binary_ilp",
    "solve_lp",
    "vertex_cover_lp",
]
