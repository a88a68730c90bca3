"""Quantitative metrics: q-solver, difficulties, density, incompressibility,
per-length solution counts, theorem-bound checks, and the tightness
construction."""

from .bounds import (BoundClaim, BoundsReport, bounds_report,
                     expansion_length_q, incompressibility_threshold)
from .difficulty import (DeltaZeroError, PerLengthSolutionCounts,
                         QUnderflowError, SupportUnsolvableError,
                         p_exploration_difficulty,
                         p_exploration_difficulty_am, p_learning_difficulty,
                         per_length_counts, solution_density)
from .incompress import (AssignmentResult, DegenerateDenominatorError,
                         ICValue, enumerate_shortest_solutions, ic_expressive,
                         ic_merged, ic_unmerged, max_entropy_assignment,
                         merged_solution_entropy, min_entropy_assignment)
from .report import DifficultyReport, compute_difficulty_report
from .solver import NotConvergedError, QTable, solve_q
from .stochastic import (StochasticTabularMdp, WeightedDepthResult,
                         stochastic_learning_difficulty,
                         stochastic_weighted_depth)
from .tightness import (DeltaTooSmallError, TightnessInfo,
                        canonical_shortest_solution, find_round_trip,
                        tightness_augmentation)

__all__ = [n for n in dir() if not n.startswith("_")]
