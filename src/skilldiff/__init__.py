"""skilldiff: difficulty and incompressibility metrics for skill-augmented
deterministic sparse-reward MDPs, with tabular-RL experiment drivers."""

from .mdp import (DEAD_SENTINEL_U32, UNSOLVABLE, BudgetExceededError, MdpError,
                  ReverseGraph, SolutionLengthTable, StateDistribution,
                  TabularDsmdp, build_reverse_graph,
                  shortest_solution_lengths)
from .skills import (GOAL_PASS_DEAD, GOAL_PASS_SUCCESS, AugmentedMdp,
                     MacroGenSpec, Skill, SkillError, augment,
                     behavior_variety, expand_rewriting, generate_macro_sets,
                     macro_from_labels, rewrite_min_length)

__version__ = "0.1.0"
