"""Convex relaxation and verified radial minimization on a ball.

Pipeline: convexify the even slope potential, minimize the radially reduced
energy, realize the minimizer by monotone rearrangement, and verify the
qualitative properties (detachment avoidance, slope and sign structure,
limiting inner slope, energy consistency) numerically.
"""

from radrelax.potentials import Potential1D, ProblemSpec, check_G_shape, compute_M
from radrelax.envelope import EnvelopeResult, DetachmentComponent, convexify
from radrelax.radial_solver import (
    RadialGrid,
    RadialProfile,
    SolveReport,
    dp_oracle,
    energy_reduced,
    minimize_relaxed,
    monotone_rearrange,
    solve_pipeline,
)

__version__ = "0.1.0"
