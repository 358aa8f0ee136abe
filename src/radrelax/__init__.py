"""Convex relaxation and verified radial minimization on a ball.

Pipeline: convexify the even slope potential, minimize the radially reduced
energy, realize the minimizer by monotone rearrangement, and verify the
qualitative properties (detachment avoidance, slope and sign structure,
limiting inner slope, energy consistency) numerically.
"""

__version__ = "0.1.0"
