"""Feedback capacity gains for the K-user Gaussian multiple-access channel.

With noiseless output feedback the sum-rate capacity rises from ln(1+pi)
to ln(1+pi*lambda), where pi is the total transmit power and the power
gain factor lambda solves a cooperation balance equation on [1, K].  This
package computes lambda and the capacity gain factor F = ln(1+pi*lambda)
/ ln(1+pi) for finite user counts and in the massive-user limit, sweeps
and maximizes the resulting curves, and verifies every bound the analysis
promises (F < 2 always, F <= 1.5372 globally, F <= 1.321 on both power
tails, peak near 1.537).
"""

from .core import ChannelConfig, GainSolution
from .solvers import (
    BracketError,
    ConvergenceError,
    CurvePoint,
    NoPeakError,
    PeakResult,
    eval_point,
    find_peak,
    invert_massive_parametric,
    solve_lambda_massive,
    solve_lambda_star,
    sweep_curve,
)

__version__ = "1.0.0"

__all__ = [
    "ChannelConfig",
    "GainSolution",
    "CurvePoint",
    "PeakResult",
    "BracketError",
    "ConvergenceError",
    "NoPeakError",
    "solve_lambda_star",
    "solve_lambda_massive",
    "invert_massive_parametric",
    "eval_point",
    "sweep_curve",
    "find_peak",
]
