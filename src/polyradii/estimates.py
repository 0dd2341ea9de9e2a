"""Monte Carlo estimates with standard errors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo value with its standard error."""

    value: float
    stderr: float

    def __post_init__(self) -> None:
        if not self.stderr >= 0.0:
            raise ValueError("stderr must be nonnegative")


def mean_and_stderr(xs: np.ndarray) -> Estimate:
    """Mean and stderr of a sample, reduced in a fixed index order.

    The reduction is numpy's pairwise summation over the array as given,
    i.e. over the index order of generation, so the result does not depend
    on any execution schedule.  A single sample gets stderr 0.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    n = xs.size
    if n == 0:
        raise ValueError("empty sample")
    mean = float(np.sum(xs) / n)
    if n == 1:
        return Estimate(mean, 0.0)
    var = float(np.sum((xs - mean) ** 2) / (n - 1))
    return Estimate(mean, np.sqrt(var / n))


def power_estimate(est: Estimate, exponent: float) -> Estimate:
    """Delta-method transform value -> value**exponent (first order only).

    Requires a positive value; used for the 1/q root of moment averages.
    """
    if est.value <= 0.0:
        raise ValueError("power transform needs a positive estimate")
    value = est.value**exponent
    deriv = abs(exponent) * est.value ** (exponent - 1.0)
    return Estimate(value, deriv * est.stderr)
