"""Built-in signal structures used by the demos and the test suite."""

from __future__ import annotations

import numpy as np

from .errors import PreconditionFailed
from .model import SignalSpace, SignalStructure, StateSpace

__all__ = ["four_state_cascade", "binary_symmetric", "three_state_informative"]


def four_state_cascade() -> SignalStructure:
    """Four states, four signals, pairwise informative, yet every posterior
    expectation from the uniform belief equals the prior expectation: the
    private-signal market cascades immediately at the uniform prior even
    though the public-signal market learns.  The likelihood matrix is
    singular, so the cascade beliefs form a whole curve through the simplex
    (the uniform belief is the point with target expectation 1.5)."""
    return SignalStructure(
        StateSpace(np.array([0.0, 1.0, 2.0, 3.0])),
        SignalSpace(("s1", "s2", "s3", "s4")),
        np.array([
            [0.3, 0.2, 0.2, 0.3],
            [0.1, 0.4, 0.3, 0.2],
            [0.4, 0.1, 0.3, 0.2],
            [0.2, 0.3, 0.2, 0.3],
        ]),
    )


def binary_symmetric(accuracy: float = 0.8) -> SignalStructure:
    """Two states {0, 1} and signals (l, h) with symmetric accuracy:
    f(h|1) = f(l|0) = accuracy."""
    if not (0.5 < accuracy < 1.0):  # also rejects NaN
        raise PreconditionFailed(f"accuracy must lie in (0.5, 1) for an informative structure, got {accuracy}")
    return SignalStructure(
        StateSpace(np.array([0.0, 1.0])),
        SignalSpace(("l", "h")),
        np.array([
            [accuracy, 1.0 - accuracy],
            [1.0 - accuracy, accuracy],
        ]),
    )


def three_state_informative() -> SignalStructure:
    """Three states with a monotone, pairwise informative signal ladder;
    the private-signal market learns from any full-support prior."""
    return SignalStructure(
        StateSpace(np.array([0.0, 1.0, 2.0])),
        SignalSpace(("l", "m", "h")),
        np.array([
            [0.6, 0.3, 0.1],
            [0.3, 0.4, 0.3],
            [0.1, 0.3, 0.6],
        ]),
    )
