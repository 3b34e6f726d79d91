"""Per-step solver state: cell averages of u and c plus the lagged u."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class State:
    """Cell-averaged fields after ``step_index`` steps; the step size is
    the run's ``StepPlan.dt``.

    ``u_prev`` holds the previous time level of u, needed by the correction
    term; at step 0 it must equal u so the correction starts at zero.
    Arrays are treated as immutable; advancing produces a new State.
    """

    u: np.ndarray
    c: np.ndarray
    u_prev: np.ndarray
    step_index: int = 0

    def __post_init__(self):
        for name, value in (("u", self.u), ("c", self.c), ("u_prev", self.u_prev)):
            if not isinstance(value, np.ndarray):
                raise ValueError(f"{name} must be an array, got {type(value).__name__}")
        if self.u.ndim != 1:
            raise ValueError(f"u must be one-dimensional, got shape {self.u.shape}")
        n = self.u.shape[0]
        if self.c.shape != (n,) or self.u_prev.shape != (n,):
            raise ValueError("u, c and u_prev must have identical shapes")
        if self.step_index == 0 and not np.array_equal(self.u, self.u_prev):
            raise ValueError("at step 0, u_prev must equal u")

    @property
    def n_cells(self) -> int:
        return self.u.shape[0]
