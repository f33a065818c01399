"""The parameter tuple (gamma, a, p, c) of the problem, in the standard
library alone so that classify and sweep need no numpy."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Params"]


@dataclass(frozen=True)
class Params:
    """Problem parameters: -Delta u + gamma (log|.| * u^2) u = a |u|^(p-2) u
    under the mass constraint integral u^2 = c.  gamma is signed."""

    gamma: float
    a: float
    p: float
    c: float

    def __post_init__(self):
        for name in ("gamma", "a", "p", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.p <= 2:
            raise ValueError(f"exponent p must exceed 2, got {self.p}")
        if self.c <= 0:
            raise ValueError(f"mass c must be positive, got {self.c}")
