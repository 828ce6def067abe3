"""Scan domains for zero finding: balls and boxes in R^N."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class BallDomain:
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise DomainError("ball radius must be positive")

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, x) -> bool:
        d = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(self.center))
        return bool(d <= self.radius)

    def boundary_distance(self, x) -> float:
        d = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(self.center))
        return float(self.radius - d)

    def bounding_box(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius


@dataclass(frozen=True)
class BoxDomain:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise DomainError("box corner dimensions differ")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise DomainError("box must have positive extent on every axis")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(np.asarray(self.hi) - np.asarray(self.lo)))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= np.asarray(self.lo)) and np.all(x <= np.asarray(self.hi)))

    def boundary_distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(min(np.min(x - np.asarray(self.lo)),
                         np.min(np.asarray(self.hi) - x)))

    def bounding_box(self):
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)

