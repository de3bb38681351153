"""Diffusion functions: the class of admissible resampling rates.

Members vanish at 0 and 1, are positive inside, and are Lipschitz.  Two
representations are supported: the parametric Fisher-Wright family
d * x(1-x), and piecewise-linear grid functions (the renormalisation map is
evaluated on grids, and its iterates are stored this way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-linear function on [0,1], zero at both endpoints."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if nodes.ndim != 1 or len(nodes) < 2 or values.shape != nodes.shape:
            raise ValueError("grid needs at least two nodes and one value per node")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("grid must include the endpoints 0 and 1")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        if values[0] != 0.0 or values[-1] != 0.0:
            raise ValueError("grid values must vanish at the endpoints")
        if np.any(values < 0):
            raise ValueError("grid values must be non-negative")

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values)

    def lipschitz(self) -> float:
        slopes = np.diff(self.values) / np.diff(self.nodes)
        return float(np.max(np.abs(slopes))) if len(slopes) else 0.0


@dataclass(frozen=True)
class DiffusionFn:
    """Resampling diffusion function, Fisher-Wright or tabulated."""

    kind: str                       # "fisher_wright" | "grid"
    d: Optional[float] = None
    grid: Optional[GridFunction] = None

    def __post_init__(self):
        if self.kind == "fisher_wright":
            if self.d is None or not self.d >= 0:
                raise ValueError("fisher_wright needs a rate d >= 0")
        elif self.kind == "grid":
            if self.grid is None:
                raise ValueError("grid kind needs a GridFunction")
        else:
            raise ValueError(f"unknown diffusion kind {self.kind!r}")

    def __call__(self, x):
        if self.kind == "fisher_wright":
            return self.d * np.asarray(x) * (1.0 - np.asarray(x))
        return self.grid(x)

    @property
    def is_fisher_wright(self) -> bool:
        return self.kind == "fisher_wright"

    @property
    def lipschitz_bound(self) -> float:
        return self.d if self.is_fisher_wright else self.grid.lipschitz()


def fisher_wright(d: float = 1.0) -> DiffusionFn:
    return DiffusionFn(kind="fisher_wright", d=d)


def g_fw(x):
    """Standard Fisher-Wright diffusion function x(1-x)."""
    x = np.asarray(x)
    return x * (1.0 - x)


def grid_from_callable(f: Callable) -> DiffusionFn:
    """Tabulate f on 129 uniform nodes; endpoint values are forced to zero."""
    nodes = np.linspace(0.0, 1.0, 129)
    values = np.asarray(f(nodes), dtype=float).copy()
    values[0] = 0.0
    values[-1] = 0.0
    return DiffusionFn(kind="grid", grid=GridFunction(nodes, values))
