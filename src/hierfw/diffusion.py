"""Diffusion functions: the class of admissible resampling rates.

Members vanish at 0 and 1, are non-negative inside, and are Lipschitz.  One
representation serves them all: g(x) = x(1-x) h(x) with h >= 0 given on
nodes that include 0 and 1 and linear between them.  The Fisher-Wright
family d x(1-x) is the two-node case h = d, so it is exact on any grid, and
so are the iterates of the renormalisation map near it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _arrays(nodes, values) -> tuple:
    """Nodes from 0 to 1, strictly increasing, and a value >= 0 per node."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 1 or len(nodes) < 2 or values.shape != nodes.shape:
        raise ValueError("grid needs at least two nodes and one value per node")
    if nodes[0] != 0.0 or nodes[-1] != 1.0:
        raise ValueError("grid must include the endpoints 0 and 1")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("grid nodes must be strictly increasing")
    if not np.all(values >= 0) or not np.all(np.isfinite(values)):
        raise ValueError("grid values must be finite and non-negative")
    return nodes, values


@dataclass(frozen=True, eq=False)
class DiffusionFn:
    """g(x) = x(1-x) h(x), h >= 0 on ``nodes`` and linear between them."""

    nodes: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        nodes, h = _arrays(self.nodes, self.h)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "h", h)

    @classmethod
    def from_g(cls, nodes, values) -> DiffusionFn:
        """The g taking ``values`` at ``nodes``: h = g / (x(1-x)) at interior
        nodes, and at 0 and 1 the h of the nearest interior node, a rule that
        is exact for constant h and never negative.  Without an interior node
        g vanishes."""
        nodes, values = _arrays(nodes, values)
        if values[0] != 0.0 or values[-1] != 0.0:
            raise ValueError("grid values must vanish at the endpoints")
        x = nodes[1:-1]
        with np.errstate(over="ignore"):
            h = values[1:-1] / (x * (1.0 - x))
        if not np.all(np.isfinite(h)):
            raise ValueError("grid values overflow h = g / (x(1-x))")
        return cls(nodes, np.concatenate([h[:1], h, h[-1:]]) if len(h)
                   else np.zeros(2))

    def __call__(self, x):
        x = np.asarray(x)
        if self.is_fisher_wright:
            return self.d * x * (1.0 - x)
        return x * (1.0 - x) * np.interp(x, self.nodes, self.h)

    @property
    def is_fisher_wright(self) -> bool:
        return len(self.h) == 2 and self.h[0] == self.h[1]

    @property
    def d(self) -> Optional[float]:
        """The Fisher-Wright rate, None for any other g."""
        return float(self.h[0]) if self.is_fisher_wright else None

    @property
    def lipschitz_bound(self) -> float:
        """max|h| + max|h'|/4 >= |g'| = |(1-2x) h + x(1-x) h'|."""
        slopes = np.diff(self.h) / np.diff(self.nodes)
        return float(np.max(self.h) + np.max(np.abs(slopes)) / 4.0)


def fisher_wright(d: float = 1.0) -> DiffusionFn:
    if not d >= 0:
        raise ValueError("fisher_wright needs a rate d >= 0")
    return DiffusionFn(np.array([0.0, 1.0]), np.array([d, d], dtype=float))


def grid_from_callable(f: Callable) -> DiffusionFn:
    """f at 129 uniform nodes, through ``DiffusionFn.from_g``; f's endpoint
    values are not read."""
    nodes = np.linspace(0.0, 1.0, 129)
    return DiffusionFn.from_g(nodes, np.where(nodes % 1.0 > 0.0, f(nodes), 0.0))
