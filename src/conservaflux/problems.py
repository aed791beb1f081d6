"""Scalar elliptic model problems -div(kappa grad u) = f on the unit square."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficient, source, boundary data, and (optionally) the exact solution.

    All evaluators are vectorized over numpy coordinate arrays. `dirichlet`
    maps boundary part labels to trace evaluators; boundary parts absent
    from the map get homogeneous Neumann conditions. `exact_grad` returns
    the pair (du/dx, du/dy).
    """
    kappa: Callable
    source: Callable
    dirichlet: Mapping[str, Callable]
    exact: Optional[Callable] = None
    exact_grad: Optional[Callable] = None


def _example_1():
    def u(x, y):
        return (x - x ** 2) * (y - y ** 2)

    def grad_u(x, y):
        return (1.0 - 2.0 * x) * (y - y ** 2), (x - x ** 2) * (1.0 - 2.0 * y)

    def f(x, y):
        return 2.0 * (y - y ** 2) + 2.0 * (x - x ** 2)

    def one(x, y):
        return np.ones_like(np.asarray(x, dtype=float))

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    bc = {part: zero for part in ("left", "right", "bottom", "top")}
    return ProblemSpec(kappa=one, source=f, dirichlet=bc, exact=u,
                       exact_grad=grad_u)


def _example_2():
    def kappa(x, y):
        return np.exp(2.0 * x - y ** 2)

    def u(x, y):
        return np.exp(-x + y ** 2)

    def grad_u(x, y):
        e = np.exp(-x + y ** 2)
        return -e, 2.0 * y * e

    def f(x, y):
        return -np.exp(x)

    bc = {part: u for part in ("left", "right", "bottom", "top")}
    return ProblemSpec(kappa=kappa, source=f, dirichlet=bc, exact=u,
                       exact_grad=grad_u)


def _example_3():
    # kappa * du/dx depends on y alone, so the source vanishes identically.
    def kappa(x, y):
        return 1.0 / ((1.0 - 0.8 * np.sin(6.0 * np.pi * x))
                      * (1.0 - 0.8 * np.sin(6.0 * np.pi * y)))

    def u(x, y):
        return (1.0 - (2.0 * np.cos(6.0 * np.pi * x) + 15.0 * np.pi * x - 2.0)
                / (15.0 * np.pi)) * np.ones_like(np.asarray(y, dtype=float))

    def grad_u(x, y):
        gx = 0.8 * np.sin(6.0 * np.pi * x) - 1.0
        return gx * np.ones_like(np.asarray(y, dtype=float)), np.zeros_like(gx)

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    def onefun(x, y):
        return np.ones_like(np.asarray(x, dtype=float))

    bc = {"left": onefun, "right": zero}
    return ProblemSpec(kappa=kappa, source=zero, dirichlet=bc, exact=u,
                       exact_grad=grad_u)


_EXAMPLES = {1: _example_1, 2: _example_2, 3: _example_3}


def load_example(example_id):
    """Test problem by id (1, 2, or 3)."""
    try:
        builder = _EXAMPLES[example_id]
    except (KeyError, TypeError):
        raise ValueError(f"unknown example id {example_id!r}; known: 1, 2, 3")
    return builder()
