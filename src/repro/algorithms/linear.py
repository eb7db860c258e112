"""Linear dependency functions — the algebra behind the hub index.

Section III-A3 of the paper requires ``EdgeCompute`` to be a linear
expression so that the dependency between any two vertices composes into
``f(s) = mu * s + xi`` (Property 2).  The hub index stores exactly those two
coefficients per core-path.

This module generalises the pair slightly to ``f(s) = min(mu * s + xi, cap)``
(``cap = +inf`` recovers the paper's form).  The capped family is closed
under composition for ``mu >= 0``, which admits single-source widest path
(whose per-edge function is ``min(s, w)``) without changing the storage
format: the hub-index entry simply carries one more scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

INF = math.inf


@dataclass(frozen=True)
class DepFunc:
    """A composable dependency function ``f(s) = min(mu * s + xi, cap)``."""

    mu: float
    xi: float
    cap: float = INF

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError("DepFunc requires mu >= 0 for monotone composition")

    def __call__(self, s: float) -> float:
        value = self.mu * s + self.xi
        return value if value <= self.cap else self.cap

    def then(self, outer: "DepFunc") -> "DepFunc":
        """``outer ∘ self`` — apply ``self`` first, then ``outer``.

        min(mu2 * min(mu1 s + xi1, c1) + xi2, c2)
          = min(mu2 mu1 s + mu2 xi1 + xi2, mu2 c1 + xi2, c2)
        """
        mu = outer.mu * self.mu
        xi = outer.mu * self.xi + outer.xi
        if self.cap is INF or math.isinf(self.cap):
            cap = outer.cap
        else:
            cap = min(outer.mu * self.cap + outer.xi, outer.cap)
        return DepFunc(mu, xi, cap)

    @property
    def is_identity(self) -> bool:
        return self.mu == 1.0 and self.xi == 0.0 and math.isinf(self.cap)


IDENTITY = DepFunc(1.0, 0.0)


def dep_arrays(size: int, mu, xi=0.0, cap=INF) -> Tuple[np.ndarray, ...]:
    """The array form of ``DepFunc(mu, xi, cap)``: three float64 arrays
    of length ``size``, each part a scalar or a length-``size`` array."""
    return tuple(np.full(size, part, dtype=np.float64) for part in (mu, xi, cap))


def compose_path(funcs) -> DepFunc:
    """Compose per-edge functions along a path, first edge first.

    ``compose_path([f1, f2, f3])(s) == f3(f2(f1(s)))`` — Equation (4) of the
    paper: ``c = f_(jm,i) ∘ ... ∘ f_(j,j1)``.
    """
    result = IDENTITY
    for func in funcs:
        result = result.then(func)
    return result


def solve_from_observations(
    s_j_prev: float, s_i_prev: float, s_j: float, s_i: float
) -> DepFunc:
    """The DDMU's two-observation solve (Section III-B2).

    Given the head/tail states at two successive rounds, recover
    ``mu = (s_i' - s_i) / (s_j' - s_j)`` and ``xi = s_i' - mu * s_j'``.

    Raises :class:`ZeroDivisionError` style ``ValueError`` when the head state
    did not change between observations (the hardware would keep the entry in
    the ``I`` state and wait for another sample).
    """
    denom = s_j_prev - s_j
    if denom == 0:
        raise ValueError("head state unchanged; cannot solve for mu")
    mu = (s_i_prev - s_i) / denom
    if mu < 0:
        # Observations polluted by influence from other paths; the entry
        # stays unusable rather than storing a non-monotone function.
        raise ValueError("observations imply negative mu; entry not usable")
    xi = s_i_prev - mu * s_j_prev
    return DepFunc(mu, xi)
