"""Poisson brackets, repeated brackets and finite-type order.

Conventions follow the Hamilton field H_f = sum_j (d_xi_j f) d_x_j -
(d_x_j f) d_xi_j, so {f, g} = H_f g.  Repeated brackets of the real
and imaginary parts of p - z0 are indexed by words I over {1, 2}:
value(I) = H_{q_{i_1}} ... H_{q_{i_{k-1}}} q_{i_k} with q_1 = Re(p-z0),
q_2 = Im(p-z0).  All of them are read off one truncated Taylor jet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import PspecError
from .jets import Jet, eval_jet
from .symbols import SymbolExpr

__all__ = [
    "poisson_bracket",
    "poisson_bracket_jets",
    "hamilton_bracket_jet",
    "repeated_brackets",
    "BracketReport",
    "finite_type_order",
    "real_bracket_values",
]

BRACKET_TOL = 1e-9      # relative vanishing tolerance for bracket orders
LEVEL_TOL = 1e-8        # |p(w) - z| tolerance for membership in a level set


def poisson_bracket_jets(f: Jet, g: Jet) -> complex:
    """{f, g} at the common base point from two degree->=1 jets."""
    return hamilton_bracket_jet(f, g).value()


def poisson_bracket(f: SymbolExpr, g: SymbolExpr, w) -> complex:
    """{f, g}(w) = sum_j (d_xi_j f d_x_j g - d_x_j f d_xi_j g)(w)."""
    jf = eval_jet(f, w, 1)
    jg = eval_jet(g, w, 1)
    return poisson_bracket_jets(jf, jg)


def hamilton_bracket_jet(f: Jet, g: Jet) -> Jet:
    """Jet of H_f g; the truncation degree drops by one."""
    n = f.nvars // 2
    out = None
    for j in range(n):
        term = f.partial(n + j) * g.partial(j) - f.partial(j) * g.partial(n + j)
        out = term if out is None else out + term
    return out


@dataclass
class BracketReport:
    """Values p_I at one point together with the derived order.

    `order` follows the convention that k(w) is the largest j such that
    every bracket of length <= j vanishes (so k >= 1 at characteristic
    points).  `first_nonvanishing_length` = order + 1 is exposed for
    readers used to the other convention.
    """

    point: np.ndarray
    z0: complex
    j_max: int
    values: dict = field(repr=False)
    order: int | None
    finite_type: bool
    tolerance: float
    max_magnitude: float

    @property
    def first_nonvanishing_length(self):
        return None if self.order is None else self.order + 1

    def value(self, word):
        return self.values[tuple(word)]


def repeated_brackets(p: SymbolExpr, z0: complex, w, j_max: int) -> BracketReport:
    """All bracket values p_I, |I| <= j_max, from one degree-(j_max+1) jet.

    The vanishing tolerance is BRACKET_TOL times the largest bracket
    magnitude seen at the point (symbols are not normalized).
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    w = np.asarray(w, dtype=float)
    base = eval_jet(p, w, j_max + 1) - Jet.constant(2 * p.n, j_max + 1, z0)
    parts = {1: base.real_part(), 2: base.imag_part()}

    # words by length, so the jet of a word's tail is always in memo
    memo: dict[tuple, Jet] = {(1,): parts[1], (2,): parts[2]}
    values = {}
    for k in range(1, j_max + 1):
        for word in product((1, 2), repeat=k):
            if word not in memo:
                inner = memo[word[1:]]
                memo[word] = hamilton_bracket_jet(
                    parts[word[0]].truncate(inner.degree + 1), inner)
            values[word] = memo[word].value()

    max_mag = max(abs(v) for v in values.values())
    tol = BRACKET_TOL * max(1.0, max_mag)

    order = 0
    for k in range(1, j_max + 1):
        if all(abs(values[word]) <= tol
               for word in product((1, 2), repeat=k)):
            order = k
        else:
            break
    if order == j_max:
        # never saw a nonvanishing bracket
        return BracketReport(w, complex(z0), j_max, values, None, False,
                             tol, max_mag)
    return BracketReport(w, complex(z0), j_max, values, order, True,
                         tol, max_mag)


def finite_type_order(p: SymbolExpr, z0: complex, samples, j_max: int):
    """Order of the value z0: max of k(w) over level-set samples.

    Returns (k, parity) where parity is "even" or "odd".  Raises if the
    sample list is empty, a sample is off the level set, or some sample
    exceeds j_max.
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    if not samples:
        raise PspecError("finite_type_order needs at least one level-set sample")
    level_tol = LEVEL_TOL * max(1.0, abs(z0))
    orders = []
    for w in samples:
        val = p.eval(w)
        if abs(val - z0) > level_tol:
            raise PspecError(
                f"sample {w} is not on the level set: |p-z0| = {abs(val - z0):.3e}")
        rep = repeated_brackets(p, z0, w, j_max)
        if not rep.finite_type:
            raise PspecError(
                f"order at {w} exceeds j_max={j_max}; not finite type at this depth")
        orders.append(rep.order)
    k = max(orders)
    return k, ("even" if k % 2 == 0 else "odd")


def real_bracket_values(p: SymbolExpr, coords):
    """Vectorized {Re p, Im p} over coordinate arrays.

    Uses the gradient of the complex symbol:  {Re p, Im p} =
    sum_j Im(d_x_j p * conj(d_xi_j p)).  Only the real bracket is
    computed internally; {p, pbar} = -2i {Re p, Im p} when needed.
    """
    val, grad = p.eval_with_gradient(coords)
    n = p.n
    total = None
    for j in range(n):
        px, pxi = grad[j], grad[n + j]
        term = np.imag(px * np.conj(pxi))
        total = term if total is None else total + term
    return val, total
