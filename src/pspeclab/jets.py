"""Truncated multivariate Taylor jets.

A jet holds the Taylor coefficients of a symbol at a real phase-space
point up to a total degree D:  f(w + t) = sum_a c[a] * t^a + O(|t|^{D+1}),
with multi-indices a over the 2n variables (x1..xn, xi1..xin) and
c[a] = d^a f(w) / a!.  One jet evaluation of the symbol tree serves all
derivative queries up to order D, which is what the repeated-bracket
machinery needs.  ``eval_jet`` runs the symbol tree's one fold
(``symbols._fold``) over the ``Jet`` ring and raises ``NonFiniteError``
when the value at the point is not finite.

``Jet`` owns its coefficient layout, a dense dict keyed by multi-index:
``Jet._map`` and ``Jet.from_terms`` build jets, and the bracket and
WKB beam code only reads coefficients.
"""

from __future__ import annotations

import functools
import math
from itertools import product

import numpy as np

from .errors import JetDivisionError, NonFiniteError
from .symbols import SymbolExpr, _fold, _var_slot

__all__ = ["Jet", "eval_jet", "multi_indices", "compose_jet"]


@functools.cache
def multi_indices(nvars: int, degree: int):
    """All exponent tuples over `nvars` variables with total degree <= degree."""
    out = [idx for idx in product(range(degree + 1), repeat=nvars)
           if sum(idx) <= degree]
    out.sort(key=lambda a: (sum(a), a))
    return out


class Jet:
    """Taylor coefficients of a function at a base point, truncated at
    total degree `degree`.  `coeffs` maps every multi-index of total
    degree <= degree to a complex coefficient (zeros included, so the
    coefficient count is C(nvars + degree, degree))."""

    __slots__ = ("nvars", "degree", "base", "coeffs")

    def __init__(self, nvars, degree, base=None, coeffs=None):
        self.nvars = nvars
        self.degree = degree
        self.base = None if base is None else np.asarray(base, dtype=float)
        if coeffs is None:
            coeffs = {a: 0.0 + 0.0j for a in multi_indices(nvars, degree)}
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, nvars, degree, value, base=None):
        jet = cls(nvars, degree, base)
        jet.coeffs[(0,) * nvars] = complex(value)
        return jet

    @classmethod
    def coordinate(cls, nvars, degree, slot, value, base=None):
        jet = cls.constant(nvars, degree, value, base)
        if degree >= 1:
            unit = [0] * nvars
            unit[slot] = 1
            jet.coeffs[tuple(unit)] = 1.0 + 0.0j
        return jet

    @property
    def n_coefficients(self):
        return math.comb(self.nvars + self.degree, self.degree)

    def value(self):
        return self.coeffs[(0,) * self.nvars]

    def coefficient(self, alpha):
        return self.coeffs.get(tuple(alpha), 0.0 + 0.0j)

    def derivative_value(self, alpha):
        """d^alpha f at the base point (coefficient times alpha!)."""
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        return self.coefficient(alpha) * fact

    # -- coefficient layout -------------------------------------------------
    # Jets are built whole by `_map` (one value per multi-index) or
    # `from_terms` (a sum of monomials); only `__mul__` and `partial`
    # accumulate into a new jet's coefficients themselves.

    def _map(self, f, degree=None):
        """New jet at this base point, of total degree `degree` (default:
        this jet's), with coefficient f(a) at every multi-index a."""
        degree = self.degree if degree is None else degree
        return Jet(self.nvars, degree, self.base,
                   {a: f(a) for a in multi_indices(self.nvars, degree)})

    @classmethod
    def from_terms(cls, nvars, degree, terms):
        """The jet of sum c t^a over the (a, c) pairs of `terms`, summed in
        order onto zero coefficients; pairs of total degree above
        `degree` are dropped."""
        jet = cls(nvars, degree)
        for a, c in terms:
            if sum(a) <= degree:
                jet.coeffs[a] = jet.coeffs[a] + c
        return jet

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        return self._map(lambda a: self.coeffs[a] + other.coeffs[a])

    def __sub__(self, other):
        return self._map(lambda a: self.coeffs[a] - other.coeffs[a])

    def __neg__(self):
        return self._map(lambda a: -self.coeffs[a])

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._map(lambda a: self.coeffs[a] * other)
        out = Jet(self.nvars, self.degree, self.base)
        D = self.degree
        items_a = [(a, v) for a, v in self.coeffs.items() if v != 0]
        items_b = [(b, v) for b, v in other.coeffs.items() if v != 0]
        acc = out.coeffs
        for a, va in items_a:
            da = sum(a)
            for b, vb in items_b:
                if da + sum(b) > D:
                    continue
                key = tuple(x + y for x, y in zip(a, b))
                acc[key] = acc[key] + va * vb
        return out

    __rmul__ = __mul__

    def _series(self, weight):
        """1 + sum_{k=1..degree} u^k for this jet u, each coefficient c of
        u^k weighted as weight(k, c).  u has no constant term, so the
        sum is exact at the truncation degree."""
        out = term = Jet.constant(self.nvars, self.degree, 1.0, self.base)
        for k in range(1, self.degree + 1):
            term = term * self
            out = out._map(lambda a: out.coeffs[a] + weight(k, term.coeffs[a]))
        return out

    def reciprocal(self):
        c0 = self.value()
        if abs(c0) < 1e-300:
            raise JetDivisionError(
                "denominator jet has vanishing constant term at the base point")
        # 1/(c0 (1 + u)) = (1/c0) sum (-u)^k, u = (self - c0)/c0
        u = self._map(lambda a: self.coeffs[a] / c0 if any(a) else 0.0 + 0.0j)
        out = u._series(lambda k, c: (-1 if k % 2 else 1) * c)
        return out._map(lambda a: out.coeffs[a] / c0)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * other.reciprocal()

    def integer_power(self, k):
        if k < 0:
            return self.integer_power(-k).reciprocal()
        out = Jet.constant(self.nvars, self.degree, 1.0, self.base)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    __pow__ = integer_power

    def exp(self):
        # e^(c0 + u) = e^c0 sum u^k / k!, u = self - c0
        u = self._map(lambda a: self.coeffs[a] if any(a) else 0.0 + 0.0j)
        out = u._series(lambda k, c: c / math.factorial(k))
        return out * np.exp(self.value())

    # -- calculus -----------------------------------------------------------

    def partial(self, slot):
        """d/dw_slot, truncation degree drops by one."""
        out = Jet(self.nvars, self.degree - 1, self.base)
        for a, v in self.coeffs.items():
            if v == 0 or a[slot] == 0:
                continue
            key = list(a)
            key[slot] -= 1
            key = tuple(key)
            if sum(key) <= out.degree:
                out.coeffs[key] = out.coeffs[key] + v * a[slot]
        return out

    def truncate(self, degree):
        return self._map(lambda a: self.coeffs.get(a, 0.0 + 0.0j), degree)

    def real_part(self):
        """Jet of Re f; valid because the base point is real."""
        return self._map(lambda a: complex(self.coeffs[a].real, 0.0))

    def imag_part(self):
        return self._map(lambda a: complex(self.coeffs[a].imag, 0.0))

    def eval_offset(self, t):
        """Evaluate the truncated polynomial at base + t."""
        t = np.asarray(t)
        total = 0.0 + 0.0j
        for a, v in self.coeffs.items():
            if v == 0:
                continue
            term = v
            for slot, k in enumerate(a):
                if k:
                    term = term * t[slot] ** k
            total = total + term
        return total

    def __repr__(self):
        nz = {a: v for a, v in self.coeffs.items() if v != 0}
        return f"Jet(deg={self.degree}, nonzero={nz})"


def eval_jet(p: SymbolExpr, w, degree: int) -> Jet:
    """Taylor-expand a symbol at the point w up to total degree.

    Raises NonFiniteError when the value at w is not finite, and
    JetDivisionError when a denominator vanishes at w."""
    w = np.asarray(w, dtype=float)
    nvars = 2 * p.n
    if w.shape != (nvars,):
        raise ValueError(f"point must have length {nvars}")

    def var(node):
        slot = _var_slot(node, nvars)
        return Jet.coordinate(nvars, degree, slot, w[slot], w)

    jet = _fold(p.root, lambda c: Jet.constant(nvars, degree, c, w), var, Jet.exp)
    val = jet.value()
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise NonFiniteError(f"jet evaluation overflowed at {w}")
    return jet


def compose_jet(outer: Jet, arg_jets) -> Jet:
    """Compose a multivariate jet with jets of its arguments.

    arg_jets[i] is a jet in a common parameter set (any number of
    variables) whose value at the parameter origin must equal
    outer.base[i].  Returns the parameter-space jet of
    f(arg_0, ..., arg_{m-1}).
    """
    if len(arg_jets) != outer.nvars:
        raise ValueError("need one argument jet per outer variable")
    pvars = arg_jets[0].nvars
    deg = min(j.degree for j in arg_jets)
    zero = (0,) * pvars
    shifted = []
    for i, aj in enumerate(arg_jets):
        if aj.nvars != pvars:
            raise ValueError("argument jets must share one parameter set")
        s = aj.truncate(deg)
        if abs(s.value() - outer.base[i]) > 1e-9 * max(1.0, abs(outer.base[i])):
            raise ValueError("argument jet value does not match the base point")
        s.coeffs[zero] = 0.0 + 0.0j
        shifted.append(s)
    out = Jet(pvars, deg)
    powers = {}

    def power_of(i, k):
        if (i, k) not in powers:
            powers[(i, k)] = shifted[i].integer_power(k)
        return powers[(i, k)]

    for alpha, c in outer.coeffs.items():
        if c == 0:
            continue
        term = Jet.constant(pvars, deg, c)
        for i, k in enumerate(alpha):
            if k:
                term = term * power_of(i, k)
        out = out + term
    return out
