"""Phase-space symbol expressions p(x1..xn, xi1..xin).

Grammar (EBNF)::

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = [ "+" | "-" ] power ;
    power    = atom [ "^" integer ] ;
    atom     = number | variable | "exp" "(" expr ")" | "(" expr ")" ;
    variable = ("x" | "xi") index ;          index in 1..n
    number   = digits ["." digits] [("e"|"E") ["+"|"-"] digits] ["i"] ;

A trailing ``i`` marks an imaginary literal, e.g. ``1i``, ``2.5e-3i``.
Exponents are unsigned integer literals; negative powers are written
with a division.  Phase-space points are ordered ``(x1..xn, xi1..xin)``.

Evaluation walks the tree in one place, ``_fold``, over a number ring:
ndarrays (``eval``, ``eval_grid``), value-and-gradient pairs
(``eval_with_gradient``), polynomials (``to_poly``) and Taylor jets
(``jets.eval_jet``).  At a pole the vectorized evaluators return IEEE
inf/nan without a warning, and each consumer that needs finite values
checks for them with ``_check_finite``, which raises ``NonFiniteError``.
The scalar ``eval`` is ``eval_grid`` at one point, bit for bit, and
raises ``NonFiniteError`` where that value is not finite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteError,
    NotPolynomialError,
    SymbolSyntaxError,
    VariableIndexError,
)

__all__ = [
    "SymbolExpr",
    "PolySymbol",
    "parse_symbol",
    "symbol_from_poly",
]


# ---------------------------------------------------------------------------
# expression nodes

class Node:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Node):
    kind: str   # "x" or "xi"
    index: int  # 1-based


@dataclass(frozen=True)
class Const(Node):
    value: complex


@dataclass(frozen=True)
class BinOp(Node):
    op: str     # "+", "-", "*", "/"
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Neg(Node):
    child: Node


@dataclass(frozen=True)
class Exp(Node):
    child: Node


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_NUM = "num"
_TOKEN_NAME = "name"
_TOKEN_OP = "op"
_TOKEN_END = "end"


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((_TOKEN_OP, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            imag = j < n and text[j] == "i"
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise SymbolSyntaxError(f"bad numeric literal '{lit}'", i)
            if imag:
                j += 1
                tokens.append((_TOKEN_NUM, complex(0.0, val), i))
            else:
                tokens.append((_TOKEN_NUM, complex(val, 0.0), i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            name = text[i:j]
            k = j
            while k < n and text[k].isdigit():
                k += 1
            tokens.append((_TOKEN_NAME, (name, text[j:k]), i))
            i = k
            continue
        raise SymbolSyntaxError(f"unexpected character '{c}'", i)
    tokens.append((_TOKEN_END, None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, n):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.peek()
        if kind != _TOKEN_OP or val != op:
            raise SymbolSyntaxError(f"expected '{op}'", at)
        self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOKEN_OP and val in "+-":
                self.advance()
                right = self.parse_term()
                node = BinOp(val, node, right)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOKEN_OP and val in "*/":
                self.advance()
                right = self.parse_factor()
                node = BinOp(val, node, right)
            else:
                return node

    def parse_factor(self):
        kind, val, _ = self.peek()
        if kind == _TOKEN_OP and val in "+-":
            self.advance()
            child = self.parse_factor()
            return child if val == "+" else Neg(child)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, val, at = self.peek()
        if kind == _TOKEN_OP and val == "^":
            self.advance()
            kind, val, at = self.advance()
            if kind != _TOKEN_NUM or val.imag != 0 or val.real != int(val.real):
                raise SymbolSyntaxError("exponent must be an integer literal", at)
            return Pow(base, int(val.real))
        return base

    def parse_atom(self):
        kind, val, at = self.advance()
        if kind == _TOKEN_NUM:
            return Const(val)
        if kind == _TOKEN_OP and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == _TOKEN_NAME:
            name, digits = val
            if name == "exp":
                if digits:
                    raise SymbolSyntaxError("'exp' takes no index", at)
                self.expect_op("(")
                node = self.parse_expr()
                self.expect_op(")")
                return Exp(node)
            if name in ("x", "xi"):
                if not digits:
                    raise SymbolSyntaxError(f"variable '{name}' needs an index", at)
                idx = int(digits)
                if not 1 <= idx <= self.n:
                    raise VariableIndexError(
                        f"variable {name}{idx} out of range for dimension n={self.n}"
                    )
                return Var(name, idx)
            raise SymbolSyntaxError(f"unknown identifier '{name}{digits}'", at)
        raise SymbolSyntaxError("expected a number, variable or '('", at)


# ---------------------------------------------------------------------------
# public expression type

class SymbolExpr:
    """A parsed phase-space function p(x, xi) with complex constants.

    Points are arrays of length 2n ordered (x1..xn, xi1..xin).
    """

    def __init__(self, n: int, root: Node, text: str | None = None):
        self.n = int(n)
        self.root = root
        self._text = text

    # -- evaluation ---------------------------------------------------------

    def __call__(self, w):
        return self.eval(w)

    def eval(self, w) -> complex:
        """Evaluate at a single real phase-space point: eval_grid at
        that point, bit for bit.  Raises NonFiniteError where the value
        is not finite (e.g. at a pole)."""
        w = np.asarray(w, dtype=float)
        val = complex(self.eval_grid(w[:, None])[0])
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise NonFiniteError(f"symbol evaluated to non-finite value at {w}")
        return val

    def eval_grid(self, coords):
        """Vectorized evaluation.

        coords is a sequence of 2n broadcastable real arrays
        (x1..xn, xi1..xin).  Returns a complex array, with IEEE inf/nan
        (and no warning) where the symbol is not finite.
        """
        coords = [np.asarray(c, dtype=float) for c in coords]
        if len(coords) != 2 * self.n:
            raise ValueError(f"need {2 * self.n} coordinate arrays")
        # constants stay Python complex numbers, so constant subtrees keep
        # Python's complex arithmetic and its last bits
        with np.errstate(all="ignore"):
            out = _fold(self.root, lambda c: c,
                        lambda v: coords[_var_slot(v, len(coords))], np.exp)
        return np.asarray(out, dtype=complex) + np.zeros(np.broadcast_shapes(
            *[c.shape for c in coords]), dtype=complex)

    def eval_with_gradient(self, coords):
        """Vectorized value and gradient (2n component arrays), with
        IEEE inf/nan (and no warning) where they are not finite."""
        coords = [np.asarray(c, dtype=float) for c in coords]
        m = len(coords)
        zeros = np.zeros(np.broadcast_shapes(*[c.shape for c in coords]),
                         dtype=complex)

        def var(node):
            slot = _var_slot(node, m)
            grad = [zeros] * m
            grad[slot] = np.ones_like(zeros)
            return _Dual(coords[slot] + zeros, grad)

        with np.errstate(all="ignore"):
            out = _fold(self.root, lambda c: _Dual(c + zeros, [zeros] * m),
                        var, _Dual.exp)
        return out.value, out.grad

    # -- serialization ------------------------------------------------------

    def to_string(self) -> str:
        return _node_to_string(self.root, 0)

    def __repr__(self):
        return f"SymbolExpr(n={self.n}, '{self.to_string()}')"

    # -- algebra helpers ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.n)
        return SymbolExpr(self.n, BinOp("+", self.root, other.root))

    def __sub__(self, other):
        other = _coerce(other, self.n)
        return SymbolExpr(self.n, BinOp("-", self.root, other.root))

    def __mul__(self, other):
        other = _coerce(other, self.n)
        return SymbolExpr(self.n, BinOp("*", self.root, other.root))

    def polynomial_degree(self):
        """Total degree if the tree is polynomial, else None."""
        return _poly_degree(self.root)

    def to_poly(self) -> "PolySymbol":
        """Exact polynomial coefficients; raises NotPolynomialError."""
        deg = self.polynomial_degree()
        if deg is None:
            raise NotPolynomialError(f"'{self.to_string()}' is not polynomial")
        n = self.n
        zero = (0,) * (2 * n)
        return _fold(self.root, lambda c: PolySymbol.constant(n, c),
                     lambda v: PolySymbol.variable(n, _var_slot(v, 2 * n)),
                     lambda u: PolySymbol.constant(n, np.exp(u.coeffs.get(zero, 0.0))))


def _coerce(other, n):
    if isinstance(other, SymbolExpr):
        if other.n != n:
            raise ValueError("dimension mismatch")
        return other
    return SymbolExpr(n, Const(complex(other)))


def parse_symbol(text: str, n: int) -> SymbolExpr:
    """Parse an expression string over x1..xn, xi1..xin."""
    if n < 1:
        raise ValueError("dimension n must be a positive integer")
    tokens = _tokenize(text)
    parser = _Parser(tokens, n)
    root = parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != _TOKEN_END:
        raise SymbolSyntaxError("trailing input", at)
    return SymbolExpr(n, root, text)


# ---------------------------------------------------------------------------
# evaluation internals

def _var_slot(node, n_coords):
    n = n_coords // 2
    return (node.index - 1) if node.kind == "x" else (n + node.index - 1)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def _fold(node, const, var, exp):
    """Evaluate the tree over one number ring with Python's operators
    (+ - * /, unary -, ** k): const(value) and var(node) build the
    leaves and exp(u) is the ring's exponential.  Operands are
    evaluated left to right."""
    def walk(node):
        if isinstance(node, Const):
            return const(node.value)
        if isinstance(node, Var):
            return var(node)
        if isinstance(node, Neg):
            return -walk(node.child)
        if isinstance(node, Exp):
            return exp(walk(node.child))
        if isinstance(node, Pow):
            return walk(node.base) ** node.exponent
        if isinstance(node, BinOp):
            left = walk(node.left)
            return _BINARY[node.op](left, walk(node.right))
        raise TypeError(f"unknown node {node!r}")
    return walk(node)


def _check_finite(values, message):
    """Return values, or raise NonFiniteError(message) if any is inf or
    nan: the check of a consumer that needs finite values from a
    vectorized evaluator."""
    if not np.isfinite(values).all():
        raise NonFiniteError(message)
    return values


class _Dual:
    """Value and gradient arrays of a subtree.  The operators are the
    forward-mode rules; their floating-point operations and order fix
    the bits eval_with_gradient returns (a quotient is a * (1/b), a
    power v^(k-1) * v)."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = value
        self.grad = grad

    def __neg__(self):
        return _Dual(-self.value, [-g for g in self.grad])

    def __add__(self, other):
        return _Dual(self.value + other.value,
                     [a + b for a, b in zip(self.grad, other.grad)])

    def __sub__(self, other):
        return _Dual(self.value - other.value,
                     [a - b for a, b in zip(self.grad, other.grad)])

    def __mul__(self, other):
        u, v = self.value, other.value
        return _Dual(u * v, [a * v + u * b for a, b in zip(self.grad, other.grad)])

    def __truediv__(self, other):
        inv = 1.0 / other.value
        q = self.value * inv
        return _Dual(q, [(a - q * b) * inv for a, b in zip(self.grad, other.grad)])

    def __pow__(self, k):
        if k == 0:
            return _Dual(np.ones_like(self.value),
                         [np.zeros_like(g) for g in self.grad])
        vk1 = self.value ** (k - 1)
        return _Dual(vk1 * self.value, [k * vk1 * g for g in self.grad])

    def exp(self):
        e = np.exp(self.value)
        return _Dual(e, [e * g for g in self.grad])


# ---------------------------------------------------------------------------
# printing

def _fmt_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return _fmt_float(re)
    if re == 0:
        return _fmt_float(im) + "i"
    sign = "+" if im >= 0 else "-"
    return f"({_fmt_float(re)}{sign}{_fmt_float(abs(im))}i)"


def _fmt_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


# precedence levels: 0 add, 1 mul, 2 unary, 3 power/atom
def _node_to_string(node, parent_level):
    if isinstance(node, Const):
        s = _fmt_complex(node.value)
        level = 3 if not s.startswith("-") else 2
    elif isinstance(node, Var):
        s = f"{node.kind}{node.index}"
        level = 3
    elif isinstance(node, Neg):
        s = "-" + _node_to_string(node.child, 2)
        level = 2
    elif isinstance(node, Exp):
        s = f"exp({_node_to_string(node.child, 0)})"
        level = 3
    elif isinstance(node, Pow):
        s = f"{_node_to_string(node.base, 3)}^{node.exponent}"
        level = 3
    elif isinstance(node, BinOp):
        if node.op in "+-":
            left = _node_to_string(node.left, 0)
            right = _node_to_string(node.right, 1)
            s, level = f"{left}{node.op}{right}", 0
        else:
            left = _node_to_string(node.left, 1)
            right = _node_to_string(node.right, 2)
            s, level = f"{left}{node.op}{right}", 1
    else:
        raise TypeError(f"unknown node {node!r}")
    if level < parent_level:
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# exact polynomial extraction

class PolySymbol:
    """Polynomial in 2n phase-space variables.

    Coefficients are stored in a dict keyed by exponent tuples of
    length 2n, ordered (x1..xn, xi1..xin).  Values are complex unless
    the caller feeds another coefficient ring (the Moyal product only
    uses ring operations, which keeps dyadic tests exact).
    """

    def __init__(self, n, coeffs=None):
        self.n = int(n)
        self.coeffs = dict(coeffs or {})

    @classmethod
    def constant(cls, n, value):
        return cls(n, {(0,) * (2 * n): value})

    @classmethod
    def variable(cls, n, slot):
        key = [0] * (2 * n)
        key[slot] = 1
        return cls(n, {tuple(key): 1.0 + 0.0j})

    def copy(self):
        return PolySymbol(self.n, dict(self.coeffs))

    def trim(self, tol=0.0):
        self.coeffs = {k: v for k, v in self.coeffs.items() if v != 0 and
                       (tol == 0.0 or abs(v) > tol)}
        return self

    def degree(self):
        return max((sum(k) for k in self.coeffs), default=0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return PolySymbol(self.n, out).trim()

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return PolySymbol(self.n, out).trim()

    def __mul__(self, other):
        if not isinstance(other, PolySymbol):
            return self.scale(other)
        out = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                out[k] = out.get(k, 0) + va * vb
        return PolySymbol(self.n, out).trim()

    def scale(self, c):
        return PolySymbol(self.n, {k: v * c for k, v in self.coeffs.items()}).trim()

    def pow(self, k):
        out = PolySymbol.constant(self.n, 1.0 + 0.0j)
        for _ in range(k):
            out = out * self
        return out

    # ring operators for to_poly; division is by a constant polynomial
    # (to_poly checks the tree first), read from its constant term
    __pow__ = pow

    def __neg__(self):
        return self.scale(-1.0)

    def __truediv__(self, other):
        return self.scale(1.0 / other.coeffs.get((0,) * (2 * self.n), 0.0))

    def divided_derivative(self, slot, order):
        """(1/order!) * d^order/dw_slot^order — integer recombination only."""
        out = {}
        for k, v in self.coeffs.items():
            a = k[slot]
            if a < order:
                continue
            kk = list(k)
            kk[slot] = a - order
            out[tuple(kk)] = out.get(tuple(kk), 0) + v * math.comb(a, order)
        return PolySymbol(self.n, out)

    def eval(self, w):
        w = np.asarray(w)
        total = 0
        for k, v in self.coeffs.items():
            term = v
            for slot, a in enumerate(k):
                if a:
                    term = term * w[slot] ** a
            total = total + term
        return total

    def __repr__(self):
        return f"PolySymbol(n={self.n}, {self.coeffs})"


def _poly_degree(node):
    """Total degree of a polynomial tree; None if non-polynomial."""
    if isinstance(node, Const):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, Neg):
        return _poly_degree(node.child)
    if isinstance(node, Exp):
        return 0 if _poly_degree(node.child) == 0 else None
    if isinstance(node, Pow):
        d = _poly_degree(node.base)
        if d is None or node.exponent < 0:
            return None
        return d * node.exponent
    if isinstance(node, BinOp):
        a = _poly_degree(node.left)
        b = _poly_degree(node.right)
        if a is None or b is None:
            return None
        if node.op in "+-":
            return max(a, b)
        if node.op == "*":
            return a + b
        return a if b == 0 else None
    raise TypeError


def symbol_from_poly(poly: PolySymbol) -> SymbolExpr:
    """Rebuild a SymbolExpr from polynomial coefficients."""
    n = poly.n
    node = None
    for key in sorted(poly.coeffs):
        coeff = poly.coeffs[key]
        term: Node = Const(complex(coeff))
        for slot, a in enumerate(key):
            if a == 0:
                continue
            kind = "x" if slot < n else "xi"
            idx = slot + 1 if slot < n else slot - n + 1
            var: Node = Var(kind, idx) if a == 1 else Pow(Var(kind, idx), a)
            term = BinOp("*", term, var)
        node = term if node is None else BinOp("+", node, term)
    if node is None:
        node = Const(0.0 + 0.0j)
    return SymbolExpr(n, node)
