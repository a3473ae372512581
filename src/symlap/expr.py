"""Transform-domain expressions in s and conj(s).

Grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ('+' | '-') factor | power
    power   := atom ('^' INTEGER)?
    atom    := NUMBER | 'i' | 's' | 'cs' | 'conj' '(' 's' ')' | '(' expr ')'

NUMBER is an integer or decimal literal, optionally with an exponent
part.  'cs' (alias conj(s)) denotes the conjugate variable.  Exponents
are nonnegative integers.

Parsing evaluates the expression in an algebra of pairs
(g1 rational in s, g2 rational in cs).  Sums and differences separate
componentwise; products and quotients are allowed whenever the result
stays separable (one operand a constant, or both operands on the same
side).  Anything that would genuinely couple s with cs, like 1/(s*cs),
raises SplitError: such transforms are not invertible by the split
method and no decomposition is guessed.  Constant terms land in g1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ExprError, ParseError, PoleError, RootFindingError, SplitError


def _horner(c, z):
    """sum_k c[k] * z**k by Horner's rule from the leading coefficient;
    z a scalar or an array.  Agrees bit for bit with
    numpy.polynomial.polynomial.polyval."""
    if len(c) == 1:
        return c[0] + z * 0  # keeps the shape of an array z
    out = c[-1] * z + c[-2]
    for k in range(len(c) - 3, -1, -1):
        out = out * z + c[k]
    return out


def _derivative(c):
    """Coefficients of the derivative, the constant's being [0]."""
    return c[1:] * np.arange(1, len(c)) if len(c) > 1 else c[:1] * 0


class Polynomial:
    """Complex-coefficient polynomial, coefficients in ascending degree.

    The coefficient array is trimmed of trailing exact zeros; the zero
    polynomial is represented as [0].  No inexact trimming is performed,
    arithmetic is plain double-precision complex.
    """

    __slots__ = ("coef",)

    def __init__(self, coef):
        c = np.atleast_1d(np.asarray(coef, dtype=complex))
        n = len(c)
        while n > 1 and c[n - 1] == 0:
            n -= 1
        self.coef = c[:n].copy() if n else np.zeros(1, complex)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coef) - 1 if not self.is_zero else -1

    @property
    def is_zero(self) -> bool:
        return len(self.coef) == 1 and self.coef[0] == 0

    def __call__(self, z):
        return _horner(self.coef, z)

    def __add__(self, other):
        a, b = sorted((self.coef, other.coef), key=len, reverse=True)
        out = a.copy()
        out[:len(b)] += b
        return Polynomial(out)

    def __sub__(self, other):
        a, b = self.coef, other.coef
        if len(a) > len(b):
            out = a.copy()
            out[:len(b)] -= b
        else:
            out = -b
            out[:len(a)] += a
        return Polynomial(out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coef, other.coef))
        return Polynomial(self.coef * complex(other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Polynomial([1])
        for _ in range(int(n)):
            out = out * self
        return out

    def deriv(self):
        return Polynomial(_derivative(self.coef))

    def shifted(self, p: complex):
        """Coefficients of self(p + u) in powers of u (Taylor shift),
        by repeated synthetic division by (z - p)."""
        b = self.coef[::-1].astype(complex).copy()  # descending order
        n = len(b)
        out = np.empty(n, dtype=complex)
        for k in range(n):
            for i in range(1, n - k):
                b[i] += p * b[i - 1]
            out[k] = b[n - 1 - k]
        return out

    def __repr__(self):
        return f"Polynomial({list(self.coef)})"


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of polynomials, normalized so the denominator is monic."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ExprError("division by an identically zero polynomial")
        lead = self.den.coef[-1]
        if lead != 1:
            object.__setattr__(self, "num", Polynomial(self.num.coef / lead))
            object.__setattr__(self, "den", Polynomial(self.den.coef / lead))
        if self.num.is_zero and self.den.degree != 0:
            object.__setattr__(self, "den", Polynomial([1]))

    @classmethod
    def const(cls, c) -> "RationalFunction":
        return cls(Polynomial([c]), Polynomial([1]))

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls(Polynomial([0, 1]), Polynomial([1]))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    @property
    def is_proper(self) -> bool:
        return self.num.degree < self.den.degree

    def constant_value(self) -> complex:
        return complex(self.num.coef[0] / self.den.coef[0])

    # the parser pairs every atom with a zero side, so sums with the zero
    # function skip the common-denominator products
    def __add__(self, other):
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other):
        if other.is_zero:
            return self
        if self.is_zero:  # 0 - num, as the full formula rounds its zeros
            return RationalFunction(self.num - other.num, other.den)
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __neg__(self):
        return RationalFunction(Polynomial(-self.num.coef), self.den)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.num, self.den * other.den)
        return RationalFunction(self.num * other, self.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.num.is_zero:
            raise ExprError("division by an identically zero polynomial")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int):
        out = RationalFunction.const(1)
        for _ in range(int(n)):
            out = out * self
        return out

    def __str__(self):
        return self.to_text("s")

    def to_text(self, var: str) -> str:
        if self.is_zero:
            return "0"
        num = _poly_text(self.num, var)
        if self.den.degree == 0:
            return f"({num})"
        return f"({num})/({_poly_text(self.den, var)})"


def _coef_text(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    if c.real == 0:
        return f"{c.imag!r}*i"
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real!r}{sign}{abs(c.imag)!r}*i)"


def _poly_text(p: Polynomial, var: str) -> str:
    parts = []
    for k in range(p.degree, -1, -1):
        c = complex(p.coef[k])
        if c == 0:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        body = _coef_text(c) if not mono else f"{_coef_text(c)}*{mono}"
        parts.append(body)
    return " + ".join(parts) if parts else "0.0"


@dataclass(frozen=True)
class SplitTransform:
    """Transform split into an s-part g1 and a conj(s)-part g2."""

    g1: RationalFunction
    g2: RationalFunction

    # Partial fractions of each side, computed on first use and kept, so
    # inverting at many t decomposes each side once.
    @cached_property
    def g1_terms(self):
        from .inversion import partial_fractions

        return partial_fractions(self.g1)

    @cached_property
    def g2_terms(self):
        from .inversion import partial_fractions

        return partial_fractions(self.g2)

    def pretty(self) -> str:
        if self.g2.is_zero:
            return self.g1.to_text("s")
        if self.g1.is_zero:
            return self.g2.to_text("cs")
        return f"{self.g1.to_text('s')} + {self.g2.to_text('cs')}"


# ---------------------------------------------------------------------------
# lexer / parser

_OPS = set("+-*/^()")


def _lex(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and (
                    j + 1 < n and (text[j + 1].isdigit()
                                   or (text[j + 1] in "+-" and j + 2 < n
                                       and text[j + 2].isdigit()))):
                j += 2
                while j < n and text[j].isdigit():
                    j += 1
            try:
                float(text[i:j])
            except ValueError:
                raise ParseError(f"malformed number {text[i:j]!r}", i) from None
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("s", "cs", "i", "conj"):
                raise ParseError(f"unknown identifier {word!r}", i)
            tokens.append((word, word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the token list, evaluating directly into
    the (g1, g2) split algebra."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def advance(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> SplitTransform:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return SplitTransform(value[0], value[1])

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            if op[0] == "+":
                value = (value[0] + rhs[0], value[1] + rhs[1])
            else:
                value = (value[0] - rhs[0], value[1] - rhs[1])
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            if op[0] == "*":
                value = _split_mul(value, rhs, op[2])
            else:
                value = _split_div(value, rhs, op[2])
        return value

    def factor(self):
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.advance()
            inner = self.factor()
            if tok[0] == "-":
                return (-inner[0], -inner[1])
            return inner
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            op = self.advance()
            tok = self.advance()
            if tok[0] != "num" or not tok[1].isdigit():
                raise ParseError(
                    "exponent must be a nonnegative integer", tok[2])
            n = int(tok[1])
            if n > 64:
                raise ExprError(f"exponent {n} too large (max 64)", op[2])
            return _split_pow(base, n, op[2])
        return base

    def atom(self):
        tok = self.advance()
        kind, txt, pos = tok
        if kind == "num":
            return (RationalFunction.const(float(txt)), _RZERO)
        if kind == "i":
            return (RationalFunction.const(1j), _RZERO)
        if kind == "s":
            return (RationalFunction.variable(), _RZERO)
        if kind == "cs":
            return (_RZERO, RationalFunction.variable())
        if kind == "conj":
            self.expect("(")
            self.expect("s")
            self.expect(")")
            return (_RZERO, RationalFunction.variable())
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"expected a value, found {txt!r}"
                         if txt else "unexpected end of input", pos)


_RZERO = RationalFunction.const(0)


def _is_const_pair(v) -> bool:
    return v[0].is_constant and v[1].is_constant


def _pair_const(v) -> complex:
    return v[0].constant_value() + v[1].constant_value()


def _as_s(v):
    """The whole pair as a rational in s, or None if it truly needs cs.
    A constant-valued cs component folds into the s side."""
    if v[1].is_zero:
        return v[0]
    if v[1].is_constant:
        return v[0] + RationalFunction.const(v[1].constant_value())
    return None


def _as_cs(v):
    if v[0].is_zero:
        return v[1]
    if v[0].is_constant:
        return v[1] + RationalFunction.const(v[0].constant_value())
    return None


def _split_mul(u, v, pos):
    if _is_const_pair(u):
        c = _pair_const(u)
        return (v[0] * c, v[1] * c)
    if _is_const_pair(v):
        c = _pair_const(v)
        return (u[0] * c, u[1] * c)
    us, vs = _as_s(u), _as_s(v)
    if us is not None and vs is not None:
        return (us * vs, _RZERO)
    ucs, vcs = _as_cs(u), _as_cs(v)
    if ucs is not None and vcs is not None:
        return (_RZERO, ucs * vcs)
    raise SplitError(
        "product couples s with cs and cannot be separated", pos)


def _split_div(u, v, pos):
    if v[0].is_zero and v[1].is_zero:
        raise ExprError("division by an identically zero expression", pos)
    if _is_const_pair(v):
        c = _pair_const(v)
        if c == 0:
            raise ExprError("division by an identically zero expression", pos)
        return (u[0] * (1.0 / c), u[1] * (1.0 / c))
    vs = _as_s(v)
    if vs is not None:
        us = _as_s(u)
        if us is None:
            raise SplitError(
                "quotient couples s with cs and cannot be separated", pos)
        return (us / vs, _RZERO)
    vcs = _as_cs(v)
    if vcs is not None:
        ucs = _as_cs(u)
        if ucs is None:
            raise SplitError(
                "quotient couples s with cs and cannot be separated", pos)
        return (_RZERO, ucs / vcs)
    raise SplitError("denominator mixes s and cs", pos)


def _split_pow(u, n, pos):
    if n == 0:
        return (RationalFunction.const(1), _RZERO)
    out = u
    for _ in range(n - 1):
        out = _split_mul(out, u, pos)
    return out


def parse_transform(text: str) -> SplitTransform:
    """Parse text into a SplitTransform.

    Raises ParseError (bad syntax, with position), SplitError (a term
    mixes s and cs) or ExprError (division by a zero polynomial).
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation and roots

_POLE_GUARD = 1e-280


def evaluate_rational(r: RationalFunction, z):
    """num(z)/den(z) by Horner evaluation; accepts scalars or arrays.

    Raises PoleError when the denominator magnitude falls below the
    underflow guard at any requested point.
    """
    den = r.den(z)
    if np.min(np.abs(den)) < _POLE_GUARD:
        raise PoleError(f"evaluation at a pole of {r}")
    out = r.num(z) / den
    return complex(out) if np.ndim(out) == 0 else out


# iterates of a high-degree polynomial may overflow; the residual tests
# turn a non-finite result into RootFindingError
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def polynomial_roots(p: Polynomial, *, cluster_tol: float = 1e-8,
                     max_iter: int = 500):
    """All complex roots of p with multiplicities, as (root, count) pairs.

    Uses the Aberth-Ehrlich simultaneous iteration (no companion
    matrix), clusters iterates closer than cluster_tol into a single
    root with summed multiplicity, and polishes each cluster with the
    multiplicity-aware Newton step.  Multiplicities always sum to the
    degree.  Results are sorted by (real, imag).
    """
    deg = p.degree
    if deg < 1:
        raise ValueError("need a polynomial of degree >= 1")
    monic = p.coef / p.coef[-1]
    dcoef = _derivative(monic)
    scale = max(1.0, float(np.max(np.abs(monic))))

    radius = 1.0 + float(np.max(np.abs(monic[:-1])))
    angles = 2.0 * np.pi * (np.arange(deg) + 0.35) / deg + 0.45
    z = radius * np.exp(1j * angles)

    converged = False
    for _ in range(max_iter):
        pv = _horner(monic, z)
        dv = _horner(dcoef, z)
        w = np.where(dv != 0, pv / np.where(dv != 0, dv, 1), 0.1 + 0.1j)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = np.sum(1.0 / diff, axis=1) - 1.0 / np.diagonal(diff)
        denom = 1.0 - w * s
        corr = np.where(denom != 0, w / np.where(denom != 0, denom, 1), w)
        z = z - corr
        if np.max(np.abs(corr)) <= 1e-14 * (1.0 + np.max(np.abs(z))):
            converged = True
            break
    if not converged:
        resid = float(np.max(np.abs(_horner(monic, z))))
        if _exceeds(resid, 1e-10, 1.0 + radius, deg):
            raise RootFindingError(
                f"root iteration did not converge (max residual {resid:.3e})")

    clusters = _cluster(np.sort_complex(z), cluster_tol)
    out = []
    for center, mult in clusters:
        center = _polish(monic, center, mult)
        res = abs(_horner(monic, center))
        if _exceeds(res, 1e-10 * scale, max(1.0, abs(center)), deg):
            raise RootFindingError(
                f"root {center} has residual {res:.3e} above tolerance")
        out.append((complex(center), int(mult)))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _exceeds(resid, factor, base, deg):
    """resid > factor * base**deg, compared in logarithms so that
    base**deg cannot overflow; a non-finite resid always exceeds."""
    if not math.isfinite(resid):
        return True
    return resid > 0 and (math.log(resid)
                          > math.log(factor) + deg * math.log(base))


def _cluster(z, tol):
    """Greedy transitive clustering of sorted root iterates."""
    groups = []
    for zi in z:
        placed = False
        for g in groups:
            if any(abs(zi - zj) <= tol for zj in g):
                g.append(zi)
                placed = True
                break
        if not placed:
            groups.append([zi])
    return [(complex(np.mean(g)), len(g)) for g in groups]


def _polish(monic, z, mult):
    """Newton steps on the (mult-1)th derivative, where a root of exact
    multiplicity mult is simple; for mult 1 this is plain Newton.  An
    order-m root cannot be located better than eps^(1/m) through p
    itself, the derivative route sidesteps that floor."""
    q = monic
    for _ in range(mult - 1):
        q = _derivative(q)
    dq = _derivative(q)
    for _ in range(3):
        qv = _horner(q, z)
        dv = _horner(dq, z)
        if qv == 0 or abs(dv) <= 1e-280:
            break
        step = qv / dv
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        if abs(step) > 1.0:
            break  # derivative root is elsewhere, keep the cluster mean
        z = z - step
    return z


def eval_expression(text: str, s: complex, cs: complex) -> complex:
    """Numerically evaluate the raw expression text with the given values
    substituted for s and cs, without any split classification.  Used to
    cross-check that classification preserves the expression's value."""
    return _NumEval(text, complex(s), complex(cs)).run()


class _NumEval(_Parser):
    def __init__(self, text, s, cs):
        super().__init__(text)
        self._s = s
        self._cs = cs

    def run(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op[0] == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            value = value * rhs if op[0] == "*" else value / rhs
        return value

    def factor(self):
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.advance()
            inner = self.factor()
            return -inner if tok[0] == "-" else inner
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.advance()
            if tok[0] != "num" or not tok[1].isdigit():
                raise ParseError(
                    "exponent must be a nonnegative integer", tok[2])
            return base ** int(tok[1])
        return base

    def atom(self):
        kind, txt, pos = self.advance()
        if kind == "num":
            return complex(float(txt))
        if kind == "i":
            return 1j
        if kind == "s":
            return self._s
        if kind == "cs":
            return self._cs
        if kind == "conj":
            self.expect("(")
            self.expect("s")
            self.expect(")")
            return self._cs
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"expected a value, found {txt!r}"
                         if txt else "unexpected end of input", pos)
