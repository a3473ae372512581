"""Transform-domain expressions in s and conj(s).

Grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ('+' | '-') factor | power
    power   := atom ('^' INTEGER)?
    atom    := NUMBER | 'i' | 's' | 'cs' | 'conj' '(' 's' ')' | '(' expr ')'

NUMBER is an integer or decimal literal, optionally with an exponent
part.  'cs' (alias conj(s)) denotes the conjugate variable.  Exponents
are nonnegative integers, at most 64.

One grammar, two algebras.  parse_transform reads the text in the
split algebra of pairs (g1 rational in s, g2 rational in cs).  Sums and
differences separate componentwise; products and quotients are allowed
whenever the result stays separable (one operand a constant, or both
operands on the same side).  Anything that would genuinely couple s with
cs, like 1/(s*cs), raises SplitError: such transforms are not invertible
by the split method and no decomposition is guessed.  Constant terms
land in g1.  eval_expression reads the same grammar in plain complex
arithmetic at given values of s and cs, with the same ParseError
positions and the same exponent cap of 64; the tests use it as the
oracle for the split classification.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

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
    """The expanded polynomial that RationalFunction.num and .den return:
    complex coefficients in ascending degree, trimmed of trailing exact
    zeros, the zero polynomial being [0], and its degree.  It has no
    value: evaluation goes by a RationalFunction's factors."""

    __slots__ = ("coef",)

    def __init__(self, coef):
        c = np.array(coef, dtype=complex, ndmin=1)  # a copy of its own
        self.coef = c[:_length(c)] if len(c) else np.zeros(1, complex)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coef) - 1 if not self.is_zero else -1

    @property
    def is_zero(self) -> bool:
        return len(self.coef) == 1 and self.coef[0] == 0


def _length(c):
    """The length of the coefficients c without their trailing exact
    zeros, at least 1."""
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return n


# sums on lists of Python complex, the IEEE additions of numpy's padded
# array sums without its calls (a longer tail copied, negated if subtracted)
def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _sub(a, b):
    return ([x - y for x, y in zip(a, b)] + a[len(b):]
            + [-y for y in b[len(a):]])


def _times(a, b):
    """The coefficients of a times b, b a number or coefficients."""
    return a * b if isinstance(b, complex) else np.convolve(a, b)


def _expanded(factors: dict) -> np.ndarray:
    """The coefficients of the product of the factors, each taken to its
    multiplicity; the empty product is [1]."""
    out = None
    for f, m in factors.items():
        for _ in range(m):
            out = np.array(f) if out is None else _times(out, f)
    return np.ones(1, complex) if out is None else out


def _factored(c: list):
    """(lead, factors): the polynomial of the coefficient list c is lead
    times the one monic factor, in {factor: 1}; a constant has no factor,
    the zero polynomial has lead 0.  The factor is its own coefficient
    tuple, c over lead with the bits of numpy's quotient (_quotient), and
    every zero in it is made positive, so that the sign of a zero does
    not tell two factors apart.  Raises ExprError for a coefficient that
    is not finite, in c or from the quotient."""
    c = _finite(c[:_length(c)])
    lead = c[-1]
    if len(c) < 2:
        return lead, {}
    f = tuple(x + 0j for x in c) if lead == 1 else _finite(tuple(
        _quotient(x.real, x.imag, lead.real, lead.imag) + 0j for x in c))
    return lead, {f: 1}


def _finite(c):
    """The coefficients c, after ExprError if one is not finite."""
    if not all(map(cmath.isfinite, c)):
        raise ExprError(f"non-finite coefficient in {list(c)}")
    return c


def _merged(a: dict, b: dict) -> dict:
    """The factors of a product: multiplicities of shared factors add."""
    out = dict(a)
    for f, m in b.items():
        out[f] = out.get(f, 0) + m
    return out


class RationalFunction:
    """scale * prod f^m over the numerator factors, divided by
    prod g^n over the denominator factors: RationalFunction(scale, numf,
    denf).  A constant has no factors, and scale is its value.

    A factor is a monic polynomial of degree >= 1, its own tuple of
    Python complex coefficients in ascending degree, carried once in a
    dict {factor: multiplicity} whose order is the order of evaluation.
    Products and powers add multiplicities, and a quotient moves the
    divisor's numerator factors into the denominator.  A sum goes over
    the least common multiple of the two denominators (the larger
    multiplicity of each shared factor), and its numerator becomes one
    new factor.  Factors that are exactly equal in numerator and
    denominator cancel.  A constant or factor coefficient that is not
    finite raises ExprError.

    num and den are the expanded Polynomials, den monic, derived on
    first use and kept: sums expand the numerators of their terms, and
    to_text prints both.  Evaluation never needs them; evaluate_rational
    goes by the factors.
    """

    def __init__(self, scale, numf: dict, denf: dict):
        scale = complex(scale)
        if not cmath.isfinite(scale):
            raise ExprError(f"non-finite coefficient {scale}")
        if scale == 0:
            numf, denf = {}, {}
        if denf and any(f in denf for f in numf):  # shared factors cancel
            n, d = numf, denf
            numf = {f: k for f, m in n.items() if (k := m - d.get(f, 0)) > 0}
            denf = {f: k for f, m in d.items() if (k := m - n.get(f, 0)) > 0}
        self.scale, self.numf, self.denf = scale, numf, denf
        self.is_zero = scale == 0
        self.is_constant = not numf and not denf

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # overflows to inf, unwarned
    def num(self) -> Polynomial:
        if not self.numf:
            return Polynomial([self.scale])
        return Polynomial(_times(_expanded(self.numf), self.scale))

    @cached_property
    def den(self) -> Polynomial:
        return Polynomial(_expanded(self.denf))

    @property
    def is_proper(self) -> bool:
        return self.num_degree < self.den_degree

    @cached_property
    def num_degree(self) -> int:
        """Degree of the numerator, -1 for the zero function."""
        if self.is_zero:
            return -1
        return sum((len(f) - 1) * m for f, m in self.numf.items())

    @cached_property
    def den_degree(self) -> int:
        return sum((len(f) - 1) * m for f, m in self.denf.items())

    @property
    def degrees(self) -> str:
        """Its degrees, which name it in an error message: its own text
        may run to thousands of coefficients."""
        return (f"numerator degree {self.num_degree}, denominator degree "
                f"{self.den_degree}")

    @property
    def is_real(self) -> bool:
        """Whether every coefficient is real, so that r(conj z) is
        conj r(z)."""
        return self.scale.imag == 0 and not any(
            c.imag for f in (*self.numf, *self.denf) for c in f)

    # the parser pairs every atom with a zero side, so sums with the zero
    # function skip the common-denominator products
    def __add__(self, other):
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return self._sum(other, _add)

    def __sub__(self, other):
        if other.is_zero:
            return self
        if self.is_zero:
            return -other
        return self._sum(other, _sub)

    def _sum(self, other, op):
        lcm = dict(self.denf)
        for f, m in other.denf.items():
            if lcm.get(f, 0) < m:
                lcm[f] = m
        lead, numf = _factored(op(self._over(lcm), other._over(lcm)))
        return RationalFunction(lead, numf, lcm)

    def _over(self, lcm: dict) -> list:
        """The numerator coefficients of self written over the
        denominator lcm: num times the factors of lcm that den lacks,
        num itself when it lacks none ([scale] for a constant)."""
        lacking = {f: k for f, m in lcm.items()
                   if (k := m - self.denf.get(f, 0))}
        if lacking:
            return _times(self.num.coef, _expanded(lacking)).tolist()
        return self.num.coef.tolist() if self.numf else [self.scale]

    def __neg__(self):
        return RationalFunction(-self.scale, self.numf, self.denf)

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return RationalFunction(self.scale * complex(other), self.numf,
                                    self.denf)
        return RationalFunction(self.scale * other.scale,
                                _merged(self.numf, other.numf),
                                _merged(self.denf, other.denf))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.is_zero:
            raise ExprError("division by an identically zero polynomial")
        return RationalFunction(self.scale / other.scale,
                                _merged(self.numf, other.denf),
                                _merged(self.denf, other.numf))

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

    @property
    def is_real(self) -> bool:
        """Whether both sides have real coefficients, so that the signal
        is real and F(x1, x2, -y) = conj F(x1, x2, y)."""
        return self.g1.is_real and self.g2.is_real

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


_MAX_NESTING = 100  # parentheses; deeper would recurse past Python's limit


class _Parser:
    """Recursive descent over the token list.  The grammar, the ParseError
    positions, the exponent cap and the nesting cap live here; every value
    is built by the algebra, whose mul, div and pow take the operator's
    position for the errors they raise.  Only parentheses recurse, at
    most _MAX_NESTING deep: a run of unary signs is read in a loop."""

    def __init__(self, text: str, algebra):
        self.toks = _lex(text)
        self.k = 0
        self.depth = 0  # parentheses open around the current token
        self.alg = algebra

    def expect(self, kind: str):
        tok = self.toks[self.k]
        self.k += 1
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])

    def parse(self):
        value = self.expr()
        kind, txt, pos = self.toks[self.k]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {txt!r}", pos)
        return value

    def expr(self):
        value = self.term()
        while (op := self.toks[self.k][0]) in ("+", "-"):
            self.k += 1
            rhs = self.term()
            value = (self.alg.add if op == "+" else self.alg.sub)(value, rhs)
        return value

    def term(self):
        value = self.factor()
        while (op := self.toks[self.k])[0] in ("*", "/"):
            self.k += 1
            rhs = self.factor()
            value = (self.alg.mul if op[0] == "*" else self.alg.div)(
                value, rhs, op[2])
        return value

    def factor(self):
        """A signed factor: ('+' | '-')* atom ('^' INTEGER)?, the power
        negated once for each '-'."""
        minus = 0
        while (sign := self.toks[self.k][0]) in ("+", "-"):
            self.k += 1
            minus += sign == "-"
        value = self.atom()
        op = self.toks[self.k]
        if op[0] == "^":
            kind, txt, pos = self.toks[self.k + 1]
            self.k += 2
            if kind != "num" or not txt.isdigit():
                raise ParseError("exponent must be a nonnegative integer",
                                 pos)
            n = int(txt)
            if n > 64:
                raise ExprError(f"exponent {n} too large (max 64)", op[2])
            value = self.alg.pow(value, n, op[2])
        for _ in range(minus):
            value = self.alg.neg(value)
        return value

    def atom(self):
        kind, txt, pos = self.toks[self.k]
        self.k += 1
        if kind == "num":
            return self.alg.const(float(txt))
        if kind == "s":
            return self.alg.s
        if kind == "cs":
            return self.alg.cs
        if kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{_MAX_NESTING}", pos)
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        if kind == "i":
            return self.alg.const(1j)
        if kind == "conj":
            self.expect("(")
            self.expect("s")
            self.expect(")")
            return self.alg.cs
        raise ParseError(f"expected a value, found {txt!r}"
                         if txt else "unexpected end of input", pos)


# ---------------------------------------------------------------------------
# the split algebra: pairs v = (g1 in s, g2 in cs), side k of v being v[k]

_RZERO = RationalFunction(0, {}, {})
_VAR = RationalFunction(1.0, {(0j, 1 + 0j): 1}, {})  # s, or cs


def _on_side(k, r):
    return (r, _RZERO) if k == 0 else (_RZERO, r)


def _pair_const(v):
    """The value of a pair whose two sides are constant, else None."""
    return (v[0].scale + v[1].scale
            if v[0].is_constant and v[1].is_constant else None)


def _side(v, k):
    """The whole pair as a rational on side k, or None if it truly needs
    the other side.  A constant-valued other side folds into side k."""
    return v[k] + v[1 - k] if v[1 - k].is_constant else None


def _split_mul(u, v, pos):
    for a, b in ((u, v), (v, u)):
        c = _pair_const(a)
        if c is not None:
            return (b[0] * c, b[1] * c)
    for k in (0, 1):
        a, b = _side(u, k), _side(v, k)
        if a is not None and b is not None:
            return _on_side(k, a * b)
    raise SplitError(
        "product couples s with cs and cannot be separated", pos)


def _split_div(u, v, pos):
    c = _pair_const(v)
    if c is not None:
        if c == 0:
            raise ExprError("division by an identically zero expression", pos)
        return (u[0] * (1.0 / c), u[1] * (1.0 / c))
    for k in (0, 1):
        b = _side(v, k)
        if b is not None:
            a = _side(u, k)
            if a is None:
                raise SplitError(
                    "quotient couples s with cs and cannot be separated", pos)
            return _on_side(k, a / b)
    raise SplitError("denominator mixes s and cs", pos)


def _split_pow(u, n, pos):
    out = (RationalFunction(1, {}, {}), _RZERO) if n == 0 else u
    for _ in range(n - 1):
        out = _split_mul(out, u, pos)
    return out


_SPLIT = SimpleNamespace(
    const=lambda c: (RationalFunction(c, {}, {}), _RZERO),
    s=(_VAR, _RZERO), cs=(_RZERO, _VAR),
    add=lambda u, v: (u[0] + v[0], u[1] + v[1]),
    sub=lambda u, v: (u[0] - v[0], u[1] - v[1]),
    neg=lambda u: (-u[0], -u[1]),
    mul=_split_mul, div=_split_div, pow=_split_pow)


def parse_transform(text: str) -> SplitTransform:
    """Parse text into a SplitTransform.

    Raises ParseError (bad syntax, with position), SplitError (a term
    mixes s and cs) or ExprError (division by a zero polynomial, an
    exponent above 64, or a coefficient that is infinite or overflows).
    """
    return SplitTransform(*_Parser(text, _SPLIT).parse())


def eval_expression(text: str, s: complex, cs: complex) -> complex:
    """Numerically evaluate the expression text with the given values
    substituted for s and cs, without any split classification: the same
    grammar as parse_transform read in plain complex arithmetic.  Used to
    cross-check that classification preserves the expression's value."""
    return _Parser(text, SimpleNamespace(
        const=complex, s=complex(s), cs=complex(cs),
        add=operator.add, sub=operator.sub, neg=operator.neg,
        mul=lambda u, v, pos: u * v,
        div=lambda u, v, pos: u / v,
        pow=lambda u, n, pos: u ** n)).parse()


# ---------------------------------------------------------------------------
# evaluation and roots

_POLE_GUARD = 1e-280
_ABERTH_ITERATIONS = 500
_CLUSTER_TOL = 1e-8


def _factors_at(factors: dict, z):
    """prod f(z)^m over the factors, or None for the empty product.  A
    monic linear factor costs one addition, z + c0; any other factor is
    evaluated by Horner's rule."""
    out = None
    for f, m in factors.items():
        v = z + f[0] if len(f) == 2 and f[1] == 1 else _horner(f, z)
        if m > 1:
            v = v ** m
        out = v if out is None else out * v
    return out


def evaluate_rational(r: RationalFunction, z):
    """r(z) from the factors of r: r.scale * prod f(z)^m over the
    numerator factors, divided by prod g(z)^n over the denominator
    factors (_factors_at); accepts scalars or arrays.

    Each factor is evaluated on its own, so the value keeps its digits
    next to a repeated pole, where the expanded denominator would lose
    them to cancellation.

    Raises PoleError when the denominator magnitude falls below the
    underflow guard at any requested point.
    """
    # a scalar z as a one-element array: numpy's array loops fuse complex
    # products and square by np.square, its scalars do neither
    scalar = np.ndim(z) == 0
    z = np.reshape(z, 1) if scalar else z
    den = _factors_at(r.denf, z)
    if den is not None and den.size and np.abs(den).min() < _POLE_GUARD:
        raise PoleError(
            f"evaluation at a pole of a rational function of {r.degrees}")
    num = _factors_at(r.numf, z)
    out = r.scale if num is None else r.scale * num
    if den is not None:  # den is an array of its own: the quotient
        out = np.divide(out, den, out=den)  # goes over it
    elif num is None:  # a constant, in the shape of z
        out = out + 0.0 * np.asarray(z)
    return complex(out[0]) if scalar else out


def polynomial_roots(coef):
    """All complex roots, with multiplicities as (root, count) pairs, of
    the polynomial of the coefficients coef: a sequence in ascending
    degree, whose trailing exact zeros are ignored.

    A linear polynomial has the one root -c0/c1, returned directly (a
    non-finite one raises RootFindingError).  Otherwise uses the Aberth-Ehrlich
    simultaneous iteration (no companion matrix), clusters iterates
    closer than _CLUSTER_TOL into a single root with summed
    multiplicity, and polishes each cluster with the multiplicity-aware
    Newton step.  Multiplicities always sum to the degree.  Results are
    sorted by (real, imag).
    """
    c = [complex(x) for x in coef]
    deg = _length(c) - 1
    if deg < 1:
        raise ValueError("need a polynomial of degree >= 1")
    if deg == 1:
        root = 0.0 - _quotient(c[0].real, c[0].imag, c[1].real, c[1].imag)
        if not cmath.isfinite(root):
            raise RootFindingError(f"linear polynomial has the root {root}")
        return [(root, 1)]
    # overflowing iterates meet the residual tests as RootFindingError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _aberth_roots(np.array(c[:deg + 1]) / c[deg], deg)


def _quotient(ar, ai, br, bi) -> complex:
    """(ar + i*ai) / (br + i*bi) in Python floats, which warn of no
    overflow, with the bits of numpy's quotient (Smith's, by a reciprocal)."""
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


def _aberth_roots(monic, deg):
    """polynomial_roots of the monic coefficients of degree deg >= 2."""
    dcoef = _derivative(monic)
    scale = max(1.0, float(np.max(np.abs(monic))))

    radius = 1.0 + float(np.max(np.abs(monic[:-1])))
    angles = 2.0 * np.pi * (np.arange(deg) + 0.35) / deg + 0.45
    z = radius * np.exp(1j * angles)

    converged = False
    for _ in range(_ABERTH_ITERATIONS):
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

    z = np.sort_complex(z)
    out = []
    for group in _cluster(z, _CLUSTER_TOL):
        mult = len(group)
        center = _polish(monic, complex(np.mean(z[group])), mult)
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
    """Greedy transitive clustering of the sorted points z, as lists of
    indices."""
    groups = []
    for i, zi in enumerate(z):
        for g in groups:
            if any(abs(zi - z[j]) <= tol for j in g):
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


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
