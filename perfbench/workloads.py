"""Seeded inputs, job runners and output checks for the benchmark workloads.

A workload is a fixed list of job templates.  One round runs every
template once.  The seed and the round index choose only what leaves a
job's cost alone: which of several equally costly signals or pole
families a template uses, the coefficients and the positions of simple
poles, a sub-step shift of the grid, the sign of |y| or t, and a jitter
of about one per cent on damping and time.  They never choose which
templates run, how many points a job produces, or the panel counts
behind it.  Every round therefore has the same shape and nearly the
same cost, and the failed share of a run is exact whatever its seed or
length.

Each job calls the public function that the ``symlap`` command line
calls for it and returns that function's text output.  The checks
compare the output with results computed here, independently of the
program: the catalog table and the Faddeeva function for the forward
transform, and exponential-polynomial originals that are built together
with each rational transform for the two inversion paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("forward-grid", "split-invert", "numeric-invert", "verify-suite")

FORWARD_TOL = 1e-8
NUMERIC_TOL = 1e-6
TINY_STEPS = 4


@dataclass(frozen=True)
class Job:
    """One CLI-call equivalent: a template label, the call's arguments,
    the number of output values it must produce, and what the check
    needs to know about the right answer."""

    template: str
    args: tuple
    points: int
    oracle: object = None
    expect_error: Optional[str] = None


def _rng(workload: str, seed: int, round_index: int):
    return np.random.default_rng(
        [int(seed) & 0xFFFFFFFF, WORKLOADS.index(workload), round_index])


def grid(lo: float, hi: float, steps: int):
    """steps+1 evenly spaced points including both ends."""
    return [lo + k * (hi - lo) / steps for k in range(steps + 1)]


def _fmt(v: float) -> str:
    """Short decimal literal.  The program and the oracle both read the
    same text, so they see identical numbers."""
    return repr(round(float(v), 3))


def _jitter(rng, v: float, share: float = 0.01) -> float:
    return round(v * (1.0 + share * (2.0 * float(rng.random()) - 1.0)), 4)


def parse_csv(text: str, header: str):
    """Rows of a CSV output as a float array; the header must match."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad CSV header {lines[:1]!r}")
    cols = header.count(",") + 1
    return np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]],
                    dtype=float).reshape(len(lines) - 1, cols)


# ---------------------------------------------------------------------------
# forward-grid

# (signal family, freq, x1, x2, |y| range (lo, hi), steps).  Damping runs
# from 0.25 to 4, |y| stays below 60.  The signals of one family cost the
# same per point; the panel count of a point is set by x and |y|, which
# the seed moves by about one per cent only.
SIGN_LIKE = ("sign", "one", "heaviside")
TRIG = ("sincos", "cossin")
FORWARD_TEMPLATES = (
    ("sign_like", 1.0, 1.0, 1.0, (-59.0, 59.0), 200),
    ("sign_like", 1.0, 0.25, 0.5, (-8.0, 8.0), 100),
    ("sign_like", 1.0, 4.0, 4.0, (-59.0, 59.0), 200),
    ("ramp", 1.0, 1.0, 2.0, (-30.0, 30.0), 150),
    ("trig", 1.0, 1.0, 1.0, (-50.0, 50.0), 200),
    ("ode_rhs", 1.0, 2.0, 0.5, (-20.0, 20.0), 150),
    ("gauss", 1.0, 0.5, 0.5, (-40.0, 40.0), 100),
    ("trig", 2.0, 2.0, 3.0, (0.0, 59.0), 100),
    ("trig", 3.0, 0.5, 4.0, (-15.0, 15.0), 150),
)


def forward_round(seed: int, round_index: int, tiny: bool = False):
    rng = _rng("forward-grid", seed, round_index)
    jobs = []
    for k, (family, freq, x1, x2, (lo, hi), steps) in enumerate(
            FORWARD_TEMPLATES):
        if family == "sign_like":
            sig = SIGN_LIKE[int(rng.integers(len(SIGN_LIKE)))]
        elif family == "trig":
            sig = TRIG[int(rng.integers(len(TRIG)))]
        else:
            sig = family
        x1, x2 = _jitter(rng, x1), _jitter(rng, x2)
        if tiny:
            steps = TINY_STEPS
        # shift the grid by under half a step and maybe mirror it: the
        # set of |y| and so the cost stay put
        shift = (float(rng.random()) - 0.5) * 0.9 * (hi - lo) / steps
        mirror = -1.0 if rng.random() < 0.5 else 1.0
        ys = [mirror * (y + shift) + 0.0 for y in grid(lo, hi, steps)]
        jobs.append(Job(f"{k}:{sig}", (sig, x1, x2, ys, FORWARD_TOL, freq),
                        len(ys)))
    return jobs


def forward_closed(sig: str, x1: float, x2: float, y, freq: float = 1.0):
    """Closed-form transform of a catalog signal over an array of y."""
    y = np.asarray(y, dtype=float)
    s1 = x1 + 1j * y          # positive side: L[f](s1)
    s2 = x2 - 1j * y          # negative side: L[f(-u)](s2)
    w = freq
    if sig == "sign":
        return 1 / s1 - 1 / s2
    if sig == "one":
        return 1 / s1 + 1 / s2
    if sig == "heaviside":
        return 1 / s1 + 0 * s2
    if sig == "ramp":
        return 1 / s1 ** 2 - 1 / s2 ** 2
    if sig == "sincos":
        return w / (s1 ** 2 + w * w) + s2 / (s2 ** 2 + w * w)
    if sig == "cossin":
        return s1 / (s1 ** 2 + w * w) - w / (s2 ** 2 + w * w)
    if sig == "ode_rhs":
        return 1 / (s1 - 1) + 1 / s2
    if sig == "gauss":
        # the integral of exp(-s u - u^2) over u > 0 is
        # sqrt(pi)/2 * erfcx(s/2), and erfcx(z) = w(i z) with w the
        # Faddeeva function
        from scipy.special import wofz

        return (math.sqrt(math.pi) / 2) * (wofz(0.5j * s1) + wofz(0.5j * s2))
    raise ValueError(f"no closed form for {sig!r}")


def check_forward(job: Job, text: str) -> Optional[str]:
    """|value - closed form| <= tol and 0 <= estimate <= tol at every
    point.  Returns a problem or None."""
    sig, x1, x2, ys, tol, freq = job.args
    rows = parse_csv(text, "y,re,im,err")
    if len(rows) != len(ys) or not np.array_equal(rows[:, 0], ys):
        return "y column differs from the requested grid"
    closed = forward_closed(sig, x1, x2, rows[:, 0], freq)
    gap = np.abs(rows[:, 1] + 1j * rows[:, 2] - closed)
    err = rows[:, 3]
    if not np.all(gap <= tol):
        k = int(np.argmax(gap))
        return (f"{sig} x1={x1} x2={x2} y={ys[k]!r}: |value - closed| = "
                f"{gap[k]:.3e} > tol {tol:g}")
    if not np.all((err >= 0) & (err <= tol)):
        k = int(np.argmax(np.abs(err)))
        return f"{sig} y={ys[k]!r}: estimate {err[k]:.3e} outside [0, tol]"
    return None


# ---------------------------------------------------------------------------
# exponential-polynomial originals shared by both inversion workloads

@dataclass
class Side:
    """Rational transform of one half-line and its original.

    ``terms`` are (coefficient, pole, order) triples meaning
    c/(s-a)^k  <->  c * t^(k-1) * exp(a*t) / (k-1)!.  ``text`` is the
    same transform as an expression in ``var``, written the way a user
    would (real quadratics for oscillations, products for shared
    factors), so that the parser does the combining.
    """

    var: str
    text: list = field(default_factory=list)
    terms: list = field(default_factory=list)

    def pole(self, c, a, k=1):
        den = f"({self.var}{_shift(a)})"
        self.text.append(f"{_coef(c)}/{den}" + (f"^{k}" if k > 1 else ""))
        self.terms.append((complex(c), complex(a), k))

    def oscillation(self, alpha, beta, c, d):
        """(c*(s-alpha) + d*beta)/((s-alpha)^2 + beta^2)
        <-> exp(alpha t) (c cos(beta t) + d sin(beta t))."""
        v = f"({self.var}{_shift(alpha)})"
        self.text.append(f"({_fmt(c)}*{v}+{_fmt(d)}*{_fmt(beta)})"
                         f"/({v}^2+{_fmt(beta)}^2)")
        for sgn in (1, -1):
            self.terms.append((complex(c / 2, -sgn * d / 2),
                               complex(alpha, sgn * beta), 1))

    def shared(self, c, a1, a2):
        """c/((s-a1)(s-a2)): a term over a factor another term uses."""
        self.text.append(f"{_fmt(c)}/(({self.var}{_shift(a1)})"
                         f"*({self.var}{_shift(a2)}))")
        self.terms.append((complex(c / (a1 - a2)), complex(a1), 1))
        self.terms.append((complex(-c / (a1 - a2)), complex(a2), 1))

    def expression(self) -> str:
        return " + ".join(self.text)

    def value(self, t):
        """Original at t >= 0 (array)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for c, a, k in self.terms:
            out += c * t ** (k - 1) * np.exp(a * t) / math.factorial(k - 1)
        return out

    def scale(self, t):
        """Sum of the magnitudes of the terms at t >= 0 (array)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        for c, a, k in self.terms:
            out += (abs(c) * np.abs(t) ** (k - 1) * np.exp(a.real * t)
                    / math.factorial(k - 1))
        return out

    def at(self, z):
        """Transform value at z (array)."""
        out = np.zeros(np.shape(z), dtype=complex)
        for c, a, k in self.terms:
            out += c / (z - a) ** k
        return out

    def jump_part(self) -> complex:
        """Limit of the original at 0 from this side."""
        return sum((c for c, a, k in self.terms if k == 1), 0j)


def _coef(c) -> str:
    c = complex(c)
    if c.imag == 0:
        return _fmt(c.real)
    return f"({_fmt(c.real)}+{_fmt(c.imag)}*i)"


def _shift(a) -> str:
    """'-a' as text, for the factor (s - a)."""
    a = complex(a)
    if a.imag == 0:
        return f"-{_fmt(a.real)}" if a.real >= 0 else f"+{_fmt(-a.real)}"
    return f"-({_fmt(a.real)}+{_fmt(a.imag)}*i)"


@dataclass
class Transform:
    """A split rational transform with its original on both half-lines.

    ``fixed_text`` replaces the generated text for the literal examples
    (README, paper, ODE); ``fixed_original`` replaces the generated
    original for transforms written with poles of high order.
    """

    pos: Side
    neg: Side
    fixed_text: Optional[str] = None
    fixed_original: Optional[Callable] = None

    def text(self) -> str:
        if self.fixed_text is not None:
            return self.fixed_text
        parts = [p for p in (self.pos.expression(), self.neg.expression())
                 if p]
        return " + ".join(parts)

    def original(self, t):
        """f(t); at t = 0 the positive side (H(0) = 1)."""
        t = np.asarray(t, dtype=float)
        if self.fixed_original is not None:
            return self.fixed_original(t)
        return np.where(t >= 0, self.pos.value(np.abs(t)),
                        self.neg.value(np.abs(t)))

    def scale(self, t):
        t = np.asarray(t, dtype=float)
        if self.fixed_original is not None:
            return np.ones(t.shape)
        return np.where(t >= 0, self.pos.scale(np.abs(t)),
                        self.neg.scale(np.abs(t)))


def _sides():
    return Side("s"), Side("cs")


def _distinct(rng, n, lo, hi, gap=0.3):
    """n values on a 0.05 lattice in [lo, hi], pairwise at least gap
    apart, so that no two generated poles can merge in the root finder."""
    while True:
        v = np.round(rng.uniform(lo, hi, n) / 0.05) * 0.05
        if n < 2 or np.min(np.diff(np.sort(v))) >= gap:
            return [float(x) for x in v]


def _c(rng, lo=0.5, hi=2.0):
    """A coefficient of random sign, magnitude in [lo, hi]."""
    return float(round(rng.choice((-1, 1)) * rng.uniform(lo, hi), 2))


# ---------------------------------------------------------------------------
# split-invert

# Simple poles are seeded.  Double poles sit at fixed places and only
# their coefficients are seeded: the root finder needs from one to ten
# times as long for a double root depending on where it lies, which
# would make the cost of a round depend on the seed.

ODE_TEXT = ("1/2 * 1/(s-1) - 1/2 * s/(s^2+1) - 1/2 * 1/(s^2+1) "
            "+ 1/cs - cs/(cs^2+1)")


def _ode_transform(rng):
    p, n = _sides()
    p.pole(0.5, 1.0)
    p.oscillation(0.0, 1.0, -0.5, -0.5)
    n.pole(1.0, 0.0)
    n.oscillation(0.0, 1.0, -1.0, 0.0)
    return Transform(p, n, fixed_text=ODE_TEXT)


def _readme_ramp(rng):
    p, n = _sides()
    p.pole(1.0, 0.0, 2)
    n.pole(-1.0, 0.0, 2)
    return Transform(p, n, fixed_text="1/s^2 - 1/cs^2")


def _paper_sign(rng):
    p, n = _sides()
    p.pole(1.0, 0.0)
    n.pole(-1.0, 0.0)
    return Transform(p, n, fixed_text="1/s - 1/cs")


def _paper_one(rng):
    p, n = _sides()
    p.pole(1.0, 0.0)
    n.pole(1.0, 0.0)
    return Transform(p, n, fixed_text="1/s + 1/cs")


def _two_real(rng):
    p, n = _sides()
    for a in _distinct(rng, 2, -2.5, 0.5):
        p.pole(_c(rng), a)
    n.pole(_c(rng), _distinct(rng, 1, -2.0, 0.5)[0])
    return Transform(p, n)


def _oscillation_double(rng):
    p, n = _sides()
    p.oscillation(_distinct(rng, 1, -1.0, 0.3)[0],
                  float(rng.choice((0.5, 1.0, 1.5, 2.0, 2.5))),
                  _c(rng), _c(rng))
    n.pole(_c(rng), -1.0, 2)
    return Transform(p, n)


def _shared_factor(rng):
    """Terms over common factors.  The parser multiplies the denominators
    out, so (s+1) and (cs+0.5) come out squared."""
    p, n = _sides()
    p.pole(_c(rng), -1.0)
    p.shared(_c(rng), -1.0, 0.5)
    n.pole(_c(rng), -0.5)
    n.pole(_c(rng), -0.5)
    n.pole(_c(rng), -2.0)
    return Transform(p, n)


def _complex_pole(rng):
    p, n = _sides()
    a = complex(_distinct(rng, 1, -1.5, 0.3)[0],
                float(rng.choice((-2.0, -1.0, 1.0, 2.0))))
    p.pole(complex(_c(rng), _c(rng)), a)
    n.pole(_c(rng), _distinct(rng, 1, -2.0, 0.5)[0])
    return Transform(p, n)


def _wide(rng):
    """Four real poles and an oscillation on one side, three real poles
    on the other: enough that this template costs about 25 % more than
    ``oscillation``.  job_p50_ms then falls on ``oscillation``, whose
    root-finder work is the same for every seed, and not between two
    templates of nearly equal cost, one of them moving with the seed."""
    p, n = _sides()
    for a in _distinct(rng, 4, -3.0, 0.5):
        p.pole(_c(rng), a)
    p.oscillation(_distinct(rng, 1, -1.0, 0.2)[0], 1.5, _c(rng), _c(rng))
    for b in _distinct(rng, 3, -2.5, 0.5):
        n.pole(_c(rng), b)
    return Transform(p, n)


SPLIT_TEMPLATES = (
    ("readme_ramp", _readme_ramp),
    ("paper_sign", _paper_sign),
    ("paper_one", _paper_one),
    ("ode", _ode_transform),
    ("two_real", _two_real),
    ("oscillation", _oscillation_double),
    ("shared_factor", _shared_factor),
    ("complex_pole", _complex_pole),
    ("wide", _wide),
)


def _cube_original(t):
    """1/(s+1)^3  <->  t^2 exp(-t) / 2."""
    return np.where(t >= 0, t * t * np.exp(-np.abs(t)) / 2, 0.0)


def _quartic_original(t):
    """1/(s^2+1)^4  <->  ((15 - 6t^2) sin t + (t^3 - 15 t) cos t) / 48."""
    u = np.abs(t)
    val = (u ** 3 * np.cos(u) - 6 * u * u * np.sin(u)
           - 15 * u * np.cos(u) + 15 * np.sin(u)) / 48
    return np.where(t >= 0, val, 0.0)


# Poles of multiplicity 3 and 4.  The root finder cannot resolve them, so
# today these raise RootFindingError on every run.  Text and t grid are
# fixed, never seeded, so the failed share of a run is exact.
SPLIT_FAILING = (
    ("triple_pole", "1/(s+1)^3", _cube_original),
    ("quartic_pole", "1/(s^2+1)^4", _quartic_original),
)
SPLIT_FAILING_TMAX = 2.5
SPLIT_STEPS = 100


def split_round(seed: int, round_index: int, tiny: bool = False):
    rng = _rng("split-invert", seed, round_index)
    steps = TINY_STEPS if tiny else SPLIT_STEPS
    jobs = []
    for name, make in SPLIT_TEMPLATES:
        tf = make(rng)
        tmax = round(float(rng.uniform(2.0, 3.0)), 3)
        jobs.append(Job(name, (tf.text(), grid(-tmax, tmax, steps)),
                        steps + 1, tf))
    for name, text, fn in SPLIT_FAILING:
        ts = grid(-SPLIT_FAILING_TMAX, SPLIT_FAILING_TMAX, steps)
        jobs.append(Job(name, (text, ts), steps + 1,
                        Transform(*_sides(), fixed_text=text,
                                  fixed_original=fn),
                        expect_error="RootFindingError"))
    return jobs


# Agreement with the original, relative to the summed magnitudes of its
# terms at t.  Double poles (the spuriously squared shared factors among them)
# are located to about 1e-8, the square root of the rounding unit, and
# their coefficients carry errors of that order.
SPLIT_RTOL = 1e-6
SPLIT_ATOL = 1e-9


def check_split(job: Job, text: str) -> Optional[str]:
    expr_text, ts = job.args
    tf = job.oracle
    rows = parse_csv(text, "t,re,im")
    if len(rows) != len(ts) or not np.array_equal(rows[:, 0], ts):
        return "t column differs from the requested grid"
    t = rows[:, 0]
    gap = np.abs(rows[:, 1] + 1j * rows[:, 2] - tf.original(t))
    allow = SPLIT_RTOL * tf.scale(t) + SPLIT_ATOL
    if not np.all(gap <= allow):
        k = int(np.argmax(gap / allow))
        return (f"{expr_text!r} at t={t[k]!r}: |value - original| = "
                f"{gap[k]:.3e} > {allow[k]:.3e}")
    return None


# ---------------------------------------------------------------------------
# numeric-invert

# (A, |t|).  The panel count of a job is about 8 A (|t| + 1) / pi at A
# and half that at A/2; the seed moves |t| by one per cent and picks its
# sign.  t = 0 checks the jump midpoint.
NUMERIC_TEMPLATES = (
    (250.0, 0.0),
    (250.0, 0.5),
    (250.0, 1.5),
    (250.0, 2.75),
    (250.0, 3.75),
    (1000.0, 0.0),
    (1000.0, 0.5),
    (1000.0, 1.0),
    (1000.0, 1.5),
    (1000.0, 2.75),
    (1000.0, 3.75),
)


def _numeric_transform(rng, kind: int):
    p, n = _sides()
    if kind == 0:          # sign, the paper's first example
        p.pole(1.0, 0.0)
        n.pole(-1.0, 0.0)
    elif kind == 1:        # two decaying exponentials, a jump at zero
        p.pole(_c(rng), _distinct(rng, 1, -2.0, -0.5)[0])
        n.pole(_c(rng), _distinct(rng, 1, -2.0, -0.5)[0])
    else:                  # t exp(a t) on the right, exp(b t) on the left
        p.pole(_c(rng), _distinct(rng, 1, -2.0, -0.5)[0], 2)
        n.pole(_c(rng), _distinct(rng, 1, -2.0, -0.5)[0])
    return Transform(p, n)


def numeric_round(seed: int, round_index: int, tiny: bool = False):
    rng = _rng("numeric-invert", seed, round_index)
    jobs = []
    for k, (A, t_abs) in enumerate(NUMERIC_TEMPLATES):
        tf = _numeric_transform(rng, k % 3)
        x1 = round(float(rng.uniform(0.3, 0.6)), 3)
        x2 = round(float(rng.uniform(0.3, 0.6)), 3)
        sign = -1.0 if rng.random() < 0.5 else 1.0
        t = sign * _jitter(rng, t_abs) + 0.0
        if tiny:
            A = 20.0
        jobs.append(Job(f"A={A:g},|t|={t_abs:g}",
                        (tf.text(), x1, x2, t, A, NUMERIC_TOL), 1, tf))
    return jobs


def numeric_allowance(tf: Transform, x1: float, x2: float, t: float,
                      A: float, tol: float) -> float:
    """Bound on |result - f_mid(t)| for inversion truncated at A.

    With J the jump of f at 0, the transform is F(y) = J/(iy) + R(y)
    with |R(y)| <= C2/y^2 for |y| >= A.  The J part of the missing tails
    integrates to J*(pi/2 - Si(A|t|))/pi, zero at t = 0; the R part to
    at most C2/(pi*A).  Both are scaled by the exp(x t) prefactor, and
    discretization adds at most tol.  C2 is the sup of |y^2 R(y)|,
    sampled on |y| = A/u for u in (0, 1].
    """
    from scipy.special import sici

    jump = tf.pos.jump_part() - tf.neg.jump_part()
    u = np.linspace(1e-3, 1.0, 2000)
    y = np.concatenate([A / u, -A / u])
    F = tf.pos.at(x1 + 1j * y) + tf.neg.at(x2 - 1j * y)
    c2 = 1.1 * float(np.max(np.abs(y * y * (F - jump / (1j * y)))))
    lead = 0.0 if t == 0 else abs(jump) * abs(math.pi / 2
                                              - sici(A * abs(t))[0]) / math.pi
    pref = math.exp(x1 * t if t >= 0 else -x2 * t)
    return pref * (lead + c2 / (math.pi * A)) + tol


def numeric_midpoint(tf: Transform, t: float) -> complex:
    """The value the inversion converges to: (f(t+) + f(t-))/2."""
    if t != 0:
        return complex(tf.original(t))
    return complex((tf.pos.jump_part() + tf.neg.jump_part()) / 2)


def check_numeric(job: Job, text: str) -> Optional[str]:
    expr_text, x1, x2, t, A, tol = job.args
    rows = parse_csv(text, "t,re,im,a_sensitivity")
    if len(rows) != 1 or rows[0, 0] != t:
        return "t column differs from the requested time"
    value = complex(rows[0, 1], rows[0, 2])
    tf = job.oracle
    allow = numeric_allowance(tf, x1, x2, t, A, tol)
    gap = abs(value - numeric_midpoint(tf, t))
    if not gap <= allow:
        return (f"{expr_text!r} t={t!r} A={A:g}: |value - f_mid| = "
                f"{gap:.3e} > allowance {allow:.3e}")
    half = numeric_allowance(tf, x1, x2, t, A / 2, tol)
    if not 0 <= rows[0, 3] <= allow + half:
        return (f"{expr_text!r} t={t!r}: a_sensitivity {rows[0, 3]:.3e} "
                f"exceeds the two allowances {allow + half:.3e}")
    return None


# ---------------------------------------------------------------------------
# verify-suite

VERIFY_CRITERIA = 10


def verify_round(seed: int, round_index: int, tiny: bool = False):
    """The suite has no inputs: verify.py seeds its own sample points."""
    return [Job("suite", (), VERIFY_CRITERIA)]


def check_verify(job: Job, text: str,
                 first: Optional[str] = None) -> Optional[str]:
    doc = json.loads(text)
    n = len(doc.get("criteria", []))
    if n != VERIFY_CRITERIA:
        return f"report lists {n} criteria, expected {VERIFY_CRITERIA}"
    if doc.get("all_pass") is not True:
        failed = [c["id"] for c in doc["criteria"] if c["status"] != "pass"]
        return f"all_pass is false: {failed}"
    if first is not None and text != first:
        return "report differs from the first repetition"
    return None


# ---------------------------------------------------------------------------

ROUNDS = {
    "forward-grid": forward_round,
    "split-invert": split_round,
    "numeric-invert": numeric_round,
    "verify-suite": verify_round,
}


def runner(workload: str, cli, verify):
    """The job function of a workload: the call the command line makes."""
    if workload == "forward-grid":
        def run(job):
            sig, x1, x2, ys, tol, freq = job.args
            return cli.forward_csv(sig, x1, x2, ys, tol, freq=freq)
    elif workload == "split-invert":
        def run(job):
            return cli.invert_csv(*job.args)
    elif workload == "numeric-invert":
        def run(job):
            return cli.invert_numeric_csv(*job.args)
    elif workload == "verify-suite":
        def run(job):
            return verify.report_json(verify.run_all())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return run


class Checker:
    """Checks the outputs of one run.  verify-suite compares every
    report with the run's first one."""

    def __init__(self, workload: str):
        self.workload = workload
        self.first = None

    def __call__(self, job: Job, text: str) -> Optional[str]:
        if self.workload == "forward-grid":
            return check_forward(job, text)
        if self.workload == "split-invert":
            return check_split(job, text)
        if self.workload == "numeric-invert":
            return check_numeric(job, text)
        problem = check_verify(job, text, self.first)
        if self.first is None:
            self.first = text
        return problem
