"""Exact inversion of rational transforms by splitting on the variable.

A transform written as g1(s) + g2(cs) inverts side by side: the inverse
Laplace transform of g1 gives the signal on t >= 0, and the inverse of
g2, evaluated at -t, gives it on t < 0.  The expression parser does the
bookkeeping; genuinely mixed terms like 1/(s*cs) are rejected because
no separation exists.
"""

from symlap import parse_transform, partial_fractions, sl_inverse_split

print("1/s^2 - 1/cs^2 inverts to f(t) = t on the whole line:")
st = parse_transform("1/s^2 - 1/cs^2")
print(f"  g1 = {st.g1}   g2(cs) = {st.g2.to_text('cs')}")
ts = (-3.0, -0.25, 0.25, 3.0)
for t, v in zip(ts, sl_inverse_split(st, ts)):
    print(f"  f({t:+.2f}) = {v.real:+.15f}")

print()
print("Partial fractions drive the table c/(s-a)^k -> c t^(k-1) e^(at)/(k-1)!:")
r = parse_transform("(2*s+3)/((s+1)*(s+2))").g1
for term in partial_fractions(r):
    print(f"  pole {term.pole:+.3f}, order {term.order}, "
          f"coefficient {term.coefficient:+.3f}")

print()
print("Mixed variables cannot split:")
try:
    parse_transform("1/(s*cs)")
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")

print()
print("Constant terms are not invertible by the table (properness):")
try:
    sl_inverse_split(parse_transform("2 + 1/s"), 1.0)
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
