"""Classical and generalized inverses, with the exact-arithmetic cross-check.

Run:  python demos/03_inverses.py
"""

from cl12 import Multivector, e0, e1, e2, e4, inverse, mp_inverse
from cl12 import oracle

a = e0 + e2 + e4
print(f"a = {a},  P(a) = {a.functionals().P:g}  (nonzero, so invertible)")
inv = inverse(a)
print(f"a^-1 = {inv}")
print(f"a * a^-1 = {a * inv}")
print()

s = e1 + e2
print(f"s = {s},  P(s) = {s.functionals().P:g}  (singular: no classical inverse)")
mp = mp_inverse(s)
print(f"generalized inverse: {mp.pinv}   [{mp.kind.value}]")
x = mp.pinv
print("the four defining conditions:")
print(f"  s x s == s : {s * x * s == s}")
print(f"  x s x == x : {x * s * x == x}")
print(f"  (s x)' == s x : {(s * x).prime() == s * x}")
print(f"  (x s)' == x s : {(x * s).prime() == x * s}")
print()

print("every element has one, and the three cases meet in a total function:")
for m in (Multivector.zero(), a, s, e0 + e1):
    r = mp_inverse(m)
    print(f"  pinv({str(m):12s}) = {str(r.pinv):28s} kind={r.kind.value:16s}"
          f" condition={r.condition:g}")
print("(condition = P / s^2 in [0, 1], s the coefficient square sum;"
      " near zero means the classical branch is explosive)")
print()

print("== exact cross-check on the matrix side ==")
fa = oracle.fvec(s)
lhs = oracle.fleft_matrix(oracle.fmp_inverse(fa))
rhs = oracle.exact_pinv(oracle.fleft_matrix(fa))
print(f"L(pinv(s)) equals the rational matrix pseudoinverse of L(s): {lhs == rhs}")
print("(computed over exact rationals via full-rank factorization)")
