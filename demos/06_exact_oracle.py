"""The exact-rational oracle: independent verification of every closed form.

Run:  python demos/06_exact_oracle.py
"""

from fractions import Fraction

from cl12 import e0, e1, e2, e4, e6, e7
from cl12 import oracle

print("the oracle re-derives the blade table from the generator rules and")
print("mirrors the arithmetic over exact rationals.")
print()

a = oracle.fvec(e0 + e2)
f = oracle.ffunctionals(a)
print(f"a = 1 + e2:  N = {f.N}, T = {f.T}, P = {f.P}  (exact integers)")
print(f"exact inverse: {oracle.finverse(a)}")
print()

print("== matrix pseudoinverse by full-rank factorization ==")
s = e1 + e2
ls = oracle.fleft_matrix(s)
print(f"rank L(e1+e2) = {oracle.rank(ls)} (of 8)")
pinv = oracle.exact_pinv(ls)
print("pinv agrees with the closed form transported to matrices:",
      pinv == oracle.fleft_matrix(oracle.fmp_inverse(s)))
print()

print("== exact linear solve with nullspace ==")
system = oracle.matmul(oracle.fleft_matrix(e0 + e1), oracle.fright_matrix(e6 + e7))
sol = oracle.exact_solve(system, oracle.fvec(e0 + e1 + e6 + e7))
print(f"consistent: {sol.consistent}, nullity: {len(sol.nullspace)}")
print(f"particular solution vector: {sol.particular}")
print()

print("== characteristic polynomial (Berkowitz, exact) ==")
pol = oracle.char_poly(oracle.fleft_matrix(e7))
quad = [1, 0, 1]
print(f"char poly of L(e7): {pol}")
print("which factors as (x^2 + 1)^4:",
      pol == oracle.poly_mul(oracle.poly_mul(quad, quad), oracle.poly_mul(quad, quad)))
print(f"value at the Gaussian rational i: {oracle.poly_eval_gaussian(pol, 0, 1)}")
print()

print("== fraction-free determinant ==")
m = [[Fraction(1, 2), 3], [5, 7]]
print(f"det [[1/2, 3], [5, 7]] = {oracle.exact_det(m)}  (exactly)")
print(f"det L(1+e2+e4) = {oracle.exact_det(oracle.fleft_matrix(e0 + e2 + e4))}"
      f"  = P(1+e2+e4)^2 = 81")
