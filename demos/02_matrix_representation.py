"""The 8x8 matrix picture: multiplication as matrix-vector products.

Run:  python demos/02_matrix_representation.py
"""

from cl12 import (
    K8,
    Multivector,
    eigenvalues,
    left_matrix,
    right_matrix,
    vectorize,
)
from cl12 import oracle

a = Multivector((1, -1, 1, 1, 0, 0, 0, -1))
print(f"a = {a}")
print("L(a), the matrix of x -> a*x on coefficient vectors:")
for row in left_matrix(a):
    print(" ".join(f"{x:3g}" for x in row))
print()

# the oracle's products read the float entries exactly
x = Multivector((0, 1, 0, 2, 0, 0, -1, 0))
print(f"vec(a*x)        = {oracle.fvec(vectorize(a * x))}")
print(f"L(a) vec(x)     = {tuple(oracle.mat_vec(left_matrix(a), vectorize(x)))}")
print(f"R(x) vec(a)     = {tuple(oracle.mat_vec(right_matrix(x), vectorize(a)))}"
      "   (same product, right action)")
print()

la_t = oracle.transpose(left_matrix(a))  # rows as lists, as the oracle's products return
print("structure: R(a) = K8 L(a)^T K8, and the involutions transpose:")
print(f"R(a) == K8 L(a)^T K8:          "
      f"{oracle.matmul(oracle.matmul(K8, la_t), K8) == list(map(list, right_matrix(a)))}")
print(f"L(prime(a)) == L(a)^T:         {list(map(list, left_matrix(a.prime()))) == la_t}")
print()

f = a.functionals()
print(f"det L(a) = {oracle.exact_det(left_matrix(a))}, and P(a)^2 = {f.P ** 2:g}")
print()

spectrum = eigenvalues(a)
print(f"closed-form eigenvalues of L(a): {spectrum.values}")
print(f"each has algebraic multiplicity {spectrum.multiplicity}; they fill out degree 8")
print()

# q = prod (l - lam) over the four eigenvalues; each is a double root of
# the characteristic polynomial, so it is q^2
q = [1]
for lam in spectrum.values:
    q = [u - lam * v for u, v in zip(q + [0], [0] + q)]
chi = oracle.poly_mul(*[[round(c.real, 9) for c in q]] * 2)
print("monic characteristic polynomial reconstructed from the closed form:")
print(chi)
print(f"equal to the exact one of L(a): {chi == oracle.char_poly(left_matrix(a))}")
