"""The 8x8 matrix picture: multiplication as matrix-vector products.

Run:  python demos/02_matrix_representation.py
"""

import numpy as np

from cl12 import (
    K8,
    Multivector,
    eigenvalues,
    left_matrix,
    right_matrix,
    vectorize,
)
from cl12 import oracle

np.set_printoptions(linewidth=120)

a = Multivector((1, -1, 1, 1, 0, 0, 0, -1))
print(f"a = {a}")
print("L(a), the matrix of x -> a*x on coefficient vectors:")
print(left_matrix(a).astype(int))
print()

x = Multivector((0, 1, 0, 2, 0, 0, -1, 0))
print(f"vec(a*x)        = {vectorize(a * x)}")
print(f"L(a) @ vec(x)   = {left_matrix(a) @ vectorize(x)}")
print(f"R(x) @ vec(a)   = {right_matrix(x) @ vectorize(a)}   (same product, right action)")
print()

print("structure: R(a) = K8 L(a)^T K8, and the involutions transpose:")
print(f"R(a) == K8 L(a)^T K8:          {np.array_equal(right_matrix(a), K8 @ left_matrix(a).T @ K8)}")
print(f"L(prime(a)) == L(a)^T:         {np.array_equal(left_matrix(a.prime()), left_matrix(a).T)}")
print()

f = a.functionals()
print(f"det L(a) = {oracle.exact_det(left_matrix(a))}, and P(a)^2 = {f.P ** 2:g}")
print()

spectrum = eigenvalues(a)
print(f"closed-form eigenvalues of L(a): {spectrum.values}")
print(f"each has algebraic multiplicity {spectrum.multiplicity}; they fill out degree 8")
print()

chi = np.poly([z for z in spectrum.values for _ in range(2)])
print("monic characteristic polynomial reconstructed from the closed form:")
print(np.round(chi.real, 9))
