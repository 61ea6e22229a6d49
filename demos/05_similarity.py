"""Similarity: when does q a = b q admit an invertible q?

Run:  python demos/05_similarity.py
"""

import random

from cl12 import (
    Multivector,
    conjugate_by,
    conjugation_matrix,
    e0,
    e1,
    e2,
    e6,
    e7,
    is_similar,
)
from cl12 import oracle
from cl12.verify import random_invertible, random_multivector

print("two non-central elements are similar exactly when their central")
print("parts, N and T all agree.  the verdict names the failing invariant:")
for a, b in ((e2, e6), (e7, -e7), (e1, 2 * e1), (e1 + e6, e1 - e6),
             (Multivector.zero(), e1 + e2)):
    r = is_similar(a, b)
    line = f"  {str(a):14s} ~ {str(b):14s} -> {str(r.similar):5s} [{r.reason.value}]"
    if r.witness is not None:
        line += f"  witness q = {r.witness}"
    print(line)
print()

print("the witness really conjugates one to the other:")
r = is_similar(e2, e6)
q = r.witness
print(f"  q = {q}:  q*e2 = {q * e2}  and  e6*q = {e6 * q}")
print(f"  q e2 q^-1 = {conjugate_by(q, e2)}")
print()

print("randomly conjugated pairs come back similar, with a fresh witness:")
rng = random.Random(1)
for _ in range(3):
    a = random_multivector(rng)
    b = conjugate_by(random_invertible(rng), a)
    r = is_similar(a, b)
    err = (r.witness * a - b * r.witness).norm()
    print(f"  classified {r.similar}, |qa - bq| = {err:.2e}, q = {r.witness}")
print()

print("conjugation x -> q x q^-1 fixes the center and acts invertibly on")
print("the six-dimensional complement; its matrix is diag(1, S, 1):")
cm = conjugation_matrix(e0 + e2 + e6 + 2 * e7)
for row in cm.full:
    print(" ".join(f"{round(x, 6) + 0.0:10.6f}" for x in row))
# the exact determinant of the float block, rounded once
print(f"det(S) = {float(oracle.exact_det(cm.block)):.9g}")
