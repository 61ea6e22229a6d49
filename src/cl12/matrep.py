"""8x8 real matrix models of left and right multiplication.

``left_matrix(a)`` is the matrix L(a) with vec(a*x) = L(a) @ vec(x);
``right_matrix(a)`` is R(a) with vec(x*a) = R(a) @ vec(x).  Both are
assembled from the blade multiplication table: the eight basis matrices
L(e_i) (or R(e_i)) are built once at import and flattened into one
(8, 64) array, so L(a) is the single product vec(a) @ that array,
reshaped to 8x8.  Every entry is one signed coefficient of a plus exact
zeros, so no rounding depends on the summation order.  The ``verify``
suites compare L(a) against ``cl12.oracle.fleft_matrix``, built from the
oracle's own generator-derived table.

Structural facts used throughout the package:

* L is a ring homomorphism: L(a*b) = L(a) @ L(b), and R reverses order.
* R(a) = K8 @ L(a).T @ K8 and the two involutions transport to
  transposition: L(a.prime()) = L(a).T, L(a.conjugate()) = S8 @ L(a).T @ S8.
* det L(a) = det R(a) = P(a)^2.
"""

from __future__ import annotations

import numpy as np

from .multivector import MUL_SIGN, Multivector

__all__ = [
    "K8",
    "S8",
    "vectorize",
    "devectorize",
    "left_matrix",
    "right_matrix",
]

K8 = np.diag([1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
S8 = np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def _basis_matrices() -> tuple[np.ndarray, np.ndarray]:
    # left[i] = L(e_i), right[j] = R(e_j); e_i e_j = s * e_k, k = i ^ j,
    # contributes L(e_i)[k, j] = s and R(e_j)[k, i] = s.
    left = np.zeros((8, 8, 8))
    right = np.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            k = i ^ j
            s = float(MUL_SIGN[i][j])
            left[i, k, j] = s
            right[j, k, i] = s
    return left, right


# Row i of _LEFT_FLAT is L(e_i) read row by row; likewise for R.
_LEFT_FLAT, _RIGHT_FLAT = (m.reshape(8, 64) for m in _basis_matrices())


def vectorize(a: Multivector) -> np.ndarray:
    """Coefficient vector of ``a`` as a length-8 float array."""
    return np.array(a.coeffs, dtype=float)


def devectorize(v) -> Multivector:
    v = np.asarray(v, dtype=float)
    if v.shape != (8,):
        raise ValueError(f"expected shape (8,), got {v.shape}")
    return Multivector(v)


def left_matrix(a: Multivector) -> np.ndarray:
    """Matrix of x -> a*x acting on coefficient vectors."""
    return (vectorize(a) @ _LEFT_FLAT).reshape(8, 8)


def right_matrix(a: Multivector) -> np.ndarray:
    """Matrix of x -> x*a acting on coefficient vectors."""
    return (vectorize(a) @ _RIGHT_FLAT).reshape(8, 8)
