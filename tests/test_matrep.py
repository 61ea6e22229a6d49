import random

import numpy as np
from hypothesis import given

from cl12 import (
    Multivector,
    e1,
    e2,
    e3,
    e7,
    eigenvalues,
    left_matrix,
    right_matrix,
    vectorize,
)
from support import multivectors, random_multivector

EX21 = Multivector((1, -1, 1, 1, 0, 0, 0, -1))

# the displayed matrix for the worked example with a = 1 - e1 + e2 + e3 - e7
EX21_MATRIX = np.array(
    [
        [1, -1, -1, 1, 0, 0, 0, 1],
        [-1, 1, -1, 1, 0, 0, 1, 0],
        [1, -1, 1, -1, 0, 1, 0, 0],
        [1, -1, -1, 1, 1, 0, 0, 0],
        [0, 0, 0, -1, 1, -1, -1, 1],
        [0, 0, -1, 0, -1, 1, -1, 1],
        [0, -1, 0, 0, 1, -1, 1, -1],
        [-1, 0, 0, 0, 1, -1, -1, 1],
    ],
    dtype=float,
)


def test_vectorize_examples():
    assert np.array_equal(vectorize(e3), np.eye(8)[3])
    assert np.array_equal(vectorize(EX21), np.array([1, -1, 1, 1, 0, 0, 0, -1.0]))


def test_left_matrix_examples():
    assert np.array_equal(left_matrix(EX21), EX21_MATRIX)


def test_left_matrix_of_e7_block_form():
    m = np.fliplr(np.eye(4))
    l7 = left_matrix(e7)
    assert np.array_equal(l7[:4, 4:], -m)
    assert np.array_equal(l7[4:, :4], m)
    assert np.array_equal(l7[:4, :4], np.zeros((4, 4)))
    assert np.array_equal(l7[4:, 4:], np.zeros((4, 4)))


def test_right_matrix_action_example():
    assert np.array_equal(right_matrix(e2) @ vectorize(e1), vectorize(e3))


@given(multivectors)
def test_faithfulness(a):
    # the verify suite draws distinct pairs and checks L(a - b) != 0; this
    # is the other side, equal operands with a zero difference
    assert np.array_equal(left_matrix(a - a), np.zeros((8, 8)))


def _as_multiset(values):
    return sorted(values, key=lambda z: (z.real, z.imag))


def test_eigenvalues_examples():
    spectrum = eigenvalues(Multivector.scalar(4))
    assert spectrum.values == (4, 4, 4, 4) and spectrum.multiplicity == 2
    assert _as_multiset(eigenvalues(e7).values) == [-1j, -1j, 1j, 1j]


def test_eigenvalues_sorted_and_conjugate_paired():
    rng = random.Random(17)
    for _ in range(100):
        a = random_multivector(rng)
        vals = eigenvalues(a).values
        assert list(vals) == _as_multiset(vals)
        assert _as_multiset(vals) == _as_multiset([z.conjugate() for z in vals])
