import math
import random

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
EX21_MATRIX = (
    (1, -1, -1, 1, 0, 0, 0, 1),
    (-1, 1, -1, 1, 0, 0, 1, 0),
    (1, -1, 1, -1, 0, 1, 0, 0),
    (1, -1, -1, 1, 1, 0, 0, 0),
    (0, 0, 0, -1, 1, -1, -1, 1),
    (0, 0, -1, 0, -1, 1, -1, 1),
    (0, -1, 0, 0, 1, -1, 1, -1),
    (-1, 0, 0, 0, 1, -1, -1, 1),
)


def test_vectorize_examples():
    assert vectorize(e3) == (0, 0, 0, 1, 0, 0, 0, 0)
    assert vectorize(EX21) == (1, -1, 1, 1, 0, 0, 0, -1.0)


def test_left_matrix_examples():
    assert left_matrix(EX21) == EX21_MATRIX


def test_left_matrix_of_e7_block_form():
    # [[0, -J], [J, 0]] in 4x4 blocks, J the 4x4 anti-identity
    l7 = left_matrix(e7)
    anti = [[1 if i + j == 3 else 0 for j in range(4)] for i in range(4)]

    def block(r, c):
        return [list(row[c:c + 4]) for row in l7[r:r + 4]]

    assert block(0, 4) == [[-x for x in row] for row in anti]
    assert block(4, 0) == anti
    assert block(0, 0) == block(4, 4) == [[0] * 4] * 4


def test_right_matrix_action_example():
    r2 = right_matrix(e2)
    assert tuple(sum(x * y for x, y in zip(row, vectorize(e1))) for row in r2) == vectorize(e3)


def test_entries_are_never_negative_zero():
    # each entry is 0.0 + c or 0.0 - c, so a zero coefficient with either
    # sign gives +0.0 whatever the sign of its table entry
    for c in ((0.0, -0.0, -2.0, 0.0, -0.0, 3.5, -1e-300, 0.0),
              (-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0, -8.0),
              (-0.0,) * 8):
        a = Multivector(c)
        for m in (left_matrix(a), right_matrix(a)):
            assert all(math.copysign(1.0, x) > 0 for row in m for x in row if x == 0.0), c


@given(multivectors)
def test_faithfulness(a):
    # L(a) = 0 only for a = 0, as column 0 of L(a) is a's coefficient
    # vector (e_i e0 = e_i in the blade table verify checks); this is the
    # other side, equal operands with a zero difference
    assert left_matrix(a - a) == ((0.0,) * 8,) * 8


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
