"""8x8 real matrix models of left and right multiplication.

``left_matrix(a)`` is the matrix L(a) with vec(a*x) = L(a) vec(x);
``right_matrix(a)`` is R(a) with vec(x*a) = R(a) vec(x).  A matrix is a
tuple of 8 rows, each a tuple of 8 floats, and ``vectorize(a)`` is the
coefficient tuple itself.  Both functions are generated from the blade
multiplication table at import time, as ``multivector._mul_coeffs`` is:
e_i e_j = s e_(i^j) puts s*c_i at L(a)[i^j][j] and s*c_j at
R(a)[i^j][i], so every entry is one signed coefficient, written
``0.0 + c_i`` or ``0.0 - c_i``.  No rounding occurs, and no entry is
-0.0.

Structural facts used throughout the package, and where ``verify``
checks each (a table fact runs once per run, exactly, on the blades):

* L is a ring homomorphism: L(a*b) = L(a) L(b), and R reverses order.
  Table fact: associativity of ``MUL_SIGN``; each matrix-rep draw
  checks L(a) and R(a) against the oracle's (``fleft_matrix``, built
  from the oracle's own generator-derived table).
* R(a) = K8 L(a)^T K8 and the two involutions transport to
  transposition: L(a.prime()) = L(a)^T, L(a.conjugate()) = S8 L(a)^T S8,
  and the same for R.  Table fact: sign identities on ``MUL_SIGN``, K8, S8.
* det L(a) = det R(a) = P(a)^2: exact, on each matrix-rep draw.
"""

from __future__ import annotations

from .multivector import MUL_SIGN, Multivector

__all__ = ["K8", "S8", "vectorize", "left_matrix", "right_matrix"]


def _diagonal(d: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(x if i == j else 0.0 for j in range(8)) for i, x in enumerate(d))


K8 = _diagonal((1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0))
S8 = _diagonal((1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0))


def _generate(name: str, doc: str, entry):
    # entry(k, j) -> (sign, i): row k, column j holds sign * c_i, written
    # p_i = 0.0 + c_i or m_i = 0.0 - c_i, so that no entry is -0.0
    def each(template: str) -> str:
        return ", ".join(template.format(i) for i in range(8))

    def cell(k: int, j: int) -> str:
        sign, i = entry(k, j)
        return f"{'p' if sign > 0 else 'm'}{i}"

    rows = "".join(f"        ({', '.join(cell(k, j) for j in range(8))}),\n" for k in range(8))
    source = (
        f"def {name}(a):\n"
        f"    {doc!r}\n"
        f"    {each('c{}')} = a.coeffs\n"
        f"    {each('p{}')} = {each('0.0 + c{}')}\n"
        f"    {each('m{}')} = {each('0.0 - c{}')}\n"
        f"    return (\n{rows}    )\n"
    )
    namespace: dict = {"__name__": __name__}
    exec(compile(source, f"<cl12.matrep.{name}>", "exec"), namespace)
    return namespace[name]


left_matrix = _generate("left_matrix", "Matrix of x -> a*x acting on coefficient vectors.",
                        lambda k, j: (MUL_SIGN[k ^ j][j], k ^ j))
right_matrix = _generate("right_matrix", "Matrix of x -> x*a acting on coefficient vectors.",
                         lambda k, i: (MUL_SIGN[i][k ^ i], k ^ i))


def vectorize(a: Multivector) -> tuple[float, ...]:
    """Coefficient vector of ``a``: its eight floats, as a tuple."""
    return a.coeffs
