"""Multivector arithmetic for the real Clifford algebra of signature (1, 2).

The algebra is generated by three pairwise anticommuting units i1, i2, i3
with i1*i1 = +1 and i2*i2 = i3*i3 = -1.  An element is stored through its
eight real coefficients over the blade basis

    e0 = 1,    e1 = i1,     e2 = i2,     e3 = i1*i2,
    e4 = i3,   e5 = i1*i3,  e6 = i2*i3,  e7 = i1*i2*i3.

With this ordering the product of two basis blades lands on the blade whose
index is the XOR of the factor indices, e_i * e_j = +-e_(i^j); only the
sign depends on the pair.  The signs are kept in an explicit table
(``MUL_SIGN``); the ``verify`` suites re-derive it, and the XOR rule, from
the generator rules so a transcription slip cannot survive unnoticed.

The product kernel ``_mul_coeffs`` is generated from that rule at
import time as one straight-line function: coefficient k is ``0.0`` plus
the signed terms a_i*b_j landing on blade k, in ascending i.  That is the
summation order of the plain double loop over the table.  The terms the
loop skips for a zero factor are +-0.0 here (inputs are finite); under
round-to-nearest a running sum that starts at +0.0 is never -0.0, and
adding +-0.0 to it changes nothing.  So the generated product rounds
exactly like the loop, sign of zero included, and never holds -0.0.  The
closed forms are straight-line tuple code by the same rule, so on the
coefficients ``_reduce`` returns each is bit-identical to its
Multivector-level formula: the inverse ((N - 2T*e7)/P) * a.conjugate() is
0.0 +- g0*c_k +- g7*c_(7^k), that product's nonzero terms in its order;
``+``, ``-``, scaling by a real and a.prime()/(4K) add 0.0 last, as do the
involutions to each coefficient they negate; no result holds -0.0.

So every operation builds its result with ``_make(c)``, from a tuple of
eight floats that holds no -0.0.  ``_make`` skips the constructor's
``float()`` and ``+ 0.0`` normalization and checks only finiteness (a
product or a scaling can overflow), once, in ``_finite``; it allocates
through ``object.__new__`` and fills the ``_c`` slot through the slot's own
``__set__``.  The constructor ``Multivector(coeffs)`` is a ``__new__`` that
normalizes, checks the length and ends in ``_make``; there is no
``__init__``, so nothing can fill the slot of an existing element again.
``coeffs`` is that slot under a public name, so reading it is a plain slot
read.  An element refuses to set or delete any attribute.

The algebra is the algebra M2(C) of 2x2 complex matrices.  The map

    e1 -> [[1, 0], [0, -1]],   e2 -> [[0, i], [i, 0]],   e4 -> [[0, 1], [-1, 0]]

(sigma_z, i*sigma_x, i*sigma_y), with every other blade sent to the
product of its generators in index order, is an isomorphism; it sends e7
to -i times the identity.  ``_to_m2`` and ``_from_m2`` carry it out.
Under it the prime involution is the conjugate transpose, det = N - 2T*i
and so P = |det|^2, and the blade images E_t satisfy
Re tr(E_s^H E_t) = 2 if s = t, else 0: the coefficient inner product is
half the real Frobenius one.  The ``verify`` suites check the map
against the blade table.

The closed-form eigenvalues of the left matrix L(a) (``eigenvalues``) are
built from these coefficients and the scalar forms alone, so they live
here and need no matrix.

Scalars are double precision floats.  All operations on integer
coefficients of desk scale are exact; :mod:`cl12.oracle` mirrors the
closed forms over exact rationals for independent verification.
"""

from __future__ import annotations

import cmath
import math
from math import isfinite
from operator import attrgetter, sub
from typing import Iterable, NamedTuple

__all__ = [
    "DEFAULT_TOL",
    "EigenSpectrum",
    "MUL_SIGN",
    "Functionals",
    "Multivector",
    "BASIS",
    "e0",
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "e7",
    "eigenvalues",
]

#: Default relative tolerance for singularity / centrality decisions.
DEFAULT_TOL = 1e-9

#: Significant digits of every printed number (format_multivector, the CLI).
_DIGITS = 12
_REAL_IMAG = attrgetter("real", "imag")  # sort key of the eigenvalues

#: e_i * e_j = MUL_SIGN[i][j] * e_(i ^ j).
MUL_SIGN = (
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, -1, -1, 1, 1, -1, -1, 1),
    (1, -1, -1, 1, 1, -1, -1, 1),
    (1, -1, -1, 1, -1, 1, 1, -1),
    (1, -1, -1, 1, -1, 1, 1, -1),
    (1, 1, 1, 1, -1, -1, -1, -1),
    (1, 1, 1, 1, -1, -1, -1, -1),
)


class Functionals(NamedTuple):
    """The seven scalar forms attached to a multivector, as a NamedTuple
    (like the oracle's ``FracFunctionals``).

    N and T are the quadratic forms whose combination P = N^2 + 4*T^2
    decides invertibility (P != 0) and equals the square root of the
    representation determinant, det L(a) = P^2.  T1, T3, T5 and K drive
    the closed form of the generalized inverse for singular nonzero
    elements.
    """

    N: float
    T: float
    P: float
    T1: float
    T3: float
    T5: float
    K: float


def _generate_mul_coeffs():
    # Term order matters: i ascending after a leading 0.0, as the module
    # docstring explains.
    terms: list[list[str]] = [[] for _ in range(8)]
    for i in range(8):
        for j in range(8):
            sign = "+" if MUL_SIGN[i][j] > 0 else "-"
            terms[i ^ j].append(f" {sign} a{i}*b{j}")
    source = (
        "def _mul_coeffs(a, b):\n"
        f"    {', '.join(f'a{i}' for i in range(8))} = a\n"
        f"    {', '.join(f'b{j}' for j in range(8))} = b\n"
        "    return (\n"
        + "".join(f"        0.0{''.join(t)},\n" for t in terms)
        + "    )\n"
    )
    namespace: dict = {}
    exec(compile(source, "<cl12.multivector._mul_coeffs>", "exec"), namespace)
    return namespace["_mul_coeffs"]


#: _mul_coeffs(a, b) -> the eight coefficients of a*b as a tuple of floats.
_mul_coeffs = _generate_mul_coeffs()


def _ntp(c: tuple[float, ...]) -> tuple[float, float, float]:
    """(N, T, P) of the element with coefficients ``c``."""
    c0, c1, c2, c3, c4, c5, c6, c7 = c
    n = c0 * c0 - c1 * c1 + c2 * c2 - c3 * c3 + c4 * c4 - c5 * c5 + c6 * c6 - c7 * c7
    t = c0 * c7 + c2 * c5 - c1 * c6 - c3 * c4
    return n, t, n * n + 4.0 * t * t


class Multivector:
    """Immutable element of the eight-dimensional algebra.

    Supports ``+``, ``-``, ``*`` (both the algebra product and scaling by
    a real number) and ``/`` by a real number.  Equality and hashing are
    exact on the coefficient tuple.
    """

    __slots__ = ("_c",)

    def __new__(cls, coeffs: Iterable[float]) -> "Multivector":
        c = tuple([float(x) + 0.0 for x in coeffs])  # +0.0 normalizes -0.0
        if len(c) != 8:
            raise ValueError(f"expected 8 coefficients, got {len(c)}")
        return _make(c)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    def __delattr__(self, name):
        raise AttributeError("Multivector is immutable")

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return (Multivector, (self._c,))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Multivector":
        return cls((0.0,) * 8)

    @classmethod
    def scalar(cls, x: float) -> "Multivector":
        return cls((float(x), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @classmethod
    def basis(cls, t: int) -> "Multivector":
        if not 0 <= t <= 7:
            raise ValueError(f"basis index must be in 0..7, got {t}")
        c = [0.0] * 8
        c[t] = 1.0
        return cls(c)

    # -- ring structure ------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        a0, a1, a2, a3, a4, a5, a6, a7 = self._c
        b0, b1, b2, b3, b4, b5, b6, b7 = other._c
        return _make((a0 + b0 + 0.0, a1 + b1 + 0.0, a2 + b2 + 0.0, a3 + b3 + 0.0,
                      a4 + b4 + 0.0, a5 + b5 + 0.0, a6 + b6 + 0.0, a7 + b7 + 0.0))

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        a0, a1, a2, a3, a4, a5, a6, a7 = self._c
        b0, b1, b2, b3, b4, b5, b6, b7 = other._c
        return _make((a0 - b0 + 0.0, a1 - b1 + 0.0, a2 - b2 + 0.0, a3 - b3 + 0.0,
                      a4 - b4 + 0.0, a5 - b5 + 0.0, a6 - b6 + 0.0, a7 - b7 + 0.0))

    def __neg__(self) -> "Multivector":
        c0, c1, c2, c3, c4, c5, c6, c7 = self._c
        return _make((-c0 + 0.0, -c1 + 0.0, -c2 + 0.0, -c3 + 0.0,
                      -c4 + 0.0, -c5 + 0.0, -c6 + 0.0, -c7 + 0.0))

    def __pos__(self) -> "Multivector":
        return self

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return _make(_mul_coeffs(self._c, other._c))
        if isinstance(other, (int, float)):
            s = float(other)
            c0, c1, c2, c3, c4, c5, c6, c7 = self._c
            return _make((c0 * s + 0.0, c1 * s + 0.0, c2 * s + 0.0, c3 * s + 0.0,
                          c4 * s + 0.0, c5 * s + 0.0, c6 * s + 0.0, c7 * s + 0.0))
        return NotImplemented

    __rmul__ = __mul__  # reached only for a non-Multivector left factor; s*x == x*s

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            if not s:
                raise ValueError("division of a multivector by zero")
            c0, c1, c2, c3, c4, c5, c6, c7 = self._c
            return _make((c0 / s + 0.0, c1 / s + 0.0, c2 / s + 0.0, c3 / s + 0.0,
                          c4 / s + 0.0, c5 / s + 0.0, c6 / s + 0.0, c7 / s + 0.0))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"Multivector({list(self._c)!r})"

    def __str__(self) -> str:
        return format_multivector(self)

    # -- involutions and parts ------------------------------------------

    def conjugate(self) -> "Multivector":
        """Negate the e1..e6 components; fixes scalars and e7."""
        c0, c1, c2, c3, c4, c5, c6, c7 = self._c
        return _make((c0, -c1 + 0.0, -c2 + 0.0, -c3 + 0.0, -c4 + 0.0, -c5 + 0.0, -c6 + 0.0, c7))

    def prime(self) -> "Multivector":
        """Negate the e2, e4, e6, e7 components.

        This involution is the one transported to matrix transposition by
        the left regular representation.
        """
        c0, c1, c2, c3, c4, c5, c6, c7 = self._c
        return _make((c0, c1, -c2 + 0.0, c3, -c4 + 0.0, c5, -c6 + 0.0, -c7 + 0.0))

    def cre(self) -> "Multivector":
        """Central part c0 + c7*e7, equal to (a + a.conjugate()) / 2."""
        c = self._c
        return _make((c[0], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, c[7]))

    def cim(self) -> "Multivector":
        """Complement of the central part: a - a.cre()."""
        c = self._c
        return _make((0.0, *c[1:7], 0.0))

    def split_h(self) -> tuple["Multivector", "Multivector"]:
        """Split a = a_h + a_H * e4 with both halves in span{e0, e1, e2, e3}.

        The four-dimensional span of e0..e3 is a subalgebra (the split
        quaternions); right multiplication by e4 carries it onto the
        complementary coefficients, so the split is a plain reindexing.
        """
        c = self._c
        zeros = (0.0, 0.0, 0.0, 0.0)
        return _make(c[:4] + zeros), _make(c[4:] + zeros)

    # -- scalar forms ----------------------------------------------------

    def functionals(self) -> Functionals:
        """The seven forms.  Outside the window of ``_reduce`` they are
        taken on the reduced element and scaled back, as ``eigenvalues``
        does (P has degree 4, the others 2), so a form is infinite only
        past the double range and never nan."""
        c, e, _ = _reduce(self._c)
        n, t, p = _ntp(c)
        c0, c1, c2, c3, c4, c5, c6, c7 = c
        f = (n, t, p, c0 * c1 - c2 * c3 - c4 * c5 + c6 * c7, c0 * c3 + c1 * c2 + c4 * c7 + c5 * c6,
             c0 * c5 + c1 * c4 - c2 * c7 - c3 * c6, c0 * c0 + c2 * c2 + c4 * c4 + c6 * c6)
        if e:
            f = [_ldexp(x, 4 * e if i == 2 else 2 * e) for i, x in enumerate(f)]
        return _record(Functionals, f)

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector (``math.hypot``: no
        overflow, and exact under scaling by powers of two)."""
        return math.hypot(*self._c)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0.0 for x in self._c)

    def is_central(self, tol: float = 0.0) -> bool:
        """True when every e1..e6 component is at most ``tol`` times the norm."""
        return _within(max(map(abs, self._c[1:7])), _check_tol(tol), self.norm())

    def is_singular(self, tol: float = DEFAULT_TOL) -> bool:
        """True when P <= tol * s^2, s the coefficient square sum.

        P / s^2 = 4r / (1 + r)^2 with r = 1 / cond2(L(a))^2, so the rule is
        a bound on the condition number of the left matrix and does not
        depend on the scale of ``a``.  It lies in [0, 1], so ``tol`` must
        be in [0, 1).

        ``tol = 0`` decides whether the float P is 0.0, which is the exact
        verdict P = 0 only while P does not underflow: ``1 + e1 + 2^-500 e2``
        has exact P = 2^-2000 > 0, but its float P is 0.0, so it reads as
        singular.
        """
        return _is_singular(self, _check_tol(tol))

    def isclose(self, other: "Multivector", tol: float = DEFAULT_TOL) -> bool:
        """Componentwise comparison: every |x - y| <= tol * the larger norm
        (``_within`` at degree 1, so scaling both changes no verdict)."""
        gap = max(map(abs, map(sub, self._c, other._c)))
        return _within(gap, _check_tol(tol), max(self.norm(), other.norm()))


#: The coefficient tuple: ``coeffs`` is the ``_c`` slot under a public name.
Multivector.coeffs = Multivector._c
_new, _set_c = object.__new__, Multivector._c.__set__
_record = tuple.__new__  # builds a NamedTuple from a sequence of its fields, at C speed


def _finite(c: tuple[float, ...]) -> tuple[float, ...]:
    """``c`` itself, a tuple of eight floats; ValueError unless all are finite."""
    c0, c1, c2, c3, c4, c5, c6, c7 = c
    if not (isfinite(c0) and isfinite(c1) and isfinite(c2) and isfinite(c3)
            and isfinite(c4) and isfinite(c5) and isfinite(c6) and isfinite(c7)):
        raise ValueError(f"coefficients must be finite, got {c}")
    return c


def _make(c: tuple[float, ...]) -> Multivector:
    """The element with coefficients ``c``, eight floats holding no -0.0
    (see the module docstring); only finiteness is checked."""
    self = _new(Multivector)
    _set_c(self, _finite(c))
    return self


def _check_tol(tol: float) -> float:
    """``tol`` itself; ValueError unless 0 <= tol < 1."""
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"tolerance must be nonnegative and below 1, got {tol!r}")
    return tol


def _within(x: float, tol: float, scale: float) -> bool:
    """The package's one tolerance rule: |x| <= tol * scale.

    Callers pass a ``scale`` of the same degree as ``x`` in the inputs, so
    verdicts do not change when the inputs are scaled.  Each public function
    that takes a ``tol`` checks it once, with ``_check_tol``."""
    return abs(x) <= tol * scale


def _is_singular(a: "Multivector", tol: float) -> bool:  # a.is_singular(tol), tol checked
    r, _, s = _reduce(a._c)
    _, _, p = _ntp(r)
    return _within(p, tol, s * s)


# Coefficient square sums inside this window keep P, s^2 and every product
# the closed forms take normal doubles, so they scale exactly by powers of two.
_S_LOW, _S_HIGH = 2.0 ** -400, 2.0 ** 400


def _make_scaled(c: tuple[float, ...], e: int) -> Multivector:
    """The element with coefficients ``c`` times 2^e, built once, exact
    while it stays normal.  Its errors are those of ``_scaled(_make(c), e)``:
    ValueError naming ``c`` unless ``c`` is finite, then on overflow."""
    if not e:
        return _make(c)
    try:
        return _make(tuple([math.ldexp(x, e) + 0.0 for x in _finite(c)]))
    except OverflowError:
        raise ValueError(f"scaling by 2^{e} overflows the coefficients") from None


def _scaled(a: Multivector, e: int) -> Multivector:
    """a * 2^e, exact while the result stays normal; ValueError on overflow."""
    return _make_scaled(a._c, e) if e else a


def _ldexp(x: float, e: int) -> float:
    """x * 2^e; an infinity of the sign of x when that leaves the double range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _reduce(c: tuple[float, ...]) -> tuple[tuple[float, ...], int, float]:
    """(r, e, s): coefficients r with c = r * 2^e and the square sum s of r.

    e is 0 (and r is c) while the square sum lies in the window; otherwise
    r has its largest |coefficient| in [1/2, 1), which puts its square sum
    in [1/4, 8], so the second pass ends there.  Zero is decided on the
    coefficients: the square sum of a nonzero element can underflow to 0.
    s adds the squares left to right, as ``sum`` does up to Python 3.11.
    """
    c0, c1, c2, c3, c4, c5, c6, c7 = c
    s = c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3 + c4 * c4 + c5 * c5 + c6 * c6 + c7 * c7
    if _S_LOW <= s <= _S_HIGH or not any(c):
        return c, 0, s
    e = math.frexp(max(map(abs, c)))[1]
    r, _, s = _reduce(tuple([math.ldexp(x, -e) + 0.0 for x in c]))
    return r, e, s


def _to_m2(c: tuple[float, ...]) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The 2x2 complex image (the map in the module docstring), by rows, of
    the element with coefficients ``c``."""
    c0, c1, c2, c3, c4, c5, c6, c7 = c
    return (
        (complex(c0 + c1, -(c6 + c7)), complex(c4 + c5, c2 + c3)),
        (complex(c5 - c4, c2 - c3), complex(c0 - c1, c6 - c7)),
    )


def _cim_m2(c: tuple[float, ...]) -> tuple[complex, complex, complex]:
    """(m00, m01, m10) of ``_to_m2`` of cim of the element with coefficients
    ``c``, read off ``c`` itself; the image is traceless, so m11 = -m00.
    As ``c`` holds no -0.0, each entry is bit for bit ``_to_m2``'s."""
    _, c1, c2, c3, c4, c5, c6, _ = c
    return complex(c1, -c6), complex(c4 + c5, c2 + c3), complex(c5 - c4, c2 - c3)


def _from_m2(m) -> Multivector:
    """The element whose 2x2 image is ``m`` (rows of complex numbers)."""
    (m00, m01), (m10, m11) = m
    r00, i00, r01, i01 = m00.real, m00.imag, m01.real, m01.imag
    r10, i10, r11, i11 = m10.real, m10.imag, m11.real, m11.imag
    return _make((  # x * 0.5 rounds as x / 2 does, and is faster
        (r00 + r11) * 0.5 + 0.0, (r00 - r11) * 0.5 + 0.0, (i01 + i10) * 0.5 + 0.0,
        (i01 - i10) * 0.5 + 0.0, (r01 - r10) * 0.5 + 0.0, (r01 + r10) * 0.5 + 0.0,
        (i11 - i00) * 0.5 + 0.0, -(i00 + i11) * 0.5 + 0.0))


def _m2_mul(x, y):
    """The product of two 2x2 complex matrices, by rows."""
    (x00, x01), (x10, x11) = x
    (y00, y01), (y10, y11) = y
    return ((x00 * y00 + x01 * y10, x00 * y01 + x01 * y11),
            (x10 * y00 + x11 * y10, x10 * y01 + x11 * y11))


class EigenSpectrum(NamedTuple):
    """The four eigenvalues of L(a), each of algebraic multiplicity 2.

    ``values`` is sorted by (real part, imaginary part).  When the two
    underlying quadratics share roots the listed values coincide and the
    effective multiplicity merges; the list always has four entries.
    """

    values: tuple[complex, complex, complex, complex]
    multiplicity: int = 2


def eigenvalues(a: Multivector) -> EigenSpectrum:
    """Closed-form eigenvalues of ``left_matrix(a)``.

    The roots of lambda^2 - 2*lambda*(c0 + c7*i) + N + 2*T*i together with
    their complex conjugates.  The principal square root is used; both
    signs are emitted, so the branch choice only permutes the output.
    They are computed on ``a`` reduced by a power of two, as the inverses
    are, and scaled back (they have degree 1), so N and T cannot overflow;
    a part past the double range comes back infinite.
    """
    c, e, _ = _reduce(a._c)
    n, t, _ = _ntp(c)
    alpha = complex(c[0], c[7])
    root = cmath.sqrt(alpha * alpha - complex(n, 2.0 * t))
    l0, l1 = alpha + root, alpha - root
    lams = sorted((l0, l1, l0.conjugate(), l1.conjugate()), key=_REAL_IMAG)
    if e:
        lams = [complex(_ldexp(z.real, e), _ldexp(z.imag, e)) for z in lams]
    return _record(EigenSpectrum, (tuple(lams), 2))


def format_multivector(a: Multivector) -> str:
    """Render ``a`` like ``0.25 e1 - 0.25 e2``, to 12 (``_DIGITS``) significant digits.

    Components more than ``_DIGITS`` orders of magnitude below the largest
    one are not displayed (they are below the printed precision anyway).
    The output reparses to the displayed value under the expression
    grammar of :mod:`cl12.cli`.
    """
    largest = max(abs(x) for x in a.coeffs)
    if largest == 0.0:
        return "0"
    cutoff = largest * 10.0 ** (-_DIGITS)
    parts: list[str] = []
    for t, c in enumerate(a.coeffs):
        if abs(c) < cutoff or c == 0.0:
            continue
        mag = abs(c)
        body = f"{mag:.{_DIGITS}g}" if t == 0 else (
            f"e{t}" if mag == 1.0 else f"{mag:.{_DIGITS}g} e{t}"
        )
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


#: The eight basis blades, index t <-> blade e_t.
BASIS: tuple[Multivector, ...] = tuple(Multivector.basis(t) for t in range(8))

e0, e1, e2, e3, e4, e5, e6, e7 = BASIS
