"""Exact rational Laguerre polynomials.

Reference implementation used as the oracle for every floating-point path in
the package.  Polynomials are held as dense Fraction coefficient lists, so all
identities checked against this module are checked exactly, with no rounding
anywhere.  Everything here is desk scale (degree a few dozen); no attempt is
made to be fast.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


def binomial_general(top: int, k: int) -> Fraction:
    """Generalized binomial coefficient C(top, k) for integer top of any sign.

    Defined through the falling factorial, C(top, k) = top (top-1) ...
    (top-k+1) / k!, which is the form the series below needs when the
    superscript is negative.  Computed in integers: math.comb(top, k) for
    top >= 0, and the upper negation C(top, k) = (-1)^k C(k-top-1, k)
    otherwise.
    """
    if k < 0:
        return Fraction(0)
    if top >= 0:
        return Fraction(math.comb(top, k))
    return Fraction((-1) ** k * math.comb(k - top - 1, k))


class ExactPolynomial:
    """Dense univariate polynomial over the rationals.

    Coefficients are ascending (coeffs[k] multiplies y**k).  Supports just
    enough arithmetic to state differential recurrences as exact identities:
    addition, scalar and polynomial multiplication, differentiation.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    # -- construction -------------------------------------------------

    @classmethod
    def laguerre(cls, n: int, alpha: int) -> "ExactPolynomial":
        """Associated Laguerre polynomial L_n^(alpha) via the explicit series.

        L_n^(alpha)(y) = sum_{k=0..n} (-1)^k C(n+alpha, n-k) y^k / k!,
        valid for any integer alpha; degree is exactly n (leading coefficient
        (-1)^n / n! never vanishes).
        """
        if n < 0:
            raise DomainError(f"degree must be nonnegative, got n={n}")
        cs = []
        sign = 1
        kfact = 1
        for k in range(n + 1):
            if k > 0:
                kfact *= k
            cs.append(sign * binomial_general(n + alpha, n - k) / kfact)
            sign = -sign
        return cls(cs)

    @classmethod
    def zero(cls) -> "ExactPolynomial":
        return cls([0])

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "ExactPolynomial":
        return cls([0] * k + [coeff])

    # -- queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __call__(self, y):
        """Evaluate by Horner.  Exact when y is a Fraction or int."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * y + c
        return acc

    def eval_abs(self, y):
        """Evaluate with all coefficients replaced by their absolute values.

        Gives the natural scale of the evaluation before cancellation, used
        to turn absolute residuals into meaningful relative ones.
        """
        ay = abs(y)
        acc = abs(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * ay + abs(c)
        return acc

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPolynomial(out)

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, ExactPolynomial):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return ExactPolynomial(out)
        return ExactPolynomial([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def shift_up(self) -> "ExactPolynomial":
        """Multiply by y."""
        return ExactPolynomial((Fraction(0),) + self.coeffs)

    def derivative(self) -> "ExactPolynomial":
        if len(self.coeffs) == 1:
            return ExactPolynomial.zero()
        return ExactPolynomial(
            [k * c for k, c in enumerate(self.coeffs)][1:]
        )

    # -- misc ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"ExactPolynomial({list(self.coeffs)!r})"
