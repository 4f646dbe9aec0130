"""Associated Laguerre polynomials with integer superscript.

Floating-point evaluation by the three-term recurrence in degree, the
reflection identity that trades a negative superscript for a positive one,
closed-form derivatives, and residual checks for the first-order and composed
differential recurrences.  The exact-rational twin of this module lives in
``exact``; tests hold the two against each other.

Conventions: L_0^(a) = 1, L_1^(a) = 1 + a - y, so L_n^(a)(0) = C(n+a, n).
Degree -1 polynomials appearing in shifted relations are 0 by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "LaguerreIndex",
    "laguerre_eval",
    "laguerre_deriv",
    "laguerre_reflect",
    "FIRST_ORDER_RELATIONS",
    "COMPOSED_RELATIONS",
    "RecurrenceCheck",
    "recurrence_check",
    "recurrence_residual",
]


@dataclass(frozen=True)
class LaguerreIndex:
    """Degree and integer superscript of an associated Laguerre polynomial.

    Any integer superscript is admissible: the degree recurrence and the
    explicit series define the same degree-n polynomial for every alpha.
    Spin labels correspond to the subset with 2n + alpha >= |alpha|, through
    (j, m) = (n + alpha/2, -alpha/2); ``basis.SpinIndex`` checks those.
    """

    n: int
    alpha: int

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.alpha, int):
            raise DomainError("LaguerreIndex fields must be Python ints")
        if self.n < 0:
            raise DomainError(f"degree must be nonnegative, got n={self.n}")


def laguerre_eval(n: int, alpha: int, y):
    """Evaluate L_n^(alpha) at y by the ascending three-term recurrence.

    Parameters
    ----------
    n : int
        Degree, n >= 0.
    alpha : int
        Superscript, any integer.
    y : float or ndarray
        Evaluation points.

    Returns
    -------
    float or ndarray
        L_n^(alpha)(y), shaped like y.
    """
    LaguerreIndex(n, alpha)
    y = np.asarray(y, dtype=float)
    prev = np.ones_like(y)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + alpha - y
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - y) * cur - (k + alpha) * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def laguerre_deriv(n: int, alpha: int, y, order: int = 1):
    """Derivative of L_n^(alpha) of the given order, in closed form.

    Uses d/dy L_n^(a) = -L_{n-1}^(a+1) repeatedly:
    d^k/dy^k L_n^(a) = (-1)^k L_{n-k}^(a+k), and 0 once k exceeds n.
    """
    if order < 0:
        raise DomainError(f"derivative order must be nonnegative, got {order}")
    LaguerreIndex(n, alpha)
    if order > n:
        out = np.zeros_like(np.asarray(y, dtype=float))
        return out if out.ndim else 0.0
    sign = -1.0 if order % 2 else 1.0
    val = laguerre_eval(n - order, alpha + order, y)
    return sign * val


def laguerre_reflect(n: int, alpha: int, y):
    """Evaluate a nonpositive-superscript polynomial through reflection.

    For alpha <= 0 with |alpha| <= n,

        L_n^(alpha)(y) = (-y)^|alpha| ((n-|alpha|)! / n!) L_{n-|alpha|}^(|alpha|)(y).

    The |alpha|-fold root at y = 0 is explicit on the right, which is what the
    normalized radial functions rely on to cancel their y^(-m) prefactor.
    """
    LaguerreIndex(n, alpha)
    if alpha > 0:
        raise DomainError(f"reflection needs alpha <= 0, got alpha={alpha}")
    k = -alpha
    if k > n:
        raise DomainError(f"reflection needs |alpha| <= n, got n={n}, alpha={alpha}")
    ratio = float(Fraction(math.factorial(n - k), math.factorial(n)))
    y = np.asarray(y, dtype=float)
    val = ratio * (-y) ** k * laguerre_eval(n - k, k, y)
    return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
# Differential recurrence relations and their residuals.
#
# First-order relations (all valid; degree -1 terms are 0):
#   raise-n      [y d/dy + (n+1+alpha-y)] L_n^(a) = (n+1) L_{n+1}^(a)
#   lower-n      [-y d/dy + n]            L_n^(a) = (n+alpha) L_{n-1}^(a)
#   raise-alpha  [-d/dy + 1]              L_n^(a) = L_n^(a+1)
#   lower-alpha  [y d/dy + alpha]         L_n^(a) = (n+alpha) L_n^(a-1)
#
# Composed relations come in a "printed" variant (reproducing a known
# misprint) and a "corrected" variant (derived by composing the first-order
# relations and reducing second derivatives with the defining equation; the
# derivation is pinned exactly in the tests and in the errata registry):
#   lower-n-raise-alpha2, printed:
#       [d/dy + n/(alpha+1)] L_n^(a) = -(alpha/(alpha+1)) L_{n-1}^(a+2)
#   lower-n-raise-alpha2, corrected:
#       (alpha+1) dL/dy + n L = -y L_{n-1}^(a+2)
#   raise-n-lower-alpha2, printed:
#       [y(alpha-1) d/dy - y(n + 3 alpha/2) + alpha(alpha-1)] L_n^(a)
#           = (n + 3 alpha/2)(alpha+1) L_{n+1}^(a-2)
#   raise-n-lower-alpha2, corrected:
#       [y(alpha-1) d/dy - y(n+alpha) + alpha(alpha-1)] L_n^(a)
#           = (n+1)(n+alpha) L_{n+1}^(a-2)
# ---------------------------------------------------------------------------

FIRST_ORDER_RELATIONS = ("raise-n", "lower-n", "raise-alpha", "lower-alpha")
COMPOSED_RELATIONS = ("lower-n-raise-alpha2", "raise-n-lower-alpha2")


@dataclass(frozen=True)
class RecurrenceCheck:
    """Both sides of a recurrence at a point, with a cancellation-free scale."""

    relation: str
    form: str
    lhs: float
    rhs: float
    scale: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def relative_residual(self) -> float:
        return self.residual / max(self.scale, 1.0)


def _shifted(n: int, alpha: int, y):
    """L_{n}^{(alpha)} with the degree -1 convention."""
    if n < 0:
        return 0.0
    return laguerre_eval(n, alpha, y)


def recurrence_check(
    relation: str, n: int, alpha: int, y: float, form: str = "corrected"
) -> RecurrenceCheck:
    """Evaluate one differential recurrence at a point.

    ``form`` is meaningful only for the composed relations ("printed" or
    "corrected"); first-order relations have a single form.
    """
    LaguerreIndex(n, alpha)
    y = float(y)
    L = laguerre_eval(n, alpha, y)
    dL = laguerre_deriv(n, alpha, y)

    if relation in FIRST_ORDER_RELATIONS:
        form = "printed"
        if relation == "raise-n":
            terms = [y * dL, (n + 1 + alpha - y) * L]
            rhs = (n + 1) * _shifted(n + 1, alpha, y)
        elif relation == "lower-n":
            terms = [-y * dL, n * L]
            rhs = (n + alpha) * _shifted(n - 1, alpha, y)
        elif relation == "raise-alpha":
            terms = [-dL, L]
            rhs = _shifted(n, alpha + 1, y)
        else:  # lower-alpha
            terms = [y * dL, alpha * L]
            rhs = (n + alpha) * _shifted(n, alpha - 1, y)
    elif relation == "lower-n-raise-alpha2":
        target = _shifted(n - 1, alpha + 2, y)
        if form == "printed":
            if alpha == -1:
                raise DomainError("printed form divides by alpha + 1 = 0")
            terms = [dL, (n / (alpha + 1)) * L]
            rhs = -(alpha / (alpha + 1)) * target
        elif form == "corrected":
            terms = [(alpha + 1) * dL, n * L]
            rhs = -y * target
        else:
            raise DomainError(f"unknown form {form!r}")
    elif relation == "raise-n-lower-alpha2":
        target = _shifted(n + 1, alpha - 2, y)
        if form == "printed":
            terms = [y * (alpha - 1) * dL, -y * (n + 1.5 * alpha) * L, alpha * (alpha - 1) * L]
            rhs = (n + 1.5 * alpha) * (alpha + 1) * target
        elif form == "corrected":
            terms = [y * (alpha - 1) * dL, -y * (n + alpha) * L, alpha * (alpha - 1) * L]
            rhs = (n + 1) * (n + alpha) * target
        else:
            raise DomainError(f"unknown form {form!r}")
    else:
        raise DomainError(f"unknown relation {relation!r}")

    lhs = math.fsum(terms)
    scale = max([abs(t) for t in terms] + [abs(rhs)])
    return RecurrenceCheck(relation, form, lhs, float(rhs), scale)


def recurrence_residual(
    relation: str, n: int, alpha: int, y: float, form: str = "corrected"
) -> float:
    """|LHS - RHS| of the selected recurrence at y."""
    return recurrence_check(relation, n, alpha, y, form).residual
