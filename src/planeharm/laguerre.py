"""Associated Laguerre polynomials with integer superscript.

Floating-point evaluation by the three-term recurrence in degree, the
reflection identity that trades a negative superscript for a positive one,
closed-form derivatives, and residual checks for the first-order and composed
differential recurrences.  The exact-rational twin of this module lives in
``exact``; tests hold the two against each other.

Conventions: L_0^(a) = 1, L_1^(a) = 1 + a - y, so L_n^(a)(0) = C(n+a, n).
Degree -1 polynomials appearing in shifted relations are 0 by convention.

laguerre_eval, laguerre_deriv, laguerre_reflect and recurrence_check
broadcast integer-dtype n and alpha arrays against y, so one call covers a
whole (n, alpha, y) grid; scalar inputs give floats.  A call runs one
recurrence up to the largest n and reads each element at its own degree, so
every element equals the scalar call bit for bit.  n, alpha and a derivative
order follow one rule: ints or numpy integer scalars, never bool.  A y that is
not finite, or a result that leaves the double range, raises DomainError
naming the n, alpha and y of the first such point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _as_int

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
        object.__setattr__(self, "n", _as_int("n", self.n))
        object.__setattr__(self, "alpha", _as_int("alpha", self.alpha))
        if self.n < 0:
            raise DomainError(f"degree must be nonnegative, got n={self.n}")


def _as_index(name: str, value):
    """An int by the package's integer rule, or an integer-dtype array as int64."""
    if not isinstance(value, np.ndarray):
        return _as_int(name, value)
    if value.dtype.kind not in "iu":
        raise DomainError(f"an {name} array must have an integer dtype, got {value.dtype}")
    return value.astype(np.int64, copy=False)


def _index(n, alpha):
    """Check degrees and superscripts, each an int or an integer-dtype array."""
    n, alpha = _as_index("n", n), _as_index("alpha", alpha)
    if np.any(n < 0):
        raise DomainError(f"degree must be nonnegative, got n={int(np.min(n))}")
    return n, alpha


def _first(mask, *values) -> list:
    """The values, broadcast against mask, at its first True point."""
    i = int(np.flatnonzero(mask)[0])
    return [np.broadcast_to(v, np.shape(mask)).flat[i] for v in values]


def _finite(name: str, n, alpha, y: np.ndarray, value):
    """value as a float or an array; DomainError at its first non-finite point."""
    bad = ~(np.isfinite(value) & np.isfinite(y))
    if bad.any():
        nb, ab, yb = _first(bad, n, alpha, y)
        yb = float(yb)
        what = "y is not finite" if not math.isfinite(yb) else "the value leaves the double range"
        raise DomainError(f"{name}(n={int(nb)}, alpha={int(ab)}): {what} at y={yb!r}")
    return value if np.ndim(value) else float(value)


def _recurrence(n, alpha, y: np.ndarray) -> np.ndarray:
    """L_n^(alpha)(y) over the broadcast grid of checked n, alpha and y, not
    checked for range: one ascending recurrence up to max(n), whose step k
    is copied out where n == k."""
    out = np.empty(np.broadcast_shapes(np.shape(n), np.shape(alpha), y.shape))
    cur = np.ones(out.shape)
    with np.errstate(all="ignore"):
        for k in range(int(np.max(n, initial=0)) + 1):
            if k == 1:
                prev, cur = cur, 1.0 + alpha - y
            elif k:
                prev, cur = cur, ((2 * k - 1 + alpha - y) * cur - (k - 1 + alpha) * prev) / k
            np.copyto(out, cur, where=n == k)
    return out


def _deriv(n, alpha, y: np.ndarray, order: int) -> np.ndarray:
    """(-1)^order L_(n-order)^(alpha+order)(y), and 0 where order exceeds n."""
    sign = -1.0 if order % 2 else 1.0
    lower = n - order
    return np.where(lower >= 0, sign * _recurrence(np.maximum(lower, 0), alpha + order, y), 0.0)


def laguerre_eval(n, alpha, y):
    """Evaluate L_n^(alpha) at y by the ascending three-term recurrence.

    Parameters
    ----------
    n : int or integer ndarray
        Degree, n >= 0; an array broadcasts against alpha and y.
    alpha : int or integer ndarray
        Superscript, any integer; an array broadcasts against n and y.
    y : float or ndarray
        Evaluation points, finite.

    Returns
    -------
    float or ndarray
        L_n^(alpha)(y), shaped like n, alpha and y broadcast together; a
        float when all three are scalars.

    Raises
    ------
    DomainError
        When a y is not finite or a value leaves the double range, naming
        the first such point.
    """
    n, alpha = _index(n, alpha)
    y = np.asarray(y, dtype=float)
    return _finite("laguerre_eval", n, alpha, y, _recurrence(n, alpha, y))


def laguerre_deriv(n, alpha, y, order: int = 1):
    """Derivative of L_n^(alpha) of the given order, in closed form.

    Uses d/dy L_n^(a) = -L_{n-1}^(a+1) repeatedly:
    d^k/dy^k L_n^(a) = (-1)^k L_{n-k}^(a+k), and 0 once k exceeds n.
    n, alpha and y broadcast as in laguerre_eval.
    """
    order = _as_int("order", order)
    if order < 0:
        raise DomainError(f"derivative order must be nonnegative, got {order}")
    n, alpha = _index(n, alpha)
    y = np.asarray(y, dtype=float)
    return _finite("laguerre_deriv", n, alpha, y, _deriv(n, alpha, y, order))


def laguerre_reflect(n, alpha, y):
    """Evaluate a nonpositive-superscript polynomial through reflection.

    For alpha <= 0 with |alpha| <= n,

        L_n^(alpha)(y) = (-y)^|alpha| ((n-|alpha|)! / n!) L_{n-|alpha|}^(|alpha|)(y).

    The |alpha|-fold root at y = 0 is explicit on the right, which is what the
    normalized radial functions rely on to cancel their y^(-m) prefactor.
    n, alpha and y broadcast as in laguerre_eval.
    """
    n, alpha = _index(n, alpha)
    if np.any(alpha > 0):
        raise DomainError(f"reflection needs alpha <= 0, got alpha={int(np.max(alpha))}")
    k = -alpha
    if np.any(k > n):
        nb, ab = _first(k > n, n, alpha)
        raise DomainError(f"reflection needs |alpha| <= n, got n={nb}, alpha={ab}")
    # Integer true division rounds the factorial ratio correctly.
    nk = np.broadcast_arrays(n, k)
    ratio = np.array(
        [math.factorial(a - b) / math.factorial(a) for a, b in zip(*(v.flat for v in nk))]
    ).reshape(nk[0].shape)
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        # np.power rather than **, so a scalar y takes the same power kernel
        # as an array.
        val = ratio * np.power(-y, k) * _recurrence(n - k, k, y)
    return _finite("laguerre_reflect", n, alpha, y, val)


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
    """Both sides of a recurrence, with a cancellation-free scale.

    The fields are floats at a point and arrays over a broadcast grid.
    """

    relation: str
    form: str
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    scale: float | np.ndarray

    @property
    def residual(self):
        return abs(self.lhs - self.rhs)

    @property
    def relative_residual(self):
        rel = self.residual / np.maximum(self.scale, 1.0)
        return rel if np.ndim(rel) else float(rel)


def _shifted(n, alpha, y):
    """L_n^(alpha)(y) with the degree -1 convention: 0 where n is -1."""
    return np.where(n >= 0, _recurrence(np.maximum(n, 0), alpha, y), 0.0)


def _two_sum(a, b):
    """a + b rounded, and the exact error of that rounding (Knuth's TwoSum)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _cascade_sum(terms):
    """Sum of two or three terms by a TwoSum cascade with one final correction.

    It equals math.fsum of the terms on the verify grid and, unlike it, acts
    elementwise on arrays.
    """
    total, err = _two_sum(terms[0], terms[1])
    for t in terms[2:]:
        total, e = _two_sum(total, t)
        err = err + e
    return total + err


def _sides(relation: str, form: str, n, alpha, y):
    """The LHS terms and the RHS of one recurrence, as listed above."""
    L = _recurrence(n, alpha, y)
    dL = _deriv(n, alpha, y, 1)
    if relation == "raise-n":
        return [y * dL, (n + 1 + alpha - y) * L], (n + 1) * _shifted(n + 1, alpha, y)
    if relation == "lower-n":
        return [-y * dL, n * L], (n + alpha) * _shifted(n - 1, alpha, y)
    if relation == "raise-alpha":
        return [-dL, L], _shifted(n, alpha + 1, y)
    if relation == "lower-alpha":
        return [y * dL, alpha * L], (n + alpha) * _shifted(n, alpha - 1, y)
    if relation == "lower-n-raise-alpha2":
        target = _shifted(n - 1, alpha + 2, y)
        if form == "printed":
            return [dL, (n / (alpha + 1)) * L], -(alpha / (alpha + 1)) * target
        return [(alpha + 1) * dL, n * L], -y * target
    # raise-n-lower-alpha2
    target = _shifted(n + 1, alpha - 2, y)
    if form == "printed":
        terms = [y * (alpha - 1) * dL, -y * (n + 1.5 * alpha) * L, alpha * (alpha - 1) * L]
        return terms, (n + 1.5 * alpha) * (alpha + 1) * target
    terms = [y * (alpha - 1) * dL, -y * (n + alpha) * L, alpha * (alpha - 1) * L]
    return terms, (n + 1) * (n + alpha) * target


def recurrence_check(relation: str, n, alpha, y, form: str = "corrected") -> RecurrenceCheck:
    """Evaluate one differential recurrence at y.

    ``form`` is "printed" or "corrected"; it selects between the two forms
    of a composed relation, and a first-order relation, which has a single
    form, reports it as "printed".  n, alpha and y broadcast as in
    laguerre_eval; the printed lower-n-raise-alpha2 form raises DomainError
    when any alpha is -1.
    """
    n, alpha = _index(n, alpha)
    y = np.asarray(y, dtype=float)
    if relation not in FIRST_ORDER_RELATIONS + COMPOSED_RELATIONS:
        raise DomainError(f"unknown relation {relation!r}")
    if form not in ("printed", "corrected"):
        raise DomainError(f"unknown form {form!r}")
    if relation in FIRST_ORDER_RELATIONS:
        form = "printed"
    elif relation == "lower-n-raise-alpha2" and form == "printed" and np.any(alpha == -1):
        raise DomainError("printed form divides by alpha + 1 = 0")
    # Products of finite values may still overflow; that raises below.
    with np.errstate(all="ignore"):
        terms, rhs = _sides(relation, form, n, alpha, y)
        scale = np.abs(rhs)
        for t in terms:
            scale = np.maximum(scale, np.abs(t))
        lhs = _cascade_sum(terms)
    _finite("recurrence_check", n, alpha, y, np.maximum(np.abs(lhs), scale))
    sides = np.broadcast_arrays(lhs, rhs, scale)
    lhs, rhs, scale = (v if v.ndim else float(v) for v in sides)
    return RecurrenceCheck(relation, form, lhs, rhs, scale)


def recurrence_residual(relation: str, n, alpha, y, form: str = "corrected"):
    """|LHS - RHS| of the selected recurrence at y."""
    return recurrence_check(relation, n, alpha, y, form).residual
