"""Analytic action of the symbol operators on basis functions.

Two evaluation routes live here.  ``apply_to_basis`` substitutes eigenvalues
into a canonical OperatorExpr (M -> m, J -> j, rightmost first, D^d -> d-th
radial derivative, Y/Yi -> multiplication) and is exact for any single
operator.  For products of ladder operators that route is wrong on purpose:
the symbolic normal form uses the formal M-rules, which do not track how K+-
shifts the label m of whatever function it produced.  The su(2) checks
therefore use label-tracked composition: K+- act as first-order differential
operators A d/dy + beta/y + gamma whose coefficients are re-read at the
label the inner operator produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import OperatorExpr
from .basis import PlanePoint, SpinIndex, _radial_jet, calL
from .errors import DomainError
from .quadrature import gauss_laguerre

__all__ = [
    "apply_to_basis",
    "FirstOrderOp",
    "ladder_form",
    "ladder_coefficient",
    "apply_ladder",
    "ladder_residual",
    "pair_action",
    "su2_commutator_residual",
    "casimir_residual",
    "k3_ladder_residual",
    "annihilation_residual",
    "hermiticity_gap",
]


def _split_point(point):
    if isinstance(point, PlanePoint):
        return np.asarray(point.y, dtype=float), point.phi
    y, phi = point
    return np.asarray(y, dtype=float), float(phi)


def apply_to_basis(expr: OperatorExpr, s: SpinIndex, point):
    """Evaluate expr acting on the plane harmonic calZ_j^m at a point.

    Rightmost symbols act first: M and J become the eigenvalues m and j, D^d
    becomes the d-th derivative of the radial factor, then Y^a Yi^b
    multiplies by y^(a-b).  A phase tag t contributes e^{i (t/2) phi}.
    ``point`` is a PlanePoint or a (y, phi) pair; y may be an ndarray.
    """
    y, phi = _split_point(point)
    if np.any(y < 0):
        raise DomainError("apply_to_basis needs y >= 0")
    for mono in expr.terms:
        if mono.d > 2:
            raise DomainError(
                f"term {mono} has derivative order {mono.d} > 2; not applicable"
            )
        if mono.b and np.any(y == 0):
            raise DomainError("an Yinv power survives at y = 0")
    jet = _radial_jet(s, y, expr.max_derivative_order())
    j = 0.5 * s.two_j
    m = 0.5 * s.two_m
    total = np.zeros(y.shape, dtype=complex)
    for mono, coeff in expr.terms.items():
        val = (m**mono.p) * (j**mono.q) * np.asarray(jet[mono.d], dtype=complex)
        if mono.a or mono.b:
            val = val * y ** (mono.a - mono.b)
        if mono.two_dm:
            val = val * np.exp(1j * (0.5 * mono.two_dm) * phi)
        total = total + complex(coeff) * val
    total = total * np.exp(1j * m * phi)
    return total if total.ndim else complex(total)


@dataclass(frozen=True)
class FirstOrderOp:
    """A d/dy + beta/y + gamma, shifting the label m by two_dm/2."""

    a_coeff: float
    beta: float
    gamma: float
    two_dm: int

    def zeroth(self, y):
        return self.beta / y + self.gamma


def ladder_form(name: str, s: SpinIndex) -> FirstOrderOp:
    """K+ or K- as a first-order operator at the label (j, m).

    Reading the eigenvalues off the printed operators:
    K+ = -(2m+1) d/dy + m(2m+1)/y - (j+1/2), shifting m up;
    K- = (2m-1) d/dy + m(2m-1)/y - (j+1/2), shifting m down.
    """
    j = 0.5 * s.two_j
    m = 0.5 * s.two_m
    if name == "K+":
        return FirstOrderOp(-(2 * m + 1), m * (2 * m + 1), -(j + 0.5), 2)
    if name == "K-":
        return FirstOrderOp(2 * m - 1, m * (2 * m - 1), -(j + 0.5), -2)
    raise DomainError(f"no first-order form for {name!r}")


def ladder_coefficient(name: str, s: SpinIndex) -> float:
    """sqrt((j -+ m)(j +- m + 1)): the ladder normalization, 0 at the edge."""
    j = 0.5 * s.two_j
    m = 0.5 * s.two_m
    if name == "K+":
        value = (j - m) * (j + m + 1)
    elif name == "K-":
        value = (j + m) * (j - m + 1)
    else:
        raise DomainError(f"unknown ladder {name!r}")
    return math.sqrt(value)


def _shifted_label(s: SpinIndex, two_dm: int) -> SpinIndex | None:
    two_m = s.two_m + two_dm
    if abs(two_m) > s.two_j:
        return None
    return SpinIndex(s.two_j, two_m)


def apply_ladder(name: str, s: SpinIndex, y):
    """Values of K+- calL_j^m at y > 0."""
    y = np.asarray(y, dtype=float)
    op = ladder_form(name, s)
    f, df = _radial_jet(s, y, 1)
    return op.a_coeff * df + op.zeroth(y) * f


def _default_nodes(s: SpinIndex) -> np.ndarray:
    order = (s.two_j - abs(s.two_m)) // 2 + 2
    return gauss_laguerre(order, abs(s.two_m)).nodes


def ladder_residual(s: SpinIndex, direction: str) -> float:
    """Mismatch of K+- calL_j^m against the normalized shifted function.

    Maximum over quadrature nodes of |LHS - RHS|, relative to the largest of
    the two side magnitudes and the basis scale (so edge labels, where the
    RHS is identically zero, measure annihilation quality).
    """
    name = "K+" if direction == "+" else "K-" if direction == "-" else None
    if name is None:
        raise DomainError(f"direction must be '+' or '-', got {direction!r}")
    y = _default_nodes(s)
    lhs = apply_ladder(name, s, y)
    target = _shifted_label(s, 2 if direction == "+" else -2)
    rhs = (
        ladder_coefficient(name, s) * calL(target, y)
        if target is not None
        else np.zeros_like(y)
    )
    scale = max(
        np.max(np.abs(lhs)), np.max(np.abs(rhs)), np.max(np.abs(calL(s, y)))
    )
    return float(np.max(np.abs(lhs - rhs)) / scale)


def annihilation_residual(s: SpinIndex) -> float:
    """Relative size of K+- calL at the top/bottom label m = +-j."""
    direction = "+" if s.two_m == s.two_j else "-"
    if abs(s.two_m) != s.two_j:
        raise DomainError("annihilation happens only at m = +-j")
    return ladder_residual(s, direction)


def pair_action(outer: str, inner: str, s: SpinIndex, y):
    """Values of K_outer K_inner calL_j^m, tracking the intermediate label.

    The inner operator maps the m-sector, so the outer coefficients are read
    at the shifted label.  With O_i = A_i d/dy + B_i(y), B_i = beta_i/y +
    gamma_i:

        O2 O1 f = A2 A1 f'' + (A2 B1 + B2 A1) f' + (A2 B1' + B2 B1) f.
    """
    y = np.asarray(y, dtype=float)
    op1 = ladder_form(inner, s)
    mid = _shifted_label(s, op1.two_dm)
    if mid is None:
        # Inner op left the multiplet: K_outer of the zero function.
        return np.zeros_like(y)
    op2 = ladder_form(outer, mid)
    f, df, ddf = _radial_jet(s, y, 2)
    b1 = op1.zeroth(y)
    db1 = -op1.beta / y**2
    b2 = op2.zeroth(y)
    return (
        op2.a_coeff * op1.a_coeff * ddf
        + (op2.a_coeff * b1 + b2 * op1.a_coeff) * df
        + (op2.a_coeff * db1 + b2 * b1) * f
    )


def su2_commutator_residual(s: SpinIndex, y=None) -> float:
    """Relative defect of [K+, K-] calL = 2m calL under label tracking."""
    if y is None:
        y = _default_nodes(s)
    y = np.asarray(y, dtype=float)
    m = 0.5 * s.two_m
    f = calL(s, y)
    lhs = pair_action("K+", "K-", s, y) - pair_action("K-", "K+", s, y)
    rhs = 2.0 * m * f
    scale = max(np.max(np.abs(rhs)), np.max(np.abs(f)))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def casimir_residual(s: SpinIndex, y=None) -> float:
    """Relative defect of (K3^2 + {K+,K-}/2) calL = j(j+1) calL."""
    if y is None:
        y = _default_nodes(s)
    y = np.asarray(y, dtype=float)
    j = 0.5 * s.two_j
    m = 0.5 * s.two_m
    f = calL(s, y)
    lhs = m * m * f + 0.5 * (
        pair_action("K+", "K-", s, y) + pair_action("K-", "K+", s, y)
    )
    rhs = j * (j + 1.0) * f
    scale = max(np.max(np.abs(rhs)), np.max(np.abs(f)))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def k3_ladder_residual(s: SpinIndex, direction: str, y=None) -> float:
    """Relative defect of [K3, K+-] calL = +-K+- calL.

    K3 is the label reader: acting after K+- it returns m +- 1, acting
    before it returns m, so the commutator is (m +- 1 - m) K+- calL and the
    identity holds exactly whenever the label shift is tracked.
    """
    name = "K+" if direction == "+" else "K-" if direction == "-" else None
    if name is None:
        raise DomainError(f"direction must be '+' or '-', got {direction!r}")
    if y is None:
        y = _default_nodes(s)
    y = np.asarray(y, dtype=float)
    step = apply_ladder(name, s, y)
    target = _shifted_label(s, 2 if direction == "+" else -2)
    m_after = 0.5 * target.two_m if target is not None else 0.0
    m = 0.5 * s.two_m
    lhs = m_after * step - m * step
    rhs = step if direction == "+" else -step
    scale = max(np.max(np.abs(rhs)), np.max(np.abs(calL(s, y))), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def hermiticity_gap(two_m: int, j_cap, seed: int = 0, order: int = 30) -> float:
    """|<K+ f, g> - <f, K- g>| for random f, g in finite radial spans.

    f lives in the m sector with j <= j_cap, g in the m+1 sector; both
    integrals use one plain-exponent rule dense enough for the polynomial
    content of the integrands.
    """
    two_j_cap = int(2 * Fraction(j_cap))
    f_js = [tj for tj in range(abs(two_m), two_j_cap + 1, 2)]
    g_js = [tj for tj in range(abs(two_m + 2), two_j_cap + 1, 2)]
    if not f_js or not g_js:
        raise DomainError("empty sector span; raise j_cap")
    rng = np.random.default_rng(seed)
    fc = rng.standard_normal(len(f_js))
    gc = rng.standard_normal(len(g_js))
    rule = gauss_laguerre(order, 0)
    y = rule.nodes
    w = rule.lifted_weights()

    f_vals = sum(
        c * calL(SpinIndex(tj, two_m), y) for c, tj in zip(fc, f_js)
    )
    g_vals = sum(
        c * calL(SpinIndex(tj, two_m + 2), y) for c, tj in zip(gc, g_js)
    )
    kplus_f = sum(
        c * apply_ladder("K+", SpinIndex(tj, two_m), y) for c, tj in zip(fc, f_js)
    )
    kminus_g = sum(
        c * apply_ladder("K-", SpinIndex(tj, two_m + 2), y) for c, tj in zip(gc, g_js)
    )
    left = float(np.dot(w, kplus_f * g_vals))
    right = float(np.dot(w, f_vals * kminus_g))
    return abs(left - right) / max(1.0, abs(left), abs(right))
