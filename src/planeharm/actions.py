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


def apply_to_basis(expr: OperatorExpr, s: SpinIndex, point):
    """Evaluate expr acting on the plane harmonic calZ_j^m at a point.

    Rightmost symbols act first: M and J become the eigenvalues m and j, D^d
    becomes the d-th derivative of the radial factor, then Y^a Yi^b
    multiplies by y^(a-b).  A phase tag t contributes e^{i (t/2) phi}.
    ``point`` is a PlanePoint or a (y, phi) pair; y may be an ndarray.
    """
    y, phi = (point.y, point.phi) if isinstance(point, PlanePoint) else point
    y, phi = np.asarray(y, dtype=float), float(phi)
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


def _ladder_on_jet(name: str, s: SpinIndex, y, jet):
    """K+- calL_j^m at y from the jet [calL, calL', ...] of (j, m) there."""
    op = ladder_form(name, s)
    return op.a_coeff * jet[1] + op.zeroth(y) * jet[0]


def apply_ladder(name: str, s: SpinIndex, y):
    """Values of K+- calL_j^m at y > 0."""
    y = np.asarray(y, dtype=float)
    return _ladder_on_jet(name, s, y, _radial_jet(s, y, 1))


def _default_nodes(s: SpinIndex) -> np.ndarray:
    order = (s.two_j - abs(s.two_m)) // 2 + 2
    return gauss_laguerre(order, abs(s.two_m)).nodes


def _ladder_step(s: SpinIndex, direction: str, y):
    """(jet [calL, calL'] of (j, m), K+- calL_j^m, shifted label or None) at y."""
    if direction not in ("+", "-"):
        raise DomainError(f"direction must be '+' or '-', got {direction!r}")
    jet = _radial_jet(s, y, 1)
    step = _ladder_on_jet("K" + direction, s, y, jet)
    return jet, step, _shifted_label(s, 2 if direction == "+" else -2)


def ladder_residual(s: SpinIndex, direction: str) -> float:
    """Mismatch of K+- calL_j^m against the normalized shifted function.

    Maximum over quadrature nodes of |LHS - RHS|, relative to the largest of
    the two side magnitudes and the basis scale (so edge labels, where the
    RHS is identically zero, measure annihilation quality).
    """
    y = _default_nodes(s)
    jet, lhs, target = _ladder_step(s, direction, y)
    rhs = (
        ladder_coefficient("K" + direction, s) * calL(target, y)
        if target is not None
        else np.zeros_like(y)
    )
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), np.max(np.abs(jet[0])))
    return _relative_defect(lhs, rhs, scale, s)


def annihilation_residual(s: SpinIndex) -> float:
    """Relative size of K+- calL at the top/bottom label m = +-j."""
    direction = "+" if s.two_m == s.two_j else "-"
    if abs(s.two_m) != s.two_j:
        raise DomainError("annihilation happens only at m = +-j")
    return ladder_residual(s, direction)


def _pair_on_jet(outer: str, inner: str, s: SpinIndex, y, jet):
    """K_outer K_inner calL_j^m at y from the jet [calL, calL', calL''] of (j, m).

    The inner operator maps the m-sector, so the outer coefficients are read
    at the shifted label.  With O_i = A_i d/dy + B_i(y), B_i = beta_i/y +
    gamma_i:

        O2 O1 f = A2 A1 f'' + (A2 B1 + B2 A1) f' + (A2 B1' + B2 B1) f.

    A value past the double range (y**2 underflows below y ~ 1e-154) raises
    DomainError naming the operators, the label and the first such y.
    """
    op1 = ladder_form(inner, s)
    mid = _shifted_label(s, op1.two_dm)
    if mid is None:
        # Inner op left the multiplet: K_outer of the zero function.
        return np.zeros_like(y)
    op2 = ladder_form(outer, mid)
    f, df, ddf = jet
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        b1 = op1.zeroth(y)
        db1 = -op1.beta / y**2
        b2 = op2.zeroth(y)
        val = (
            op2.a_coeff * op1.a_coeff * ddf
            + (op2.a_coeff * b1 + b2 * op1.a_coeff) * df
            + (op2.a_coeff * db1 + b2 * b1) * f
        )
    bad = ~np.isfinite(val)
    if bad.any():
        raise DomainError(
            f"{outer} {inner} at two_j={s.two_j}, two_m={s.two_m} leaves the double range "
            f"at y = {float(y[bad][0])!r}"
        )
    return val


def pair_action(outer: str, inner: str, s: SpinIndex, y):
    """Values of K_outer K_inner calL_j^m at y > 0, tracking the intermediate label."""
    y = np.asarray(y, dtype=float)
    return _pair_on_jet(outer, inner, s, y, _radial_jet(s, y, 2))


def _relative_defect(lhs, rhs, scale, s: SpinIndex) -> float:
    """max |lhs - rhs| / scale, or DomainError when that is not finite."""
    with np.errstate(all="ignore"):
        value = float(np.max(np.abs(lhs - rhs)) / scale)
    if not math.isfinite(value):
        raise DomainError(f"relative defect {value} at two_j={s.two_j}, two_m={s.two_m}")
    return value


def su2_commutator_residual(s: SpinIndex, y=None) -> float:
    """Relative defect of [K+, K-] calL = 2m calL under label tracking."""
    y = _default_nodes(s) if y is None else np.asarray(y, dtype=float)
    m = 0.5 * s.two_m
    jet = _radial_jet(s, y, 2)
    lhs = _pair_on_jet("K+", "K-", s, y, jet) - _pair_on_jet("K-", "K+", s, y, jet)
    rhs = 2.0 * m * jet[0]
    scale = max(np.max(np.abs(rhs)), np.max(np.abs(jet[0])))
    return _relative_defect(lhs, rhs, scale, s)


def casimir_residual(s: SpinIndex, y=None) -> float:
    """Relative defect of (K3^2 + {K+,K-}/2) calL = j(j+1) calL."""
    y = _default_nodes(s) if y is None else np.asarray(y, dtype=float)
    j = 0.5 * s.two_j
    m = 0.5 * s.two_m
    jet = _radial_jet(s, y, 2)
    lhs = m * m * jet[0] + 0.5 * (
        _pair_on_jet("K+", "K-", s, y, jet) + _pair_on_jet("K-", "K+", s, y, jet)
    )
    rhs = j * (j + 1.0) * jet[0]
    scale = max(np.max(np.abs(rhs)), np.max(np.abs(jet[0])))
    return _relative_defect(lhs, rhs, scale, s)


def k3_ladder_residual(s: SpinIndex, direction: str, y=None) -> float:
    """Relative defect of [K3, K+-] calL = +-K+- calL.

    K3 is the label reader: acting after K+- it returns m +- 1, acting
    before it returns m, so the commutator is (m +- 1 - m) K+- calL and the
    identity holds exactly whenever the label shift is tracked.
    """
    y = _default_nodes(s) if y is None else np.asarray(y, dtype=float)
    jet, step, target = _ladder_step(s, direction, y)
    m_after = 0.5 * target.two_m if target is not None else 0.0
    m = 0.5 * s.two_m
    lhs = m_after * step - m * step
    rhs = step if direction == "+" else -step
    scale = max(np.max(np.abs(rhs)), np.max(np.abs(jet[0])), 1e-300)
    return _relative_defect(lhs, rhs, scale, s)


_HERMITICITY_ORDER = 30  # of hermiticity_gap's alpha-0 rule


def hermiticity_gap(two_m: int, j_cap, seed: int = 0) -> float:
    """|<K+ f, g> - <f, K- g>| for random f, g in finite radial spans.

    f lives in the m sector with j <= j_cap, g in the m+1 sector; both
    integrals use one plain-exponent rule of order _HERMITICITY_ORDER, dense
    enough for the polynomial content of the integrands.
    """
    two_j_cap = int(2 * Fraction(j_cap))
    f_js = [tj for tj in range(abs(two_m), two_j_cap + 1, 2)]
    g_js = [tj for tj in range(abs(two_m + 2), two_j_cap + 1, 2)]
    if not f_js or not g_js:
        raise DomainError("empty sector span; raise j_cap")
    rng = np.random.default_rng(seed)
    fc = rng.standard_normal(len(f_js))
    gc = rng.standard_normal(len(g_js))
    rule = gauss_laguerre(_HERMITICITY_ORDER, 0)
    y = rule.nodes
    w = rule.lifted_weights()

    def span(coeffs, two_js, two_m_span, name):
        # sum c calL and sum c K calL over one span, from one jet per label.
        vals = ladder = 0
        for c, tj in zip(coeffs, two_js):
            s = SpinIndex(tj, two_m_span)
            jet = _radial_jet(s, y, 1)
            vals = vals + c * jet[0]
            ladder = ladder + c * _ladder_on_jet(name, s, y, jet)
        return vals, ladder

    f_vals, kplus_f = span(fc, f_js, two_m, "K+")
    g_vals, kminus_g = span(gc, g_js, two_m + 2, "K-")
    left = float(np.dot(w, kplus_f * g_vals))
    right = float(np.dot(w, f_vals * kminus_g))
    return abs(left - right) / max(1.0, abs(left), abs(right))
