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

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .algebra import OperatorExpr
from .basis import (
    SpinIndex,
    _Column,
    _label_column,
    _point_parts,
    _radial_column,
    _real_array,
    calL,
)
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
    ``point`` is a PlanePoint or a (y, phi) pair; y may be an ndarray.  A
    point that is no such pair, or a complex or non-numeric y or phi,
    raises DomainError naming it.
    """
    y, phi = _point_parts(point)
    y, phi = _real_array("y", y), float(_real_array("phi", phi))
    if np.any(y < 0):
        raise DomainError("apply_to_basis needs y >= 0")
    for mono in expr.terms:
        if mono.d > 2:
            raise DomainError(
                f"term {mono} has derivative order {mono.d} > 2; not applicable"
            )
        if mono.b and np.any(y == 0):
            raise DomainError("an Yinv power survives at y = 0")
    jet = [v.reshape(y.shape) for v in _label_column(s, y, expr.max_derivative_order()).jet]
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


def _ladder_terms(name: str, j, m):
    """(A, beta, gamma, two_dm) of K+- at spins j, m (floats or arrays)."""
    if name == "K+":
        return -(2 * m + 1), m * (2 * m + 1), -(j + 0.5), 2
    if name == "K-":
        return 2 * m - 1, m * (2 * m - 1), -(j + 0.5), -2
    raise DomainError(f"no first-order form for {name!r}")


def ladder_form(name: str, s: SpinIndex) -> FirstOrderOp:
    """K+ or K- as a first-order operator at the label (j, m).

    Reading the eigenvalues off the printed operators:
    K+ = -(2m+1) d/dy + m(2m+1)/y - (j+1/2), shifting m up;
    K- = (2m-1) d/dy + m(2m-1)/y - (j+1/2), shifting m down.
    """
    return FirstOrderOp(*_ladder_terms(name, 0.5 * s.two_j, 0.5 * s.two_m))


def _ladder_gain(name: str, j, m):
    """sqrt((j -+ m)(j +- m + 1)) at spins j, m (floats or arrays)."""
    if name == "K+":
        value = (j - m) * (j + m + 1)
    elif name == "K-":
        value = (j + m) * (j - m + 1)
    else:
        raise DomainError(f"unknown ladder {name!r}")
    return np.sqrt(value)


def ladder_coefficient(name: str, s: SpinIndex) -> float:
    """sqrt((j -+ m)(j +- m + 1)): the ladder normalization, 0 at the edge."""
    return float(_ladder_gain(name, 0.5 * s.two_j, 0.5 * s.two_m))


def _shifted_label(s: SpinIndex, two_dm: int) -> SpinIndex | None:
    two_m = s.two_m + two_dm
    if abs(two_m) > s.two_j:
        return None
    return SpinIndex(s.two_j, two_m)


def _ladder_on_jet(name: str, col: _Column) -> np.ndarray:
    """K+- calL over a column's nodes, from its jet [calL, calL', ...]."""
    return _first_order_on_jet(_ladder_terms(name, col.j, col.m)[:3], col)


def _first_order_on_jet(terms, col: _Column) -> np.ndarray:
    """A calL' + (beta/y + gamma) calL over a column's nodes, for terms
    (A, beta, gamma) spread over them."""
    a_coeff, beta, gamma = terms
    return a_coeff * col.jet[1] + (beta / col.y + gamma) * col.jet[0]


def apply_ladder(name: str, s: SpinIndex, y):
    """Values of K+- calL_j^m at y > 0; a complex or non-numeric y raises
    DomainError."""
    y = _real_array("y", y)
    return _ladder_on_jet(name, _label_column(s, y, 1)).reshape(y.shape)


def _default_nodes(s: SpinIndex) -> np.ndarray:
    order = (s.two_j - abs(s.two_m)) // 2 + 2
    return gauss_laguerre(order, abs(s.two_m)).nodes


def _check_direction(direction: str) -> int:
    """two_dm of the ladder K+ (direction "+") or K- ("-"), else DomainError."""
    if direction not in ("+", "-"):
        raise DomainError(f"direction must be '+' or '-', got {direction!r}")
    return 2 if direction == "+" else -2


def ladder_residual(s: SpinIndex, direction: str) -> float:
    """Mismatch of K+- calL_j^m against the normalized shifted function.

    Maximum over quadrature nodes of |LHS - RHS|, relative to the largest of
    the two side magnitudes and the basis scale (so edge labels, where the
    RHS is identically zero, measure annihilation quality).
    """
    target = _shifted_label(s, _check_direction(direction))
    col = _label_column(s, _default_nodes(s), 1)
    rhs = np.zeros_like(col.y) if target is None else calL(target, col.y)
    return float(_ladder_defect(replace(col, targets={direction: rhs}), direction)[0])


def _ladder_defect(col: _Column, direction: str) -> np.ndarray:
    """ladder_residual of each label of a column, from its jet and its
    target in that direction."""
    name = "K" + direction
    lhs = _ladder_on_jet(name, col)
    rhs = _ladder_gain(name, col.j, col.m) * col.targets[direction]
    return _relative_defect(lhs, rhs, col.abs_max(lhs, rhs, col.jet[0]), col)


def annihilation_residual(s: SpinIndex) -> float:
    """Relative size of K+- calL at the top/bottom label m = +-j.

    It is ladder_residual(s, direction) of the ladder that leaves the
    multiplet, whose target is 0.
    """
    if abs(s.two_m) != s.two_j:
        raise DomainError("annihilation happens only at m = +-j")
    return float(_annihilation_defect(_label_column(s, _default_nodes(s), 1))[0])


def _annihilation_defect(col: _Column) -> np.ndarray:
    """annihilation_residual of each label of a column of edge labels m = +-j:
    K+ at m = +j (also at j = 0) and K- at m = -j, one ladder per label."""
    j, m = col.j, col.m
    terms = np.where(m == j, _ladder_terms("K+", j, m)[:3], _ladder_terms("K-", j, m)[:3])
    lhs = _first_order_on_jet(terms, col)
    return _relative_defect(lhs, 0.0, col.abs_max(lhs, col.jet[0]), col)


def _pair_on_jet(outer: str, inner: str, col: _Column) -> np.ndarray:
    """K_outer K_inner calL over a column's nodes, from its jet [calL, calL', calL''].

    The inner operator maps the m-sector, so the outer coefficients are read
    at the shifted label.  With O_i = A_i d/dy + B_i(y), B_i = beta_i/y +
    gamma_i:

        O2 O1 f = A2 A1 f'' + (A2 B1 + B2 A1) f' + (A2 B1' + B2 B1) f.

    Where the inner operator leaves the multiplet the value is that of K_outer
    on the zero function, 0.  A value past the double range (y**2 underflows
    below y ~ 1e-154) raises DomainError naming the operators, the first such
    label and its first such y.
    """
    y, j, m = col.y, col.j, col.m
    a1, beta1, gamma1, two_dm = _ladder_terms(inner, j, m)
    a2, beta2, gamma2, _ = _ladder_terms(outer, j, m + 0.5 * two_dm)
    f, df, ddf = col.jet
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        b1 = beta1 / y + gamma1
        db1 = -beta1 / y**2
        b2 = beta2 / y + gamma2
        val = (
            a2 * a1 * ddf
            + (a2 * b1 + b2 * a1) * df
            + (a2 * db1 + b2 * b1) * f
        )
    val = np.where(col.present(two_dm), val, 0.0)
    bad = ~np.isfinite(val)
    if bad.any():
        node = int(np.flatnonzero(bad)[0])
        s = col.owner(node)
        raise DomainError(
            f"{outer} {inner} at two_j={s.two_j}, two_m={s.two_m} leaves the double range "
            f"at y = {float(y[node])!r}"
        )
    return val


def pair_action(outer: str, inner: str, s: SpinIndex, y):
    """Values of K_outer K_inner calL_j^m at y > 0, tracking the intermediate
    label; a complex or non-numeric y raises DomainError."""
    y = _real_array("y", y)
    return _pair_on_jet(outer, inner, _label_column(s, y, 2)).reshape(y.shape)


def _relative_defect(lhs, rhs, scale, col: _Column) -> np.ndarray:
    """max |lhs - rhs| / scale over each label's nodes, or DomainError naming
    the first label where that is not finite."""
    with np.errstate(all="ignore"):
        value = col.abs_max(lhs - rhs) / scale
    bad = ~np.isfinite(value)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        s = col.label(i)
        raise DomainError(
            f"relative defect {float(value[i])} at two_j={s.two_j}, two_m={s.two_m}"
        )
    return value


def su2_commutator_residual(s: SpinIndex, y=None) -> float:
    """Relative defect of [K+, K-] calL = 2m calL under label tracking."""
    y = _default_nodes(s) if y is None else y
    return float(_su2_defect(_label_column(s, y, 2))[0])


def _su2_defect(col: _Column) -> np.ndarray:
    """su2_commutator_residual of each label of a column, from its jet."""
    lhs = _pair_on_jet("K+", "K-", col) - _pair_on_jet("K-", "K+", col)
    rhs = 2.0 * col.m * col.jet[0]
    return _relative_defect(lhs, rhs, col.abs_max(rhs, col.jet[0]), col)


def casimir_residual(s: SpinIndex, y=None) -> float:
    """Relative defect of (K3^2 + {K+,K-}/2) calL = j(j+1) calL."""
    y = _default_nodes(s) if y is None else y
    return float(_casimir_defect(_label_column(s, y, 2))[0])


def _casimir_defect(col: _Column) -> np.ndarray:
    """casimir_residual of each label of a column, from its jet."""
    j, m, f = col.j, col.m, col.jet[0]
    lhs = m * m * f + 0.5 * (_pair_on_jet("K+", "K-", col) + _pair_on_jet("K-", "K+", col))
    rhs = j * (j + 1.0) * f
    return _relative_defect(lhs, rhs, col.abs_max(rhs, f), col)


def k3_ladder_residual(s: SpinIndex, direction: str, y=None) -> float:
    """Relative defect of [K3, K+-] calL = +-K+- calL.

    K3 is the label reader: acting after K+- it returns m +- 1, acting
    before it returns m, so the commutator is (m +- 1 - m) K+- calL and the
    identity holds exactly whenever the label shift is tracked.
    """
    _check_direction(direction)
    y = _default_nodes(s) if y is None else y
    return float(_k3_defect(_label_column(s, y, 1), direction)[0])


def _k3_defect(col: _Column, direction: str) -> np.ndarray:
    """k3_ladder_residual of each label of a column, from its jet."""
    two_dm = _check_direction(direction)
    step = _ladder_on_jet("K" + direction, col)
    m = col.m
    # K3 after the ladder reads the shifted m, or 0 past the multiplet's edge.
    m_after = np.where(col.present(two_dm), m + 0.5 * two_dm, 0.0)
    lhs = m_after * step - m * step
    rhs = step if direction == "+" else -step
    return _relative_defect(lhs, rhs, np.maximum(col.abs_max(rhs, col.jet[0]), 1e-300), col)


_HERMITICITY_ORDER = 30  # of hermiticity_gap's alpha-0 rule


def hermiticity_gap(two_m: int, j_cap, seed: int = 0) -> float:
    """|<K+ f, g> - <f, K- g>| for random f, g in finite radial spans.

    f lives in the m sector with j <= j_cap, g in the m+1 sector; both
    integrals use one plain-exponent rule of order _HERMITICITY_ORDER, dense
    enough for the polynomial content of the integrands.
    """
    return _hermiticity_gaps([two_m], j_cap, seed)[0]


def _hermiticity_gaps(two_ms, j_cap, seed: int) -> list[float]:
    """hermiticity_gap(two_m, j_cap, seed) for each of two_ms, each with its
    own default_rng(seed) draws, from one kernel stream over the labels of
    every span at the rule's shared nodes."""
    two_j_cap = int(2 * Fraction(j_cap))
    spans = {}  # two_m of a span -> its two_j values
    for two_m in two_ms:
        for t in (two_m, two_m + 2):
            spans[t] = range(abs(t), two_j_cap + 1, 2)
        if not spans[two_m] or not spans[two_m + 2]:
            raise DomainError("empty sector span; raise j_cap")
    if not spans:
        return []
    rule = gauss_laguerre(_HERMITICITY_ORDER, 0)
    y = rule.nodes
    w = rule.lifted_weights()
    col = _radial_column([SpinIndex(tj, t) for t, tjs in spans.items() for tj in tjs], y, 1)
    shape = (len(col.two_j), y.size)
    f = col.jet[0].reshape(shape)
    k_f = {name: _ladder_on_jet(name, col).reshape(shape) for name in ("K+", "K-")}
    first = dict(zip(spans, itertools.accumulate(map(len, spans.values()), initial=0)))

    def span(coeffs, two_m_span, name):
        # sum c calL and sum c K calL over one span.
        rows = slice(first[two_m_span], first[two_m_span] + len(coeffs))
        vals = ladder = 0
        for c, f_row, k_row in zip(coeffs, f[rows], k_f[name][rows]):
            vals = vals + c * f_row
            ladder = ladder + c * k_row
        return vals, ladder

    gaps = []
    for two_m in two_ms:
        rng = np.random.default_rng(seed)
        fc = rng.standard_normal(len(spans[two_m]))
        gc = rng.standard_normal(len(spans[two_m + 2]))
        f_vals, kplus_f = span(fc, two_m, "K+")
        g_vals, kminus_g = span(gc, two_m + 2, "K-")
        left = float(np.dot(w, kplus_f * g_vals))
        right = float(np.dot(w, f_vals * kminus_g))
        gaps.append(abs(left - right) / max(1.0, abs(left), abs(right)))
    return gaps
