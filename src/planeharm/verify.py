"""Executable verification of every identity the package implements.

Each check is declared once, by an @_check line on its function that gives
its id, the identity it tests and its default tolerance; DEFAULT_TOLERANCES
and SUITES are derived from those declarations.  A check measures a
worst-case residual over a pinned grid and compares it against its
tolerance.  Erratum checks, marked [erratum], are exactly the checks that
errata.ERRATA names.  They invert the usual sense: they pass when the
documented discrepancy reproduces and the corrected statement verifies, so a
silently "fixed" source formula would fail the suite just as loudly as a
broken implementation.

Checks are grouped into suites (laguerre, basis, algebra, quadrature,
transform) by the prefix of their id; reports are sorted by check id and
render as text or JSON.

The label checks (basis.ode, algebra.ladder, algebra.annihilation,
algebra.su2-on-basis, algebra.casimir and the closure shadow) sweep the
labels by |m| column: one kernel stream per column gives every label its jet
and its ladder targets at the label's own quadrature nodes, and the
residuals come from the same helpers as the per-label functions in actions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from . import actions, errata
from .algebra import OperatorExpr, build_operator, normal_form, verify_e_correction
from .basis import (
    SpinIndex, _as_cap, _ode_on_jet, _radial_column, _radial_rows, _sign, calL, calZ,
    sector_labels,
)
from .errors import DomainError
from .exact import binomial_general
from .laguerre import (
    COMPOSED_RELATIONS,
    FIRST_ORDER_RELATIONS,
    laguerre_deriv,
    laguerre_eval,
    laguerre_reflect,
    recurrence_check,
)
from .quadrature import _as_int, gauss_laguerre, halfline_inner, plane_inner
from .rotation import RotationSpec, rotation_matrix
from .transform import _max_gap, analyze, as_function, parseval_gap, random_block, rotate

__all__ = [
    "CheckResult",
    "VerificationReport",
    "DEFAULT_TOLERANCES",
    "SUITES",
    "run_suite",
]

# Laguerre verification grid: every (n, alpha, y) with n <= 12, |alpha| <= 6.
# The checks evaluate each n on the whole _ALPHAS x _YS grid in one call.
_N_GRID = range(0, 13)
_ALPHAS = np.arange(-6, 7)
_YS = np.array([0.1, 1.0, 5.0, 20.0])


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check."""

    id: str
    identity: str
    residual: float
    threshold: float
    passed: bool
    erratum: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "identity": self.identity,
            "max_residual": self.residual,
            "threshold": self.threshold,
            "passed": self.passed,
            "erratum": self.erratum,
            "note": self.note,
        }


@dataclass(frozen=True)
class VerificationReport:
    """All check outcomes of one suite run, sorted by check id."""

    suite: str
    j_max: Fraction
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "j_max": str(self.j_max),
            "seed": self.seed,
            "overall": "pass" if self.overall_pass else "fail",
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}  j_max: {self.j_max}  seed: {self.seed}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            tag = " [erratum]" if c.erratum else ""
            lines.append(
                f"{status}  {c.id:<34} max {c.residual:9.3e}  tol {c.threshold:.1e}{tag}"
            )
            if c.note:
                for note_line in c.note.splitlines():
                    lines.append(f"      {note_line}")
        lines.append(f"overall: {'pass' if self.overall_pass else 'fail'}")
        return "\n".join(lines)


def _guarded(diff: np.ndarray, ref: np.ndarray) -> float:
    # The worst |diff|, relative where the reference is O(1) or larger and
    # absolute below that; avoids rewarding or punishing catastrophic
    # cancellation near roots.
    return float(np.max(np.abs(diff) / np.maximum(1.0, np.abs(ref))))


def _sector_sweep(j_max: Fraction) -> list[SpinIndex]:
    labels = list(sector_labels("int", j_max))
    if j_max >= Fraction(1, 2):
        labels += sector_labels("half", j_max)
    return labels


# Every check, in declaration order: id -> (identity, default tolerance, fn).
# fn(j_max, seed) returns (residual, note, reproduced); reproduced is False
# only when a check that errata.ERRATA names finds its documented failure
# gone, and such a check then fails whatever its residual.
_CHECKS: dict[str, tuple[str, float, Callable]] = {}


def _check(check_id: str, tolerance: float, identity: str):
    """Declare the decorated function as check check_id; its suite is the id's prefix."""

    def register(fn: Callable) -> Callable:
        _CHECKS[check_id] = (identity, tolerance, fn)
        return fn

    return register


# ---------------------------------------------------------------------------
# laguerre suite


def _exact_laguerre(n: int, alpha: int, points) -> list[float]:
    """L_n^(alpha) at each exact y = p/q of points, a list of (p, q) pairs,
    correctly rounded, from the explicit series in integers:

        q^n n! L_n^(alpha)(p/q) = sum_k (-1)^k C(n+alpha, n-k) (n!/k!) p^k q^(n-k).
    """
    terms, ratio = [], 1  # ratio = n!/k!
    for k in range(n, -1, -1):
        terms.append((-1) ** k * int(binomial_general(n + alpha, n - k)) * ratio)
        ratio *= k
    # terms[i] multiplies p^(n-i) q^i.
    return [
        sum(c * p ** (n - i) * q**i for i, c in enumerate(terms)) / (q**n * math.factorial(n))
        for p, q in points
    ]


@_check("laguerre.oracle", 1e-12, "recurrence evaluation equals the exact rational series")
def _check_oracle(j_max, seed):
    worst = 0.0
    points = [Fraction(y).limit_denominator(10**6).as_integer_ratio() for y in _YS]
    for n in _N_GRID:
        got = laguerre_eval(n, _ALPHAS[:, None], _YS)
        ref = np.array([_exact_laguerre(n, int(a), points) for a in _ALPHAS])
        worst = max(worst, _guarded(got - ref, ref))
        rel = (_ALPHAS >= 0)[:, None] & (ref != 0.0)
        worst = max(worst, float(np.max(np.abs(got - ref)[rel] / np.abs(ref[rel]))))
    return worst, "", True


@_check(
    "laguerre.reflection", 1e-12, "negative-alpha values match the reflection to positive alpha"
)
def _check_reflection(j_max, seed):
    worst = 0.0
    for n in _N_GRID:
        alphas = range(-min(6, n), 1)
        direct = laguerre_eval(n, np.array(alphas)[:, None], _YS)
        reflected = np.array([laguerre_reflect(n, a, _YS) for a in alphas])
        worst = max(worst, _guarded(direct - reflected, direct))
    return worst, "", True


@_check("laguerre.first-order-recurrences", 1e-10, "all four first-order differential recurrences")
def _check_first_order(j_max, seed):
    worst = 0.0
    for name in FIRST_ORDER_RELATIONS:
        for n in _N_GRID:
            c = recurrence_check(name, n, _ALPHAS[:, None], _YS)
            worst = max(worst, float(np.max(c.relative_residual)))
    return worst, "", True


@_check(
    "laguerre.composed-recurrences", 1e-10,
    "composed two-step recurrences, printed vs corrected forms",
)
def _check_composed(j_max, seed):
    # Erratum check: both printed forms must fail at their pinned points and
    # broadly on the grid, while the corrected forms pass everywhere.
    pin_lower = recurrence_check("lower-n-raise-alpha2", 1, 0, 1.0, form="printed")
    pin_raise = recurrence_check("raise-n-lower-alpha2", 1, 2, 1.0, form="printed")
    reproduced = (
        pin_lower.residual == 1.0
        and pin_lower.lhs == -1.0
        and pin_lower.rhs == 0.0
        and pin_raise.residual == 1.0
    )
    fail_count = 0
    total = 0
    corrected_worst = 0.0
    for name in COMPOSED_RELATIONS:
        for n in _N_GRID:
            # An (n, alpha) pair fails when the printed form misses at some y
            # or cannot be evaluated there (it divides by alpha + 1 = 0).
            try:
                printed = recurrence_check(name, n, _ALPHAS[:, None], _YS, form="printed")
                bad = (printed.relative_residual > 1e-6).any(axis=1)
            except DomainError:
                ok = _ALPHAS != -1
                printed = recurrence_check(name, n, _ALPHAS[ok][:, None], _YS, form="printed")
                bad = ~ok
                bad[ok] = (printed.relative_residual > 1e-6).any(axis=1)
            c = recurrence_check(name, n, _ALPHAS[:, None], _YS)
            corrected_worst = max(corrected_worst, float(np.max(c.relative_residual)))
            total += len(_ALPHAS)
            fail_count += int(bad.sum())
    reproduced = reproduced and fail_count > total // 2
    rhs_pin = pin_lower.rhs if pin_lower.rhs != 0 else 0.0
    note = (
        f"printed forms fail on {fail_count}/{total} (n, alpha) pairs; "
        f"pinned point (n=1, alpha=0, y=1) gives lhs {pin_lower.lhs}, rhs {rhs_pin}; "
        f"corrected forms pass at {corrected_worst:.3e}"
    )
    return corrected_worst, note, reproduced


@_check(
    "laguerre.derivatives", 1e-6, "analytic derivatives match extrapolated central differences"
)
def _check_derivatives(j_max, seed):
    # Richardson-extrapolated central differences; tolerance is absolute
    # where |L| is O(1) and scales with the function where it is huge.
    h = 1e-6
    a = _ALPHAS[:, None]
    worst = 0.0
    for n in _N_GRID:
        up, down = laguerre_eval(n, a, _YS + h), laguerre_eval(n, a, _YS - h)
        d_h = (up - down) / (2 * h)
        d_h2 = (laguerre_eval(n, a, _YS + h / 2) - laguerre_eval(n, a, _YS - h / 2)) / h
        fd = (4.0 * d_h2 - d_h) / 3.0
        scale = np.maximum(1.0, np.maximum(np.abs(up), np.abs(down)))
        worst = max(worst, float(np.max(np.abs(laguerre_deriv(n, a, _YS) - fd) / scale)))
    return worst, "", True


# ---------------------------------------------------------------------------
# basis suite


def _columns(j_max, edges: bool = False):
    """(label, nodes, jet, targets) for each label of _sector_sweep(j_max),
    or only its edges m = +-j, with one kernel stream per |m| column.

    The nodes are the label's own actions._default_nodes, the jet is
    [calL, calL', calL''] of the label there, and targets maps each ladder
    direction "+" and "-" to calL of the label it shifts to at those nodes,
    or to None past the multiplet's edge.  A column of a = 2|m| streams over
    alphas |a - 2| .. a + 2 at the concatenated nodes of its labels (j, -|m|)
    and gives (j, +|m|) the same values times its sign.
    """
    two_j_max = int(2 * j_max)
    for a in range(two_j_max + 1):
        labels = [SpinIndex(two_j, -a) for two_j in range(a, (a if edges else two_j_max) + 1, 2)]
        nodes = [actions._default_nodes(s) for s in labels]
        same_j = sorted({abs(a - 2), a + 2})
        for low, y, rows in zip(labels, nodes, _radial_column(labels, nodes, 2, same_j)):
            same_j_rows = dict(zip(same_j, rows[3:]))
            for s in (low, SpinIndex(low.two_j, a)) if a else (low,):
                targets = {}
                for direction, two_dm in (("+", 2), ("-", -2)):
                    t = actions._shifted_label(s, two_dm)
                    targets[direction] = (
                        None if t is None else _sign(t.two_m) * same_j_rows[abs(t.two_m)]
                    )
                yield s, y, [_sign(s.two_m) * v for v in rows[:3]], targets


@_check("basis.ode", 1e-9, "radial functions satisfy their second-order differential equation")
def _check_ode(j_max, seed):
    worst = 0.0
    for s, y, jet, _ in _columns(j_max):
        f, _, ddf = jet
        scale = np.maximum(1.0, np.maximum(np.abs(f), np.abs(y * ddf)))
        worst = max(worst, float(np.max(np.abs(_ode_on_jet(s, y, jet)) / scale)))
    return worst, "", True


@_check(
    "basis.radial-orthonormality", 1e-10,
    "fixed-m radial functions are orthonormal on the half-line",
)
def _check_radial_orthonormality(j_max, seed):
    # One Gram matrix per 2|m| on the rule halfline_inner uses; s_m^2 = 1, so
    # it covers every (j, j') pair of both signs of m.
    worst = 0.0
    two_j_cap = int(2 * j_max)
    for a in range(two_j_cap + 1):
        rule = gauss_laguerre(math.ceil(j_max - Fraction(a, 2)) + 2, a)
        rows = np.concatenate(list(_radial_rows([a], two_j_cap, rule.nodes)))
        gram = (rows * rule.lifted_weights()) @ rows.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(rows))))))
    return worst, "", True


@_check("basis.symmetry-sign", 1e-12, "m-reflection symmetry carries the sign (-1)^(2m)")
def _check_symmetry_sign(j_max, seed):
    y = _YS
    signed_worst = 0.0
    unsigned_gap = 0.0
    half_seen = False
    for s in _sector_sweep(j_max):
        if s.two_m < 0:
            continue
        mirror = SpinIndex(s.two_j, -s.two_m)
        sign = -1.0 if s.two_m % 2 else 1.0
        f, f_mirror = calL(s, y), calL(mirror, y)
        signed_worst = max(signed_worst, float(np.max(np.abs(f - sign * f_mirror))))
        if s.two_m % 2:
            half_seen = True
            unsigned_gap = max(unsigned_gap, float(np.max(np.abs(f - f_mirror))))
    reproduced = (not half_seen) or unsigned_gap >= 0.5
    if half_seen:
        note = (
            f"signed identity holds at {signed_worst:.3e}; dropping the sign "
            f"leaves a gap of {unsigned_gap:.3e} on half-integer labels"
        )
    else:
        note = "no half-integer labels at this j_max; sign audit is vacuous"
    return signed_worst, note, reproduced


@_check("basis.plane-gram", 1e-10, "plane harmonics have an identity Gram matrix within a sector")
def _check_plane_gram(j_max, seed):
    worst = 0.0
    for sector in ("int", "half"):
        j_eff = min(j_max, Fraction(6))
        labels = sector_labels(sector, j_eff)
        if not labels:
            continue
        for b in labels:
            fb = lambda y, phi, s=b: calZ(s, (y, phi))
            column = analyze(fb, sector, j_eff)
            for a in labels:
                got = column.get(a.two_j, a.two_m)
                target = 1.0 if a == b else 0.0
                worst = max(worst, abs(got - target))
    return worst, "", True


# ---------------------------------------------------------------------------
# algebra suite


@_check("algebra.ladder", 1e-9, "ladder actions map basis functions to their neighbors")
def _check_ladder(j_max, seed):
    return max(
        actions._ladder_defect(s, d, y, jet, targets[d])
        for s, y, jet, targets in _columns(j_max)
        for d in ("+", "-")
    ), "", True


@_check("algebra.annihilation", 1e-9, "ladders annihilate the edge labels m = +-j")
def _check_annihilation(j_max, seed):
    # K+ at m = +j and K- at m = -j, where the target leaves the multiplet.
    return max(
        actions._ladder_defect(s, d, y, jet, targets[d])
        for s, y, jet, targets in _columns(j_max, edges=True)
        for d in ("+" if s.two_m == s.two_j else "-",)
    ), "", True


@_check(
    "algebra.su2-on-basis", 1e-8, "commutators [K+,K-] = 2K3 and [K3,K+-] = +-K+- on the basis"
)
def _check_su2(j_max, seed):
    return max(
        max(
            actions._su2_defect(s, y, jet),
            actions._k3_defect(s, "+", y, jet),
            actions._k3_defect(s, "-", y, jet),
        )
        for s, y, jet, _ in _columns(j_max)
    ), "", True


@_check("algebra.casimir", 1e-8, "Casimir combination acts as j(j+1)")
def _check_casimir(j_max, seed):
    return max(actions._casimir_defect(s, y, jet) for s, y, jet, _ in _columns(j_max)), "", True


@_check(
    "algebra.hermiticity", 1e-8,
    "raising and lowering are mutual adjoints in the radial inner product",
)
def _check_hermiticity(j_max, seed):
    # m runs over -j_cap .. j_cap - 1, where both spans are nonempty.
    j_cap = min(j_max, Fraction(6))
    two_j_cap = int(2 * j_cap)
    two_ms = range(-two_j_cap, two_j_cap - 1)
    gaps = [actions.hermiticity_gap(two_m, j_cap, seed=seed) for two_m in two_ms]
    return max(gaps, default=0.0), "", True


@_check(
    "algebra.closure-residuals", 1e-8,
    "formal closure identities leave pinned residuals; actions satisfy them",
)
def _check_closure(j_max, seed):
    report = verify_e_correction()
    bracket_pin = errata.get("closure-bracket-residual").frozen[0][1]
    casimir_pin = errata.get("closure-casimir-residual").frozen[0][1]
    reproduced = (
        not report.bracket_confirmed
        and not report.casimir_confirmed
        and report.residual_bracket.serialize() == bracket_pin
        and report.residual_casimir.serialize() == casimir_pin
    )
    shadow = max(
        max(actions._su2_defect(s, y, jet), actions._casimir_defect(s, y, jet))
        for s, y, jet, _ in _columns(min(j_max, Fraction(8)))
    )
    note = (
        "formal residuals reproduce the pinned 12- and 17-term canonical "
        f"forms; label-tracked action satisfies both identities at {shadow:.3e}"
    )
    return shadow, note, reproduced


def _word_expr(word: tuple[str, ...]) -> OperatorExpr:
    expr = OperatorExpr.scalar(1)
    for letter in word:
        expr = expr * OperatorExpr.symbol(letter)
    return expr


@_check("algebra.engine-determinism", 0.0, "rewriting is deterministic and idempotent")
def _check_determinism(j_max, seed):
    # Two independent reductions of the same inputs must agree byte for
    # byte, and normal_form must be idempotent on random expressions.
    words = [
        ("D", "Y"),
        ("D", "Y", "Y", "Yi"),
        ("M", "D", "Y"),
        ("M", "D", "Yi"),
        ("J", "M", "D"),
        ("Yi", "Y", "M"),
        ("D", "D", "Y", "Y"),
        ("M", "M", "D", "D"),
    ]
    first = [_word_expr(w).serialize() for w in words]
    second = [_word_expr(w).serialize() for w in words]
    mismatch = sum(1 for a, b in zip(first, second) if a != b)
    rng = np.random.default_rng(seed)
    letters = ("Y", "Yi", "D", "M", "J")
    for _ in range(50):
        length = int(rng.integers(1, 7))
        word = tuple(letters[int(i)] for i in rng.integers(0, 5, size=length))
        once = normal_form(_word_expr(word))
        twice = normal_form(once)
        if once.serialize() != twice.serialize():
            mismatch += 1
    ops = [build_operator(n).serialize() for n in ("E", "K+", "K-", "K3")]
    ops_again = [build_operator(n).serialize() for n in ("E", "K+", "K-", "K3")]
    mismatch += sum(1 for a, b in zip(ops, ops_again) if a != b)
    return float(mismatch), "", True


# ---------------------------------------------------------------------------
# quadrature suite


@_check("quadrature.moments", 1e-12, "rules integrate monomials below degree 2N exactly")
def _check_moments(j_max, seed):
    worst = 0.0
    for alpha in (0, 1, 2, 3, 5):
        for order in range(1, 41):
            rule = gauss_laguerre(order, alpha)
            # Row k holds x^k, built as ((x * x) * x) ... one factor at a time.
            powers = np.ones((2 * order, order))
            powers[1:] = np.cumprod(np.broadcast_to(rule.nodes, (2 * order - 1, order)), axis=0)
            target = np.array([math.exp(math.lgamma(k + alpha + 1)) for k in range(2 * order)])
            worst = max(worst, float(np.max(np.abs(powers @ rule.weights - target) / target)))
    return worst, "", True


@_check("quadrature.weight-sum", 1e-12, "weights sum to Gamma(alpha+1)")
def _check_weight_sum(j_max, seed):
    worst = 0.0
    for alpha in (0, 1, 2, 3, 5):
        target = math.exp(math.lgamma(alpha + 1))
        for order in range(1, 41):
            rule = gauss_laguerre(order, alpha)
            worst = max(worst, abs(float(np.sum(rule.weights)) - target) / target)
    return worst, "", True


@_check("quadrature.interlacing", 0.0, "nodes are positive, sorted, and interlace the next order")
def _check_interlacing(j_max, seed):
    violations = 0
    for alpha in (0, 1, 2, 3, 5):
        previous = None
        for order in range(1, 41):
            rule = gauss_laguerre(order, alpha)
            x = rule.nodes
            if np.any(x <= 0) or np.any(np.diff(x) <= 0):
                violations += 1
            if previous is not None:
                # Each node of the coarser rule sits strictly between
                # consecutive nodes of the finer rule.
                for i, xv in enumerate(previous):
                    if not (x[i] < xv < x[i + 1]):
                        violations += 1
            previous = x
    return float(violations), "", True


def _memo(fn):
    """fn(s, *arrays), evaluated once per label and exact arrays (shape and
    bytes); the values it returns are read-only and shared."""
    cache = {}

    def call(s, *arrays):
        key = (s, *((a.shape, a.tobytes()) for a in map(np.asarray, arrays)))
        if key not in cache:
            cache[key] = value = np.asarray(fn(s, *arrays))
            value.flags.writeable = False
        return cache[key]

    return call


@_check(
    "quadrature.plane-vs-halfline", 1e-13, "plane inner products reduce to radial ones at equal m"
)
def _check_plane_vs_halfline(j_max, seed):
    # Every pair calls plane_inner and halfline_inner, which sample each
    # label on the same grid; the memos evaluate each label once per grid.
    plane_values = _memo(lambda s, y, phi: calZ(s, (y, phi)))
    radial_values = _memo(calL)
    worst = 0.0
    j_eff = min(j_max, Fraction(6))
    for sector in ("int", "half"):
        labels = sector_labels(sector, j_eff)
        by_m: dict[int, list[SpinIndex]] = {}
        for s in labels:
            by_m.setdefault(s.two_m, []).append(s)
        for two_m, group in by_m.items():
            for i, sa in enumerate(group):
                for sb in group[i:]:
                    planar = plane_inner(
                        lambda y, phi, s=sa: plane_values(s, y, phi),
                        lambda y, phi, s=sb: plane_values(s, y, phi),
                        j_eff,
                    )
                    radial = halfline_inner(
                        lambda y, s=sa: radial_values(s, y),
                        lambda y, s=sb: radial_values(s, y),
                        Fraction(two_m, 2),
                        j_eff,
                    )
                    worst = max(worst, abs(planar - radial))
    return worst, "", True


# ---------------------------------------------------------------------------
# transform suite


def _transform_cases(j_max, seed):
    cases = []
    j_int = min(j_max, Fraction(6))
    cases.append(("int", j_int, random_block("int", j_int, seed=seed)))
    if j_max >= Fraction(1, 2):
        j_half = min(j_max, Fraction(11, 2))
        if (2 * j_half) % 2 == 0:
            j_half -= Fraction(1, 2)
        cases.append(("half", j_half, random_block("half", j_half, seed=seed + 1)))
    return cases


@_check("transform.roundtrip", 1e-8, "analyze inverts synthesize on band-limited blocks")
def _check_roundtrip(j_max, seed):
    worst = 0.0
    for sector, j_eff, block in _transform_cases(j_max, seed):
        worst = max(worst, _max_gap(analyze(as_function(block), sector, j_eff), block))
    return worst, "", True


@_check(
    "transform.parseval", 1e-10,
    "coefficient energy equals the function norm for band-limited input",
)
def _check_parseval(j_max, seed):
    worst = 0.0
    notes = []
    for sector, j_eff, block in _transform_cases(j_max, seed):
        worst = max(worst, parseval_gap(as_function(block), sector, j_eff))
    if j_max >= 4:
        outside = lambda y, phi: calZ(SpinIndex(8, 4), (y, phi))
        truncation = parseval_gap(outside, "int", 3)
        worst = max(worst, abs(truncation - 1.0))
        notes.append(
            f"band-limited gaps <= {worst:.3e}; truncating a unit-norm "
            f"harmonic below its j reports gap {truncation:.6f}"
        )
    return worst, "\n".join(notes), True


def _random_specs(seed, count=4):
    rng = np.random.default_rng(seed)
    return [RotationSpec(*rng.uniform(-2 * math.pi, 2 * math.pi, size=3)) for _ in range(count)]


@_check("transform.rotation-unitarity", 1e-8, "rotation matrices are unitary")
def _check_rotation_unitarity(j_max, seed):
    worst = 0.0
    for two_j in range(0, int(2 * j_max) + 1):
        for spec in _random_specs(seed + two_j):
            u = rotation_matrix(two_j, spec)
            worst = max(
                worst, float(np.max(np.abs(u.conj().T @ u - np.eye(two_j + 1))))
            )
    return worst, "", True


@_check("transform.rotation-group-law", 1e-8, "sequential rotations equal the composed unitary")
def _check_group_law(j_max, seed):
    worst = 0.0
    specs = _random_specs(seed, count=6)
    for sector, j_eff, block in _transform_cases(j_max, seed):
        for s1, s2 in zip(specs[::2], specs[1::2]):
            twice = rotate(rotate(block, s1), s2)
            start = 0 if sector == "int" else 1
            for two_j in range(start, int(2 * j_eff) + 1, 2):
                u = rotation_matrix(two_j, s2) @ rotation_matrix(two_j, s1)
                vec = np.array(
                    [block.get(two_j, -two_j + 2 * i) for i in range(two_j + 1)]
                )
                out = u @ vec
                for i, c in enumerate(out):
                    worst = max(worst, abs(twice.get(two_j, -two_j + 2 * i) - c))
    return worst, "", True


@_check("transform.double-cover", 1e-12, "a full turn multiplies each j-block by (-1)^(2j)")
def _check_double_cover(j_max, seed):
    worst = 0.0
    full_turn = RotationSpec(0.0, 2.0 * math.pi, 0.0)
    for two_j in range(0, int(2 * j_max) + 1):
        u = rotation_matrix(two_j, full_turn)
        sign = -1.0 if two_j % 2 else 1.0
        worst = max(worst, float(np.max(np.abs(u - sign * np.eye(two_j + 1)))))
    return worst, "", True


@_check("transform.per-j-norms", 1e-10, "rotations preserve each j-multiplet's energy")
def _check_per_j_norms(j_max, seed):
    worst = 0.0
    for sector, j_eff, block in _transform_cases(j_max, seed):
        for spec in _random_specs(seed + 17, count=3):
            rotated = rotate(block, spec)
            before = block.per_j_norm_sq()
            after = rotated.per_j_norm_sq()
            for two_j in before:
                worst = max(worst, abs(before[two_j] - after[two_j]))
    return worst, "", True


@_check(
    "transform.equivariance", 1e-7,
    "analyzing a rotated function equals rotating its coefficients",
)
def _check_equivariance(j_max, seed):
    worst = 0.0
    spec = _random_specs(seed + 5, count=1)[0]
    for sector, j_eff, block in _transform_cases(min(j_max, Fraction(4)), seed):
        rotated_function = as_function(rotate(block, spec))
        lhs = analyze(rotated_function, sector, j_eff)
        rhs = rotate(analyze(as_function(block), sector, j_eff), spec)
        worst = max(worst, _max_gap(lhs, rhs))
    return worst, "", True


@_check(
    "transform.dmatrix-values", 1e-12, "rotation matrices match closed forms at spins 1/2 and 1"
)
def _check_dmatrix_values(j_max, seed):
    worst = 0.0
    for b in (0.0, 0.3, 1.0, -1.7, 2.9):
        c, s = math.cos(b / 2.0), math.sin(b / 2.0)
        oracle_half = np.array([[c, s], [-s, c]])
        got = rotation_matrix(1, RotationSpec(0.0, b, 0.0))
        worst = max(worst, float(np.max(np.abs(got - oracle_half))))
        cb, sb = math.cos(b), math.sin(b)
        r2 = math.sqrt(2.0)
        oracle_one = np.array(
            [
                [(1 + cb) / 2, sb / r2, (1 - cb) / 2],
                [-sb / r2, cb, sb / r2],
                [(1 - cb) / 2, -sb / r2, (1 + cb) / 2],
            ]
        )
        got = rotation_matrix(2, RotationSpec(0.0, b, 0.0))
        worst = max(worst, float(np.max(np.abs(got - oracle_one))))
    return worst, "", True


# ---------------------------------------------------------------------------
# registry and driver

DEFAULT_TOLERANCES: dict[str, float] = {cid: tol for cid, (_, tol, _) in _CHECKS.items()}

SUITES: dict[str, tuple[str, ...]] = {
    suite: tuple(cid for cid in _CHECKS if cid.startswith(suite + "."))
    for suite in dict.fromkeys(cid.partition(".")[0] for cid in _CHECKS)
}
SUITES["all"] = tuple(_CHECKS)


def run_suite(
    suite: str = "all",
    j_max=8,
    seed: int = 0,
    tolerances: Mapping[str, float] | None = None,
) -> VerificationReport:
    """Run one suite and return its report.

    ``tolerances`` overrides entries of the default table by check id;
    unknown ids are rejected so typos cannot silently relax anything.
    """
    if suite not in SUITES:
        raise DomainError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
        )
    j_max = _as_cap("j_max", j_max)
    seed = _as_int("seed", seed)
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    tols = dict(DEFAULT_TOLERANCES)
    for key, value in (tolerances or {}).items():
        if key not in tols:
            raise DomainError(f"unknown check id in tolerance override: {key!r}")
        tols[key] = float(value)
    results = []
    for check_id in sorted(SUITES[suite]):
        identity, _, fn = _CHECKS[check_id]
        residual, note, reproduced = fn(j_max, seed)
        results.append(
            CheckResult(
                id=check_id,
                identity=identity,
                residual=float(residual),
                threshold=tols[check_id],
                passed=bool(reproduced) and bool(residual <= tols[check_id]),
                erratum=bool(errata.for_check(check_id)),
                note=note,
            )
        )
    return VerificationReport(suite=suite, j_max=j_max, seed=seed, checks=tuple(results))
