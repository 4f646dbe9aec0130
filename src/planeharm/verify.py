"""Executable verification of every identity the package implements.

Each check is declared once, by an @_check line on its function that gives
its id, the identity it tests and its default tolerance; DEFAULT_TOLERANCES
and SUITES are derived from those declarations.  A check returns or yields
its gaps over a pinned grid, as arrays or numbers, and keeps no running
maximum.  run_suite folds them in one place, _worst, into the check's
residual: the largest magnitude over its gaps, 0.0 if there are none and NaN
if any gap is NaN, so that a NaN fails the check.  A check with a note or an
erratum verdict returns a _Verdict of its gaps, its note and whether its
documented failure reproduced; a note that quotes a worst value takes it
from _worst too.  Erratum checks, marked [erratum], are exactly the checks
that errata.ERRATA names.  They invert the usual sense: they pass when the
documented discrepancy reproduces and the corrected statement verifies, so a
silently "fixed" source formula would fail the suite just as loudly as a
broken implementation.

Checks are grouped into suites (laguerre, basis, algebra, quadrature,
transform) by the prefix of their id; reports are sorted by check id and
render as text or JSON.

The label checks (basis.ode, algebra.ladder, algebra.annihilation,
algebra.su2-on-basis, algebra.casimir and the closure shadow) sweep the
labels by |m| column: one kernel stream per column gives every label of
both signs of m its jet and its ladder targets at the label's own
quadrature nodes, and the residual cores of actions and basis take the
whole column at once; the one-label functions in actions are the same
cores on a column of one label.  The rules of every column come from one
request, and so do those of the quadrature checks.  The plane-grid checks
(basis.plane-gram, quadrature.plane-vs-halfline) take every harmonic of a
sector from one table and project or pair the whole table with the stack
cores that analyze, plane_inner and halfline_inner run for one function
or pair.  A check run alone builds all of this itself; run_suite sweeps
the columns once per call, handing each column to every label check it
runs (the edge sweep of algebra.annihilation aside), and builds the plane
tables once for both plane-grid checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from . import actions, errata
from .algebra import OperatorExpr, build_operator, normal_form, verify_e_correction
from .basis import (
    SpinIndex, _as_cap, _ode_on_jet, _plane_table, _radial_column, _radial_rows, _sign, calZ,
    sector_labels,
)
from .errors import DomainError, _as_int
from .exact import binomial_general
from .laguerre import (
    COMPOSED_RELATIONS,
    FIRST_ORDER_RELATIONS,
    laguerre_deriv,
    laguerre_eval,
    laguerre_reflect,
    recurrence_check,
)
from .quadrature import (
    _halfline_rule, _halfline_sums, _plane_grid, _plane_sums, _rules,
)
from .rotation import RotationSpec, _rotation_matrices, rotation_matrix
from .transform import (
    _index, _project, _sector_ladder, analyze, as_function, parseval_gap, random_block, rotate,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "DEFAULT_TOLERANCES",
    "SUITES",
    "run_suite",
]

# Laguerre verification grid: every (n, alpha, y) with n <= 12, |alpha| <= 6,
# as axes that broadcast together, so each check evaluates a relation and
# form on the whole grid in one call.
_NS = np.arange(0, 13)[:, None, None]
_ALPHAS = np.arange(-6, 7)[:, None]
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
        # JSON has no NaN or Infinity: a non-finite number is written as null.
        return {
            "id": self.id,
            "identity": self.identity,
            "max_residual": self.residual if math.isfinite(self.residual) else None,
            "threshold": self.threshold if math.isfinite(self.threshold) else None,
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


def _worst(gaps: Iterable) -> float:
    """The residual of a check: the largest magnitude over gaps, an iterable
    of arrays or numbers; 0.0 if there are none, and NaN if any gap is NaN,
    so that the check fails.

    np.hypot rounds each complex magnitude as Python's abs does; np.abs of a
    complex can differ from it in the last bit.
    """
    worst = 0.0
    for gap in gaps:
        z = np.asarray(gap)
        magnitude = np.hypot(z.real, z.imag) if np.iscomplexobj(z) else np.abs(z)
        worst = np.maximum(worst, magnitude.max(initial=0.0))
    return float(worst)


class _Verdict(NamedTuple):
    """What a check with a note or an erratum verdict returns."""

    gaps: Iterable
    note: str = ""
    reproduced: bool = True


def _guarded(diff: np.ndarray, ref: np.ndarray) -> np.ndarray:
    # diff, relative where the reference is O(1) or larger and absolute
    # below that; avoids rewarding or punishing catastrophic cancellation
    # near roots.
    return diff / np.maximum(1.0, np.abs(ref))


def _sector_sweep(j_max: Fraction) -> list[SpinIndex]:
    labels = list(sector_labels("int", j_max))
    if j_max >= Fraction(1, 2):
        labels += sector_labels("half", j_max)
    return labels


# Every check, in declaration order: id -> (identity, default tolerance, fn).
# fn(j_max, seed) returns or yields its gaps, arrays or numbers, which
# run_suite folds with _worst, or returns a _Verdict(gaps, note,
# reproduced); reproduced is False only when a check that errata.ERRATA
# names finds its documented failure gone, and such a check then fails
# whatever its residual.
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
    points = [Fraction(y).limit_denominator(10**6).as_integer_ratio() for y in _YS]
    got = laguerre_eval(_NS, _ALPHAS, _YS)
    ref = np.array(
        [[_exact_laguerre(int(n), int(a), points) for a in _ALPHAS.flat] for n in _NS.flat]
    )
    rel = (_ALPHAS >= 0) & (ref != 0.0)
    return [_guarded(got - ref, ref), (got - ref)[rel] / ref[rel]]


@_check(
    "laguerre.reflection", 1e-12, "negative-alpha values match the reflection to positive alpha"
)
def _check_reflection(j_max, seed):
    # Every (n, alpha) pair of the grid with -n <= alpha <= 0, one per row.
    pairs = np.array([(n, a) for n in _NS.flat for a in _ALPHAS.flat if -n <= a <= 0])
    n, alpha = pairs[:, :1], pairs[:, 1:]
    direct = laguerre_eval(n, alpha, _YS)
    return [_guarded(direct - laguerre_reflect(n, alpha, _YS), direct)]


@_check("laguerre.first-order-recurrences", 1e-10, "all four first-order differential recurrences")
def _check_first_order(j_max, seed):
    return [
        recurrence_check(name, _NS, _ALPHAS, _YS).relative_residual
        for name in FIRST_ORDER_RELATIONS
    ]


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
    corrected = []
    for name in COMPOSED_RELATIONS:
        # An (n, alpha) pair fails when the printed form misses at some y
        # or cannot be evaluated there (it divides by alpha + 1 = 0).
        try:
            printed = recurrence_check(name, _NS, _ALPHAS, _YS, form="printed")
            bad = (printed.relative_residual > 1e-6).any(axis=-1)
        except DomainError:
            ok = _ALPHAS[:, 0] != -1
            printed = recurrence_check(name, _NS, _ALPHAS[ok], _YS, form="printed")
            bad = np.ones((_NS.size, _ALPHAS.size), dtype=bool)
            bad[:, ok] = (printed.relative_residual > 1e-6).any(axis=-1)
        corrected.append(recurrence_check(name, _NS, _ALPHAS, _YS).relative_residual)
        total += bad.size
        fail_count += int(bad.sum())
    reproduced = reproduced and fail_count > total // 2
    rhs_pin = pin_lower.rhs if pin_lower.rhs != 0 else 0.0
    note = (
        f"printed forms fail on {fail_count}/{total} (n, alpha) pairs; "
        f"pinned point (n=1, alpha=0, y=1) gives lhs {pin_lower.lhs}, rhs {rhs_pin}; "
        f"corrected forms pass at {_worst(corrected):.3e}"
    )
    return _Verdict(corrected, note, reproduced)


@_check(
    "laguerre.derivatives", 1e-6, "analytic derivatives match extrapolated central differences"
)
def _check_derivatives(j_max, seed):
    # Richardson-extrapolated central differences; tolerance is absolute
    # where |L| is O(1) and scales with the function where it is huge.
    h = 1e-6
    up, mid_up, mid_down, down = (
        laguerre_eval(_NS, _ALPHAS, _YS + step) for step in (h, h / 2, -h / 2, -h)
    )
    d_h = (up - down) / (2 * h)
    d_h2 = (mid_up - mid_down) / h
    fd = (4.0 * d_h2 - d_h) / 3.0
    scale = np.maximum(1.0, np.maximum(np.abs(up), np.abs(down)))
    return [(laguerre_deriv(_NS, _ALPHAS, _YS) - fd) / scale]


# ---------------------------------------------------------------------------
# basis suite


def _column_rules(j_max) -> dict[int, list]:
    """The rules of every |m| column a = 2|m| of _sector_sweep(j_max), by a,
    in one request: order j - |m| + 2 for each of its labels
    (actions._default_nodes), up to ceil(j_max - |m|) + 2 for
    basis.radial-orthonormality's Gram matrix, one order more than the
    labels need where the column's top j is j_max - 1/2."""
    return _rules({
        a: range(2, math.ceil(j_max - Fraction(a, 2)) + 3) for a in range(int(2 * j_max) + 1)
    })


def _columns(j_max, edges: bool = False):
    """One basis._Column per |m| column of _sector_sweep(j_max), or of its
    edge labels m = +-j alone.

    The column of a = 2|m| holds the labels (j, -|m|), then, for m != 0,
    (j, +|m|) at the same nodes.  Each label sits at its own nodes
    (actions._default_nodes), and the jet [calL, calL', calL''] and the
    ladder targets, calL of (j, m +- 1) or 0 past the multiplet's edge, come
    from one kernel stream over alphas |a - 2| .. a + 2 at the concatenated
    nodes of the labels (j, -|m|); the labels (j, +|m|) take the same values
    times their sign.  The generator holds no column it has yielded.
    """
    two_j_max = int(2 * j_max)
    rules = _column_rules(j_max)
    for a in range(two_j_max + 1):
        labels = [SpinIndex(two_j, -a) for two_j in range(a, (a if edges else two_j_max) + 1, 2)]
        nodes = [rule.nodes for rule in rules[a][: len(labels)]]
        yield _radial_column(labels, nodes, 2, targets=True).with_mirror()


def _sweep(j_max, cores: Mapping[str, Callable]) -> dict[str, list]:
    """The gaps of each core, by key, over one pass of _columns(j_max): the
    _worst of core(col) for every column in turn, so that one column is
    alive at a time and no gap array outlives its column."""
    gaps = {key: [] for key in cores}
    for col in _columns(j_max) if cores else ():
        for key, core in cores.items():
            gaps[key].append(_worst(core(col)))
        del col  # dropped before the next column is built
    return gaps


# The cores of the label checks that read the column sweep, by check id:
# each gives the gaps of one _Column.  A check run alone sweeps for itself;
# run_suite sweeps once for all the checks it runs, and hands each its gaps.
_CORES: dict[str, Callable] = {}


def _column_check(check_id: str, tolerance: float, identity: str):
    """Declare the decorated core as check check_id over _columns(j_max)."""

    def register(core: Callable) -> Callable:
        _CORES[check_id] = core
        _check(check_id, tolerance, identity)(
            lambda j_max, seed, gaps=None: _sweep(j_max, {0: core})[0] if gaps is None else gaps
        )
        return core

    return register


@_column_check(
    "basis.ode", 1e-9, "radial functions satisfy their second-order differential equation"
)
def _ode_gaps(col):
    f, _, ddf = col.jet
    return [_ode_on_jet(col) / np.maximum(1.0, np.maximum(np.abs(f), np.abs(col.y * ddf)))]


@_check(
    "basis.radial-orthonormality", 1e-10,
    "fixed-m radial functions are orthonormal on the half-line",
)
def _check_radial_orthonormality(j_max, seed):
    # One Gram matrix per 2|m| on the rule halfline_inner uses, the last of
    # its column's rules; s_m^2 = 1, so it covers every (j, j') pair of both
    # signs of m.
    two_j_cap = int(2 * j_max)
    for a, rules in _column_rules(j_max).items():
        rule = rules[-1]
        rows = np.concatenate(list(_radial_rows([a], two_j_cap, rule.nodes)))
        yield (rows * rule.lifted_weights()) @ rows.T - np.eye(len(rows))


@_check("basis.symmetry-sign", 1e-12, "m-reflection symmetry carries the sign (-1)^(2m)")
def _check_symmetry_sign(j_max, seed):
    # calL of (j, -|m|) from one stream per |m| column, and calL of (j, +|m|)
    # as calL evaluates it, the same row times s_m, so the signed residual
    # is 0 by construction until one side comes from an independent form.
    signed, unsigned = [], []
    two_j_max = int(2 * j_max)
    for a in range(two_j_max + 1):
        labels = [SpinIndex(two_j, -a) for two_j in range(a, two_j_max + 1, 2)]
        f_mirror = _radial_column(labels, _YS, 0).jet[0]
        f = _sign(a) * f_mirror
        sign = -1.0 if a % 2 else 1.0
        signed.append(f - sign * f_mirror)
        if a % 2:
            unsigned.append(f - f_mirror)
    if two_j_max < 1:
        return _Verdict(signed, "no half-integer labels at this j_max; sign audit is vacuous")
    unsigned_gap = _worst(unsigned)
    note = (
        f"signed identity holds at {_worst(signed):.3e}; dropping the sign "
        f"leaves a gap of {unsigned_gap:.3e} on half-integer labels"
    )
    return _Verdict(signed, note, unsigned_gap >= 0.5)


def _plane_tables(j_max):
    """(j_eff, (phis, x, w), tables): the plane grid at j_eff = min(j_max, 6)
    and the _plane_table of each sector on it, which basis.plane-gram and
    quadrature.plane-vs-halfline read; run_suite builds them once for both."""
    j_eff = min(j_max, Fraction(6))
    phis, x, w = _plane_grid(j_eff, None, None)
    return j_eff, (phis, x, w), {s: _plane_table(s, j_eff, x, phis) for s in ("int", "half")}


@_check("basis.plane-gram", 1e-10, "plane harmonics have an identity Gram matrix within a sector")
def _check_plane_gram(j_max, seed, plane=None):
    # Row b of each sector's Gram matrix is analyze's block of calZ_b: one
    # stacked projection of a table of every label's harmonic on analyze's grid.
    j_eff, (phis, x, w), tables = plane or _plane_tables(j_max)
    for sector, table in tables.items():
        yield _project(table, sector, int(2 * j_eff), phis, x, w) - np.eye(len(table))


# ---------------------------------------------------------------------------
# algebra suite


@_column_check("algebra.ladder", 1e-9, "ladder actions map basis functions to their neighbors")
def _ladder_gaps(col):
    return [actions._ladder_defect(col, d) for d in "+-"]


@_check("algebra.annihilation", 1e-9, "ladders annihilate the edge labels m = +-j")
def _check_annihilation(j_max, seed):
    return map(actions._annihilation_defect, _columns(j_max, edges=True))


@_column_check(
    "algebra.su2-on-basis", 1e-8, "commutators [K+,K-] = 2K3 and [K3,K+-] = +-K+- on the basis"
)
def _su2_gaps(col):
    return [actions._su2_defect(col), actions._k3_defect(col, "+"), actions._k3_defect(col, "-")]


@_column_check("algebra.casimir", 1e-8, "Casimir combination acts as j(j+1)")
def _casimir_gaps(col):
    return [actions._casimir_defect(col)]


@_check(
    "algebra.hermiticity", 1e-8,
    "raising and lowering are mutual adjoints in the radial inner product",
)
def _check_hermiticity(j_max, seed):
    # m runs over -j_cap .. j_cap - 1, where both spans are nonempty.
    j_cap = min(j_max, Fraction(6))
    two_j_cap = int(2 * j_cap)
    return actions._hermiticity_gaps(range(-two_j_cap, two_j_cap - 1), j_cap, seed)


# The closure shadow sweeps the columns up to this j_max, and shares run_suite's
# sweep where that is the same one.
_SHADOW_J_MAX = Fraction(8)


def _shadow_gaps(col):
    return [actions._su2_defect(col), actions._casimir_defect(col)]


@_check(
    "algebra.closure-residuals", 1e-8,
    "formal closure identities leave pinned residuals; actions satisfy them",
)
def _check_closure(j_max, seed, gaps=None):
    # gaps: the shadow's, if run_suite swept _columns(_SHADOW_J_MAX) already.
    report = verify_e_correction()
    bracket_pin = errata.get("closure-bracket-residual").frozen[0][1]
    casimir_pin = errata.get("closure-casimir-residual").frozen[0][1]
    reproduced = (
        not report.bracket_confirmed
        and not report.casimir_confirmed
        and report.residual_bracket.serialize() == bracket_pin
        and report.residual_casimir.serialize() == casimir_pin
    )
    shadow = _sweep(min(j_max, _SHADOW_J_MAX), {0: _shadow_gaps})[0] if gaps is None else gaps
    note = (
        "formal residuals reproduce the pinned 12- and 17-term canonical "
        f"forms; label-tracked action satisfies both identities at {_worst(shadow):.3e}"
    )
    return _Verdict(shadow, note, reproduced)


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
    return [mismatch]


# ---------------------------------------------------------------------------
# quadrature suite


def _check_rules() -> dict[int, list]:
    """The rules the quadrature checks read, by alpha, in one request:
    orders 1 .. 40 at each alpha of 0, 1, 2, 3 and 5."""
    return _rules(dict.fromkeys((0, 1, 2, 3, 5), range(1, 41)))


@_check("quadrature.moments", 1e-12, "rules integrate monomials below degree 2N exactly")
def _check_moments(j_max, seed):
    for alpha, rules in _check_rules().items():
        for order, rule in enumerate(rules, start=1):
            # Row k holds x^k, built as ((x * x) * x) ... one factor at a time.
            powers = np.ones((2 * order, order))
            powers[1:] = np.cumprod(np.broadcast_to(rule.nodes, (2 * order - 1, order)), axis=0)
            target = np.array([math.exp(math.lgamma(k + alpha + 1)) for k in range(2 * order)])
            yield (powers @ rule.weights - target) / target


@_check("quadrature.weight-sum", 1e-12, "weights sum to Gamma(alpha+1)")
def _check_weight_sum(j_max, seed):
    for alpha, rules in _check_rules().items():
        target = math.exp(math.lgamma(alpha + 1))
        for rule in rules:
            yield (float(np.sum(rule.weights)) - target) / target


@_check("quadrature.interlacing", 0.0, "nodes are positive, sorted, and interlace the next order")
def _check_interlacing(j_max, seed):
    violations = 0
    for rules in _check_rules().values():
        previous = None
        for rule in rules:
            x = rule.nodes
            if np.any(x <= 0) or np.any(np.diff(x) <= 0):
                violations += 1
            if previous is not None:
                # Each node of the coarser rule sits strictly between
                # consecutive nodes of the finer rule.
                violations += int(np.count_nonzero(~((x[:-1] < previous) & (previous < x[1:]))))
            previous = x
    return [violations]


@_check(
    "quadrature.plane-vs-halfline", 1e-13, "plane inner products reduce to radial ones at equal m"
)
def _check_plane_vs_halfline(j_max, seed, plane=None):
    # Every pair (j <= j') of one m: the planar side from a table of every
    # label's harmonic on plane_inner's grid, the radial side from one column
    # per |m| on halfline_inner's rule, each pair summed as those functions
    # sum it.
    j_eff, (phis, x, w), tables = plane or _plane_tables(j_max)
    for sector, table in tables.items():
        labels = sector_labels(sector, j_eff)
        two_ms = np.array([s.two_m for s in labels])
        for a in sorted({abs(s.two_m) for s in labels}):
            rule = _halfline_rule(Fraction(a, 2), j_eff)
            column = _radial_column([s for s in labels if abs(s.two_m) == a], rule.nodes, 0)
            rows = column.jet[0].reshape(len(column.two_m), rule.nodes.size)
            for two_m in {-a, a}:
                group, radial = table[two_ms == two_m], rows[column.two_m == two_m]
                left, right = np.triu_indices(len(group))
                planar = _plane_sums(group[left], group[right], w, "plane-vs-halfline")
                yield planar - _halfline_sums(
                    radial[left], radial[right], rule.lifted_weights(), "plane-vs-halfline"
                )


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
    for sector, j_eff, block in _transform_cases(j_max, seed):
        yield analyze(as_function(block), sector, j_eff)._values - block._values


@_check(
    "transform.parseval", 1e-10,
    "coefficient energy equals the function norm for band-limited input",
)
def _check_parseval(j_max, seed):
    gaps = [
        parseval_gap(as_function(block), sector, j_eff)
        for sector, j_eff, block in _transform_cases(j_max, seed)
    ]
    if j_max < 4:
        return gaps
    outside = lambda y, phi: calZ(SpinIndex(8, 4), (y, phi))
    truncation = parseval_gap(outside, "int", 3)
    gaps.append(truncation - 1.0)
    note = (
        f"band-limited gaps <= {_worst(gaps):.3e}; truncating a unit-norm "
        f"harmonic below its j reports gap {truncation:.6f}"
    )
    return _Verdict(gaps, note)


def _random_specs(seed, count=4):
    rng = np.random.default_rng(seed)
    return [RotationSpec(*rng.uniform(-2 * math.pi, 2 * math.pi, size=3)) for _ in range(count)]


@_check("transform.rotation-unitarity", 1e-8, "rotation matrices are unitary")
def _check_rotation_unitarity(j_max, seed):
    for two_j in range(0, int(2 * j_max) + 1):
        for u in _rotation_matrices(two_j, _random_specs(seed + two_j)):
            yield u.conj().T @ u - np.eye(two_j + 1)


@_check("transform.rotation-group-law", 1e-8, "sequential rotations equal the composed unitary")
def _check_group_law(j_max, seed):
    # Each multiplet of the twice-rotated block against the product of the
    # two rotation matrices, both from one _rotation_matrices call per j.
    specs = _random_specs(seed, count=6)
    for sector, j_eff, block in _transform_cases(j_max, seed):
        for s1, s2 in zip(specs[::2], specs[1::2]):
            twice = rotate(rotate(block, s1), s2)
            for two_j in _sector_ladder(sector, int(2 * j_eff)):
                u1, u2 = _rotation_matrices(two_j, [s1, s2])
                part = slice(_index(two_j, -two_j), _index(two_j, two_j) + 1)
                yield twice._values[part] - (u2 @ u1) @ block._values[part]


@_check("transform.double-cover", 1e-12, "a full turn multiplies each j-block by (-1)^(2j)")
def _check_double_cover(j_max, seed):
    full_turn = RotationSpec(0.0, 2.0 * math.pi, 0.0)
    for two_j in range(0, int(2 * j_max) + 1):
        sign = -1.0 if two_j % 2 else 1.0
        yield rotation_matrix(two_j, full_turn) - sign * np.eye(two_j + 1)


@_check("transform.per-j-norms", 1e-10, "rotations preserve each j-multiplet's energy")
def _check_per_j_norms(j_max, seed):
    for sector, j_eff, block in _transform_cases(j_max, seed):
        before = block.per_j_norm_sq()
        for spec in _random_specs(seed + 17, count=3):
            after = rotate(block, spec).per_j_norm_sq()
            yield [before[two_j] - after[two_j] for two_j in before]


@_check(
    "transform.equivariance", 1e-7,
    "analyzing a rotated function equals rotating its coefficients",
)
def _check_equivariance(j_max, seed):
    spec = _random_specs(seed + 5, count=1)[0]
    for sector, j_eff, block in _transform_cases(min(j_max, Fraction(4)), seed):
        lhs = analyze(as_function(rotate(block, spec)), sector, j_eff)
        rhs = rotate(analyze(as_function(block), sector, j_eff), spec)
        yield lhs._values - rhs._values


@_check(
    "transform.dmatrix-values", 1e-12, "rotation matrices match closed forms at spins 1/2 and 1"
)
def _check_dmatrix_values(j_max, seed):
    for b in (0.0, 0.3, 1.0, -1.7, 2.9):
        c, s = math.cos(b / 2.0), math.sin(b / 2.0)
        oracle_half = np.array([[c, s], [-s, c]])
        yield rotation_matrix(1, RotationSpec(0.0, b, 0.0)) - oracle_half
        cb, sb = math.cos(b), math.sin(b)
        r2 = math.sqrt(2.0)
        oracle_one = np.array(
            [
                [(1 + cb) / 2, sb / r2, (1 - cb) / 2],
                [-sb / r2, cb, sb / r2],
                [(1 - cb) / 2, -sb / r2, (1 + cb) / 2],
            ]
        )
        yield rotation_matrix(2, RotationSpec(0.0, b, 0.0)) - oracle_one


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
    ids = sorted(SUITES[suite])
    # What several checks read is made once here and handed to each: one
    # column sweep gives every label check its gaps, the closure shadow's
    # too where it sweeps the same columns, and the plane-grid checks share
    # one set of tables.  None of it outlives this call.
    cores = {cid: _CORES[cid] for cid in ids if cid in _CORES}
    if "algebra.closure-residuals" in ids and j_max <= _SHADOW_J_MAX:
        cores["algebra.closure-residuals"] = _shadow_gaps
    shared = {cid: {"gaps": gaps} for cid, gaps in _sweep(j_max, cores).items()}
    plane = [cid for cid in ids if cid in ("basis.plane-gram", "quadrature.plane-vs-halfline")]
    if plane:
        tables = _plane_tables(j_max)
        shared.update((cid, {"plane": tables}) for cid in plane)
    results = []
    for check_id in ids:
        identity, _, fn = _CHECKS[check_id]
        out = fn(j_max, seed, **shared.pop(check_id, {}))
        gaps, note, reproduced = out if isinstance(out, _Verdict) else _Verdict(out)
        residual = _worst(gaps)
        results.append(
            CheckResult(
                id=check_id,
                identity=identity,
                residual=residual,
                threshold=tols[check_id],
                passed=bool(reproduced) and residual <= tols[check_id],
                erratum=bool(errata.for_check(check_id)),
                note=note,
            )
        )
    return VerificationReport(suite=suite, j_max=j_max, seed=seed, checks=tuple(results))
