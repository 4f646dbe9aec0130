"""Noncommutative symbol algebra for Y, 1/Y, D, M, J words.

Words over the alphabet {Y, Yi, D, M, J} (Yi is 1/Y) are normal-ordered into
canonical monomials Y^a Yi^b D^d M^p J^q with a*b = 0 by a local rewrite
system.  The shipped rules are the on-basis commutation relations adopted as
formal axioms:

    D Y  -> Y D + 1          M Y  -> Y M + (1/2) Y
    D Yi -> Yi D - Yi^2      M Yi -> Yi M - (1/2) Yi
    M D  -> D M - D          J    -> central
    Y Yi -> 1                Yi Y -> 1

[M, Y] = +(1/2) Y is forced by consistency with Y Yi = 1; the rest are read
off the source relations.  These axioms are formal: M is a label reader, so
they are not pointwise calculus, and the rule system is NOT confluent.  The
two critical overlaps M D Y and M D Yi resolve to different canonical forms
depending on which redex fires first (they differ by 1/2 and (1/2) Yi^2).
The engine therefore fixes the leftmost-redex strategy, which makes every
reduction deterministic; ``critical_pairs`` reports the exact non-joinable
set so the asymmetry is visible rather than silent.  One consequence is that
products of expressions associate left but are not associative in general.

Coefficients are exact Gaussian rationals (``QQi``); nothing is rounded
until application time.  Each monomial carries an integer phase tag in
half-units: tag t stands for a factor e^{i (t/2) phi}, additive under
multiplication, used to mark J+- = e^{+-i phi} K+-.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, ReductionLimitError

__all__ = [
    "QQi",
    "Monomial",
    "RewriteRule",
    "RewriteRuleSet",
    "DEFAULT_RULES",
    "reduce_word",
    "OperatorExpr",
    "normal_form",
    "commutator",
    "anticommutator",
    "build_operator",
    "critical_pairs",
    "ECorrectionReport",
    "verify_e_correction",
]

Y, YI, D, M, J = "Y", "Yi", "D", "M", "J"
_LETTERS = (Y, YI, D, M, J)
_RANK = {Y: 0, YI: 1, D: 2, M: 3, J: 4}


class QQi:
    """Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise DomainError("QQi parts must be exact rationals, not floats")
        # The arithmetic below passes Fractions, which are stored as they are.
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QQi is immutable")

    @classmethod
    def coerce(cls, value) -> "QQi":
        if isinstance(value, QQi):
            return value
        return cls(value)

    @staticmethod
    def _coercible(value) -> bool:
        return isinstance(value, (QQi, int, Fraction))

    def __add__(self, other):
        if not QQi._coercible(other):
            return NotImplemented
        other = QQi.coerce(other)
        return QQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not QQi._coercible(other):
            return NotImplemented
        other = QQi.coerce(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if not QQi._coercible(other):
            return NotImplemented
        other = QQi.coerce(other)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __eq__(self, other):
        if not isinstance(other, (QQi, int, Fraction)):
            return NotImplemented
        other = QQi.coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self):
        return complex(self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        imag = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}i")
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{imag}"

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"


class Monomial(NamedTuple):
    """Exponents of the canonical word Y^a Yi^b D^d M^p J^q plus a phase tag."""

    a: int = 0
    b: int = 0
    d: int = 0
    p: int = 0
    q: int = 0
    two_dm: int = 0

    def word(self) -> tuple[str, ...]:
        return (Y,) * self.a + (YI,) * self.b + (D,) * self.d + (M,) * self.p + (
            J,
        ) * self.q

    @property
    def degree(self) -> int:
        return self.a + self.b + self.d + self.p + self.q

    def validate(self) -> "Monomial":
        if min(self.a, self.b, self.d, self.p, self.q) < 0:
            raise DomainError(f"negative exponent in {self}")
        if self.a and self.b:
            raise DomainError(f"Y and Yi coexist in {self}")
        return self


def _monomial_from_word(word, two_dm=0) -> Monomial:
    counts = {letter: 0 for letter in _LETTERS}
    for letter in word:
        counts[letter] += 1
    return Monomial(counts[Y], counts[YI], counts[D], counts[M], counts[J], two_dm)


@dataclass(frozen=True)
class RewriteRule:
    """Local rule: the adjacent pair ``left`` becomes a sum of words."""

    left: tuple[str, str]
    outputs: tuple[tuple[Fraction, tuple[str, ...]], ...]

    def __post_init__(self):
        if len(self.left) != 2 or any(l not in _RANK for l in self.left):
            raise DomainError(f"rule pattern must be a pair of symbols: {self.left}")
        for coeff, word in self.outputs:
            if isinstance(coeff, float):
                raise DomainError("rule coefficients must be exact rationals")
            if any(l not in _RANK for l in word):
                raise DomainError(f"unknown symbol in rule output {word}")


# Every descending adjacent pair, plus both inverse-pair cancellations, must
# have a rule or normalization could stall on a legal word.
_REQUIRED_PATTERNS = frozenset(
    [(YI, Y), (D, Y), (D, YI), (M, Y), (M, YI), (M, D), (J, Y), (J, YI), (J, D), (J, M), (Y, YI)]
)


@dataclass(frozen=True)
class RewriteRuleSet:
    """An indexed, validated collection of local rewrite rules."""

    rules: tuple[RewriteRule, ...]

    def __post_init__(self):
        seen = {}
        for rule in self.rules:
            if rule.left in seen:
                raise DomainError(f"duplicate rule for pattern {rule.left}")
            seen[rule.left] = rule
        missing = _REQUIRED_PATTERNS - seen.keys()
        if missing:
            raise DomainError(f"rule set does not cover patterns: {sorted(missing)}")
        object.__setattr__(self, "_by_pattern", seen)

    def rule_for(self, pair) -> RewriteRule | None:
        return self._by_pattern.get(pair)

    def first_redex(self, word) -> int | None:
        """Index of the leftmost adjacent pair that matches a rule."""
        for i in range(len(word) - 1):
            if (word[i], word[i + 1]) in self._by_pattern:
                return i
        return None


def _swap(x, y):
    return RewriteRule((x, y), ((Fraction(1), (y, x)),))


DEFAULT_RULES = RewriteRuleSet(
    (
        RewriteRule((Y, YI), ((Fraction(1), ()),)),
        RewriteRule((YI, Y), ((Fraction(1), ()),)),
        RewriteRule((D, Y), ((Fraction(1), (Y, D)), (Fraction(1), ()))),
        RewriteRule((D, YI), ((Fraction(1), (YI, D)), (Fraction(-1), (YI, YI)))),
        RewriteRule((M, Y), ((Fraction(1), (Y, M)), (Fraction(1, 2), (Y,)))),
        RewriteRule((M, YI), ((Fraction(1), (YI, M)), (Fraction(-1, 2), (YI,)))),
        RewriteRule((M, D), ((Fraction(1), (D, M)), (Fraction(-1), (D,)))),
        _swap(J, Y),
        _swap(J, YI),
        _swap(J, D),
        _swap(J, M),
    )
)


def reduce_word(word, rules: RewriteRuleSet = DEFAULT_RULES, max_steps: int = 1_000_000):
    """Normal-order one word, always firing the leftmost redex first.

    Returns a map from canonical word to exact rational coefficient.  The
    step cap guards against non-terminating custom rule sets.
    """
    out: dict[tuple[str, ...], Fraction] = {}
    stack = [(tuple(word), Fraction(1))]
    steps = 0
    while stack:
        w, c = stack.pop()
        i = rules.first_redex(w)
        if i is None:
            acc = out.get(w, Fraction(0)) + c
            if acc:
                out[w] = acc
            else:
                out.pop(w, None)
            continue
        steps += 1
        if steps > max_steps:
            raise ReductionLimitError(
                f"word did not normalize within {max_steps} rule applications"
            )
        for coeff, repl in rules.rule_for((w[i], w[i + 1])).outputs:
            stack.append((w[:i] + repl + w[i + 2 :], c * coeff))
    return out


class OperatorExpr:
    """An exact linear combination of canonical monomials.

    Instances are immutable and always canonical: construction validates
    monomials, prunes zero coefficients, and multiplication normal-orders
    through ``reduce_word``.  Because the rule system is non-confluent,
    ``*`` associates left and is not associative across regroupings; build
    composite products in the order you mean them.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[Monomial, QQi] = {}
        for mono, coeff in (terms or {}).items():
            mono = Monomial(*mono).validate()
            coeff = QQi.coerce(coeff)
            if not coeff.is_zero():
                clean[mono] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorExpr is immutable")

    @property
    def terms(self):
        return dict(self._terms)

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return cls()

    @classmethod
    def scalar(cls, value) -> "OperatorExpr":
        return cls({Monomial(): QQi.coerce(value)})

    @classmethod
    def symbol(cls, letter: str, two_dm: int = 0) -> "OperatorExpr":
        if letter not in _RANK:
            raise DomainError(f"unknown symbol {letter!r}")
        return cls({_monomial_from_word((letter,), two_dm): QQi(1)})

    def is_zero(self) -> bool:
        return not self._terms

    def max_derivative_order(self) -> int:
        return max((mono.d for mono in self._terms), default=0)

    def __add__(self, other):
        other = _coerce_expr(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            out[mono] = out.get(mono, QQi(0)) + coeff
        return OperatorExpr(out)

    __radd__ = __add__

    def __neg__(self):
        return OperatorExpr({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_coerce_expr(other))

    def __rsub__(self, other):
        return _coerce_expr(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            c = QQi.coerce(other)
            return OperatorExpr({m: cc * c for m, cc in self._terms.items()})
        other = _coerce_expr(other)
        out: dict[Monomial, QQi] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                c12 = c1 * c2
                tag = m1.two_dm + m2.two_dm
                for word, coeff in reduce_word(m1.word() + m2.word()).items():
                    mono = _monomial_from_word(word, tag)
                    out[mono] = out.get(mono, QQi(0)) + c12 * coeff
        return OperatorExpr(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self * other
        return _coerce_expr(other) * self

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self):
        """Terms ordered by descending total degree, then exponent tuple."""
        return sorted(
            self._terms.items(), key=lambda kv: (-kv[0].degree, kv[0])
        )

    def serialize(self) -> str:
        """One line per term: ``coeff Y^a Yinv^b D^d M^p J^q [dm=k/2]``."""
        if not self._terms:
            return "0"
        lines = []
        for mono, coeff in self.sorted_terms():
            body = f"Y^{mono.a} Yinv^{mono.b} D^{mono.d} M^{mono.p} J^{mono.q}"
            if mono.two_dm:
                body += f" dm={Fraction(mono.two_dm, 2)}"
            lines.append(f"{coeff} {body}")
        return "\n".join(lines)

    def __repr__(self):
        if not self._terms:
            return "OperatorExpr(0)"
        return "OperatorExpr({})".format("; ".join(self.serialize().splitlines()))


def _coerce_expr(value) -> OperatorExpr:
    if isinstance(value, OperatorExpr):
        return value
    if isinstance(value, (int, Fraction, QQi)):
        return OperatorExpr.scalar(value)
    raise DomainError(f"cannot interpret {value!r} as an operator expression")


def normal_form(expr: OperatorExpr, rules: RewriteRuleSet = DEFAULT_RULES) -> OperatorExpr:
    """Re-reduce every monomial of an expression under the given rules.

    With the default rules this is the identity on OperatorExpr values
    (they are kept canonical), which makes idempotence explicit; custom
    rule sets see each stored word reduced leftmost-first.
    """
    out: dict[Monomial, QQi] = {}
    for mono, coeff in expr._terms.items():
        for word, wcoeff in reduce_word(mono.word(), rules).items():
            key = _monomial_from_word(word, mono.two_dm)
            out[key] = out.get(key, QQi(0)) + coeff * wcoeff
    return OperatorExpr(out)


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return a * b - b * a


def anticommutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return a * b + b * a


def _expr(*terms) -> OperatorExpr:
    return OperatorExpr({mono: coeff for coeff, mono in terms})


_HALF = Fraction(1, 2)

_OPERATORS = {
    # E = Y D^2 + D - Yi M^2 - (1/4) Y + J + 1/2, the radial equation symbol.
    "E": _expr(
        (QQi(1), Monomial(a=1, d=2)),
        (QQi(1), Monomial(d=1)),
        (QQi(-1), Monomial(b=1, p=2)),
        (QQi(Fraction(-1, 4)), Monomial(a=1)),
        (QQi(1), Monomial(q=1)),
        (QQi(_HALF), Monomial()),
    ),
    # K+ = -2 D (M + 1/2) + 2 Yi M (M + 1/2) - (J + 1/2), written with M
    # right of D exactly as printed (no reordering corrections applied).
    "K+": _expr(
        (QQi(-2), Monomial(d=1, p=1)),
        (QQi(-1), Monomial(d=1)),
        (QQi(2), Monomial(b=1, p=2)),
        (QQi(1), Monomial(b=1, p=1)),
        (QQi(-1), Monomial(q=1)),
        (QQi(-_HALF), Monomial()),
    ),
    # K- = 2 D (M - 1/2) + 2 Yi M (M - 1/2) - (J + 1/2).
    "K-": _expr(
        (QQi(2), Monomial(d=1, p=1)),
        (QQi(-1), Monomial(d=1)),
        (QQi(2), Monomial(b=1, p=2)),
        (QQi(-1), Monomial(b=1, p=1)),
        (QQi(-1), Monomial(q=1)),
        (QQi(-_HALF), Monomial()),
    ),
    "K3": _expr((QQi(1), Monomial(p=1))),
}


def build_operator(name: str) -> OperatorExpr:
    """The named symbol operator, exactly as printed in the source relations.

    J+ and J- are K+ and K- with phase tag +-1 (the e^{+-i phi} factor);
    J3 = K3 = M.
    """
    if name in _OPERATORS:
        return _OPERATORS[name]
    if name in ("J+", "J-"):
        k = _OPERATORS["K+" if name == "J+" else "K-"]
        tag = 2 if name == "J+" else -2
        return OperatorExpr(
            {mono._replace(two_dm=mono.two_dm + tag): c for mono, c in k._terms.items()}
        )
    if name == "J3":
        return _OPERATORS["K3"]
    raise DomainError(f"unknown operator {name!r}")


@dataclass(frozen=True)
class CriticalPair:
    """One three-letter overlap of two rule patterns and its two reductions."""

    word: tuple[str, str, str]
    left_first: OperatorExpr
    right_first: OperatorExpr

    @property
    def joinable(self) -> bool:
        return self.left_first == self.right_first


def critical_pairs(rules: RewriteRuleSet = DEFAULT_RULES) -> list[CriticalPair]:
    """All overlapping rule applications x(yz) vs (xy)z, reduced to canonical form.

    For each word xyz where both (x,y) and (y,z) are rule patterns, fire each
    redex once and push both results to normal form under the leftmost
    strategy.  Non-joinable pairs are exactly where the strategy choice
    matters; with the default rules that set is {M D Y, M D Yi}.
    """
    pairs = []
    patterns = sorted({rule.left for rule in rules.rules})
    for x, y1 in patterns:
        for y2, z in patterns:
            if y1 != y2:
                continue
            word = (x, y1, z)

            def one_step(at):
                rule = rules.rule_for((word[at], word[at + 1]))
                total = OperatorExpr.zero()
                for coeff, repl in rule.outputs:
                    piece = word[:at] + repl + word[at + 2 :]
                    reduced = reduce_word(piece, rules)
                    total = total + OperatorExpr(
                        {
                            _monomial_from_word(w): QQi(coeff * c)
                            for w, c in reduced.items()
                        }
                    )
                return total

            pairs.append(CriticalPair(word, one_step(0), one_step(1)))
    return pairs


@dataclass(frozen=True)
class ECorrectionReport:
    """Canonical forms and residuals of the closure-correction identities.

    ``bracket`` is the normal-ordered [K+, K-]; ``residual_bracket`` is
    [K+, K-] - 2M - (Yi M) E and ``residual_casimir`` is
    M^2 + (1/2){K+, K-} - J(J+1) + (Yi M^2) E, with products associated
    left in exactly that order.  Empty residuals would confirm the printed
    identities under the formal rules; nonzero residuals are deterministic
    findings, not engine failures.
    """

    bracket: OperatorExpr
    casimir_combination: OperatorExpr
    residual_bracket: OperatorExpr
    residual_casimir: OperatorExpr

    @property
    def bracket_confirmed(self) -> bool:
        return self.residual_bracket.is_zero()

    @property
    def casimir_confirmed(self) -> bool:
        return self.residual_casimir.is_zero()


def verify_e_correction() -> ECorrectionReport:
    """Reduce both printed closure-correction identities to canonical form."""
    kp = build_operator("K+")
    km = build_operator("K-")
    m = build_operator("K3")
    j = OperatorExpr.symbol(J)
    e = build_operator("E")
    yi = OperatorExpr.symbol(YI)

    bracket = commutator(kp, km)
    residual_bracket = bracket - 2 * m - (yi * m) * e

    casimir = m * m + _HALF * anticommutator(kp, km)
    residual_casimir = casimir - j * j - j + ((yi * m) * m) * e
    return ECorrectionReport(bracket, casimir, residual_bracket, residual_casimir)
