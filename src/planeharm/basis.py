"""Normalized radial functions and plane harmonics on R+ x [-pi, pi].

A spin label (j, m) with |m| <= j and j - m integer addresses the radial
function

    calL_j^m(y) = sqrt((j+m)!/(j-m)!) y^(-m) e^(-y/2) L_{j+m}^(-2m)(y)

and the plane harmonic calZ_j^m(y, phi) = e^(i m phi) calL_j^m(y).  Labels are
stored doubled (two_j = 2j, two_m = 2m) so half-integers stay exact.  For
m > 0 the negative superscript is eliminated through the reflection identity,
which cancels the y^(-m) prefactor analytically and exposes the sign

    calL_j^m = (-1)^(2m) calL_j^(-m),

so both signs of m share one evaluation path
    calL_j^m(y) = s_m sqrt((j-|m|)!/(j+|m|)!) y^|m| e^(-y/2) L_{j-|m|}^(2|m|)(y)
with s_m = -1 exactly when m is a positive half-odd-integer and +1 otherwise.

At fixed m this is s_m times the orthonormal Laguerre function for
alpha = 2|m|, so every label of one m comes from one three-term recurrence
in k = j - |m| (the scaled recurrences of Gil, Segura & Temme, Numerical
Methods for Special Functions, SIAM 2007):

    sqrt((k+1)(k+1+a)) p_{k+1} = (2k+1+a-y) p_k - sqrt(k(k+a)) p_{k-1},

started from p_0 = y^|m| e^(-y/2) / sqrt((2|m|)!).  The start is a plain
product where each factor is a normal double and is formed in log space
elsewhere; a power-of-two exponent per point carries whatever the start or
the recurrence would push outside the double range, so large labels and
large y give finite, accurate values.  ``_radial_rows`` runs it for all m
of a sector at once, one row per k; synthesize, analyze and gauss_laguerre
share it.  ``_radial_column`` reads calL, calL' and calL'' of labels of one
m or of several off one call, each label at its own nodes and its own step
of a stream over their concatenation, into a ``_Column``: the labels with
their nodes laid end to end, which the residual cores of basis and actions
take whole.  The verify label checks make one per |m| column, the
hermiticity check one for all its spans, and one-label columns serve calL,
calL_deriv, ode_residual and the ladder actions.  ``_plane_table`` gives
calZ of every label of a sector on one (phi, y) grid from one column.
A call up to j_max at P points costs O(j_max^2 P) time and O(j_max P)
memory.

Half-integer-j harmonics are antiperiodic in phi (functions on the double
cover); the two parity sectors are never mixed.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import DomainError, SectorMixingError

__all__ = [
    "SpinIndex",
    "PlanePoint",
    "calL",
    "calL_deriv",
    "calZ",
    "ode_residual",
    "sector_labels",
]


@dataclass(frozen=True)
class SpinIndex:
    """Doubled spin labels (two_j, two_m) with |m| <= j and matching parity."""

    two_j: int
    two_m: int

    def __post_init__(self):
        if not isinstance(self.two_j, int) or not isinstance(self.two_m, int):
            raise DomainError("SpinIndex fields must be Python ints")
        if self.two_j < 0:
            raise DomainError(f"need j >= 0, got two_j={self.two_j}")
        if abs(self.two_m) > self.two_j:
            raise DomainError(
                f"need |m| <= j, got two_j={self.two_j}, two_m={self.two_m}"
            )
        if (self.two_j - self.two_m) % 2:
            raise DomainError(
                f"j - m must be an integer, got two_j={self.two_j}, two_m={self.two_m}"
            )

    @classmethod
    def from_jm(cls, j, m) -> "SpinIndex":
        return cls(int(2 * _as_half_integer(j)), int(2 * _as_half_integer(m)))

    @property
    def j(self) -> Fraction:
        return Fraction(self.two_j, 2)

    @property
    def m(self) -> Fraction:
        return Fraction(self.two_m, 2)

    @property
    def sector(self) -> str:
        """"int" for integer j, "half" for half-odd-integer j."""
        return "half" if self.two_j % 2 else "int"


@dataclass(frozen=True)
class PlanePoint:
    """A point of the half-plane, y >= 0 and phi in [-pi, pi]."""

    y: float
    phi: float

    def __post_init__(self):
        for name in ("y", "phi"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise DomainError(f"need a real {name}, got {type(value).__name__} {value!r}")
        if not self.y >= 0.0:
            raise DomainError(f"need y >= 0, got y={self.y}")
        if not (-math.pi <= self.phi <= math.pi):
            raise DomainError(f"need phi in [-pi, pi], got phi={self.phi}")


def _as_half_integer(value) -> Fraction:
    """value as an exact Fraction if it is a half-integer and not a bool, else DomainError."""
    try:
        v = None if isinstance(value, bool) else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        v = None
    if v is None or (2 * v).denominator != 1:
        raise DomainError(f"expected a half-integer, got {value!r}")
    return v


def _as_cap(name: str, value) -> Fraction:
    """A band limit such as j_max: a nonnegative half-integer, else DomainError."""
    cap = _as_half_integer(value)
    if cap < 0:
        raise DomainError(f"{name} must be nonnegative, got {cap}")
    return cap


def sector_labels(sector: str, j_max) -> list[SpinIndex]:
    """All labels of one parity sector with j <= j_max, sorted by (j, m).

    j_max must be a nonnegative half-integer, else DomainError.
    """
    if sector not in ("int", "half"):
        raise DomainError(f"sector must be 'int' or 'half', got {sector!r}")
    two_j_max = int(2 * _as_cap("j_max", j_max))
    start = 0 if sector == "int" else 1
    out = []
    for two_j in range(start, two_j_max + 1, 2):
        for two_m in range(-two_j, two_j + 1, 2):
            out.append(SpinIndex(two_j, two_m))
    return out


_LN2 = math.log(2.0)
# Logs of magnitudes kept clear of the double range's ends (about +-708).
_LOG_RANGE = 700.0
# Rows whose magnitude passes this are renormalized by a power of two.
_RESCALE_ABOVE = 2.0**256
# Exponent floor: below 2^-(2^60) no polynomial factor brings a value back
# into the double range, so such a start is a true zero.
_MIN_EXPONENT = -(2**60)


def _sign(two_m: int) -> float:
    """s_m: -1 for positive half-odd-integer m, +1 otherwise."""
    return -1.0 if (two_m > 0 and two_m % 2) else 1.0


def _real_array(name: str, value) -> np.ndarray:
    """value as a float array, else DomainError naming it: complex or not a number."""
    try:
        array = np.asarray(value)
        if array.dtype.kind != "c":
            return array.astype(float, copy=False)
    except (TypeError, ValueError):
        pass
    raise DomainError(f"{name} must be real, got {type(value).__name__} {value!r}")


def _point_parts(point) -> tuple:
    """The y and phi of a PlanePoint or a (y, phi) pair, else DomainError."""
    if isinstance(point, PlanePoint):
        return point.y, point.phi
    try:
        y, phi = point
    except (TypeError, ValueError):
        raise DomainError(
            f"point must be a PlanePoint or a (y, phi) pair, got {type(point).__name__} {point!r}"
        ) from None
    return y, phi


def _finite_phi(phi) -> np.ndarray:
    """phi as a float array, else DomainError naming it if it is not real, or
    the first angle that is not finite."""
    phi = _real_array("phi", phi)
    bad = ~np.isfinite(phi)
    if bad.any():
        raise DomainError(f"need a finite phi, got phi={float(phi[bad][0])}")
    return phi


def _plain_start_fits(a_lo: int, a_hi: int, lo: float, hi: float) -> bool:
    """Whether y^|m|, e^(-y/2), 1/sqrt((2|m|)!) and their product are normal
    doubles for every 2|m| in [a_lo, a_hi] and every y in [lo, hi], lo > 0.

    The log of the product is concave in y and in 2|m|, so its minimum over
    the box lies at a corner; |log y^|m|| peaks at a_hi and an end of y.
    """
    if not (0.5 * hi < _LOG_RANGE and 0.5 * math.lgamma(a_hi + 1) < _LOG_RANGE):
        return False
    log_lo, log_hi = math.log(lo), math.log(hi)
    if 0.5 * a_hi * max(-log_lo, log_hi) >= _LOG_RANGE:
        return False
    return all(
        0.5 * (a * log_y - y - math.lgamma(a + 1)) > -_LOG_RANGE
        for a in (a_lo, a_hi)
        for y, log_y in ((lo, log_lo), (hi, log_hi))
    )


def _y_bounds(y: np.ndarray) -> tuple[float, float]:
    """The least and largest of y, a 1-D float array ((1.0, 1.0) if it is
    empty), or DomainError naming its first entry that is not finite and >= 0."""
    lo, hi = (float(y.min()), float(y.max())) if y.size else (1.0, 1.0)
    if not (lo >= 0.0 and hi < math.inf):
        i = int(np.argmin((y >= 0.0) & (y < math.inf)))
        raise DomainError(f"radial functions need finite y >= 0, got y[{i}] = {float(y[i])}")
    return lo, hi


def _radial_rows(abs2ms, two_j_max: int, y: np.ndarray, bounds=None):
    """Stream calL_{|m|+k}^(-|m|)(y) for k = 0, 1, ... over several |m|.

    ``abs2ms`` is an ascending list of 2|m| values and y a 1-D float array.
    Step k yields an array of shape (n_k, y.size) whose row i is the radial
    function of label (2|m| + 2k, -2|m|), 2|m| = abs2ms[i], for the first
    n_k entries, those with 2|m| + 2k <= two_j_max; the stream ends when
    none is left.  The label (2|m| + 2k, +2|m|) is _sign(2|m|) times the
    same row.  Each yielded array is new and not touched afterwards.
    Raises DomainError, at the first step, unless every y is finite and
    nonnegative (see _y_bounds); bounds, if given, is _y_bounds(y) already
    taken, and the stream does not check y again.
    """
    lo, hi = _y_bounds(y) if bounds is None else bounds
    n = bisect.bisect_right(abs2ms, two_j_max)
    if not n:
        return
    a = np.array(abs2ms[:n], dtype=float)[:, None]
    if lo == 0.0:  # the plain product is exact at y = 0
        lo = float(np.min(y, where=y > 0, initial=hi))
    scaled = lo > 0.0 and not _plain_start_fits(abs2ms[0], abs2ms[n - 1], lo, hi)
    if scaled:
        # The start in log space, split into a mantissa and a power-of-two
        # exponent; y^0 = 1 also at y = 0, where y^|m| is an exact 0 otherwise.
        log_y = np.log(y, out=np.full(y.shape, -np.inf), where=y > 0)
        log_start = np.multiply(0.5 * a, log_y, out=np.zeros((n, y.size)), where=a > 0)
        log_start -= 0.5 * y
        log_start -= 0.5 * np.array([math.lgamma(v + 1) for v in abs2ms[:n]])[:, None]
        exponent = np.zeros(log_start.shape, dtype=np.int64)
        low = (log_start < -_LOG_RANGE) & (log_start > -np.inf)
        exponent[low] = np.maximum(np.floor(log_start[low] / _LN2), _MIN_EXPONENT)
        p = np.exp(log_start - exponent * _LN2)
    else:
        # The plain product, accurate to a few ulps.
        p = np.empty((n, y.size))
        decay = np.exp(-0.5 * y)
        for i, v in enumerate(abs2ms[:n]):
            p[i] = y ** (0.5 * v) * decay * math.exp(-0.5 * math.lgamma(v + 1))
    yield np.ldexp(p, exponent) if scaled else p
    n = bisect.bisect_right(abs2ms, two_j_max - 2)
    if not n:
        return
    # sqrt((k+1)(k+1+a)) p_{k+1} = (2k+1+a-y) p_k - sqrt(k(k+a)) p_{k-1},
    # with root[k] = sqrt(k(k+a)) of shape (n, 1) for every step.
    a_minus_y = a - y
    steps = np.arange((two_j_max - abs2ms[0]) // 2 + 1, dtype=float)[:, None, None]
    root = np.sqrt(steps * (steps + a))
    p_prev = p  # any finite value: its coefficient root[0] is 0
    for k in itertools.count():
        if n < len(p):
            p, p_prev, a_minus_y, root = p[:n], p_prev[:n], a_minus_y[:n], root[:, :n]
            if scaled:
                exponent = exponent[:n]
        p_next = a_minus_y + (2 * k + 1)
        p_next *= p
        p_next -= root[k] * p_prev
        p_next /= root[k + 1]
        p, p_prev = p_next, p
        # Unscaled rows hold values of the radial functions, which are
        # bounded by 1; only a row carried by an exponent can outgrow the
        # double range.
        if scaled:
            big = np.abs(p) > _RESCALE_ABOVE
            if big.any():
                shift = np.where(big, np.frexp(p)[1], 0)
                p, p_prev = np.ldexp(p, -shift), np.ldexp(p_prev, -shift)
                exponent = exponent + shift
        yield np.ldexp(p, exponent) if scaled else p
        n = bisect.bisect_right(abs2ms, two_j_max - 2 * (k + 2))
        if not n:
            return


@dataclass(frozen=True)
class _Column:
    """Labels with their nodes laid end to end, and values over those nodes.

    Label i is (two_j[i], two_m[i]) at y[starts[i]:starts[i + 1]], the last
    label up to the end of y.  jet holds [calL, calL', calL''][: order + 1]
    over y, each label's values at its own nodes, and targets maps a ladder
    direction "+" or "-" to calL of (j, m +- 1) there, 0 where that label is
    absent.  The residual cores of basis and actions take a _Column: j and m
    spread each label's spins over its nodes, and abs_max takes per-label
    maxima with one reduceat, so their numpy calls do not grow with the
    number of labels.
    """

    two_j: np.ndarray
    two_m: np.ndarray
    starts: np.ndarray
    y: np.ndarray
    jet: list[np.ndarray]
    targets: dict[str, np.ndarray] = field(default_factory=dict)

    @cached_property
    def j(self) -> np.ndarray:
        return np.repeat(0.5 * self.two_j, np.diff(self.starts, append=self.y.size))

    @cached_property
    def m(self) -> np.ndarray:
        return np.repeat(0.5 * self.two_m, np.diff(self.starts, append=self.y.size))

    def present(self, two_dm: int) -> np.ndarray:
        """Whether (j, m + two_dm/2) is a label, at each node."""
        return np.abs(self.m + 0.5 * two_dm) <= self.j

    def abs_max(self, *values) -> np.ndarray:
        """The largest |v| over each label's nodes and every v of values."""
        return np.maximum.reduceat(np.abs(values), self.starts, axis=1).max(axis=0)

    def label(self, i: int) -> SpinIndex:
        return SpinIndex(int(self.two_j[i]), int(self.two_m[i]))

    def owner(self, node: int) -> SpinIndex:
        """The label whose nodes hold y[node]."""
        return self.label(int(np.searchsorted(self.starts, node, side="right")) - 1)

    def with_mirror(self) -> "_Column":
        """These labels (j, m) of one m, built with targets, then (j, -m) at
        the same nodes; m = 0 is its own mirror, so that column is itself.

        calL_j^(-m) = (-1)^(2m) calL_j^m, and the ladder targets of (j, -m)
        are those of (j, m) in the other direction, with the same factor.
        """
        if not self.two_m[0]:
            return self
        p = -1.0 if self.two_m[0] % 2 else 1.0
        return _Column(
            np.concatenate([self.two_j, self.two_j]),
            np.concatenate([self.two_m, -self.two_m]),
            np.concatenate([self.starts, self.starts + self.y.size]),
            np.concatenate([self.y, self.y]),
            [np.concatenate([v, p * v]) for v in self.jet],
            {
                d: np.concatenate([self.targets[d], p * self.targets[e]])
                for d, e in (("+", "-"), ("-", "+"))
            },
        )


def _radial_column(labels, ys, order: int, targets: bool = False) -> _Column:
    """The _Column of labels, of one m or of several, from one kernel stream.

    ``ys`` is either a list of 1-D node arrays, one per label, whose
    concatenation the kernel streams over, or one 1-D array that every label
    shares.  The jet is [calL, calL', calL''][: order + 1] of each label at
    its nodes, and with ``targets`` the column also holds calL of
    (j, m +- 1) there.

    With a = 2|m|, k = j - |m| and f_k^a(y) = y^(a/2) e^(-y/2) p_k^a(y) the
    radial rows of alpha a, d/dy L_k^(a) = -L_(k-1)^(a+1) turns the
    derivatives of the orthonormal polynomial into rows of alpha a + 1 and
    a + 2: y^(a/2) e^(-y/2) p_k' = -sqrt(k) f_(k-1)^(a+1) / sqrt(y) and
    y^(a/2) e^(-y/2) p_k'' = sqrt(k(k-1)) f_(k-2)^(a+2) / y.  A target of the
    same j is the row of alpha |2m +- 2| at its own step.  So every value is
    a row of one stream over the alphas a .. a + order of every label (and
    |a - 2| and a + 2 with targets), read at the label's nodes and its own
    step and multiplied by its sign; the derivatives of y^(a/2) e^(-y/2) are
    added in closed form.  Derivatives need y > 0, and one past the double
    range (order 2 at |m| = 1/2 below y ~ 1e-205) raises DomainError naming
    the label, the order and y.
    """
    two_ms = [s.two_m for s in labels]
    ks = [(s.two_j - abs(s.two_m)) // 2 for s in labels]
    shared = isinstance(ys, np.ndarray)
    y = ys if shared else np.concatenate(ys)
    sizes = [y.size] * len(labels) if shared else [len(v) for v in ys]
    ends = list(itertools.accumulate(sizes))
    spans = [slice(end - size, end) for size, end in zip(sizes, ends)]
    if order and (y <= 0).any():
        raise DomainError("calL_deriv needs y > 0")
    # Unsigned rows, 0 below step 0: derivative d of a label is alpha |2m| + d
    # at step k - d, and its target (j, m +- 1) is alpha |2m +- 2| at the same j.
    shifts = {"+": 2, "-": -2} if targets else {}
    out = [np.zeros(ends[-1]) for _ in range(order + 1)]
    shifted = {d: np.zeros(ends[-1]) for d in shifts}
    reads = []  # (alpha, step, destination, span)
    for s, k, span in zip(labels, ks, spans):
        reads += [(abs(s.two_m) + d, k - d, out[d], span) for d in range(order + 1)]
        for d, two_dm in shifts.items():
            t = abs(s.two_m + two_dm)
            reads.append((t, (s.two_j - t) // 2, shifted[d], span))
    alphas = sorted({alpha for alpha, *_ in reads})
    copies: dict[int, list] = {}  # step -> (row, destination, span) of each read
    for alpha, step, dest, span in reads:
        if step >= 0:
            copies.setdefault(step, []).append((alphas.index(alpha), dest, span))
    for step, rows in enumerate(_radial_rows(alphas, max(s.two_j for s in labels), y)):
        for row, dest, span in copies.get(step, ()):
            dest[span] = rows[row] if shared else rows[row, span]
    y = np.tile(y, len(labels)) if shared and len(labels) > 1 else y
    f0 = out[0]
    jet = [f0]
    if order:
        k = np.repeat(np.array(ks), sizes)
        b = np.repeat(0.5 * np.abs(two_ms), sizes)
        # Near y = 0 a derivative can pass the double range (like y^(-3/2)/4
        # for order 2 at |m| = 1/2), which is a DomainError; order 1 stays
        # finite for every y > 0, so only the top order is checked.
        with np.errstate(over="ignore", invalid="ignore"):
            d1 = -np.sqrt(k) * out[1] / np.sqrt(y)  # y^(a/2) e^(-y/2) p_k'
            jet.append(d1 - 0.5 * f0 + b * f0 / y)
            if order == 2:
                d2 = np.sqrt(k * (k - 1)) * out[2] / y  # y^(a/2) e^(-y/2) p_k''
                jet.append(
                    d2 - d1 + 0.25 * f0 + b * (2.0 * d1 - f0) / y + b * (b - 1) * f0 / y / y
                )
        finite = np.isfinite(jet[-1])
        if not finite.all():
            bad = np.flatnonzero(~finite)[0]
            s = labels[bisect.bisect_right(ends, bad)]
            raise DomainError(
                f"calL_deriv(two_j={s.two_j}, two_m={s.two_m}, order={order}) leaves the "
                f"double range at y = {float(y[bad])!r}"
            )
    # s_m of each label, and of its targets, at every node.
    sign = {dm: np.repeat([_sign(m + dm) for m in two_ms], sizes) for dm in (0, *shifts.values())}
    return _Column(
        np.array([s.two_j for s in labels]),
        np.array(two_ms),
        np.array(ends) - sizes,
        y,
        [sign[0] * v for v in jet],
        {d: sign[two_dm] * shifted[d] for d, two_dm in shifts.items()},
    )


def _label_column(s: SpinIndex, y, order: int) -> _Column:
    """The _Column of one label at y, flattened, from one kernel call: the
    one-label case of _radial_column."""
    return _radial_column([s], _real_array("y", y).reshape(-1), order)


def calL(s: SpinIndex, y):
    """Normalized radial function calL_j^m at y >= 0.

    Orthonormal on the half-line at fixed m:
    integral(0..inf) calL_j^m calL_j'^m dy = delta_{j j'}.  A complex or
    non-numeric y raises DomainError.
    """
    val = _label_column(s, y, 0).jet[0].reshape(np.shape(y))
    return val if val.ndim else float(val)


def calL_deriv(s: SpinIndex, y, order: int = 1):
    """calL_j^m (order 0, y >= 0) or its first or second y-derivative (y > 0).

    The derivatives are in closed form on the radial rows; see _radial_column.
    A complex or non-numeric y raises DomainError.
    """
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1, or 2, got {order}")
    val = _label_column(s, y, order).jet[order].reshape(np.shape(y))
    return val if val.ndim else float(val)


def calZ(s: SpinIndex, point) -> complex:
    """Plane harmonic calZ_j^m = e^(i m phi) calL_j^m(y).

    ``point`` is a PlanePoint or a (y, phi) pair; y and phi may be ndarrays
    that broadcast against each other, such as y of shape (1, P) and phi of
    shape (A, 1), and the result then has the broadcast shape.  Half-integer
    m gives the antiperiodic (double cover) phase.  A point that is no pair,
    a complex or non-numeric y or phi, and a phi that is not finite raise
    DomainError.
    """
    y, phi = _point_parts(point)
    m = 0.5 * s.two_m
    val = calL(s, y) * np.exp(1j * m * _finite_phi(phi))
    return val if getattr(val, "ndim", 0) else complex(val)


def _plane_table(sector: str, j_max, x: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """calZ of every label of a sector up to j_max on one (phi, y) grid.

    Entry i, of shape (phis.size, x.size), is calZ(s, (x[None, :],
    phis[:, None])) of s = sector_labels(sector, j_max)[i]: the label's calL
    row of one _radial_column over the whole sector, times e^(i m phi) as
    calZ forms it.  It equals calZ bit for bit wherever that column's one
    stream, like each one-label call, takes the plain start (see
    _plain_start_fits), as it does on the plane grid up to j_max 6.  The
    table holds labels x n_phi x P values, O(j_max^4) on the plane grid, so
    it is meant for small j_max.
    """
    labels = sector_labels(sector, j_max)
    if not labels:  # the half sector at j_max 0
        return np.zeros((0, phis.size, x.size), dtype=complex)
    rows = _radial_column(labels, x, 0).jet[0].reshape(len(labels), 1, x.size)
    return rows * np.array([np.exp(1j * (0.5 * s.two_m) * phis) for s in labels])[:, :, None]


def ode_residual(s: SpinIndex, y):
    """Defect of the radial differential equation at y > 0.

    Evaluates [y d2/dy2 + d/dy - m^2/y - y/4 + j + 1/2] calL_j^m, which is
    identically zero in exact arithmetic.  A complex or non-numeric y raises
    DomainError.
    """
    y = _real_array("y", y)
    if np.any(y <= 0):
        raise DomainError("ode_residual needs y > 0")
    val = _ode_on_jet(_label_column(s, y, 2)).reshape(y.shape)
    return val if val.ndim else float(val)


def _ode_on_jet(col: _Column) -> np.ndarray:
    """ode_residual over a column's nodes (all y > 0), from its jet."""
    y, j, m = col.y, col.j, col.m
    f, df, ddf = col.jet
    return y * ddf + df - (m * m / y) * f - 0.25 * y * f + (j + 0.5) * f


def require_same_sector(a: SpinIndex, b: SpinIndex) -> None:
    if a.sector != b.sector:
        raise SectorMixingError(
            f"labels {a} and {b} live in different parity sectors"
        )
