"""Generalized Gauss-Laguerre quadrature and half-plane inner products.

Nodes come from the eigenvalues of the symmetric tridiagonal Jacobi matrix of
the weight y^alpha e^(-y) (diagonal 2k + alpha + 1, off-diagonal
sqrt(k(k+alpha))), computed by LAPACK through numpy.linalg.eigvalsh (Golub &
Welsch, Math. Comp. 23, 1969).  The rows f_k^a of basis's radial kernel,
the orthonormal Laguerre functions of alpha a, give two Newton steps and the
lifted weights 1 / sum_(k<N) f_k^a(x_i)^2, keeping moments of degree <= 2N - 1
exact to near machine precision at high order.  Raw weights follow in log
space; a rule with one whose reciprocal overflows a double raises DomainError.

Each rule is built once per process: gauss_laguerre hands every caller the
same QuadratureRule for one (order, alpha), with read-only node and weight
arrays.  _rules builds the missing rules of one request, several orders at
each of several alphas, together: each alpha's Jacobi matrix is built once,
at its top order, and the rules of one order take the eigenvalues of their
leading blocks from one stacked eigvalsh across the alphas; per alpha, each
Newton polish and the weight sum is one kernel stream over the nodes of all
its orders, each order reading its own step.  A cold verify run makes one
request for the rules of every |m| column and one for the quadrature
checks, and builds its 248 distinct rules in 3 requests at j_max 8 (the
third is algebra.hermiticity's order 30), and 4,294 in 2 at j_max 64.

plane_inner, analyze and parseval_gap sample each function once on the
(phi, y) grid of _plane_grid: the callable gets y of shape (1, n_radial) and
phi of shape (n_phi, 1) and must return something that broadcasts to
(n_phi, n_radial).  halfline_inner samples each function once at the nodes
of its rule.  Both inner products are the one-pair case of a sum over two
stacks of samples (_plane_sums, _halfline_sums), which sums every pair as
the one-pair call sums it, so a check can pair many functions at once.  A
result that does not broadcast, a sample that is not finite and an integral
past the double range are each a DomainError, never a nan, an inf or a
numpy RuntimeWarning.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .basis import _as_cap, _as_half_integer, _plain_start_fits, _radial_rows
from .errors import DomainError, _as_int

__all__ = ["QuadratureRule", "gauss_laguerre", "halfline_inner", "plane_inner"]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for integrating against y^alpha e^(-y) on (0, inf)."""

    order: int
    alpha: int
    nodes: np.ndarray
    weights: np.ndarray
    _lifted: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.nodes.shape != (self.order,) or self.weights.shape != (self.order,):
            raise DomainError("nodes/weights must have shape (order,)")
        if not (np.all(self.nodes > 0) and np.all(np.diff(self.nodes) > 0)):
            raise DomainError("nodes must be positive and strictly ascending")
        if not np.all(self.weights > 0):
            raise DomainError("weights must be positive")
        if self._lifted is None:  # not from the builder: derive, in log space
            lifted = np.exp(np.log(self.weights) + self.nodes - self.alpha * np.log(self.nodes))
            object.__setattr__(self, "_lifted", lifted)

    def lifted_weights(self) -> np.ndarray:
        """Weights divided by the measure, w_i e^(x_i) x_i^(-alpha).

        Turns the rule into one for plain dy integration of functions that
        already include their y^alpha e^(-y) decay.
        """
        return self._lifted

    def integrate(self, values) -> float:
        """Sum w_i f(x_i) for sampled polynomial-part values."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


# Every rule built in this process, by (order, alpha).
_RULES: dict[tuple[int, int], QuadratureRule] = {}


def gauss_laguerre(order: int, alpha: int) -> QuadratureRule:
    """The order-N generalized Gauss-Laguerre rule for y^alpha e^(-y).

    Parameters
    ----------
    order : int
        Number of nodes, >= 1.
    alpha : int
        Weight exponent, >= 0.

    Both accept any integral value (numpy integers included, bool not) and
    are normalized to int.

    Returns
    -------
    QuadratureRule
        Exact for polynomial integrands of degree <= 2*order - 1, with
        sum(weights) = Gamma(alpha + 1).  The rule is memoized for the life
        of the process, so every call with one (order, alpha) returns the
        same object; its nodes and weights are read-only.  Bad arguments and
        underflowing rules raise DomainError on every call.
    """
    order = _as_int("order", order)
    alpha = _as_int("alpha", alpha)
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    try:
        return _RULES[order, alpha]
    except KeyError:
        return _rules({alpha: [order]})[alpha][0]


def _rules(requests) -> dict[int, list[QuadratureRule]]:
    """The rules gauss_laguerre(order, alpha) of requests, a mapping from
    each alpha (an int >= 0) to its orders (ints >= 1), as lists by alpha.

    The rules not yet memoized are built together by _build_rules.  An order
    whose weights underflow raises DomainError, after the other rules of the
    request are memoized.
    """
    missing = {a: sorted({n for n in ns if (n, a) not in _RULES}) for a, ns in requests.items()}
    if any(missing.values()):
        _build_rules({alpha: orders for alpha, orders in missing.items() if orders})
    rules = {}
    for alpha, orders in requests.items():
        rules[alpha] = [_RULES.get((order, alpha)) for order in orders]
        if None in rules[alpha]:
            raise DomainError(
                f"gauss_laguerre(order={orders[rules[alpha].index(None)]}, alpha={alpha}): "
                "the rule's weights underflow double precision"
            )
    return rules


def _kernel_rows(x, orders, alpha):
    """f_N^alpha, f_(N-1)^(alpha+1) and sum_(k<N) (f_k^alpha)^2 at x, whose
    consecutive blocks hold the nodes of the rules of the ascending orders N.

    _radial_rows takes its start, plain or log-scaled, from the range of all
    its points.  The blocks whose own range takes the plain start (a prefix,
    since the ranges nest) stream apart from the rest, so each block gets the
    values of a stream over its nodes alone.
    """
    ends = list(itertools.accumulate(orders))

    def scaled(i):
        return not _plain_start_fits(alpha, alpha + 1, x[ends[i] - orders[i]], x[ends[i] - 1])

    cut = bisect.bisect_left(range(len(orders)), True, key=scaled)
    split = ends[cut - 1] if cut else 0
    low = _kernel_stream(x[:split], orders[:cut], alpha)
    high = _kernel_stream(x[split:], orders[cut:], alpha)
    return [np.concatenate(part) for part in zip(low, high)]


def _kernel_stream(x, orders, alpha):
    """_kernel_rows from one stream, each block of x reading its own step; the
    blocks still summing at step k, those with N > k, are a suffix of x."""
    f_n, f_up, csum = np.empty(x.size), np.empty(x.size), np.zeros(x.size)
    if not orders:
        return f_n, f_up, csum
    starts = list(itertools.accumulate(orders, initial=0))
    block = {order: slice(start, start + order) for order, start in zip(orders, starts)}
    for k, rows in enumerate(_radial_rows([alpha, alpha + 1], alpha + 2 * orders[-1], x)):
        tail = slice(starts[bisect.bisect_right(orders, k)], None)
        csum[tail] += rows[0][tail] ** 2
        if k in block:
            f_n[block[k]] = rows[0][block[k]]
        if k + 1 in block:
            f_up[block[k + 1]] = rows[1][block[k + 1]]
    return f_n, f_up, csum


def _build_rules(requests: dict[int, list[int]]) -> None:
    """Memoize the rules at the ascending orders that requests gives each
    alpha, but for those whose weights underflow.

    Each alpha's Jacobi matrix is built once, at its top order, and the
    rules of one order N take their eigenvalues from one stacked eigvalsh of
    the leading N x N blocks of every alpha that asks for N: each block is
    the order-N matrix entry for entry, so it gets that matrix's
    eigenvalues.  Per alpha, the two Newton polishes and the lifted weights
    each stream _kernel_rows over the nodes of all its orders at once, and
    the log-weights are taken once.
    """
    jacobi, by_order = {}, {}
    for alpha, orders in requests.items():
        k = np.arange(orders[-1], dtype=float)
        off = np.sqrt(k[1:] * (k[1:] + alpha))
        jacobi[alpha] = np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
        for order in orders:
            by_order.setdefault(order, []).append(alpha)
    eigenvalues = {}
    for order, alphas in by_order.items():
        blocks = np.stack([jacobi[alpha][:order, :order] for alpha in alphas])
        eigenvalues.update(zip(((order, a) for a in alphas), np.linalg.eigvalsh(blocks)))
    for alpha, orders in requests.items():
        x = np.concatenate([eigenvalues[order, alpha] for order in orders])
        root_n = np.repeat(np.sqrt(np.array(orders, dtype=float)), orders)
        # Two Newton polish steps, p_N / p_N' = -sqrt(x) f_N^a / (sqrt(N) f_(N-1)^(a+1))
        # by d/dy L_N^(a) = -L_(N-1)^(a+1), sharpen the LAPACK eigenvalues; the power
        # amplification in high moments (x^k inflates node error k-fold) otherwise
        # eats the 1e-12 exactness budget at order ~40.
        for _ in range(2):
            f_n, f_up, _ = _kernel_rows(x, orders, alpha)
            x = x + np.sqrt(x) * f_n / (root_n * f_up)
        lifted = 1.0 / _kernel_rows(x, orders, alpha)[2]
        log_weights = np.log(lifted) - x + alpha * np.log(x)
        for order, start in zip(orders, itertools.accumulate(orders, initial=0)):
            part = slice(start, start + order)
            # From order 187 (alpha 0) the smallest raw weight, about e^(-x_max),
            # has no finite reciprocal; that order is not built.
            if -log_weights[part].min() > math.log(np.finfo(float).max):
                continue
            nodes, lifted_n = x[part].copy(), lifted[part].copy()
            weights = np.exp(log_weights[part])
            # Every caller shares the rule, so none may write to it.
            for array in (nodes, weights, lifted_n):
                array.flags.writeable = False
            _RULES[order, alpha] = QuadratureRule(order, alpha, nodes, weights, lifted_n)


def halfline_inner(f, g, m, j_cap) -> float:
    """Radial inner product integral(0..inf) f(y) g(y) dy for a fixed-m sector.

    f and g must be finite combinations of the normalized radial functions
    with the common label m and j <= j_cap (so f g = y^(2|m|) e^(-y) times a
    polynomial the rule integrates exactly).  Each is called once with the
    rule's nodes, a 1-D array, and its result must broadcast to them;
    otherwise DomainError names both shapes.  A sample that is not finite,
    or a sum past the double range, raises DomainError.
    """
    m = _as_half_integer(m)
    j_cap = _as_half_integer(j_cap)
    if j_cap < abs(m):
        raise DomainError(f"j_cap={j_cap} is below |m|={abs(m)}")
    rule = _halfline_rule(m, j_cap)
    x = rule.nodes
    fv, gv = (_broadcast(np.asarray(h(x), dtype=float), x.shape, "(order,)") for h in (f, g))
    return float(_halfline_sums(fv, gv, rule.lifted_weights(), "halfline_inner"))


def _halfline_rule(m: Fraction, j_cap: Fraction) -> QuadratureRule:
    """halfline_inner's rule at label m and cap j_cap >= |m|: alpha 2|m|, and
    two nodes more than the radial degree j_cap - |m|."""
    return gauss_laguerre(int(math.ceil(j_cap - abs(m))) + 2, int(2 * abs(m)))


def _halfline_sums(fv, gv, w, what: str) -> np.ndarray:
    """sum_i w_i f(x_i) g(x_i) for each pair of node samples of two stacks
    (..., n) that broadcast: halfline_inner of every pair.

    Each pair is summed as one np.dot(w, f * g); a batched matrix product
    would sum in another order and differ in the last bit.  A sum that is
    not finite raises DomainError naming its cause.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        products = fv * gv
        sums = np.array([np.dot(w, p) for p in products.reshape(-1, w.size)])
    return _finite(sums.reshape(products.shape[:-1]), fv, gv, what)


def _finite(sums: np.ndarray, fv, gv, what: str) -> np.ndarray:
    """sums, if all finite, else DomainError: a sample of fv or gv that is
    not finite, or an integral past the double range."""
    if not np.isfinite(sums).all():
        if np.isfinite(fv).all() and np.isfinite(gv).all():
            raise DomainError(f"{what}: the integral leaves the double range")
        raise DomainError(f"{what}: a function has a sample that is not finite")
    return sums


def default_n_phi(j_max) -> int:
    """Smallest safe equispaced angular grid for a band limit of j_max.

    Products of two sector functions contain angular frequencies up to
    2*j_max in integer steps, and an n-point equispaced rule integrates
    e^(i k phi) exactly for 0 < |k| < n.  A negative j_max raises DomainError.
    """
    return int(math.ceil(4 * _as_cap("j_max", j_max))) + 1


def _plane_grid(j_max: Fraction, n_phi, n_radial):
    """(phis, nodes, lifted weights) of every plane integral at band limit j_max.

    n_phi equispaced angles from -pi times the alpha-0 rule of order
    n_radial, sized by _grid_sizes.  One grid for analyze's projections and
    plane_inner's norms is what makes Parseval hold.
    """
    n_phi, n_radial = _grid_sizes(j_max, n_phi, n_radial)
    rule = gauss_laguerre(n_radial, 0)
    phis = -math.pi + 2.0 * math.pi * np.arange(n_phi) / n_phi
    return phis, rule.nodes, rule.lifted_weights()


def _grid_sizes(j_max: Fraction, n_phi=None, n_radial=None) -> tuple[int, int]:
    """(n_phi, n_radial) of the plane grid at band limit j_max.

    A size left None takes its default, default_n_phi(j_max) angles and
    ceil(j_max) + 2 radial nodes; a given size must be an integer >= 1,
    else DomainError.
    """
    n_phi = default_n_phi(j_max) if n_phi is None else _as_int("n_phi", n_phi)
    n_radial = int(math.ceil(j_max)) + 2 if n_radial is None else _as_int("n_radial", n_radial)
    for name, size in (("n_phi", n_phi), ("n_radial", n_radial)):
        if size < 1:
            raise DomainError(f"{name} must be >= 1, got {size}")
    return n_phi, n_radial


def _sample_grid(f, x, phis) -> np.ndarray:
    """f sampled once on the (phi, y) grid, as an (n_phi, n_radial) array.

    f is called as f(x[None, :], phis[:, None]) and its result broadcast to
    the grid; a result that does not broadcast raises DomainError.
    """
    values = np.asarray(f(x[None, :], phis[:, None]), dtype=complex)
    return _broadcast(values, (phis.size, x.size), "(n_phi, n_radial)")


def _broadcast(values: np.ndarray, shape: tuple, grid: str) -> np.ndarray:
    """values broadcast to the sample grid's shape, else DomainError naming both."""
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise DomainError(
            f"the function returned shape {values.shape}, which does not broadcast "
            f"to the {grid} = {shape} sample grid"
        ) from None


def plane_inner(F, G, j_cap, n_phi: int | None = None, n_radial: int | None = None) -> complex:
    """Plane inner product (1/2pi) integral dphi integral dy conj(F) G.

    Both functions must be band-limited combinations of plane harmonics of a
    single sector with j <= j_cap.  The angular integral is an equispaced
    trapezoid rule over a full period (exact for the trigonometric
    polynomials involved); the radial integral is a plain-exponent
    Gauss-Laguerre rule.  F and G are each called once on the whole grid,
    with y of shape (1, n_radial) and phi of shape (n_phi, 1), and their
    results must broadcast to (n_phi, n_radial); otherwise DomainError names
    both shapes.  n_phi and n_radial must be integers >= 1.  A sample that
    is not finite, or a sum past the double range, raises DomainError.
    """
    phis, x, w = _plane_grid(_as_cap("j_cap", j_cap), n_phi, n_radial)
    fv = _sample_grid(F, x, phis)
    gv = _sample_grid(G, x, phis)
    return complex(_plane_sums(fv, gv, w, "plane_inner"))


def _plane_sums(fv, gv, w, what: str) -> np.ndarray:
    """(1/n_phi) sum over the grid of w conj(F) G for each pair of sample
    grids of two stacks (..., n_phi, n_radial) that broadcast: plane_inner
    of every pair, each summed as plane_inner sums one.  A sum that is not
    finite raises DomainError naming its cause.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.sum((np.conjugate(fv) * gv) @ w, axis=-1) / fv.shape[-2]
    return _finite(np.asarray(sums), fv, gv, what)
