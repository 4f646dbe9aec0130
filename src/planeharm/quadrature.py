"""Generalized Gauss-Laguerre quadrature and half-plane inner products.

Nodes come from the eigenvalues of the symmetric tridiagonal Jacobi matrix of
the weight y^alpha e^(-y) (diagonal 2k + alpha + 1, off-diagonal
sqrt(k(k+alpha))), computed by LAPACK through numpy.linalg.eigvalsh (Golub &
Welsch, Math. Comp. 23, 1969).  Nodes are then polished by Newton iteration
on the orthonormal recurrence and the weights computed from the Christoffel
function, keeping moments of degree <= 2N - 1 exact to near machine precision
even at high order.  Rules whose weights underflow double precision raise
DomainError.

Each rule is built once per process: gauss_laguerre hands every caller the
same QuadratureRule for one (order, alpha), with read-only node and weight
arrays.  A verify run asks for about 3,000 rules of some 250 distinct ones.

plane_inner samples each function once on the (phi, y) grid of n_phi
equispaced angles times the radial nodes: the callable gets y of shape
(1, n_radial) and phi of shape (n_phi, 1) and must return something that
broadcasts to (n_phi, n_radial).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = ["QuadratureRule", "gauss_laguerre", "halfline_inner", "plane_inner"]


def _orthonormal_eval(x, order, alpha):
    """Evaluate the orthonormal-polynomial recurrence of y^alpha e^(-y) at x.

    Returns (p_N(x), p_N'(x), sum_{k<N} p_k(x)^2) for N = order, vectorized
    over x.  The inverse of the last sum is the Gauss weight at a node
    (Christoffel function identity).
    """
    x = np.asarray(x, dtype=float)
    p_prev = np.zeros_like(x)
    dp_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / math.sqrt(math.gamma(alpha + 1)))
    dp = np.zeros_like(x)
    csum = p * p
    for k in range(order):
        b = math.sqrt((k + 1.0) * (k + 1.0 + alpha))
        a = 2.0 * k + alpha + 1.0
        b_prev = math.sqrt(k * (k + alpha)) if k else 0.0
        p_next = ((x - a) * p - b_prev * p_prev) / b
        dp_next = ((x - a) * dp + p - b_prev * dp_prev) / b
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
        if k < order - 1:
            csum = csum + p * p
    return p, dp, csum


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrating against y^alpha e^(-y) on (0, inf)."""

    order: int
    alpha: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != (self.order,) or self.weights.shape != (self.order,):
            raise DomainError("nodes/weights must have shape (order,)")
        if not (np.all(self.nodes > 0) and np.all(np.diff(self.nodes) > 0)):
            raise DomainError("nodes must be positive and strictly ascending")
        if not np.all(self.weights > 0):
            raise DomainError("weights must be positive")

    def lifted_weights(self) -> np.ndarray:
        """Weights divided by the measure, w_i e^(x_i) x_i^(-alpha).

        Turns the rule into one for plain dy integration of functions that
        already include their y^alpha e^(-y) decay.  Computed in log space so
        large nodes cannot overflow the intermediate factors.
        """
        return np.exp(
            np.log(self.weights) + self.nodes - self.alpha * np.log(self.nodes)
        )

    def integrate(self, values) -> float:
        """Sum w_i f(x_i) for sampled polynomial-part values."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def _as_int(name: str, value) -> int:
    """value as a Python int if it is integral and not a bool, else DomainError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


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
    return _cached_rule(order, alpha)


@functools.cache
def _cached_rule(order: int, alpha: int) -> QuadratureRule:
    k = np.arange(order, dtype=float)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    nodes = np.linalg.eigvalsh(jacobi)
    # Two Newton polish steps sharpen the LAPACK eigenvalues to the true roots;
    # the power amplification in high moments (x^k inflates node error k-fold)
    # otherwise eats the 1e-12 exactness budget at order ~40.  From order 187
    # (alpha 0) the smallest weight, about e^(-x_max), underflows and the
    # Christoffel sum overflows; that raises DomainError, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            p, dp, _ = _orthonormal_eval(nodes, order, alpha)
            step = np.where(dp != 0.0, p / np.where(dp != 0.0, dp, 1.0), 0.0)
            nodes = nodes - step
        _, _, csum = _orthonormal_eval(nodes, order, alpha)
    if not np.all(np.isfinite(csum)):
        raise DomainError(
            f"gauss_laguerre(order={order}, alpha={alpha}): the rule's weights "
            "underflow double precision"
        )
    weights = 1.0 / csum
    # Every caller shares the rule, so none may write to it.
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(order, alpha, nodes, weights)


def _as_half_integer(value) -> Fraction:
    v = Fraction(value)
    if (2 * v).denominator != 1:
        raise DomainError(f"expected a half-integer, got {value!r}")
    return v


def halfline_inner(f, g, m, j_cap) -> float:
    """Radial inner product integral(0..inf) f(y) g(y) dy for a fixed-m sector.

    f and g must be finite combinations of the normalized radial functions
    with the common label m and j <= j_cap (so f g = y^(2|m|) e^(-y) times a
    polynomial the rule integrates exactly).  Callables must accept ndarray y.
    """
    m = _as_half_integer(m)
    j_cap = _as_half_integer(j_cap)
    if j_cap < abs(m):
        raise DomainError(f"j_cap={j_cap} is below |m|={abs(m)}")
    alpha = int(2 * abs(m))
    order = int(math.ceil(j_cap - abs(m))) + 2
    rule = gauss_laguerre(order, alpha)
    w = rule.lifted_weights()
    x = rule.nodes
    return float(np.dot(w, np.asarray(f(x), dtype=float) * np.asarray(g(x), dtype=float)))


def default_n_phi(j_max) -> int:
    """Smallest safe equispaced angular grid for a band limit of j_max.

    Products of two sector functions contain angular frequencies up to
    2*j_max in integer steps, and an n-point equispaced rule integrates
    e^(i k phi) exactly for 0 < |k| < n.
    """
    j_max = _as_half_integer(j_max)
    return int(math.ceil(4 * j_max)) + 1


def _sample_grid(f, x, phis) -> np.ndarray:
    """f sampled once on the (phi, y) grid, as an (n_phi, n_radial) array.

    f is called as f(x[None, :], phis[:, None]) and its result broadcast to
    the grid; a result that does not broadcast raises DomainError.
    """
    values = np.asarray(f(x[None, :], phis[:, None]), dtype=complex)
    grid = (phis.size, x.size)
    try:
        return np.broadcast_to(values, grid)
    except ValueError:
        raise DomainError(
            f"the function returned shape {values.shape}, which does not broadcast "
            f"to the (n_phi, n_radial) = {grid} sample grid"
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
    both shapes.
    """
    j_cap = _as_half_integer(j_cap)
    if j_cap < 0:
        raise DomainError(f"j_cap must be nonnegative, got {j_cap}")
    if n_phi is None:
        n_phi = default_n_phi(j_cap)
    if n_radial is None:
        n_radial = int(math.ceil(j_cap)) + 2
    rule = gauss_laguerre(n_radial, 0)
    w = rule.lifted_weights()
    x = rule.nodes
    phis = -math.pi + 2.0 * math.pi * np.arange(n_phi) / n_phi
    fv = _sample_grid(F, x, phis)
    gv = _sample_grid(G, x, phis)
    return complex(np.sum((np.conjugate(fv) * gv) @ w) / n_phi)
