"""Rotation matrices for the spin-j blocks.

Each half-integer j carries a (2j+1)-dimensional representation spanned by
the azimuthal labels m = -j, ..., j.  This module builds the generator
matrices in that basis (ascending m) and assembles the z-y-z rotation

    D(a, b, c) = exp(-i a J3) exp(-i b Jy) exp(-i c J3)

from diagonal phases and the LAPACK eigenbasis of the real symmetric
Jx = (J+ + J-)/2, which a diagonal phase turns into Jy (Feng, Wang, Yang &
Jin, Phys. Rev. E 92, 043307, 2015).

Unitarity of the result is checked, never repaired: a matrix that drifts
past the tolerance raises rather than being silently re-orthogonalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnitarityError

__all__ = [
    "RotationSpec",
    "ladder_matrix",
    "j3_matrix",
    "jy_matrix",
    "expm",
    "rotation_matrix",
]

_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class RotationSpec:
    """Euler angles (a, b, c) of a rotation in z-y-z order, radians.

    Any finite real values are accepted; the angles are not reduced
    modulo 2*pi because the half-integer blocks distinguish a full turn
    from the identity.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise DomainError(f"angle {name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise DomainError(f"angle {name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))


def _check_two_j(two_j: int) -> int:
    if not isinstance(two_j, int) or isinstance(two_j, bool):
        raise DomainError(f"two_j must be an int, got {two_j!r}")
    if two_j < 0:
        raise DomainError(f"two_j must be nonnegative, got {two_j}")
    return two_j


def ladder_matrix(two_j: int, direction: str) -> np.ndarray:
    """Matrix of J+ or J- on the spin-j block, basis ordered by ascending m.

    Row/column index i corresponds to m = -j + i.  The raising operator
    sends column m to row m+1 with entry sqrt((j-m)(j+m+1)); lowering
    sends column m to row m-1 with entry sqrt((j+m)(j-m+1)).
    """
    _check_two_j(two_j)
    if direction not in ("+", "-"):
        raise DomainError(f"direction must be '+' or '-', got {direction!r}")
    dim = two_j + 1
    out = np.zeros((dim, dim))
    j = two_j / 2.0
    for i in range(dim):
        m = -j + i
        if direction == "+" and i + 1 < dim:
            out[i + 1, i] = math.sqrt((j - m) * (j + m + 1.0))
        elif direction == "-" and i - 1 >= 0:
            out[i - 1, i] = math.sqrt((j + m) * (j - m + 1.0))
    return out


def j3_matrix(two_j: int) -> np.ndarray:
    """Diagonal matrix of J3 on the spin-j block, ascending m."""
    _check_two_j(two_j)
    j = two_j / 2.0
    return np.diag([-j + i for i in range(two_j + 1)])


def jy_matrix(two_j: int) -> np.ndarray:
    """Matrix of Jy = (J+ - J-) / (2i) on the spin-j block, ascending m."""
    plus = ladder_matrix(two_j, "+")
    minus = ladder_matrix(two_j, "-")
    return (plus - minus) / 2j


def expm(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a truncated series.

    The input is halved until its 1-norm is at most 1/2, the series is
    summed until terms fall below machine precision relative to the
    partial sum, and the result is squared back up.  rotation_matrix does
    not use it.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expm needs a square matrix, got shape {a.shape}")
    norm = float(np.linalg.norm(a, 1)) if a.size else 0.0
    squarings = 0
    if norm > 0.5:
        squarings = max(0, int(math.ceil(math.log2(norm / 0.5))))
        a = a / (2.0**squarings)
    dim = a.shape[0]
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 64):
        term = term @ a / k
        result = result + term
        if np.linalg.norm(term, 1) <= np.finfo(float).eps * np.linalg.norm(result, 1):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def rotation_matrix(two_j: int, spec: RotationSpec) -> np.ndarray:
    """Unitary of the rotation spec on the spin-j block, ascending m.

    Computed as diag(e^(-i a m)) [I + P V diag(expm1(-i b m)) V^T P*]
    diag(e^(-i c m)), where V diagonalizes the real symmetric Jx, whose
    eigenvalues are exactly m = -j..j, and P = diag(e^(-i pi m/2)) turns Jx
    into Jy.  The expm1 form keeps the identity rotation exact.  Raises
    UnitarityError if the product deviates from unitarity by more than
    1e-12 in the max norm of U* U - I.
    """
    _check_two_j(two_j)
    if not isinstance(spec, RotationSpec):
        raise DomainError(f"spec must be a RotationSpec, got {spec!r}")
    m = np.arange(two_j + 1) - two_j / 2.0
    jx = (ladder_matrix(two_j, "+") + ladder_matrix(two_j, "-")) / 2.0
    pv = np.exp(-0.5j * math.pi * m)[:, None] * np.linalg.eigh(jx)[1]
    u = (pv * np.expm1(-1j * spec.b * m)) @ pv.conj().T + np.eye(two_j + 1)
    u = np.exp(-1j * spec.a * m)[:, None] * u * np.exp(-1j * spec.c * m)
    defect = np.max(np.abs(u.conj().T @ u - np.eye(two_j + 1)))
    if defect > _UNITARITY_TOL:
        raise UnitarityError(
            f"rotation matrix for two_j={two_j} deviates from unitarity by {defect:.3e}"
        )
    return u
