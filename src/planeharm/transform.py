"""Analysis, synthesis, and rotation of plane-harmonic expansions.

A band-limited function on the half-plane lives in one sector (integer or
half-integer j) and is described by a CoefficientBlock: a label j_max plus
one complex coefficient per plane harmonic with j <= j_max.  analyze
projects a callable onto that basis with the sector quadrature, synthesize
evaluates the expansion at points, and rotate conjugates the block by the
per-j rotation unitaries.  parseval_gap measures how much of a function's
norm the block misses.

analyze and synthesize take their radial functions from basis's per-m
recurrence, which yields calL_{|m|+k}^m for every m of the sector at once,
one k at a time, and keeps large labels finite.
synthesize folds e^(i m phi) and the sign s_m into a (k, |m|) coefficient
matrix and adds one matrix product per step; analyze contracts each step's
rows with the weighted angular projections of the samples.  Either costs
O(j_max^2 P) time and O(j_max P) memory for P radial points.

Blocks serialize to a flat JSON document::

    {
      "sector": "int" | "half",
      "j_max": "<fraction>",
      "coeffs": [{"two_j": int, "two_m": int, "re": float, "im": float}, ...]
    }

with j_max written as a fraction in lowest terms ("6", "7/2").
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

# calL is bound here only for perfbench/selftest.py, which checks that
# tracing leaves transform.calL and basis.calL the same object.
from .basis import PlanePoint, SpinIndex, _radial_rows, _sign, calL, sector_labels  # noqa: F401
from .errors import DomainError, SchemaError
from .quadrature import _as_half_integer, default_n_phi, gauss_laguerre, plane_inner
from .rotation import RotationSpec, rotation_matrix

__all__ = [
    "CoefficientBlock",
    "analyze",
    "synthesize",
    "as_function",
    "rotate",
    "parseval_gap",
    "random_block",
]

_SECTORS = ("int", "half")


def _sector_of_two_j(two_j: int) -> str:
    return "int" if two_j % 2 == 0 else "half"


class CoefficientBlock:
    """Immutable map from sector labels (j, m) with j <= j_max to coefficients.

    Keys are (two_j, two_m) pairs of ints; each must be a valid label of the
    stated sector.  Missing labels count as zero, so sparse and dense blocks
    with the same nonzero entries compare equal.
    """

    __slots__ = ("_sector", "_two_j_max", "_coeffs")

    def __init__(self, sector: str, j_max, coeffs: Mapping | None = None):
        if sector not in _SECTORS:
            raise DomainError(f"sector must be 'int' or 'half', got {sector!r}")
        j_max = _as_half_integer(j_max)
        if j_max < 0:
            raise DomainError(f"j_max must be nonnegative, got {j_max}")
        stored: dict[tuple[int, int], complex] = {}
        for key, value in (coeffs or {}).items():
            try:
                two_j, two_m = key
            except (TypeError, ValueError):
                raise DomainError(f"coefficient key must be a (two_j, two_m) pair, got {key!r}")
            s = SpinIndex(int(two_j), int(two_m))
            if _sector_of_two_j(s.two_j) != sector:
                raise DomainError(f"label {key} does not belong to the {sector!r} sector")
            if Fraction(s.two_j, 2) > j_max:
                raise DomainError(f"label {key} exceeds j_max={j_max}")
            c = complex(value)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise DomainError(f"coefficient at label {key} must be finite, got {value!r}")
            if c != 0:
                stored[(s.two_j, s.two_m)] = c
        self._sector = sector
        self._two_j_max = int(2 * j_max)
        self._coeffs = stored

    @property
    def sector(self) -> str:
        return self._sector

    @property
    def j_max(self) -> Fraction:
        return Fraction(self._two_j_max, 2)

    @property
    def two_j_max(self) -> int:
        return self._two_j_max

    def labels(self) -> list[SpinIndex]:
        """All labels of the sector up to j_max, sorted by (j, m)."""
        return sector_labels(self._sector, self.j_max)

    def get(self, two_j: int, two_m: int) -> complex:
        return self._coeffs.get((two_j, two_m), 0j)

    def items(self) -> list[tuple[tuple[int, int], complex]]:
        """Stored nonzero coefficients, sorted by (two_j, two_m)."""
        return sorted(self._coeffs.items())

    def norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for c in self._coeffs.values()))

    def per_j_norm_sq(self) -> dict[int, float]:
        """Map two_j -> sum of |c|^2 over that j's multiplet (zeros included)."""
        out: dict[int, float] = {}
        for label in self.labels():
            out.setdefault(label.two_j, 0.0)
        for (two_j, _), c in self._coeffs.items():
            out[two_j] += abs(c) ** 2
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientBlock):
            return NotImplemented
        return (
            self._sector == other._sector
            and self._two_j_max == other._two_j_max
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self._sector, self._two_j_max, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        return (
            f"CoefficientBlock(sector={self._sector!r}, j_max={self.j_max}, "
            f"{len(self._coeffs)} nonzero)"
        )

    def to_dict(self) -> dict:
        return {
            "sector": self._sector,
            "j_max": str(self.j_max),
            "coeffs": [
                {"two_j": two_j, "two_m": two_m, "re": c.real, "im": c.imag}
                for (two_j, two_m), c in self.items()
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, obj) -> "CoefficientBlock":
        if not isinstance(obj, dict):
            raise SchemaError(f"document: expected an object, got {type(obj).__name__}")
        for field in ("sector", "j_max", "coeffs"):
            if field not in obj:
                raise SchemaError(f"{field}: missing required field")
        extra = set(obj) - {"sector", "j_max", "coeffs"}
        if extra:
            raise SchemaError(f"{sorted(extra)[0]}: unexpected field")
        sector = obj["sector"]
        if sector not in _SECTORS:
            raise SchemaError(f"sector: expected 'int' or 'half', got {sector!r}")
        j_max_raw = obj["j_max"]
        if not isinstance(j_max_raw, str):
            raise SchemaError(f"j_max: expected a fraction string, got {j_max_raw!r}")
        try:
            j_max = _as_half_integer(Fraction(j_max_raw))
        except (ValueError, ZeroDivisionError, DomainError):
            raise SchemaError(f"j_max: expected a half-integer fraction, got {j_max_raw!r}")
        if j_max < 0:
            raise SchemaError(f"j_max: must be nonnegative, got {j_max_raw!r}")
        entries = obj["coeffs"]
        if not isinstance(entries, list):
            raise SchemaError(f"coeffs: expected a list, got {type(entries).__name__}")
        coeffs: dict[tuple[int, int], complex] = {}
        for pos, entry in enumerate(entries):
            where = f"coeffs[{pos}]"
            if not isinstance(entry, dict):
                raise SchemaError(f"{where}: expected an object, got {type(entry).__name__}")
            for field in ("two_j", "two_m", "re", "im"):
                if field not in entry:
                    raise SchemaError(f"{where}.{field}: missing required field")
            extra = set(entry) - {"two_j", "two_m", "re", "im"}
            if extra:
                raise SchemaError(f"{where}.{sorted(extra)[0]}: unexpected field")
            for field in ("two_j", "two_m"):
                if not isinstance(entry[field], int) or isinstance(entry[field], bool):
                    raise SchemaError(f"{where}.{field}: expected an int, got {entry[field]!r}")
            for field in ("re", "im"):
                value = entry[field]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise SchemaError(f"{where}.{field}: expected a number, got {value!r}")
                if not math.isfinite(value):
                    raise SchemaError(f"{where}.{field}: expected a finite number, got {value!r}")
            key = (entry["two_j"], entry["two_m"])
            if key in coeffs:
                raise SchemaError(f"{where}: duplicate label {key}")
            try:
                s = SpinIndex(*key)
            except DomainError as exc:
                raise SchemaError(f"{where}: {exc}")
            if _sector_of_two_j(s.two_j) != sector:
                raise SchemaError(f"{where}: label {key} does not belong to the {sector!r} sector")
            if Fraction(s.two_j, 2) > j_max:
                raise SchemaError(f"{where}: label {key} exceeds j_max={j_max}")
            coeffs[key] = complex(entry["re"], entry["im"])
        return cls(sector, j_max, coeffs)

    @classmethod
    def from_json(cls, text: str) -> "CoefficientBlock":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"document: invalid JSON ({exc.msg} at char {exc.pos})")
        return cls.from_dict(obj)


def _sector_ladder(sector: str, two_j_max: int) -> list[int]:
    """The 2|m| values of a sector up to two_j_max, ascending."""
    return list(range(0 if sector == "int" else 1, two_j_max + 1, 2))


def analyze(
    f: Callable,
    sector: str,
    j_max,
    n_phi: int | None = None,
    n_radial: int | None = None,
) -> CoefficientBlock:
    """Project f onto the plane harmonics of one sector up to j_max.

    f is called as f(y_array, phi_scalar) and must broadcast over y.  The
    projection is an equispaced angular average against e^(-i m phi) per m,
    followed by a radial Gauss-Laguerre sum against each row of the per-m
    radial recurrence; both grids match plane_inner's, so coefficients of a
    band-limited f of the sector are exact to roundoff.
    """
    if sector not in _SECTORS:
        raise DomainError(f"sector must be 'int' or 'half', got {sector!r}")
    j_max = _as_half_integer(j_max)
    if j_max < 0:
        raise DomainError(f"j_max must be nonnegative, got {j_max}")
    if n_phi is None:
        n_phi = default_n_phi(j_max)
    if n_radial is None:
        n_radial = int(math.ceil(j_max)) + 2
    rule = gauss_laguerre(n_radial, 0)
    w = rule.lifted_weights()
    x = rule.nodes
    phis = -math.pi + 2.0 * math.pi * np.arange(n_phi) / n_phi
    samples = np.empty((n_phi, n_radial), dtype=complex)
    for k, phi in enumerate(phis):
        samples[k] = np.asarray(f(x, phi), dtype=complex)
    two_j_max = int(2 * j_max)
    ladder = _sector_ladder(sector, two_j_max)
    # Angular projections onto m = +|m| and m = -|m|, each times the weights;
    # the +|m| side also carries the sign s_m of its radial function.
    abs_m = 0.5 * np.array(ladder, dtype=float)[:, None]
    plus = w * (np.exp(-1j * abs_m * phis) @ samples) / n_phi
    plus *= np.array([_sign(v) for v in ladder])[:, None]
    minus = w * (np.exp(1j * abs_m * phis) @ samples) / n_phi
    coeffs: dict[tuple[int, int], complex] = {}
    for k, rows in enumerate(_radial_rows(ladder, two_j_max, x)):
        n = len(rows)
        c_plus = np.sum(rows * plus[:n], axis=1)
        c_minus = np.sum(rows * minus[:n], axis=1)
        for i, abs2m in enumerate(ladder[:n]):
            two_j = abs2m + 2 * k
            coeffs[(two_j, abs2m)] = complex(c_plus[i])
            if abs2m:
                coeffs[(two_j, -abs2m)] = complex(c_minus[i])
    return CoefficientBlock(sector, j_max, coeffs)


def synthesize(block: CoefficientBlock, point):
    """Evaluate the expansion sum of c_jm calZ_j^m at a point.

    ``point`` is a PlanePoint or a (y, phi) pair; y may be an ndarray with a
    scalar phi.  An empty block evaluates to zero.  The coefficients, with
    e^(i m phi) and the sign s_m folded in, fill a (k, |m|) matrix; each step
    of the per-m radial recurrence then adds one matrix product.
    """
    if isinstance(point, PlanePoint):
        y, phi = point.y, point.phi
    else:
        y, phi = point
    y_arr = np.asarray(y, dtype=float)
    flat = y_arr.reshape(-1)
    acc = np.zeros((2, flat.size))  # real and imaginary parts
    if block._coeffs:
        count = len(block._coeffs)
        keys = np.fromiter(itertools.chain.from_iterable(block._coeffs), np.int64, 2 * count)
        two_j, two_m = keys[0::2], keys[1::2]
        abs2m = np.abs(two_m)
        values = np.fromiter(block._coeffs.values(), complex, count)
        values *= np.exp(0.5j * two_m * float(phi))
        top = int(two_j.max())
        values[two_m > 0] *= _sign(top)  # every m > 0 of a sector has this s_m
        ladder = _sector_ladder(block.sector, top)
        folded = np.zeros(((top - ladder[0]) // 2 + 1, len(ladder)), dtype=complex)
        np.add.at(folded, ((two_j - abs2m) // 2, (abs2m - ladder[0]) // 2), values)
        folded = np.stack([folded.real, folded.imag], axis=1)
        for k, rows in enumerate(_radial_rows(ladder, top, flat)):
            acc += folded[k, :, : len(rows)] @ rows
    out = (acc[0] + 1j * acc[1]).reshape(y_arr.shape)
    return out if out.ndim else complex(out)


def as_function(block: CoefficientBlock) -> Callable:
    """The expansion as a callable f(y, phi) suitable for analyze."""
    return lambda y, phi: synthesize(block, (y, phi))


def rotate(block: CoefficientBlock, spec: RotationSpec) -> CoefficientBlock:
    """Apply a rotation to a block, one unitary per j-multiplet.

    Within each j the coefficients transform by the z-y-z rotation matrix
    in the ascending-m basis; different j never mix.
    """
    if not isinstance(spec, RotationSpec):
        raise DomainError(f"spec must be a RotationSpec, got {spec!r}")
    coeffs: dict[tuple[int, int], complex] = {}
    two_j_start = 0 if block.sector == "int" else 1
    for two_j in range(two_j_start, block.two_j_max + 1, 2):
        vec = np.array(
            [block.get(two_j, -two_j + 2 * i) for i in range(two_j + 1)], dtype=complex
        )
        if not np.any(vec):
            continue
        out = rotation_matrix(two_j, spec) @ vec
        for i, c in enumerate(out):
            coeffs[(two_j, -two_j + 2 * i)] = c
    return CoefficientBlock(block.sector, block.j_max, coeffs)


def parseval_gap(
    f: Callable,
    sector: str,
    j_max,
    n_phi: int | None = None,
    n_radial: int | None = None,
) -> float:
    """Absolute difference between |f|^2 and the captured coefficient energy.

    Both the norm integral and the projections use the quadrature sized for
    j_max, so f should be a finite harmonic combination the rule can
    integrate (components above j_max then show up as gap, as intended).
    """
    block = analyze(f, sector, j_max, n_phi=n_phi, n_radial=n_radial)
    norm = plane_inner(f, f, j_max, n_phi=n_phi, n_radial=n_radial).real
    return abs(norm - block.norm_sq())


def random_block(sector: str, j_max, seed: int = 0) -> CoefficientBlock:
    """Dense block with standard complex normal coefficients, seeded."""
    labels = sector_labels(sector, _as_half_integer(j_max))
    rng = np.random.default_rng(seed)
    coeffs = {}
    for label in labels:
        re, im = rng.standard_normal(2)
        coeffs[(label.two_j, label.two_m)] = complex(re, im)
    return CoefficientBlock(sector, j_max, coeffs)
