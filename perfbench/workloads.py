"""The benchmark's workloads: inputs made from the seed, one operation, its check.

Each workload is a closed loop with one client in one process.  Inputs come
only from ``np.random.default_rng([seed, stream, index])``, so operation i of
a seed is the same in every run.  The package is called through its module
attributes at call time, so a traced run sees the wrappers the tracer binds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from planeharm import basis, rotation, transform, verify

RUN, WARM, OPS = 0, 1, 2  # random streams: run-level inputs, warm-up, operations

# An operation fails when its accuracy in digits falls below the floor.  The
# floors sit about three digits below the lowest per-run median seen over
# seeds 0-9 when the benchmark was defined (roundtrip 13.98, synth-points
# 13.76, rotate 12.92), so only a real loss of accuracy trips them.
DIGITS_FLOOR = {"roundtrip": 11.0, "synth-points": 11.0, "rotate": 10.0}

# Residuals below this count as this when a verify check's margin is taken.
_RESIDUAL_FLOOR = 1e-16

VERIFY_CHILD = "import sys; from planeharm.cli import main; sys.exit(main(sys.argv[1:]))"


class OpFailed(Exception):
    """An operation's output failed its correctness check."""


def rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def digits(error: float, scale: float) -> float:
    """-log10(error / scale), clamped at 16."""
    if not (math.isfinite(error) and math.isfinite(scale)) or scale <= 0:
        raise OpFailed(f"non-finite or zero error scale: error={error}, scale={scale}")
    if error == 0:
        return 16.0
    return min(16.0, -math.log10(error / scale))


def dense_block(sector, j_max, gen):
    """A CoefficientBlock with standard complex normal coefficients, plus its keys and values."""
    keys = [(s.two_j, s.two_m) for s in basis.sector_labels(sector, j_max)]
    values = gen.standard_normal(len(keys)) + 1j * gen.standard_normal(len(keys))
    return transform.CoefficientBlock(sector, j_max, dict(zip(keys, values))), keys, values


def block_values(block, keys) -> np.ndarray:
    out = np.array([block.get(two_j, two_m) for two_j, two_m in keys], dtype=complex)
    if not np.all(np.isfinite(out)):
        raise OpFailed("non-finite coefficient in the output block")
    return out


class Workload:
    """Base: ``prepare`` makes operation i's inputs, ``run`` is the timed part."""

    name = ""
    kinds: tuple = ("",)
    in_process = True
    floor = None

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def setup(self) -> None:
        """Make run-level inputs and do one untimed warm-up operation."""
        self.run(self.prepare_from(rng(self.seed, WARM), self.kinds[0]))

    def prepare(self, i: int, kind: str):
        return self.prepare_from(rng(self.seed, OPS, i), kind)

    def prepare_from(self, gen, kind):
        raise NotImplementedError

    def run(self, prep):
        raise NotImplementedError

    def check(self, prep, out) -> float:
        """Accuracy of one output in digits; raises OpFailed when it is wrong."""
        raise NotImplementedError

    def floor_check(self, value: float) -> float:
        if value < self.floor:
            raise OpFailed(f"{value:.2f} digits is below the floor of {self.floor}")
        return value


class VerifyCli(Workload):
    """Each operation is a fresh Python child running ``planeharm verify``."""

    name = "verify-cli"
    kinds = ("all j_max 8",)
    in_process = False

    def setup(self) -> None:
        self.check_ids = sorted(verify.SUITES["all"])

    def prepare_from(self, gen, kind):
        seed = int(gen.integers(0, 2**31))
        return ["verify", "--suite", "all", "--j-max", "8", "--seed", str(seed), "--format", "json"]

    def command(self, argv, trace_path=None):
        if trace_path is None:
            return [sys.executable, "-c", VERIFY_CHILD, *argv]
        return [sys.executable, str(Path(__file__).with_name("run.py")),
                "--verify-child", str(trace_path), *argv]

    def run(self, prep, trace_path=None):
        return subprocess.run(self.command(prep, trace_path), cwd=self.root,
                              capture_output=True, text=True, timeout=120)

    def check(self, prep, out) -> float:
        if out.returncode != 0:
            raise OpFailed(f"verify exited {out.returncode}: {out.stderr.strip()[-300:]}")
        report = json.loads(out.stdout)
        if report["overall"] != "pass":
            failed = [c["id"] for c in report["checks"] if not c["passed"]]
            raise OpFailed(f"verify failed checks {failed}")
        ids = [c["id"] for c in report["checks"]]
        if sorted(ids) != self.check_ids:
            raise OpFailed(f"verify ran {len(ids)} checks, expected {len(self.check_ids)}")
        # Mean margin in digits between each check's residual and its threshold.
        margins = [
            math.log10(c["threshold"] / max(c["max_residual"], _RESIDUAL_FLOOR))
            for c in report["checks"] if c["threshold"] > 0
        ]
        return sum(margins) / len(margins)


class Roundtrip(Workload):
    """``analyze(as_function(b))`` on fresh dense blocks, int and half sectors."""

    name = "roundtrip"
    kinds = ("int j_max 20", "half j_max 39/2")
    floor = DIGITS_FLOOR["roundtrip"]
    _SHAPE = {"int j_max 20": ("int", 20), "half j_max 39/2": ("half", Fraction(39, 2))}

    def prepare_from(self, gen, kind):
        return dense_block(*self._SHAPE[kind], gen)

    def run(self, prep):
        block = prep[0]
        return transform.analyze(transform.as_function(block), block.sector, block.j_max)

    def check(self, prep, out) -> float:
        _, keys, values = prep
        back = block_values(out, keys)
        return self.floor_check(digits(np.max(np.abs(back - values)), np.max(np.abs(values))))


class SynthPoints(Workload):
    """``synthesize`` of a j_max 32 block at 16 angles x 256 radii, 4,096 points."""

    name = "synth-points"
    kinds = ("int j_max 32",)
    floor = DIGITS_FLOOR["synth-points"]
    N_ANGLES, N_RADII, N_ORACLE = 16, 256, 8

    def setup(self) -> None:
        gen = rng(self.seed, RUN)
        self.phis = gen.uniform(-math.pi, math.pi, self.N_ANGLES)
        # Radii on a 1/1024 grid in (0, 60): short binary fractions keep the
        # exact oracle cheap.
        self.ys = gen.integers(1, 60 * 1024, self.N_RADII) / 1024.0
        self._oracle = None
        super().setup()

    def prepare_from(self, gen, kind):
        return dense_block("int", 32, gen)

    def run(self, prep):
        block = prep[0]
        return [transform.synthesize(block, (self.ys, phi)) for phi in self.phis]

    def oracle_table(self, keys) -> np.ndarray:
        """calZ at the oracle points (angle k, radius k), k < N_ORACLE, per label.

        Evaluates the defining formula sqrt((j+m)!/(j-m)!) y^(-m) e^(-y/2)
        L_{j+m}^(-2m)(y) with the Laguerre polynomial summed exactly from its
        explicit series and the rest in log space; it shares no code with
        the package.
        """
        table = np.empty((self.N_ORACLE, len(keys)), dtype=complex)
        for k in range(self.N_ORACLE):
            y, phi = float(self.ys[k]), float(self.phis[k])
            p, q = y.as_integer_ratio()
            for col, (two_j, two_m) in enumerate(keys):
                n, top = (two_j + two_m) // 2, (two_j - two_m) // 2
                # L_n^(a)(p/q) = sum_k (-1)^k C(n+a, n-k) (p/q)^k / k!, over q^n n!.
                fact, num = 1, 0
                for i in range(n, -1, -1):
                    num += (-1) ** i * math.comb(top, n - i) * p**i * q ** (n - i) * fact
                    fact *= i or 1
                if num == 0:
                    table[k, col] = 0.0
                    continue
                log_abs = math.log(abs(num)) - n * math.log(q) - math.lgamma(n + 1)
                radial = math.copysign(math.exp(
                    0.5 * (math.lgamma(n + 1) - math.lgamma(top + 1))
                    - 0.5 * two_m * math.log(y) - 0.5 * y + log_abs), num)
                table[k, col] = radial * complex(math.cos(0.5 * two_m * phi),
                                                 math.sin(0.5 * two_m * phi))
        return table

    def check(self, prep, out) -> float:
        _, keys, values = prep
        if not all(np.all(np.isfinite(v)) for v in out):
            raise OpFailed("non-finite synthesized value")
        if self._oracle is None:
            self._oracle = self.oracle_table(keys)
        expected = self._oracle @ values
        got = np.array([out[k][k] for k in range(self.N_ORACLE)])
        return self.floor_check(digits(np.max(np.abs(got - expected)), np.max(np.abs(expected))))


class Rotate(Workload):
    """``rotate`` of fresh dense blocks at j_max 64 and 64.5 by fresh Euler angles."""

    name = "rotate"
    kinds = ("int j_max 64", "half j_max 129/2")
    floor = DIGITS_FLOOR["rotate"]
    _SHAPE = {"int j_max 64": ("int", 64), "half j_max 129/2": ("half", Fraction(129, 2))}

    def prepare_from(self, gen, kind):
        block, keys, values = dense_block(*self._SHAPE[kind], gen)
        a, b, c = (float(x) for x in gen.uniform(-math.pi, math.pi, 3))
        return block, keys, values, (a, b, c)

    def run(self, prep):
        return transform.rotate(prep[0], rotation.RotationSpec(*prep[3]))

    def check(self, prep, out) -> float:
        """Digits of the rotate-back error; the top j-block must also match
        an independent rotation built from an eigendecomposition of Jy."""
        block, keys, values, (a, b, c) = prep
        rotated = block_values(out, keys)
        top = [i for i, (two_j, _) in enumerate(keys) if two_j == block.two_j_max]
        want = top_rotation(block.two_j_max, a, b, c) @ values[top]
        self.floor_check(digits(np.max(np.abs(rotated[top] - want)), np.max(np.abs(want))))
        back = transform.rotate(out, rotation.RotationSpec(-c, -b, -a))
        err = np.max(np.abs(block_values(back, keys) - values))
        return self.floor_check(digits(err, np.max(np.abs(values))))


def top_rotation(two_j: int, a: float, b: float, c: float) -> np.ndarray:
    """exp(-i a J3) exp(-i b Jy) exp(-i c J3) on spin j, ascending m, via eigh."""
    m = np.arange(two_j + 1) - two_j / 2.0
    raise_ = np.diag(np.sqrt((two_j / 2.0 - m[:-1]) * (two_j / 2.0 + m[:-1] + 1.0)), -1)
    w, v = np.linalg.eigh((raise_ - raise_.T) / 2j)
    middle = (v * np.exp(-1j * b * w)) @ v.conj().T
    return np.exp(-1j * a * m)[:, None] * middle * np.exp(-1j * c * m)[None, :]


WORKLOADS = {w.name: w for w in (VerifyCli, Roundtrip, SynthPoints, Rotate)}
