"""Spans around the public functions of each planeharm module.

The tracer wraps every function listed in ``LAYERS`` and rebinds the
wrapper in every planeharm module that holds the original by name (``calL``
is bound in basis, transform, verify, actions, cli and the package itself),
so calls made between modules are caught as well as calls from outside.
Each call records one span (function, start, end, parent span, operation,
work size, failures).  Spans stay in memory and are written out when the run
ends.  ``uninstall`` puts every original object back.

Nothing inside the package is changed on disk, and an untraced run never
installs anything.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (layer, module, names).  A dotted name is a method of a class in the module.
LAYERS = (
    ("laguerre", "planeharm.laguerre", (
        "laguerre_eval", "laguerre_deriv", "laguerre_reflect",
        "recurrence_check", "recurrence_residual",
    )),
    ("exact", "planeharm.exact", (
        "binomial_general", "ExactPolynomial.laguerre", "ExactPolynomial.zero",
        "ExactPolynomial.monomial", "ExactPolynomial.__call__",
        "ExactPolynomial.eval_abs", "ExactPolynomial.__add__",
        "ExactPolynomial.__sub__", "ExactPolynomial.__mul__",
        "ExactPolynomial.__rmul__", "ExactPolynomial.shift_up",
        "ExactPolynomial.derivative",
    )),
    ("basis", "planeharm.basis", ("calL", "calL_deriv", "calZ", "ode_residual")),
    ("quadrature", "planeharm.quadrature", (
        "gauss_laguerre", "plane_inner", "halfline_inner",
    )),
    ("algebra", "planeharm.algebra", (
        "normal_form", "reduce_word", "build_operator", "commutator",
        "critical_pairs", "verify_e_correction",
    )),
    ("actions", "planeharm.actions", (
        "apply_to_basis", "ladder_form", "ladder_coefficient", "apply_ladder",
        "ladder_residual", "pair_action", "su2_commutator_residual",
        "casimir_residual", "k3_ladder_residual", "annihilation_residual",
        "hermiticity_gap",
    )),
    ("rotation", "planeharm.rotation", (
        "rotation_matrix", "expm", "ladder_matrix", "j3_matrix", "jy_matrix",
    )),
    ("transform", "planeharm.transform", (
        "analyze", "synthesize", "rotate", "as_function", "parseval_gap",
        "random_block",
    )),
    ("verify", "planeharm.verify", ("run_suite",)),
    ("cli", "planeharm.cli", ("main",)),
)

NAMES = tuple(f"{layer}.{name}" for layer, _, names in LAYERS for name in names)
_NAME_ARRAY = np.array(NAMES)
_LAYER_OF = np.array([name.split(".", 1)[0] for name in NAMES])

SPAN_DTYPE = np.dtype([
    ("name", "i4"), ("t0", "i8"), ("t1", "i8"), ("parent", "i8"),
    ("op", "i4"), ("arg", "i8"), ("fail", "i4"),
])


def _y_size(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs["y"]))


def _rule_key(args, kwargs):
    order = args[0] if args else kwargs["order"]
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    return (int(order) << 16) | int(alpha)


def _dim(args, kwargs):
    return int(args[0] if args else kwargs["two_j"]) + 1


# Work size recorded in a span's ``arg``: y values for the radial evaluators,
# the (order, alpha) key of a rule, the dimension of a rotation matrix.
_ARG = {
    "basis.calL": _y_size,
    "basis.calL_deriv": _y_size,
    "quadrature.gauss_laguerre": _rule_key,
    "rotation.rotation_matrix": _dim,
}

PER_LAYER = (
    ("laguerre.calls", "count"),
    ("laguerre.self_s", "s"),
    ("exact.calls", "count"),
    ("exact.self_s", "s"),
    ("basis.calls", "count"),
    ("basis.points", "count"),
    ("basis.self_s", "s"),
    ("quadrature.rules_built", "count"),
    ("quadrature.rules_distinct", "count"),
    ("quadrature.distinct_ratio", "ratio"),
    ("quadrature.rule_self_s", "s"),
    ("quadrature.inner_self_s", "s"),
    ("algebra.calls", "count"),
    ("algebra.self_s", "s"),
    ("actions.calls", "count"),
    ("actions.self_s", "s"),
    ("rotation.matrices_built", "count"),
    ("rotation.expm_calls", "count"),
    ("rotation.max_dim", "dim"),
    ("rotation.unitarity_errors", "count"),
    ("rotation.self_s", "s"),
    ("transform.analyze_calls", "count"),
    ("transform.synthesize_calls", "count"),
    ("transform.rotate_calls", "count"),
    ("transform.self_s", "s"),
    ("verify.checks_run", "count"),
    ("verify.checks_failed", "count"),
    ("verify.self_s", "s"),
    ("cli.self_s", "s"),
    ("process.import_s", "s"),
    ("trace.overhead_s", "s"),
)

# Reported as the mean over every traced operation, failed ones included;
# the other per-layer metrics come from the operations that passed.
FAILURE_COUNTS = ("rotation.unitarity_errors", "verify.checks_failed")


def originals():
    """(span name, owner, attribute, original object) for every traced name."""
    out = []
    for layer, module_name, names in LAYERS:
        module = importlib.import_module(module_name)
        for name in names:
            cls_name, _, attr = name.rpartition(".")
            if cls_name:
                owner = getattr(module, cls_name)
                out.append((f"{layer}.{name}", owner, attr, owner.__dict__[attr]))
            else:
                out.append((f"{layer}.{name}", module, attr, getattr(module, attr)))
    return out


def planeharm_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "planeharm" or key.startswith("planeharm."))]


class Tracer:
    """Collects spans while installed; ``op`` tags spans with an operation id."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack = [-1]
        self._restore: list = []

    def _wrap(self, name, fn):
        index = NAMES.index(name)
        arg_of = _ARG.get(name)
        is_suite = name == "verify.run_suite"
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            fail = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                fail = 0
            finally:
                t1 = clock()
                stack.pop()
                if fail == 0 and is_suite:
                    arg, fail = len(result.checks), sum(not c.passed for c in result.checks)
                else:
                    arg = arg_of(args, kwargs) if arg_of else 0
                spans[me] = (index, t0, t1, parent, tracer.op, arg, fail)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = planeharm_modules()
        for name, owner, attr, original in originals():
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, original))
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def array(self) -> np.ndarray:
        if any(s is None for s in self.spans):
            raise RuntimeError("spans still open")
        return np.array(self.spans, dtype=SPAN_DTYPE)


def save(path, spans: np.ndarray, **scalars) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, spans=spans, names=np.array(NAMES), **scalars)


def load(path):
    with np.load(path) as data:
        if tuple(data["names"]) != NAMES:
            raise RuntimeError(f"{path}: span names do not match this tracer")
        return data["spans"], {k: float(data[k]) for k in data.files if k not in ("spans", "names")}


def per_op(spans: np.ndarray) -> dict:
    """Per-layer counts and self times for each operation id in ``spans``.

    A span's self time is its duration minus the durations of the spans
    whose parent it is; parent indices refer to positions in ``spans``.
    """
    dur = (spans["t1"] - spans["t0"]).astype(float)
    has_parent = spans["parent"] >= 0
    child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(spans))
    self_s = (dur - child) * 1e-9
    return {int(op): _op_metrics(spans[spans["op"] == op], self_s[spans["op"] == op])
            for op in np.unique(spans["op"])}


def _op_metrics(spans: np.ndarray, self_s: np.ndarray) -> dict:
    layer = _LAYER_OF[spans["name"]]
    fn = _NAME_ARRAY[spans["name"]]

    def calls(*names):
        return int(np.isin(fn, names).sum())

    def self_of(*names):
        return float(self_s[np.isin(fn, names)].sum())

    def layer_self(name):
        return float(self_s[layer == name].sum())

    rules = spans["arg"][fn == "quadrature.gauss_laguerre"]
    rot = fn == "rotation.rotation_matrix"
    run = fn == "verify.run_suite"
    built = len(rules)
    distinct = len(np.unique(rules))
    return {
        "laguerre.calls": int((layer == "laguerre").sum()),
        "laguerre.self_s": layer_self("laguerre"),
        "exact.calls": int((layer == "exact").sum()),
        "exact.self_s": layer_self("exact"),
        "basis.calls": int((layer == "basis").sum()),
        "basis.points": int(spans["arg"][np.isin(fn, ("basis.calL", "basis.calL_deriv"))].sum()),
        "basis.self_s": layer_self("basis"),
        "quadrature.rules_built": built,
        "quadrature.rules_distinct": distinct,
        "quadrature.distinct_ratio": distinct / built if built else 0.0,
        "quadrature.rule_self_s": self_of("quadrature.gauss_laguerre"),
        "quadrature.inner_self_s": self_of("quadrature.plane_inner", "quadrature.halfline_inner"),
        "algebra.calls": int((layer == "algebra").sum()),
        "algebra.self_s": layer_self("algebra"),
        "actions.calls": int((layer == "actions").sum()),
        "actions.self_s": layer_self("actions"),
        "rotation.matrices_built": int(rot.sum()),
        "rotation.expm_calls": calls("rotation.expm"),
        "rotation.max_dim": int(spans["arg"][rot].max()) if rot.any() else 0,
        "rotation.unitarity_errors": int(spans["fail"][rot].sum()),
        "rotation.self_s": layer_self("rotation"),
        "transform.analyze_calls": calls("transform.analyze"),
        "transform.synthesize_calls": calls("transform.synthesize"),
        "transform.rotate_calls": calls("transform.rotate"),
        "transform.self_s": layer_self("transform"),
        "verify.checks_run": int(spans["arg"][run].sum()),
        "verify.checks_failed": int(spans["fail"][run].sum()),
        "verify.self_s": layer_self("verify"),
        "cli.self_s": layer_self("cli"),
    }
