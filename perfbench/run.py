"""planeharm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rotate --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  The run sets up (import, inputs, one
untimed warm-up operation), then runs operations one after another in a
closed loop for ``--seconds``, checking each output.  It prints a table and,
as the last line, one JSON object.  With ``--trace 0`` that object holds the
end-to-end metrics; with ``--trace 1`` every other operation runs with the
tracer installed and the object holds the per-layer metrics, including the
tracing overhead.  Workloads with two kinds of operation report each timing
as the mean over kinds of the per-kind median.  End-to-end timings are
scaled by a calibration kernel run next to them (see ``CALIB_REF_S``).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread in every benchmark process: the loop has one client, and
# the 2-CPU machine the benchmark was tuned on is shared.
BLAS_THREADS = "1"
SETUP_REPEATS = 3

# Timings are scaled to the speed of the machine the benchmark was tuned on.
# The host's speed drifts with its neighbours' load over seconds to minutes,
# so each timed operation is bracketed by a fixed calibration kernel, and a
# time t is reported as t * CALIB_REF_S / calib, where calib is the kernel's
# time next to it and CALIB_REF_S its median time on that machine (Xeon,
# 2.1 GHz, Python 3.11.7, numpy 2.4.6).  The raw wall times are printed in
# the table beside the scaled ones.
CALIB_REF_S = 0.016
CALIB_SHARE = 0.05

WORKLOADS = ("verify-cli", "roundtrip", "synth-points", "rotate")
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("digits", "digits"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run here."""


def prepare_environment() -> None:
    if not (SRC / "planeharm" / "__init__.py").is_file():
        raise BenchError(f"no planeharm sources under {SRC}; run from a source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # One CPU for the run and the children it starts, so that the calibration
    # kernel runs where the timed work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


_CALIB_MATRIX = None


def calibrate() -> float:
    """Seconds taken by a fixed kernel of small numpy and pure-Python work.

    The mix resembles the package's: Python-level loops around small array
    operations and 64 x 64 matrix products.  Its working set fits in L2.
    """
    global _CALIB_MATRIX
    import numpy as np

    if _CALIB_MATRIX is None:
        _CALIB_MATRIX = np.random.default_rng(20150406).standard_normal((64, 64)) / 8.0
    a = _CALIB_MATRIX
    t0 = time.perf_counter()
    m, acc = a, 0.0
    for k in range(300):
        m = m @ a
        m = m / np.abs(m).max()
        acc += float(np.exp(-np.abs(m[k % 64])).sum())
        acc += sum(i * i % 7 for i in range(300))
    if not math.isfinite(acc):
        raise BenchError("calibration kernel gave a non-finite value")
    return time.perf_counter() - t0


def calibrations(walls: list, least: int = 1) -> list:
    """Calibration times for one side of an operation: at least ``least``
    kernel runs, and enough to fill CALIB_SHARE of the last operation's wall
    time."""
    times = [calibrate() for _ in range(least)]
    while walls and sum(times) < CALIB_SHARE * walls[-1]:
        times.append(calibrate())
    return times


def scaled(seconds: float, calib: float) -> float:
    """A wall time scaled to the reference machine's speed."""
    return seconds * CALIB_REF_S / calib


def import_planeharm() -> float:
    t0 = time.perf_counter()
    import planeharm

    import_s = time.perf_counter() - t0
    if not Path(planeharm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"planeharm imported from {planeharm.__file__}, not from {SRC}")
    return import_s


def by_kind(records, value) -> float:
    """Mean over operation kinds of the median value within each kind."""
    groups: dict = {}
    for rec in records:
        groups.setdefault(rec["kind"], []).append(value(rec))
    return statistics.fmean(statistics.median(v) for v in groups.values())


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = got.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git not available)"
    return (f"python {platform.python_version()}, numpy {np.__version__}, blas {blas}, "
            f"blas threads {os.environ['OPENBLAS_NUM_THREADS']} (pinned), nproc {os.cpu_count()}, "
            f"run on cpu {','.join(map(str, sorted(os.sched_getaffinity(0))))}, "
            f"commit {commit}, planeharm from {SRC.relative_to(ROOT)}/")


def setup_calibration(seconds: float) -> float:
    """Calibration for a set-up that took ``seconds``, taken right after it.

    A set-up happens once per process, so it gets more kernel runs than an
    operation: a single one would add its own noise to a short set-up.
    """
    return statistics.median(calibrations([seconds], least=8))


def setup_child(name: str, seed: int) -> tuple:
    """Set up in a fresh process; returns its set-up time and calibration."""
    got = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-child", name, str(seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=150)
    if got.returncode != 0:
        raise BenchError(f"setup child failed: {got.stderr.strip()[-500:]}")
    raw, calib = got.stdout.split()[-2:]
    return float(raw), float(calib)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the records and the metrics."""
    prepare_environment()
    import_s = import_planeharm()
    import numpy as np
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed, ROOT)
    try:
        wl.setup()
    except Exception as exc:  # the program failed before any operation could be timed
        raise BenchError(f"set-up failed: {type(exc).__name__}: {exc}") from exc
    setup_raw = [time.perf_counter() - _T0]
    setup_samples = [scaled(setup_raw[0], setup_calibration(setup_raw[0]))]
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            raw, calib = setup_child(name, seed)
            setup_raw.append(raw)
            setup_samples.append(scaled(raw, calib))

    tracer = tracing.Tracer()
    if trace:
        OUT.mkdir(exist_ok=True)
    step = 2 if trace else 1
    min_ops = step * len(wl.kinds)
    records, walls, child_spans = [], [], []
    deadline = time.perf_counter() + seconds
    while len(records) < min_ops or time.perf_counter() + statistics.median(walls) <= deadline:
        i = len(records)
        rec = {"i": i, "kind": wl.kinds[(i // step) % len(wl.kinds)], "traced": trace and i % 2 == 0}
        w0 = time.perf_counter()
        try:
            prep = wl.prepare(i, rec["kind"])
            trace_path = OUT / f"child-{name}-{i}.npz" if rec["traced"] else None
            if rec["traced"] and wl.in_process:
                tracer.op = i
                tracer.install()
            try:
                calib = calibrations(walls) if not trace else None
                t0 = time.perf_counter()
                out = wl.run(prep) if wl.in_process else wl.run(prep, trace_path)
                rec["seconds"] = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            if calib is not None:
                rec["calib"] = statistics.median(calib + calibrations(walls))
            if trace_path is not None and not wl.in_process:
                spans, extra = tracing.load(trace_path)
                trace_path.unlink()
                spans["op"] = i
                child_spans.append(spans)
                rec["layers"] = tracing.per_op(spans)[i]
                rec["layers"]["process.import_s"] = extra["import_s"]
            rec["digits"] = wl.check(prep, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
        walls.append(time.perf_counter() - w0)
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    timed = [r for r in records if "seconds" in r]
    good = [r for r in records if "error" not in r]
    if not timed:
        raise BenchError(f"no operation completed; first error: {records[0].get('error')}")
    result = {"workload": name, "seed": seed, "records": records,
              "attempted": len(records), "failed": len(records) - len(good)}
    if not trace:
        result["wall"] = {"op_s": by_kind(timed, lambda r: r["seconds"]),
                          "setup_s": statistics.median(setup_raw)}
        result["metrics"] = {
            "op_s": (by_kind(timed, lambda r: scaled(r["seconds"], r["calib"])), len(timed)),
            "setup_s": (statistics.median(setup_samples), len(setup_samples)),
            "digits": (by_kind(good, lambda r: r["digits"]) if good else 0.0, len(good)),
            "peak_rss_mb": (peak_kb / 1024.0, 1),
        }
        return result

    if wl.in_process:
        spans = tracer.array()
        layers = tracing.per_op(spans)
        for rec in records:
            if rec["i"] in layers:
                rec["layers"] = layers[rec["i"]]
                rec["layers"]["process.import_s"] = import_s
    else:
        offset, parts = 0, []
        for part in child_spans:
            part = part.copy()
            part["parent"][part["parent"] >= 0] += offset
            parts.append(part)
            offset += len(part)
        spans = np.concatenate(parts) if parts else np.empty(0, tracing.SPAN_DTYPE)
    tracing.save(OUT / f"trace-{name}.npz", spans)
    ran = [r for r in records if "layers" in r]  # traced operations, failed ones too
    traced = [r for r in ran if "error" not in r]
    plain = [r for r in timed if not r["traced"]]
    if not traced or not plain:
        raise BenchError("no traced or no untraced operation succeeded; first error: "
                         + next((r["error"] for r in records if "error" in r), "none"))
    metrics = {}
    for key, _ in tracing.PER_LAYER:
        if key == "trace.overhead_s":
            continue
        if key in tracing.FAILURE_COUNTS:
            metrics[key] = (statistics.fmean(r["layers"][key] for r in ran), len(ran))
            continue
        pick = (lambda rs, f: max(map(f, rs))) if key == "rotation.max_dim" else by_kind
        metrics[key] = (pick(traced, lambda r: r["layers"][key]), len(traced))
    overhead = by_kind([r for r in timed if r["traced"]], lambda r: r["seconds"])
    overhead -= by_kind(plain, lambda r: r["seconds"])
    metrics["trace.overhead_s"] = (overhead, len(timed))
    result["metrics"] = metrics
    return result


def metric_units(trace: bool) -> dict:
    import tracer as tracing

    return dict(tracing.PER_LAYER if trace else END_TO_END)


def report(result: dict, trace: bool) -> list:
    """Table lines for a result; the caller prints them before the JSON line."""
    recs = result["records"]
    kinds = collections.Counter(rec["kind"] for rec in recs)
    lines = [
        f"# planeharm benchmark: workload {result['workload']}, seed {result['seed']}, "
        f"trace {int(trace)}",
        f"# {environment()}",
        "# closed loop, one client, one process; operations: "
        + ", ".join(f"{n} x {k}" for k, n in kinds.items()),
    ]
    for rec in recs:
        if "error" in rec:
            lines.append(f"# FAILED op ({rec['kind']}): {rec['error']}")
    units = metric_units(trace)
    lines.append(f"{'metric':<30} {'value':>14} {'unit':<7} {'samples':>7}  workload")
    for key, (value, samples) in result["metrics"].items():
        lines.append(f"{key:<30} {value:>14.6g} {units[key]:<7} {samples:>7}  {result['workload']}")
    for key, value in result.get("wall", {}).items():
        lines.append(f"{key + ' (wall, unscaled)':<30} {value:>14.6g} {'s':<7} {'':>7}  "
                     f"{result['workload']}")
    rate = result["failed"] / result["attempted"]
    lines.append(f"{'error_rate':<30} {rate:>14.6g} {'ratio':<7} {result['attempted']:>7}  "
                 f"{result['workload']}  ({result['failed']} failed / {result['attempted']} attempted)")
    return lines


def verify_child(trace_path: str, cli_argv: list) -> int:
    """Traced verify operation: wrappers go in before ``cli.main`` runs."""
    prepare_environment()
    import_s = import_planeharm()
    import planeharm.cli

    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        return planeharm.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracing.save(trace_path, tracer.array(), import_s=import_s)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv[:1] == ["--verify-child"]:
            return verify_child(argv[1], argv[2:])
        if argv[:1] == ["--setup-child"]:
            prepare_environment()
            import_planeharm()
            import workloads

            workloads.WORKLOADS[argv[1]](int(argv[2]), ROOT).setup()
            raw = time.perf_counter() - _T0
            print(f"setup_s {raw!r} {setup_calibration(raw)!r}")
            return 0
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", required=True, choices=WORKLOADS)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report(result, bool(args.trace)):
        print(line)
    units = metric_units(bool(args.trace))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, (value, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
