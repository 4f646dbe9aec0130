"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks, on the shortest run each workload allows:

1. Installing the tracer leaves no planeharm module holding an unwrapped
   original of a traced function, so calls between modules are caught.
2. Two traced runs with the same seed give identical work counts.
3. After an untraced and after a traced run, every name in every planeharm
   module (and every ExactPolynomial method) is the original object again.

Exits 0 when every check passes and 1 otherwise.
"""

import sys

import run

COUNTS = (
    "quadrature.rules_built",
    "quadrature.rules_distinct",
    "basis.calls",
    "basis.points",
    "rotation.matrices_built",
    "verify.checks_run",
)


def bindings() -> dict:
    import importlib

    import planeharm.exact
    import tracer as tracing

    for _, module_name, _ in tracing.LAYERS:
        importlib.import_module(module_name)
    out = {}
    for module in tracing.planeharm_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
    for key, value in vars(planeharm.exact.ExactPolynomial).items():
        out[("ExactPolynomial", key)] = value
    return out


def changed(before: dict) -> list:
    after = bindings()
    return sorted(str(key) for key in before.keys() | after.keys()
                  if key not in before or key not in after or after[key] is not before[key])


def main() -> int:
    run.prepare_environment()
    run.import_planeharm()
    import planeharm
    import tracer as tracing

    failures = []
    before = bindings()

    tracer = tracing.Tracer()
    originals = [entry[3] for entry in tracing.originals()]
    tracer.install()
    try:
        left = [(m.__name__, key) for m in tracing.planeharm_modules()
                for key, value in vars(m).items() if any(value is o for o in originals)]
    finally:
        tracer.uninstall()
    if left:
        failures.append(f"unwrapped originals after install: {left}")

    for name in run.WORKLOADS:
        first, second = (run.run(name, 7, 0, True)["metrics"] for _ in range(2))
        for key in COUNTS:
            if first[key][0] != second[key][0]:
                failures.append(f"{name}: {key} differs between runs: "
                                f"{first[key][0]} vs {second[key][0]}")
        print(f"{name}: " + ", ".join(f"{key} {first[key][0]:g}" for key in COUNTS))
        if changed(before):
            failures.append(f"{name}: names rebound after a traced run: {changed(before)}")
        if name == "verify-cli" and first["verify.checks_run"][0] != len(planeharm.SUITES["all"]):
            failures.append(f"verify-cli ran {first['verify.checks_run'][0]} checks per operation")
        if name == "rotate" and first["rotation.matrices_built"][0] != 65:
            failures.append(f"rotate built {first['rotation.matrices_built'][0]} matrices, not 65")

    run.run("rotate", 7, 0, False)
    if changed(before):
        failures.append(f"names rebound after an untraced run: {changed(before)}")
    if planeharm.transform.calL is not planeharm.basis.calL:
        failures.append("planeharm.transform.calL is not planeharm.basis.calL")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
