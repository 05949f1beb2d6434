"""Toy-size self-check of the benchmark itself.

Run from the repository root::

    python3 perfbench/selfcheck.py

At toy sizes it runs every workload untraced and traced through
``run.main`` and checks that the printed result names every metric of
``BENCHMARK.json`` with its unit.  It then trips every output check with a
deliberately perturbed value, and the shape check with the wrong regime, and
requires each to report a failure — a check that cannot fail cannot pass
either.  Last, it runs the benchmark in a directory without the program and
requires a non-zero exit and no result.  Exits non-zero on any problem.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

import run  # noqa: E402

run._import_program()

import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(argv: list[str]) -> dict:
    """``run.main`` at toy sizes; its last stdout line as JSON."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv, sizes=workloads.TOY)
    if code != 0:
        raise AssertionError(f"{argv}: exit code {code}")
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def _expect_metrics(workload: str, result: dict, declared: list) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{workload}: {result['failed']} failed operations")
    metrics = result["metrics"]
    if set(metrics) != {metric["name"] for metric in declared}:
        problems.append(
            f"{workload}: metrics {sorted(metrics)} differ from BENCHMARK.json"
        )
    for metric in declared:
        got = metrics.get(metric["name"], {})
        if got.get("unit") != metric["unit"]:
            problems.append(f"{workload}: {metric['name']} unit {got.get('unit')!r}")
    return problems


def _trips(workload: str, check: str) -> bool:
    checks = run._pass(workload, workloads.TOY, 1, 0.2, perturb=check)[-1]
    return checks.failed >= 1


def _shape_trips() -> bool:
    """Toy Tax is scattered: it passes as scattered and fails as a hub."""
    database, constraints = workloads.tax_inputs(workloads.TOY, 1)
    index = workloads.build_violation_index(constraints, database)
    workloads.record_shape(database, index, workloads.FULL.scattered, "scattered")
    try:
        workloads.record_shape(database, index, workloads.FULL.hub, "as a hub")
    except workloads.RunFailed:
        return True
    return False


def _bare_directory_fails() -> bool:
    """Without the program's source the benchmark must refuse to report."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path)
        done = subprocess.run(
            [*SPEC["command"], "--workload", "prioritize_food", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return done.returncode != 0 and not done.stdout.strip()


def main() -> int:
    problems: list[str] = []
    names = [workload["name"] for workload in SPEC["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names}")
    for workload in names:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = _result(
                ["--workload", workload, "--seed", "1", "--seconds", "0.2",
                 "--trace", str(trace)]
            )
            problems += _expect_metrics(f"{workload} trace={trace}", result, declared)
        for check in workloads.CHECKS[workload]:
            if not _trips(workload, check):
                problems.append(f"{workload}: check {check} did not trip")
        print(f"selfcheck: {workload} done")
    if not _shape_trips():
        problems.append("shape check did not trip on the wrong regime")
    if not _bare_directory_fails():
        problems.append("benchmark reported a result without the program")
    for problem in problems:
        print(f"selfcheck: FAIL {problem}")
    print("selfcheck: passed" if not problems else "selfcheck: failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
