"""End-to-end benchmark of the measurement system, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_restart_tax --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, reported
in seconds at a reference host speed (``perfbench/hostspeed.py``).  ``--trace 1``
runs every episode twice in a row, untraced and then with every layer
wrapped (``perfbench/tracing.py``), and reports the per-layer breakdown of
the traced episodes, its reconciliation with their wall time and the
tracing overhead (traced minus untraced seconds of the same episodes).  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

Human-readable tables go to standard error; trace spans are written to
``.perfbench_out/``.  The workloads and metric definitions are in
``BENCHMARK.json`` and ``perfbench/workloads.py``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

# One thread drives everything: numpy's BLAS would otherwise start a worker
# per core and contend with the host's other tenants.  Set before any
# import of numpy.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {source} — run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))


def _pass(workload: str, sizes, seed: int, seconds: float, tracer=None, perturb=None):
    """Generate *workload*'s inputs and run its episodes.

    Returns ``(plain outcome, traced outcome or None, traced probe or None,
    checks)``.
    """
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-{os.getpid()}.snapshot"
    checks = workloads.Checks(perturb=perturb)
    try:
        runner = workloads.WORKLOADS[workload](sizes, seed, checks, path)
        plain, traced, probe = workloads.run_episodes(runner, sizes, seconds, tracer)
    finally:
        if path.exists():
            path.unlink()
    return plain, traced, probe, checks


def layer_metrics(tracer, probe, outcome, untraced) -> dict:
    """Every per-layer metric of the traced episodes, as ``name → (value, unit)``.

    *untraced* holds the same episodes run without tracing, each just
    before its traced twin.
    """
    s = tracer.layer_s
    n = tracer.layer_calls
    ingest = probe.ingest
    submitted = ingest["events_submitted"]
    cache = probe.cache
    lookups = cache["hits"] + cache["misses"]
    attributed = tracer.attributed_s()
    wall = tracer.wall_s
    metrics = {
        "database.mutate_s": (s("database.mutate"), "s"),
        "database.mutations": (n("database.mutate"), "count"),
        "ingest.submit_s": (s("ingest.submit"), "s"),
        "ingest.flush_s": (s("ingest.flush"), "s"),
        "ingest.read_self_s": (s("ingest.read"), "s"),
        "ingest.flushes": (ingest["flushes"], "count"),
        "ingest.coalesce_ratio": (
            ingest["events_flushed"] / submitted if submitted else 0.0,
            "ratio",
        ),
        "ingest.max_pending": (probe.max_pending, "count"),
        "eqindex.build_s": (s("eqindex.build"), "s"),
        "witnesses.add_s": (s("witnesses.add"), "s"),
        "witnesses.add_calls": (n("witnesses.add"), "count"),
        "witnesses.discard_s": (s("witnesses.discard"), "s"),
        "witnesses.restore_s": (s("witnesses.restore"), "s"),
        "witnesses.capture_s": (s("witnesses.capture"), "s"),
        "columns.build_s": (s("columns.build"), "s"),
        "enumeration.cold_s": (s("enumeration.cold"), "s"),
        "enumeration.cold_calls": (n("enumeration.cold"), "count"),
        "enumeration.loop_cold_calls": (n("enumeration.cold", phase="loop"), "count"),
        "enumeration.delta_s": (s("enumeration.delta"), "s"),
        "enumeration.delta_calls": (n("enumeration.delta"), "count"),
        "enumeration.rows_scanned": (probe.enumeration["rows_scanned"], "count"),
        "enumeration.witnesses_emitted": (
            probe.enumeration["witnesses_emitted"],
            "count",
        ),
        "topology.apply_s": (s("topology.apply"), "s"),
        "topology.apply_calls": (n("topology.apply"), "count"),
        "topology.preview_s": (s("topology.preview"), "s"),
        "topology.preview_calls": (n("topology.preview"), "count"),
        "topology.capture_s": (s("topology.capture"), "s"),
        "topology.restore_s": (s("topology.restore"), "s"),
        "topology.components": (outcome.shape["components"], "count"),
        "topology.largest_component": (outcome.shape["largest_component"], "count"),
        "session.build_self_s": (s("session.build"), "s"),
        "session.flush_self_s": (s("session.flush"), "s"),
        "session.index_self_s": (s("session.index"), "s"),
        "session.measure_all_self_s": (s("session.measure_all"), "s"),
        "session.speculate_self_s": (s("session.speculate"), "s"),
        "session.snapshot_self_s": (s("session.snapshot"), "s"),
        "cache.hits": (cache["hits"], "count"),
        "cache.misses": (cache["misses"], "count"),
        "cache.evictions": (cache["evictions"], "count"),
        "cache.hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "measures.component_s": (s("measures.component"), "s"),
        "measures.cache_key_s": (s("measures.cache_key"), "s"),
        "solvers.lp_s": (s("solvers.lp"), "s"),
        "solvers.lp_calls": (n("solvers.lp"), "count"),
        "solvers.exact_s": (s("solvers.exact"), "s"),
        "solvers.exact_calls": (n("solvers.exact"), "count"),
        "snapshot.fingerprint_s": (s("snapshot.fingerprint"), "s"),
        "snapshot.dump_s": (s("snapshot.dump"), "s"),
        "snapshot.save_self_s": (s("snapshot.save"), "s"),
        "snapshot.load_s": (s("snapshot.load"), "s"),
        "snapshot.bytes": (outcome.snapshot_bytes, "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced.timed_s, "s"),
        "trace.overhead_s": (wall - untraced.timed_s, "s"),
        "trace.overhead_share": ((wall - untraced.timed_s) / untraced.timed_s, "ratio"),
        "trace.unattributed_s": (wall - attributed, "s"),
        "trace.attributed_share": (attributed / wall, "ratio"),
    }
    return metrics


def _write_spans(tracer, workload: str, seed: int) -> Path:
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    rows = [
        {"id": i, "parent": p, "root": r, "layer": layer, "start": a, "end": b}
        for i, p, r, layer, a, b in tracer.spans
    ]
    path.write_text(
        json.dumps({"spans": rows, "self_s_by_phase": tracer.by_phase}, indent=0)
    )
    return path


def _table(title: str, metrics: dict, aliases: dict | None = None) -> None:
    print(title, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if aliases and name in aliases else ""
        print(f"  {name:32s} {value:14.6g} {unit}{alias}", file=sys.stderr)


def main(argv=None, sizes=None) -> int:
    """One run; *sizes* overrides the full input sizes (the self-check)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads
    from hostspeed import REFERENCE_KERNEL_S
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}"
        )
    sizes = sizes or workloads.FULL
    tracer = Tracer() if args.trace else None
    try:
        plain, traced, probe, checks = _pass(
            args.workload, sizes, args.seed, args.seconds, tracer
        )
    except workloads.RunFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    metrics = plain.metrics()
    loop_names = dict(
        zip(
            ("ops_per_s", "op_p50_ms", "op_p90_ms"),
            workloads.LOOP_NAMES[args.workload],
        )
    )
    _table(
        f"{args.workload} seed={args.seed} end to end, at the reference host speed",
        metrics,
        loop_names,
    )
    _table("  as measured", plain.metrics(scaled=False))
    host = plain.host
    print(
        f"  host: reference kernel median {host.median_s() * 1e3:.3f} ms over "
        f"{len(host.samples)} samples ({host.spent_s:.2f} s); reference "
        f"{REFERENCE_KERNEL_S * 1e3:.3f} ms",
        file=sys.stderr,
    )
    print(
        f"  samples: {len(plain.setup_s)} setups, {len(plain.snapshot_s)} "
        f"restarts, {len(plain.op_s)} loop requests in {plain.episodes} "
        f"episodes; shape {plain.shape}",
        file=sys.stderr,
    )
    sampled = ("setup_s", "first_answer_s", "snapshot_s", "restore_answer_s", "op_s")
    for name in sampled:
        samples = " ".join(f"{value:.4g}" for value, _ in getattr(plain, name))
        print(f"  {name} samples: {samples}", file=sys.stderr)
    if tracer is not None:
        metrics = layer_metrics(tracer, probe, traced, plain)
        _table(f"{args.workload} seed={args.seed} per layer (traced)", metrics)
        share = metrics["trace.attributed_share"][0]
        verdict = "ok" if share >= 0.9 else "NOT reconciled"
        print(
            f"  reconciliation: layer self times cover {share:.1%} of the "
            f"traced wall time ({verdict}, bound 90%); spans in "
            f"{_write_spans(tracer, args.workload, args.seed)}",
            file=sys.stderr,
        )
        for phase, table in tracer.by_phase.items():
            top = sorted(table.items(), key=lambda item: -item[1])[:8]
            print(
                f"  phase {phase} self s: "
                + ", ".join(f"{layer} {seconds:.3f}" for layer, seconds in top),
                file=sys.stderr,
            )
    attempted, failed = checks.attempted, checks.failed
    for note in checks.notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print(
        f"  error_rate: {failed}/{attempted} = {failed / max(1, attempted):.3g}",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
