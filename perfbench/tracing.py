"""Layer-attributed tracing installed from the benchmark's own files.

The program under test carries no tracing of its own, so this module wraps
the entry points of each layer at the place their callers look them up
(``repro.repairs.minimum_repair.vertex_cover_lp``, ``WitnessStore.add`` on
the class, ...).  Every wrapper measures the call's wall time and charges
it to the caller's frame, so each layer's *self time* is its own time minus
the time of the wrapped layers it called.  Coarse calls are kept as spans
with a parent and a root (the benchmark phase that caused them); per-witness
and per-component calls only feed counters, which bounds the overhead.

Wrappers record only while a phase is open (:meth:`Tracer.phase`): the
benchmark's untimed work (input generation, output checks) stays out of the
breakdown.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_clock = time.perf_counter


def _targets():
    """``(layer, owner, attribute, aggregate)`` for every wrapped entry point.

    *owner* is the object the caller looks the name up on: a class for
    methods, a module for functions imported by name.  *aggregate* layers
    are called per witness, per event or per component: they feed counters
    only, never individual spans.
    """
    import repro.measures.base as measures_base
    import repro.measures.minimal_repair as minimal_repair
    import repro.repairs.minimum_repair as minimum_repair
    import repro.session as session_pkg
    import repro.session.session as session_mod
    import repro.session.sharding as sharding
    import repro.session.snapshot as snapshot
    from repro.relational.database import Database
    from repro.session.columnar import ColumnStore
    from repro.session.enumeration import BatchEnumerator, ProbeEnumerator
    from repro.session.ingest import IngestPipeline
    from repro.session.witnesses import EqualityColumnIndex, WitnessStore
    from repro.violations.topology import ComponentTopology

    flat = session_mod.MeasurementSession
    sharded = sharding.ShardedMeasurementSession
    targets = [
        *(
            ("database.mutate", Database, name, True)
            for name in ("insert", "delete", "update", "replace", "restore")
        ),
        ("ingest.submit", IngestPipeline, "submit", True),
        ("ingest.flush", IngestPipeline, "_drain", False),
        ("ingest.read", IngestPipeline, "read", False),
        ("eqindex.build", EqualityColumnIndex, "build", False),
        ("witnesses.add", WitnessStore, "add", True),
        ("witnesses.discard", WitnessStore, "discard", True),
        ("witnesses.restore", WitnessStore, "restore", False),
        ("witnesses.capture", WitnessStore, "capture", False),
        ("columns.build", ColumnStore, "build", False),
        ("enumeration.cold", ProbeEnumerator, "cold", False),
        ("enumeration.cold", BatchEnumerator, "cold", False),
        ("enumeration.delta", ProbeEnumerator, "delta", True),
        ("enumeration.delta", BatchEnumerator, "delta", True),
        ("topology.apply", ComponentTopology, "apply", False),
        ("topology.preview", ComponentTopology, "preview", True),
        ("topology.capture", ComponentTopology, "capture", False),
        ("topology.restore", ComponentTopology, "restore", False),
        ("session.build", session_pkg, "make_session", False),
        ("session.flush", flat, "_flush", False),
        (
            "measures.component",
            measures_base.ComponentValueCache,
            "component_value",
            True,
        ),
        ("measures.cache_key", measures_base, "component_cache_key", True),
        ("measures.cache_key", session_mod, "component_cache_key", True),
        ("solvers.lp", minimum_repair, "vertex_cover_lp", True),
        ("solvers.exact", minimum_repair, "minimum_hitting_set", True),
        ("solvers.exact", minimal_repair, "minimum_hitting_set", True),
        ("snapshot.fingerprint", session_mod, "database_fingerprint", False),
        ("snapshot.fingerprint", sharding, "database_fingerprint", False),
        ("snapshot.fingerprint", snapshot, "database_fingerprint", False),
        ("snapshot.dump", snapshot, "dump_snapshot", False),
        ("snapshot.save", session_pkg, "save_snapshot", False),
        ("snapshot.load", session_pkg, "load_snapshot", False),
    ]
    for cls in (flat, sharded):
        targets += [
            ("session.index", cls, "index", False),
            ("session.measure_all", cls, "measure_all", False),
            ("session.speculate", cls, "speculate_batch", False),
            ("session.snapshot", cls, "snapshot", False),
        ]
    try:
        from repro.session.vectorized import VectorColumnStore
    except ImportError:  # numpy absent: the list column store serves alone
        pass
    else:
        targets.append(("columns.build", VectorColumnStore, "build", False))
    return targets


class Tracer:
    """Spans and counters for the wrapped layers of one traced pass."""

    def __init__(self) -> None:
        #: ``(span id, parent id, root id, layer, start, end)`` per coarse call.
        self.spans: list[tuple] = []
        #: phase name → ``{layer: self seconds}`` (own time minus the time
        #: of wrapped children), by the phase each call ran under.
        self.by_phase: dict[str, dict[str, float]] = {}
        #: phase name → ``{layer: calls}``.
        self.calls_by_phase: dict[str, dict[str, int]] = {}
        #: Wall seconds of every phase (the traced wall time).
        self.wall_s = 0.0
        self._stack: list[list] = []  # [span id, child seconds]
        self._phase: str | None = None
        self._root = 0
        self._next_id = 1
        self._saved: list[tuple] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        for layer, owner, attribute, aggregate in _targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attribute]  # a classmethod stays one
            else:
                raw = getattr(owner, attribute)
            self._saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__, aggregate))
            else:
                wrapped = self._wrap(layer, raw, aggregate)
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Open a root span: wrapped calls inside it are recorded."""
        root = self._next_id
        self._next_id += 1
        frame = [root, 0.0]
        self._stack.append(frame)
        self._phase, self._root = name, root
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self._phase = None
            self.wall_s += end - start
            self.spans.append((root, None, root, "phase." + name, start, end))
            self._charge("bench." + name, end - start - frame[1], name)

    def _charge(self, layer: str, seconds: float, phase: str) -> None:
        per_phase = self.by_phase.setdefault(phase, {})
        per_phase[layer] = per_phase.get(layer, 0.0) + seconds
        counts = self.calls_by_phase.setdefault(phase, {})
        counts[layer] = counts.get(layer, 0) + 1

    def _wrap(self, layer: str, function, aggregate: bool):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            if tracer._phase is None:
                return function(*args, **kwargs)
            span = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0]
            frame = [span, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                elapsed = end - start
                stack[-1][1] += elapsed
                tracer._charge(layer, elapsed - frame[1], tracer._phase)
                if not aggregate:
                    tracer.spans.append(
                        (span, parent, tracer._root, layer, start, end)
                    )

        traced.__name__ = getattr(function, "__name__", layer)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def layer_s(self, layer: str) -> float:
        """Self seconds of *layer* over every phase."""
        return sum(table.get(layer, 0.0) for table in self.by_phase.values())

    def layer_calls(self, layer: str, phase: str | None = None) -> int:
        """Calls of *layer*, in *phase* or over every phase."""
        tables = self.calls_by_phase
        if phase is not None:
            return tables.get(phase, {}).get(layer, 0)
        return sum(table.get(layer, 0) for table in tables.values())

    def attributed_s(self) -> float:
        """Self time of the program's layers (everything but the phases)."""
        return sum(
            seconds
            for table in self.by_phase.values()
            for layer, seconds in table.items()
            if not layer.startswith("bench.")
        )
