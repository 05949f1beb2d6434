"""The benchmark's three workloads: one per use the paper names for a measure.

* ``cold_restart_tax`` — reliability estimation and restart.  Tax under
  RNoise forms one hub component, where localization cannot help: a cold
  build, the first ``measure_all``, a snapshot to disk and a warm restore.
* ``ingest_stream_3rel`` — progress indication while cleaning.  Tax, Food
  and Airport in one database, sharded by relation, under a seeded stream
  of typo updates, inserts and deletes with a draining read every few
  events.
* ``prioritize_food`` — action prioritization.  Food in its scattered
  range; every round scores single-fact deletions with ``speculate_batch``
  and commits the one with the lowest ``I_R``.

A run repeats *episodes* for its seconds.  Every episode starts from the
generated database and goes through the same timed regions: ``setup`` (cold
``make_session`` until the index and then the first answer are ready),
``restart`` (snapshot to disk, then a warm ``make_session`` and an answer)
and ``loop`` (the workload's own requests, on one more cold-built session).
So every end-to-end metric has a sample in every episode of every workload,
samples are spread over the whole run, and an episode measures the same
work however far the run got — a prioritization loop that ran on would
otherwise clean its database into a cheaper one.  Restarts run on the
episode's starting state, before the loop: what they snapshot then does not
depend on the seed's events or picks.  On ``cold_restart_tax`` the episode
has no loop requests of its own: its request is the whole episode.

Inputs are generated from the seed before the first timer starts — except
the deletion candidates, which depend on the state a round starts from and
are drawn between timed regions.  The program only sees the generated
databases and operations.  Output checks run outside the timed regions and
feed the failed-operation count.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import repro.session as api
from repro.datasets import generate_sample
from repro.measures import make_measure
from repro.noise import RNoise
from repro.noise.typos import make_typo
from repro.relational import Database, Schema
from repro.repairs.operations import DeleteOperation
from repro.session import database_fingerprint
from repro.violations import build_violation_index

from hostspeed import HostSpeed

_clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload (the full run and the self-check toy)."""

    tax_facts: int
    stream_facts_per_relation: int
    food_facts: int
    #: Facts whose cells take most typo updates in the stream.
    stream_hot_facts: int
    #: Events submitted per stream episode.
    stream_events: int
    #: One draining read per this many submitted events.
    read_every: int
    #: Prioritization rounds per episode.
    rounds: int
    #: Deletion candidates scored per round, one from each of this many
    #: largest conflict components.
    candidates: int
    #: Cold setups and warm restarts per stream or prioritization episode.
    repeats: int
    #: At least this many episodes per run, whatever the seconds.
    min_episodes: int
    #: ``(lowest, highest)`` share of the problematic facts the largest
    #: component may hold, on the hub workload and on the scattered ones.
    #: A seed that moves a workload out of its regime fails the run
    #: instead of silently measuring something else.
    hub: tuple = (0.9, 1.0)
    scattered: tuple = (0.0, 0.6)


FULL = Sizes(
    tax_facts=3000,
    stream_facts_per_relation=1500,
    food_facts=3000,
    stream_hot_facts=30,
    stream_events=500,
    read_every=20,
    rounds=20,
    candidates=8,
    repeats=2,
    min_episodes=3,
)

TOY = Sizes(
    tax_facts=400,
    stream_facts_per_relation=150,
    food_facts=300,
    stream_hot_facts=6,
    stream_events=40,
    read_every=5,
    rounds=3,
    candidates=4,
    repeats=1,
    min_episodes=2,
    # Tax forms its hub only from about two thousand facts on.
    hub=(0.0, 1.0),
)

#: The seed every dataset sample is generated with, and the noise seeds of
#: the three databases.  The run's ``--seed`` varies what differs between
#: two uses of one dataset — the order its facts arrive in (Tax), the event
#: stream, the deletion candidates — while the data stay put: under RNoise
#: the witness count and the component sizes, and with them every solve,
#: swing by up to several times from one noise seed to the next, so two
#: seeds would measure two different workloads.  The noise seeds give the
#: regimes the workloads are about (Tax: one component holding 99 % of the
#: problematic facts; Food: 53 components, the largest 272 facts; three
#: relations: 70 components, none above a tenth of the problematic facts).
DATASET_SEED = 0
TAX_NOISE_SEED = 1
FOOD_NOISE_SEED = 8
STREAM_NOISE_SEED = 0


class RunFailed(RuntimeError):
    """The generated input is not the workload it should be."""


# ----------------------------------------------------------------------
# Checks, probes and what a pass measured
# ----------------------------------------------------------------------
@dataclass
class Checks:
    """Attempted and failed operations; *perturb* names a check to trip.

    The self-check sets *perturb* to one check's name: that check then sees
    a deliberately wrong value and must count a failure.
    """

    perturb: str | None = None
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def expect(self, name: str, expected, actual) -> bool:
        if name == self.perturb:
            actual = _perturbed(actual)
        if expected == actual:
            return True
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(f"{name}: expected {expected!r}, got {actual!r}")
        return False

    def error(self, where: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(f"{where}: {traceback.format_exc()}")


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: value[first] + 1.0}
    return (value, "perturbed")


class Probe:
    """Hooks the tracer into a workload; inert when the run is untraced."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.cache = {"hits": 0, "misses": 0, "evictions": 0}
        self.enumeration = {"rows_scanned": 0, "witnesses_emitted": 0}
        self.ingest = {"events_submitted": 0, "events_flushed": 0, "flushes": 0}
        self.max_pending = 0

    def phase(self, name: str):
        return self.tracer.phase(name) if self.tracer else nullcontext()

    def session_done(self, session) -> None:
        """Absorb a timed session's public counters before it is dropped."""
        if self.tracer is None:
            return
        cache = session.component_cache
        self.cache["hits"] += cache.hits
        self.cache["misses"] += cache.misses
        self.cache["evictions"] += cache.evictions
        for row in session.stats()["constraints"]:
            for key in self.enumeration:
                self.enumeration[key] += row[key]

    def pipeline_done(self, pipe) -> None:
        counters = pipe.counters()
        for key in self.ingest:
            self.ingest[key] += counters[key]
        self.max_pending = max(self.max_pending, counters["max_pending"])


@dataclass
class Outcome:
    """What one pass of a workload measured.

    Every sample is ``(seconds, when)``: its wall seconds and the clock
    reading at its middle, where the host's speed is looked up.
    """

    setup_s: list = field(default_factory=list)
    first_answer_s: list = field(default_factory=list)
    snapshot_s: list = field(default_factory=list)
    restore_answer_s: list = field(default_factory=list)
    #: Latency of each loop request (episode, read or scoring round).
    op_s: list = field(default_factory=list)
    #: Loop units (episodes, submitted events or scored candidates) over
    #: the whole run, and the stretches of loop time that did them.
    loop_units: int = 0
    loop_s: list = field(default_factory=list)
    episodes: int = 0
    peak_rss_mb: float = 0.0
    snapshot_bytes: int = 0
    shape: dict = field(default_factory=dict)
    #: Wall seconds of every timed region together.
    timed_s: float = 0.0
    #: The reference kernel timed between the regions (untraced passes
    #: only); ``None`` reports measured seconds as they are.
    host: HostSpeed | None = None

    def pace(self) -> None:
        """Between two timed regions: keep the host-speed samples in step."""
        if self.host is not None:
            self.host.keep_up(self.timed_s)

    def add(self, name: str, start: float, end: float, seconds=None) -> None:
        """A sample of *name* timed from *start* to *end*.

        *seconds* defaults to the whole interval; a sample whose interval
        holds untimed work passes its timed seconds.
        """
        if seconds is None:
            seconds = end - start
        getattr(self, name).append((seconds, (start + end) / 2))

    def metrics(self, scaled: bool = True) -> dict:
        """Every end-to-end metric, in seconds at the reference host speed.

        With *scaled* false, or without host samples, in measured seconds.
        """
        if scaled and self.host is not None:
            factor_at = self.host.factor_at
        else:
            def factor_at(when):
                return 1.0

        def seconds(name: str) -> list:
            return [s * factor_at(when) for s, when in getattr(self, name)]

        ops = seconds("op_s")
        return {
            "setup_s": (statistics.median(seconds("setup_s")), "s"),
            "first_answer_s": (statistics.median(seconds("first_answer_s")), "s"),
            "snapshot_s": (statistics.median(seconds("snapshot_s")), "s"),
            "restore_answer_s": (statistics.median(seconds("restore_answer_s")), "s"),
            "ops_per_s": (self.loop_units / sum(seconds("loop_s")), "1/s"),
            "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
            "op_p90_ms": (_p90(ops) * 1e3, "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def _p90(values: list) -> float:
    """The 90th percentile, interpolated between the two nearest samples.

    Steadier than the nearest rank where a run holds few samples.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def record_shape(database: Database, index, regime: tuple, workload: str) -> dict:
    """Facts, witnesses, components and the largest component's share.

    Raises :class:`RunFailed` when the share leaves the workload's regime.
    """
    sizes = [len(component.problematic) for component in index.components()]
    problematic = max(1, len(index.problematic))
    shape = {
        "facts": len(database),
        "witnesses": len(index.mi_sets),
        "components": len(sizes),
        "largest_component": max(sizes, default=0),
        "largest_share": round(max(sizes, default=0) / problematic, 4),
    }
    low, high = regime
    if not low <= shape["largest_share"] <= high:
        raise RunFailed(
            f"{workload}: largest component holds {shape['largest_share']:.1%} "
            f"of the problematic facts, outside {low:.0%}..{high:.0%} — "
            "this seed does not give the workload's regime"
        )
    return shape


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------
def _noisy(name: str, facts: int, noise_seed: int, typo_probability: float):
    """A dataset sample dirtied by RNoise (α = 0.01)."""
    database, constraints = generate_sample(name, facts, seed=DATASET_SEED)
    RNoise(
        constraints, alpha=0.01, typo_probability=typo_probability, seed=noise_seed
    ).run(database)
    return database, constraints


def tax_inputs(sizes: Sizes, seed: int):
    """Tax under RNoise (typo probability 0.5), its facts shuffled by *seed*."""
    noisy, constraints = _noisy("Tax", sizes.tax_facts, TAX_NOISE_SEED, 0.5)
    facts = noisy.facts()
    random.Random(seed).shuffle(facts)
    return Database.from_facts(noisy.schema, facts), constraints


def food_inputs(sizes: Sizes):
    """Food under pure-typo RNoise."""
    return _noisy("Food", sizes.food_facts, FOOD_NOISE_SEED, 1.0)


def three_relation_inputs(sizes: Sizes):
    """Tax, Food and Airport in one database, under pure-typo RNoise."""
    parts = [
        generate_sample(name, sizes.stream_facts_per_relation, seed=DATASET_SEED)
        for name in ("Tax", "Food", "Airport")
    ]
    schema = Schema.from_dict(
        {
            signature.name: signature.attributes
            for database, _ in parts
            for signature in database.schema
        }
    )
    database = Database.from_facts(
        schema, [fact for part, _ in parts for fact in part.facts()]
    )
    constraints = [c for _, part_constraints in parts for c in part_constraints]
    RNoise(
        constraints, alpha=0.01, typo_probability=1.0, seed=STREAM_NOISE_SEED
    ).run(database)
    return database, constraints


def event_stream(database: Database, constraints, sizes: Sizes, rng) -> list[tuple]:
    """≈70 % typo updates (mostly on a hot set), ≈15 % inserts, ≈15 % deletes.

    Operations are concretized against a scratch copy, so every identifier
    they name is live when its turn comes, exactly as for a real producer.
    The hot set belongs to the database (drawn with its noise seed), so the
    share of reads that re-split a large component does not swing with
    *rng*; a read window of ``read_every`` events revisits hot facts, which
    gives coalescing repeats to merge.
    """
    scratch = database.copy()
    constrained: dict[str, list[str]] = {}
    for constraint in constraints:
        for relation, attribute in sorted(constraint.attributes_involved()):
            names = constrained.setdefault(relation, [])
            if attribute not in names:
                names.append(attribute)
    live = sorted(scratch.ids())
    hot = random.Random(STREAM_NOISE_SEED).sample(live, sizes.stream_hot_facts)
    hot_set = set(hot)
    position = {identifier: i for i, identifier in enumerate(live)}

    stream: list[tuple] = []
    while len(stream) < sizes.stream_events:
        roll = rng.random()
        if roll < 0.70:
            identifier = rng.choice(hot if rng.random() < 0.8 else live)
            attribute = rng.choice(constrained[scratch[identifier].relation])
            value = make_typo(scratch.get_cell(identifier, attribute), rng)
            scratch.update(identifier, attribute, value)
            stream.append(("update", identifier, attribute, value))
        elif roll < 0.85:
            template = scratch[rng.choice(live)]
            identifier = scratch.insert(template)
            position[identifier] = len(live)
            live.append(identifier)
            stream.append(("insert", template))
        else:
            identifier = rng.choice(live)
            if identifier in hot_set:
                continue
            scratch.delete(identifier)
            last = live.pop()
            if last != identifier:
                live[position[identifier]] = last
                position[last] = position[identifier]
            del position[identifier]
            stream.append(("delete", identifier))
    return stream


def _measures(*names: str) -> list:
    return [make_measure(name) for name in names]


# ----------------------------------------------------------------------
# Running episodes
# ----------------------------------------------------------------------
def run_episodes(workload, sizes: Sizes, seconds: float, tracer=None):
    """Run *workload*'s episodes for *seconds*; returns the outcomes.

    Untraced, that is ``(plain, None)``.  With a *tracer* every episode runs
    twice in a row, untraced and then traced, on the same inputs: the pair
    sees the same machine, so the difference of their timed seconds is the
    tracing overhead, not a drift between two passes.

    The generated inputs live for the whole run, as a user's data would:
    they are frozen out of the collector's scans, so a collection inside a
    timed region costs what the program's own objects cost.
    """
    plain = Outcome(host=HostSpeed())
    traced = Outcome() if tracer is not None else None
    probes = [(plain, Probe())]
    if tracer is not None:
        probes.append((traced, Probe(tracer)))
    gc.collect()
    gc.freeze()
    try:
        start = _clock()
        number = 0
        while number < sizes.min_episodes or _clock() - start < seconds:
            for out, probe in probes:
                if probe.tracer is not None:
                    probe.tracer.install()
                try:
                    workload.episode(number, out, probe)
                finally:
                    if probe.tracer is not None:
                        probe.tracer.uninstall()
                out.episodes += 1
            number += 1
    finally:
        gc.unfreeze()
    for out, probe in probes:
        out.peak_rss_mb = peak_rss_mb()
        workload.finish(out)
    return plain, traced, probes[-1][1] if tracer is not None else None


def _settle(out: Outcome) -> None:
    """Start a timed region with the collector's counters at zero.

    Where in a region the automatic collections fall then depends on the
    region's own allocations, not on what an earlier region left behind.
    The host-speed kernel runs first, so the collection comes last.
    """
    out.pace()
    gc.collect()


def _setup(out, probe, repeats, constraints, database, measures, **kwargs):
    """Cold-build *repeats* sessions, timing the index and the first answer.

    Returns the last session, kept live, and its answer.
    """
    session = None
    for _ in range(repeats):
        if session is not None:
            probe.session_done(session)
            session.close()
        _settle(out)
        with probe.phase("setup"):
            start = _clock()
            session = api.make_session(constraints, database, **kwargs)
            session.index()
            ready = _clock()
            answer = session.measure_all(measures)
            done = _clock()
        out.add("setup_s", start, ready)
        out.add("first_answer_s", start, done)
        out.timed_s += done - start
    return session, answer


def _restart(
    out, probe, checks, repeats, session, expected, constraints, database,
    measures, path, **kwargs,
):
    """Snapshot *session* to disk, restore it warm and answer, *repeats* times.

    *expected* is the live session's last answer, which every warm one must
    repeat bit for bit.  Closes *session*.
    """
    for _ in range(repeats):
        checks.attempted += 2
        _settle(out)
        with probe.phase("restart"):
            start = _clock()
            api.save_snapshot(session.snapshot(), path)
            saved = _clock()
            warm = api.make_session(
                constraints, database, warm_start=api.load_snapshot(path), **kwargs
            )
            values = warm.measure_all(measures)
            done = _clock()
        out.add("snapshot_s", start, saved)
        out.add("restore_answer_s", saved, done)
        out.timed_s += done - start
        out.snapshot_bytes = os.path.getsize(path)
        checks.expect("restart.warm_started", True, warm.warm_started)
        checks.expect("restart.warm_answer", expected, values)
        probe.session_done(warm)
        warm.close()
    probe.session_done(session)
    session.close()


def _restarted_setup(
    out, probe, checks, repeats, constraints, database, measures, path, **kwargs
):
    """Cold builds and restarts on *database* as it is, then one more build.

    Returns that last session, kept live for the loop, and its answer.
    """
    session, answer = _setup(
        out, probe, repeats, constraints, database, measures, **kwargs
    )
    _restart(
        out, probe, checks, repeats, session, answer, constraints, database,
        measures, path, **kwargs,
    )
    return _setup(out, probe, 1, constraints, database, measures, **kwargs)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class ColdRestartTax:
    """Episode: cold build, first answer, snapshot, warm restore, answer."""

    MEASURES = ("I_d", "I_MI", "I_P", "I_lin_R")

    def __init__(self, sizes: Sizes, seed: int, checks: Checks, path) -> None:
        self.sizes, self.checks, self.path = sizes, checks, path
        self.database, self.constraints = tax_inputs(sizes, seed)
        self.measures = _measures(*self.MEASURES)
        self.answers: list[dict] = []

    def episode(self, number: int, out: Outcome, probe: Probe) -> None:
        self.checks.attempted += 1
        timed_before = out.timed_s
        began = _clock()
        session, cold = _setup(
            out, probe, 1, self.constraints, self.database, self.measures
        )
        self.answers.append(cold)
        _restart(
            out, probe, self.checks, 1, session, cold, self.constraints,
            self.database, self.measures, self.path,
        )
        cycle_s = out.timed_s - timed_before
        end = _clock()
        out.add("op_s", began, end, cycle_s)
        out.add("loop_s", began, end, cycle_s)
        out.loop_units += 1

    def finish(self, out: Outcome) -> None:
        """Every cold answer against stateless measures over a fresh index."""
        if self.answers:
            index = build_violation_index(self.constraints, self.database)
            oracle = {
                measure.name: measure.value(self.constraints, self.database, index)
                for measure in _measures(*self.MEASURES)
            }
            for cold in self.answers:
                self.checks.expect("cold.oracle", oracle, cold)
            self.answers = []
            self.shape = record_shape(
                self.database, index, self.sizes.hub, "cold_restart_tax"
            )
        out.shape = self.shape


class IngestStream3Rel:
    """Episode: cold builds, restarts, a drained event stream with reads."""

    MEASURES = ("I_MI", "I_P", "I_lin_R")

    def __init__(self, sizes: Sizes, seed: int, checks: Checks, path) -> None:
        self.sizes, self.checks, self.path = sizes, checks, path
        self.base, self.constraints = three_relation_inputs(sizes)
        rng = random.Random(seed)
        # A pool of distinct streams, each replayed from the base database;
        # runs longer than the pool reuse it in order.
        self.streams = [
            event_stream(self.base, self.constraints, sizes, rng) for _ in range(8)
        ]
        self.measures = _measures(*self.MEASURES)

    def episode(self, number: int, out: Outcome, probe: Probe) -> None:
        sizes, checks = self.sizes, self.checks
        stream = self.streams[number % len(self.streams)]
        database = self.base.copy()
        session, _ = _restarted_setup(
            out, probe, checks, sizes.repeats, self.constraints, database,
            self.measures, self.path, shards="auto",
        )
        if not out.shape:
            out.shape = record_shape(
                database, session.index(), sizes.scattered, "ingest_stream_3rel"
            )
        live = None
        _settle(out)
        # Timed in windows of the events up to a read and the read; the
        # host-speed kernel runs between windows, while nothing is pending.
        with probe.phase("loop"):
            start = _clock()
            pipe = session.ingest()
            for submitted, operation in enumerate(stream, start=1):
                checks.attempted += 1
                try:
                    pipe.submit(*operation)
                except Exception:
                    checks.error(f"submit {operation[0]}")
                if submitted % sizes.read_every and submitted < len(stream):
                    continue
                checks.attempted += 1
                began = _clock()
                try:
                    live = pipe.read(self.measures, max_staleness_events=0).values
                except Exception:
                    checks.error("read")
                end = _clock()
                out.add("op_s", began, end)
                if submitted == len(stream):
                    pipe.close()
                    end = _clock()
                out.add("loop_s", start, end)
                out.timed_s += end - start
                out.pace()
                start = _clock()
        out.loop_units += len(stream)
        probe.pipeline_done(pipe)
        probe.session_done(session)
        session.close()

        # Outside the timed regions: the last read, which drained the whole
        # stream, against a fresh build and against a plain replay.
        fresh = api.make_session(self.constraints, database, shards="auto")
        checks.expect(
            "stream.final_measures",
            fresh.measure_all(_measures(*self.MEASURES)),
            live,
        )
        fresh.close()
        replayed = self.base.copy()
        for kind, *args in stream:
            getattr(replayed, kind)(*args)
        checks.expect(
            "stream.fingerprint",
            database_fingerprint(replayed),
            database_fingerprint(database),
        )

    def finish(self, out: Outcome) -> None:
        pass


class PrioritizeFood:
    """Episode: cold builds, restarts, rounds of score-commit-measure."""

    MEASURES = ("I_MI", "I_P", "I_lin_R", "I_R")

    def __init__(self, sizes: Sizes, seed: int, checks: Checks, path) -> None:
        self.sizes, self.checks, self.path = sizes, checks, path
        self.seed = seed
        self.base, self.constraints = food_inputs(sizes)
        self.measures = _measures(*self.MEASURES)

    def episode(self, number: int, out: Outcome, probe: Probe) -> None:
        sizes, checks = self.sizes, self.checks
        rng = random.Random(f"{self.seed}/{number}")
        database = self.base.copy()
        session, after = _restarted_setup(
            out, probe, checks, sizes.repeats, self.constraints, database,
            self.measures, self.path,
        )
        if not out.shape:
            out.shape = record_shape(
                database, session.index(), sizes.scattered, "prioritize_food"
            )
        for _ in range(sizes.rounds):
            # One seeded fact from each of the largest components: a round's
            # solver work then does not hinge on how many draws land in the
            # largest component.
            components = sorted(
                (sorted(c.problematic) for c in session.index().components()),
                key=lambda facts: (-len(facts), facts[0]),
            )[: sizes.candidates]
            picks = sorted(rng.choice(facts) for facts in components)
            candidates = [[DeleteOperation(identifier)] for identifier in picks]
            checks.attempted += len(candidates) + 1
            out.pace()
            with probe.phase("loop"):
                began = _clock()
                values = session.speculate_batch(candidates, self.measures)
                scored = _clock()
                best = min(
                    range(len(picks)), key=lambda i: (values[i]["I_R"], picks[i])
                )
                session.apply(candidates[best])
                after = session.measure_all(self.measures)
                done = _clock()
            out.add("op_s", began, scored)
            out.add("loop_s", began, done)
            out.timed_s += done - began
            out.loop_units += len(candidates)
            checks.expect("prioritize.commit", values[best], after)
        probe.session_done(session)
        session.close()

    def finish(self, out: Outcome) -> None:
        pass


WORKLOADS = {
    "cold_restart_tax": ColdRestartTax,
    "ingest_stream_3rel": IngestStream3Rel,
    "prioritize_food": PrioritizeFood,
}

#: What the loop metrics are called on each workload, for the tables on
#: standard error: the loop request and its unit differ per workload.
LOOP_NAMES = {
    "cold_restart_tax": ("cycles_per_s", "cycle_p50_ms", "cycle_p90_ms"),
    "ingest_stream_3rel": ("events_per_s", "read_p50_ms", "read_p90_ms"),
    "prioritize_food": ("candidates_per_s", "round_p50_ms", "round_p90_ms"),
}

#: The check names each workload owns (the self-check trips every one).
CHECKS = {
    "cold_restart_tax": (
        "restart.warm_started",
        "restart.warm_answer",
        "cold.oracle",
    ),
    "ingest_stream_3rel": (
        "stream.final_measures",
        "stream.fingerprint",
        "restart.warm_started",
        "restart.warm_answer",
    ),
    "prioritize_food": (
        "prioritize.commit",
        "restart.warm_started",
        "restart.warm_answer",
    ),
}
