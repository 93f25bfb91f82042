"""The benchmark's four workloads, driven through the program's public API.

Each workload builds its state in :meth:`setup` (timed as ``setup_s``),
turns the seed into an input stream (:meth:`stream`), runs that stream for
a fixed time (:meth:`measure`), and checks the outputs afterwards
(:meth:`check`).  The databases, scenarios and trained models come from
fixed seeds, so every run measures the same system; the ``--seed``
argument drives only what a user would send it: query order, query
constants, mutation batches, arrival times and join sampling seeds.

Why each workload exists, and which layers it loads or bypasses, is in
``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import multiprocessing
import os
import shutil
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

# Layer entry points are called through their modules (repro.datasets.…)
# so that the traced run's wrappers, installed on those modules, see them.
import repro.datasets
import repro.obs
import repro.query
from repro import ReStore, parse_query
from repro.core import (
    ARCompletionModel,
    IncompletenessJoin,
    ModelConfig,
    PathLayout,
    build_encoders,
)
from repro.datasets import HousingConfig, ScaleConfig
from repro.datasets.scale import fan_outs, scale_training_slice
from repro.experiments.common import ExperimentConfig, run_setup_cell
from repro.experiments.exp4_perf import joins_bitwise_identical
from repro.metrics import relative_error
from repro.nn import TrainConfig
from repro.relational import ColumnKind, CompletionPath
from repro.serving import FleetConfig, FleetRouter, ServiceConfig
from repro.workloads import ALL_SETUPS, base_database, queries_for

#: The Table 1 sweep cell every completion engine is fitted at.
KEEP_RATE = 0.5
REMOVAL_CORRELATION = 0.6
#: Seed of the databases, removals and model initialisation.
DATA_SEED = 0
#: The repository's default experiment settings (scale 0.5, 15 epochs,
#: 64x64 networks): engines train the way the paper experiments train them.
EXPERIMENT = ExperimentConfig(seed=DATA_SEED)
#: Relative tolerance when an answer must repeat exactly.
REPEAT_RTOL = 1e-9


def stream_rng(seed: int, workload: str) -> np.random.Generator:
    """The generator behind one workload's input stream."""
    return np.random.default_rng([seed, sum(map(ord, workload))])


class Phase:
    """Latencies and operation counts of one measured phase."""

    def __init__(self, recorder=None) -> None:
        #: latency (ms) of each completed operation, by kind
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.attempts: Counter = Counter()
        self.failed = 0
        self.failures: Counter = Counter()
        #: seconds the program spent on the operations: the closed loop's
        #: wall time, or the fleet worker's CPU time (open loop)
        self.busy_s = 0.0
        self.recorder = recorder

    def start(self, kind: str) -> None:
        """Count one attempted operation and tag the spans it causes."""
        self.attempted += 1
        self.attempts[kind] += 1
        if self.recorder is not None:
            self.recorder.op.set(self.attempted)

    def record(self, kind: str, latency_ms: float) -> None:
        self.samples[kind].append(latency_ms)

    def fail(self, kind: str, exc: BaseException) -> None:
        self.failed += 1
        self.failures[f"{kind}: {type(exc).__name__}: {exc}"[:200]] += 1

    def call(self, kind: str, fn: Callable, *args):
        """Run one operation, time it, and count it; failures return None."""
        self.start(kind)
        started = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the loop keeps running; failures are counted by type
            self.fail(kind, exc)
            return None
        self.record(kind, (time.perf_counter() - started) * 1000.0)
        return result


def _answers_match(a: Dict, b: Dict) -> bool:
    if set(a) != set(b):
        return False
    return all(
        abs(a[k] - b[k]) <= REPEAT_RTOL * max(abs(a[k]), abs(b[k]), 1e-300)
        or (np.isnan(a[k]) and np.isnan(b[k]))
        for k in a
    )


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    #: The sample kind whose latency is the workload's ``op_ms``.
    primary = "query"

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def setup(self, fork_guard=contextlib.nullcontext) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (processes, files)."""

    def stream(self, seed: int) -> Iterator:
        raise NotImplementedError

    def measure(self, seconds: float, stream: Iterator, phase: Phase) -> None:
        """Run ``stream`` until it ends or ``seconds`` have passed."""
        raise NotImplementedError

    def check(self, phase: Phase) -> List[str]:
        """Output problems found after the timed phase (empty = correct)."""
        raise NotImplementedError

    def report(self, phase: Phase) -> Dict[str, float]:
        """Workload-specific end-to-end figures beyond the common ones."""
        return {}

    def counters(self) -> Dict[str, float]:
        """Cumulative program counters (cache hits, spill bytes, …); the
        traced run reads them around its phase."""
        return {}

    def layer_extras(self, before: Dict, after: Dict, phase: Phase) -> Dict[str, float]:
        """Per-layer values only the workload can read, over one phase."""
        return {key: after.get(key, 0.0) - before.get(key, 0.0)
                for key in after}

    def peak_rss_bytes(self) -> int:
        return repro.obs.peak_rss_bytes()


def _engine_cache_counts(engine: ReStore) -> Dict[str, float]:
    join = engine.cache_stats
    partial = engine.partial_cache_stats
    return {
        "cache.join.hits": join.hits,
        "cache.join.misses": join.misses,
        "cache.partial.hits": partial.hits,
        "cache.partial.subset_hits": partial.subset_hits,
        "cache.partial.misses": partial.misses,
    }


def _closed_loop(seconds: float, phase: Phase, stream: Iterator,
                 step: Callable) -> None:
    started = time.perf_counter()
    deadline = started + seconds
    for item in stream:
        if time.perf_counter() >= deadline:
            break
        step(item)
    phase.busy_s = time.perf_counter() - started


# ----------------------------------------------------------------------
# cold-query: Table 1, every answer pays for a full incompleteness join
# ----------------------------------------------------------------------


class ColdQuery(Workload):
    name = "cold-query"

    def setup(self, fork_guard=contextlib.nullcontext) -> None:
        self.complete = {
            dataset: base_database(dataset, seed=DATA_SEED,
                                   scale=EXPERIMENT.scale)
            for dataset in ("housing", "movies")
        }
        engines = {
            name: run_setup_cell(setup, KEEP_RATE, REMOVAL_CORRELATION,
                                 EXPERIMENT, db=self.complete[setup.dataset])[0]
            for name, setup in ALL_SETUPS.items()
        }
        #: (name, dataset, engine, query) in Table 1 order
        self.queries = [
            (f"{dataset}/{name}", dataset, engines[setup_name], query)
            for dataset in ("housing", "movies")
            for name, (setup_name, query) in queries_for(dataset).items()
        ]
        self.answers: Dict[str, List[Dict]] = defaultdict(list)
        self.cache_totals: Counter = Counter()
        warmup = Phase()
        for index in range(len(self.queries)):
            self._answer(warmup, index)

    def teardown(self) -> None:
        self.queries = self.complete = None

    def stream(self, seed: int) -> Iterator[List[int]]:
        """Rounds of the 20 queries, each round in a seeded order.

        The loop stops only between rounds, so every query is answered
        equally often and movies Q7's failures are exactly 1 in 20.
        """
        rng = stream_rng(seed, self.name)
        while True:
            yield [int(i) for i in rng.permutation(len(self.queries))]

    def _answer(self, phase: Phase, index: int) -> None:
        name, _dataset, engine, query = self.queries[index]
        engine.clear_cache()
        answer = phase.call("query", engine.answer, query)
        self.cache_totals.update(_engine_cache_counts(engine))
        if answer is not None:
            self.answers[name].append(dict(answer.result.values))

    def measure(self, seconds, stream, phase) -> None:
        def round_(indices: List[int]) -> None:
            for index in indices:
                self._answer(phase, index)

        _closed_loop(seconds, phase, stream, round_)

    def counters(self) -> Dict[str, float]:
        return dict(self.cache_totals)

    def _errors(self) -> Dict[str, float]:
        errors = {}
        for name, dataset, _engine, query in self.queries:
            if self.answers.get(name):
                truth = repro.query.execute(self.complete[dataset], query)
                estimate = repro.query.QueryResult(self.answers[name][0])
                errors[name] = relative_error(estimate, truth)
        return errors

    def check(self, phase: Phase) -> List[str]:
        problems = []
        for name, answers in self.answers.items():
            if not all(_answers_match(answers[0], a) for a in answers[1:]):
                problems.append(f"{name}: answers differ across rounds")
        self.errors = self._errors()
        if not self.errors or not all(np.isfinite(list(self.errors.values()))):
            problems.append(f"relative errors are not finite: {self.errors}")
        return problems

    def report(self, phase: Phase) -> Dict[str, float]:
        return {"rel_error.mean": float(np.mean(list(self.errors.values())))}


# ----------------------------------------------------------------------
# warm-serve: open-loop SQL into a one-worker fleet, join cache warm
# ----------------------------------------------------------------------

#: Table 1 housing queries with their filter constants as placeholders.
HOUSING_TEMPLATES = (
    "SELECT SUM(price) FROM apartment WHERE room_type = '{room_type}';",
    "SELECT COUNT(*) FROM apartment WHERE room_type = '{room_type}' "
    "AND property_type = '{property_type}' GROUP BY property_type;",
    "SELECT COUNT(*) FROM apartment WHERE property_type = '{property_type}';",
    "SELECT COUNT(*) FROM landlord WHERE landlord_since >= {since};",
    "SELECT AVG(landlord_response_rate) FROM landlord "
    "WHERE landlord_response_time >= {response_time};",
    "SELECT AVG(price) FROM landlord NATURAL JOIN apartment "
    "WHERE room_type = '{room_type}' GROUP BY landlord_since;",
    "SELECT COUNT(*) FROM landlord NATURAL JOIN apartment "
    "WHERE accommodates >= {accommodates} GROUP BY landlord_since;",
    "SELECT COUNT(*) FROM landlord NATURAL JOIN apartment "
    "WHERE landlord_since >= {since} GROUP BY landlord_since;",
    "SELECT SUM(landlord_since) FROM landlord NATURAL JOIN apartment "
    "WHERE room_type = '{room_type}' AND landlord_response_time >= {response_time};",
    "SELECT AVG(landlord_response_rate) FROM landlord NATURAL JOIN apartment "
    "WHERE room_type = '{room_type}' AND landlord_response_time >= {response_time};",
)


def _children_cpu_s() -> float:
    """CPU seconds (user + system) this process's live children have used."""
    ticks = 0
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])      # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def _late_ms(phase: Phase, q: float) -> float:
    """How late the open-loop generator sent its requests."""
    return float(np.percentile(phase.samples.get("late") or [0.0], q))


class WarmServe(Workload):
    name = "warm-serve"
    #: Offered load of the open loop, requests per second.  At 100/s the
    #: worker is about a sixth busy; at 200/s queueing bursts make the
    #: tail swing by a tenth between runs.
    RATE_QPS = 100.0
    #: Latency samples the router and worker keep for their percentiles;
    #: below the requests of one phase, so stats describe the last phase.
    LATENCY_WINDOW = 1024
    #: Distinct SQL strings whose fleet answers are re-checked in process.
    CHECKED_SQL = 32
    #: A request unanswered this long counts as failed (timed out).
    TIMEOUT_S = 5.0

    def setup(self, fork_guard=contextlib.nullcontext) -> None:
        complete = base_database("housing", seed=DATA_SEED, scale=1.0)
        engine, _dataset = run_setup_cell(
            ALL_SETUPS["H1"], KEEP_RATE, REMOVAL_CORRELATION, EXPERIMENT,
            db=complete)
        self.artifact = os.path.join(self.workdir, "warm-serve-artifact")
        engine.save_artifact(self.artifact, overwrite=True)
        apartment = complete.table("apartment")
        landlord = complete.table("landlord")
        self.domains = {
            "room_type": sorted(set(apartment["room_type"].tolist())),
            "property_type": sorted(set(apartment["property_type"].tolist())),
            "since": sorted(set(int(v) for v in landlord["landlord_since"])),
            "response_time": sorted(
                set(int(v) for v in landlord["landlord_response_time"])),
            "accommodates": sorted(
                set(int(v) for v in apartment["accommodates"])),
        }
        # The worker is forked, and its peak RSS counts every page it
        # shares with this process; drop the training state first.
        del engine, _dataset, complete, apartment, landlord
        gc.collect()
        self.loop = asyncio.new_event_loop()
        fleet = FleetRouter(self.artifact, FleetConfig(
            n_workers=1,
            latency_window=self.LATENCY_WINDOW,
            worker=ServiceConfig(n_workers=1,
                                 latency_window=self.LATENCY_WINDOW),
        ))
        with fork_guard():
            self.fleet = self.loop.run_until_complete(fleet.start())
        #: the in-process reference the fleet's answers are checked against
        self.reference = ReStore.load(self.artifact)
        self.answers: Dict[str, Dict] = {}
        self.mismatched: List[str] = []
        # Warm-up: every template a few times, so each join signature the
        # timed stream can hit is already cached.
        self.loop.run_until_complete(self._serial(Phase(), self._warmup_sql()))

    def teardown(self) -> None:
        if getattr(self, "loop", None) is None:
            return
        self.loop.run_until_complete(self.fleet.close())
        self.loop.close()
        self.loop = self.fleet = self.reference = None
        shutil.rmtree(self.artifact, ignore_errors=True)

    def _sql(self, template: str, rng: np.random.Generator) -> str:
        values = {key: domain[int(rng.integers(len(domain)))]
                  for key, domain in self.domains.items()}
        return template.format(**values)

    def _warmup_sql(self) -> List[str]:
        rng = np.random.default_rng(DATA_SEED)
        return [self._sql(t, rng) for t in HOUSING_TEMPLATES for _ in range(3)]

    def stream(self, seed: int) -> Iterator:
        """(gap_s, sql): Poisson inter-arrival gaps, seeded template and
        constants."""
        rng = stream_rng(seed, self.name)
        while True:
            gap = float(rng.exponential(1.0 / self.RATE_QPS))
            template = HOUSING_TEMPLATES[int(rng.integers(len(HOUSING_TEMPLATES)))]
            yield gap, self._sql(template, rng)

    async def _serial(self, phase: Phase, sqls: List[str]) -> None:
        loop = asyncio.get_running_loop()
        for sql in sqls:
            await self._request(phase, sql, loop.time())

    async def _request(self, phase: Phase, sql: str, due: float) -> None:
        phase.start("query")
        loop = asyncio.get_running_loop()
        try:
            answer = await asyncio.wait_for(self.fleet.submit(sql), self.TIMEOUT_S)
        except Exception as exc:  # sheds, rejections, timeouts, worker errors
            phase.fail("query", exc)
            return
        phase.record("query", (loop.time() - due) * 1000.0)
        values = dict(answer.result.values)
        seen = self.answers.setdefault(sql, values)
        if not _answers_match(seen, values):
            self.mismatched.append(sql)

    async def _open_loop(self, seconds, stream, phase) -> None:
        loop = asyncio.get_running_loop()
        # An open loop's completions per wall second are its offered rate,
        # whatever the program's speed; its rate is taken over the fleet
        # worker's CPU time instead.
        cpu_before = _children_cpu_s()
        start = loop.time() + 0.01
        offset = 0.0
        tasks = []
        for gap, sql in stream:
            offset += gap
            if offset >= seconds:
                break
            due = start + offset
            # Yield to the event loop until the request is due instead of
            # sleeping: a process that gives up its core waits milliseconds
            # to get it back when the host is busy, and those delays (the
            # host's, not the program's) made the median swing by a
            # quarter between runs.
            while loop.time() < due:
                await asyncio.sleep(0)
            phase.record("late", (loop.time() - due) * 1000.0)
            tasks.append(loop.create_task(self._request(phase, sql, due)))
        await asyncio.gather(*tasks)
        phase.busy_s = _children_cpu_s() - cpu_before

    def measure(self, seconds, stream, phase) -> None:
        self.loop.run_until_complete(self._open_loop(seconds, stream, phase))

    def check(self, phase: Phase) -> List[str]:
        problems = [f"fleet gave different answers to one SQL string: {sql}"
                    for sql in self.mismatched[:3]]
        sqls = sorted(self.answers)
        rng = np.random.default_rng(len(sqls))
        picked = rng.choice(len(sqls), size=min(self.CHECKED_SQL, len(sqls)),
                            replace=False)
        for i in picked:
            sql = sqls[int(i)]
            local = dict(self.reference.answer(parse_query(sql)).result.values)
            if not _answers_match(local, self.answers[sql]):
                problems.append(f"fleet and in-process answers differ: {sql}")
        if not sqls:
            problems.append("no request was answered")
        return problems

    def _stats(self) -> Dict[str, float]:
        stats = self.loop.run_until_complete(self.fleet.stats())
        worker = stats.per_worker[0]
        return {
            "completed": worker.get("completed", 0),
            "batches": worker.get("batches", 0),
            "serve.joins_started": stats.joins_started,
            "serve.shed": stats.shed + stats.rejected,
            "cache.join.hits": worker["cache"].get("hits", 0),
            "cache.join.misses": worker["cache"].get("misses", 0),
            "cache.partial.hits": worker["partial_cache"].get("hits", 0),
            "cache.partial.subset_hits": worker["partial_cache"].get("subset_hits", 0),
            "cache.partial.misses": worker["partial_cache"].get("misses", 0),
            "serve.router_ms.p50": stats.p50_latency_ms,
            "serve.worker_ms.p50": worker.get("p50_latency_ms", 0.0),
            "serve.worker_ms.p95": worker.get("p95_latency_ms", 0.0),
        }

    def counters(self) -> Dict[str, float]:
        return self._stats()

    def layer_extras(self, before, after, phase) -> Dict[str, float]:
        extras = super().layer_extras(before, after, phase)
        for key in ("serve.router_ms.p50", "serve.worker_ms.p50",
                    "serve.worker_ms.p95"):
            extras[key] = after[key]       # window percentiles, not counters
        extras["serve.router_overhead_ms.p50"] = (
            after["serve.router_ms.p50"] - after["serve.worker_ms.p50"])
        batches = extras.pop("batches")
        extras["serve.batch_size.mean"] = (
            extras.pop("completed") / batches if batches else 0.0)
        extras["loadgen.late_ms.p99"] = _late_ms(phase, 99)
        return extras

    def report(self, phase: Phase) -> Dict[str, float]:
        return {
            "offered_qps": self.RATE_QPS,
            "loadgen.late_ms.p50": _late_ms(phase, 50),
            "loadgen.late_ms.p99": _late_ms(phase, 99),
        }

    def peak_rss_bytes(self) -> int:
        total = repro.obs.peak_rss_bytes()
        for child in multiprocessing.active_children():
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) * 1024
        return total


# ----------------------------------------------------------------------
# live-refresh: mutation batches and reads on one engine
# ----------------------------------------------------------------------


class LiveRefresh(Workload):
    name = "live-refresh"
    primary = "write"
    #: Share of root-table rows updated in place by every batch.
    UPDATE_FRACTION = 0.01
    #: Every this-many-th batch also inserts and deletes a child-table row.
    CHILD_CHANGE_EVERY = 4
    READS_PER_WRITE = 3

    def setup(self, fork_guard=contextlib.nullcontext) -> None:
        self.engine, _dataset = run_setup_cell(
            ALL_SETUPS["H1"], KEEP_RATE, REMOVAL_CORRELATION, EXPERIMENT,
            db=repro.datasets.generate_housing(HousingConfig()))
        model = self.engine.candidate_scores()["apartment"][0].model
        self.root, self.child = model.layout.path.tables[:2]
        self.reads = [query for _setup, query in queries_for("housing").values()]
        self.engine.recomplete()        # warm-up: fills the partial cache

    def _batch(self, rng: np.random.Generator, index: int) -> Dict:
        db = self.engine.db
        root = db.table(self.root)
        pk = root.primary_key
        column = next(c for c in root.column_names
                      if root.meta(c).kind == ColumnKind.CONTINUOUS)
        count = max(1, round(root.num_rows * self.UPDATE_FRACTION))
        rows = rng.choice(root.num_rows, size=count, replace=False)
        signs = rng.choice((-1.0, 1.0), size=count)
        batch = {"updates": {self.root: [
            {pk: int(root[pk][r]), column: float(root[column][r]) + s}
            for r, s in zip(rows, signs)
        ]}}
        if index % self.CHILD_CHANGE_EVERY == self.CHILD_CHANGE_EVERY - 1:
            child = db.table(self.child)
            cpk = child.primary_key
            donor = int(rng.integers(child.num_rows))
            row = {c: child[c][donor] for c in child.column_names}
            row[cpk] = int(child[cpk].max()) + 1
            batch["inserts"] = {self.child: [row]}
            batch["deletes"] = {self.child: [
                int(child[cpk][int(rng.integers(child.num_rows))])]}
        return batch

    def teardown(self) -> None:
        self.engine = None

    def stream(self, seed: int) -> Iterator:
        """(mutation batch, read indices); batches follow the live database."""
        rng = stream_rng(seed, self.name)
        for index in itertools.count():
            batch = self._batch(rng, index)
            reads = rng.integers(len(self.reads), size=self.READS_PER_WRITE)
            yield batch, [int(i) for i in reads]

    def _write(self, batch: Dict):
        delta = self.engine.apply_mutations(**batch)
        return self.engine.recomplete(delta)

    def _step(self, phase: Phase, item) -> None:
        batch, reads = item
        phase.call("write", self._write, batch)
        for index in reads:
            phase.call("query", self.engine.answer, self.reads[index])

    def measure(self, seconds, stream, phase) -> None:
        _closed_loop(seconds, phase, stream,
                     lambda item: self._step(phase, item))

    def counters(self) -> Dict[str, float]:
        return _engine_cache_counts(self.engine)

    def check(self, phase: Phase) -> List[str]:
        incremental = self.engine.recomplete()
        self.engine.clear_cache()
        from_scratch = self.engine.recomplete()
        if from_scratch.recompletion["chunks_walked"] != \
                from_scratch.recompletion["chunks_total"]:
            return ["the from-scratch completion reused cached chunks"]
        if not joins_bitwise_identical(incremental, from_scratch):
            return ["recompleted join differs from a from-scratch completion"]
        return []


# ----------------------------------------------------------------------
# scale-join: the out-of-core tier, spilled streaming joins
# ----------------------------------------------------------------------


class ScaleJoin(Workload):
    name = "scale-join"
    primary = "join"
    SCALE_FACTOR = 1.0
    CHUNK_SIZE = 8192
    SLICE_ROOTS = 2000

    def setup(self, fork_guard=contextlib.nullcontext) -> None:
        self.config = ScaleConfig(scale_factor=self.SCALE_FACTOR, seed=DATA_SEED)
        self.store_dir = os.path.join(self.workdir, "scale-store")
        shutil.rmtree(self.store_dir, ignore_errors=True)
        db, annotation = repro.datasets.generate_scale_incomplete(
            self.config, spill_dir=self.store_dir)
        path = CompletionPath(("site", "reading"))
        train_db, train_annotation = repro.datasets.generate_scale_incomplete(
            scale_training_slice(self.config, self.SLICE_ROOTS))
        model_config = ModelConfig(
            hidden=(24, 24),
            train=TrainConfig(epochs=6, batch_size=256, lr=1e-2, patience=3),
        )
        small = ARCompletionModel(
            PathLayout(train_db, train_annotation, path,
                       build_encoders(train_db, num_bins=8),
                       tf_cap=self.config.fan_out_cap),
            model_config,
        )
        small.fit()
        self.model = ARCompletionModel(
            PathLayout(db, annotation, path, build_encoders(db, num_bins=8),
                       tf_cap=self.config.fan_out_cap),
            model_config,
        )
        self.model.load_state_dict(small.state_dict())
        self.model.mark_fitted_from_artifact()
        self.true_count = int(fan_outs(self.config, 0, self.config.num_roots).sum())
        self.results: List[tuple] = []       # (seed, rows, weighted count)
        self.spill_bytes = 0

    def teardown(self) -> None:
        self.model = None
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def stream(self, seed: int) -> Iterator[int]:
        """Sampling seeds of the repeated joins."""
        rng = stream_rng(seed, self.name)
        while True:
            yield int(rng.integers(2 ** 31))

    def _join(self, seed: int, spill_dir: Optional[str]):
        completed = IncompletenessJoin(
            self.model, seed=seed, chunk_size=self.CHUNK_SIZE,
            spill_dir=spill_dir,
        ).run()
        return completed.num_rows, float(completed.result.effective_weights().sum())

    def _step(self, phase: Phase, seed: int) -> None:
        spill_dir = os.path.join(self.workdir, f"scale-join-{len(self.results)}")
        result = phase.call("join", self._join, seed, spill_dir)
        for dirpath, _dirs, files in os.walk(spill_dir):
            self.spill_bytes += sum(
                os.path.getsize(os.path.join(dirpath, f)) for f in files)
        shutil.rmtree(spill_dir, ignore_errors=True)
        if result is not None:
            self.results.append((seed, *result))

    def measure(self, seconds, stream, phase) -> None:
        _closed_loop(seconds, phase, stream,
                     lambda seed: self._step(phase, seed))

    def counters(self) -> Dict[str, float]:
        return {"join.spill_bytes": self.spill_bytes}

    def check(self, phase: Phase) -> List[str]:
        if not self.results:
            return ["no join completed"]
        seed, rows, count = self.results[0]
        in_ram_rows, in_ram_count = self._join(seed, None)
        if (rows != in_ram_rows
                or abs(count - in_ram_count) > REPEAT_RTOL * abs(in_ram_count)):
            return [f"spilled join ({rows} rows, COUNT {count}) differs from "
                    f"the in-RAM join ({in_ram_rows} rows, COUNT {in_ram_count})"]
        return []

    def report(self, phase: Phase) -> Dict[str, float]:
        rows = sum(r for _seed, r, _count in self.results)
        busy_s = sum(phase.samples["join"]) / 1000.0
        errors = [abs(c - self.true_count) / self.true_count
                  for _seed, _rows, c in self.results]
        return {
            "rows_per_s": rows / busy_s if busy_s else 0.0,
            "rel_error.mean": float(np.mean(errors)) if errors else float("nan"),
        }


WORKLOADS = {w.name: w for w in (ColdQuery, WarmServe, LiveRefresh, ScaleJoin)}
