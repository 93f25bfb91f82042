"""The ReStore engine: annotate → train completion models → answer queries.

This is the public facade tying together everything the paper describes:

1. **fit** — enumerate admissible completion paths per incomplete table
   (§3.2/§4), merge them (§3.4), and train AR and SSAR candidates (§3).
2. **answer** — for a query touching incomplete tables, select a model
   (§5), run the incompleteness join (§4, Algorithm 1), project/extend it to
   the query's join path, and evaluate filters/aggregates with the normal
   operators.  Completed joins are cached and reused across queries (§4.5).
3. **confidence** — per-answer §6 confidence bands for supported aggregates.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, QueryValidationError
from ..incomplete import IncompleteDataset
from ..obs import trace
from ..runtime import CacheStats, PartialCacheStats, PartialJoinCache
from ..runtime.parallel import PARALLEL_BACKENDS, get_executor
from ..runtime.rng import chunk_slices
from ..query import (
    JoinResult,
    Query,
    QueryResult,
    execute,
    execute_on_join,
    resolve_query_columns,
)
from ..query.pushdown import PushdownPlan, plan_pushdown
from ..relational import (
    CompletionPath,
    Database,
    SchemaAnnotation,
    enumerate_completion_paths,
    fan_out_relations,
)
from .confidence import ConfidenceBand, ConfidenceEstimator, band_for_query
from .forest import EvidenceForest
from .incompleteness_join import (
    CompletedJoin,
    IncompletenessJoin,
    restrict_chunk_output,
    splice_chunk_outputs,
)
from .progressive import Refinement, SamplingBudget
from .merging import training_savings
from .models import ARCompletionModel, ModelConfig, SSARCompletionModel, _CompletionModelBase
from .path_data import PathLayout, build_encoders
from .selection import (
    CandidateScore,
    SuspectedBias,
    apply_suspected_bias,
    basic_filter,
    score_candidates,
)


#: Chunks in the canonical grid when ``chunk_size`` is None: enough for
#: budgeted runs to stream over.  Root-row updates need no finer grid: they
#: mark single root rows stale, and only those rows are re-walked and
#: spliced into their chunks, however large the chunks are.
GRID_CHUNKS = 16
#: Capacity, in entries, of the engine's completion cache: chunk outputs
#: plus one memoized full join per cached join signature.
PARTIAL_CACHE_CHUNKS = 256


@dataclass
class ReStoreConfig:
    """Engine-level configuration.

    ``chunk_size`` bounds one walk pass of the incompleteness join to that
    many root evidence rows (peak memory); ``None`` walks every chunk a
    worker is given in one pass.  It also sets the canonical chunk grid —
    chunks of ``chunk_size`` roots, else about :data:`GRID_CHUNKS` chunks
    — which is bookkeeping: the completion cache works per chunk, and a
    root-row update re-walks only its rows of a cached chunk.  That one
    cache also memoizes each
    model's full completed join, within its :data:`PARTIAL_CACHE_CHUNKS`
    bound.

    ``n_workers`` / ``parallel_backend`` fan work out over an executor
    (:mod:`repro.runtime.parallel`): the incompleteness join deals its
    walk passes out to workers and ``fit`` trains per-path models
    concurrently.  Backends are ``"serial"`` (default), ``"thread"`` and
    ``"process"``; results are identical across all of them at a fixed
    seed (completed joins bitwise up to row order).
    """

    model: ModelConfig = field(default_factory=ModelConfig)
    num_bins: int = 32
    use_ar: bool = True
    use_ssar: bool = True
    max_path_length: int = 4
    max_paths_per_target: int = 4
    min_signal: float = 0.0
    approximate_replacement: bool = True
    seed: int = 0
    chunk_size: Optional[int] = None
    n_workers: int = 1
    parallel_backend: str = "serial"

    def __post_init__(self) -> None:
        if self.parallel_backend not in PARALLEL_BACKENDS:
            raise ConfigurationError(
                f"ReStoreConfig.parallel_backend must be one of "
                f"{PARALLEL_BACKENDS}, got {self.parallel_backend!r}"
            )
        if self.n_workers < 1:
            raise ConfigurationError(
                f"ReStoreConfig.n_workers must be >= 1, got {self.n_workers}"
            )


@dataclass
class Answer:
    """A completed query answer plus provenance."""

    result: QueryResult
    query: Query
    used_completion: bool
    model: Optional[_CompletionModelBase] = None
    completed: Optional[CompletedJoin] = None
    from_cache: bool = False
    #: pushdown provenance (roots scanned vs qualifying, chunks walked vs
    #: total, filter kinds); None when the answer was evaluated on the
    #: model's full completed join (no plan was pushed).
    pushdown: Optional[Dict[str, object]] = None

    def confidence(self, confidence: float = 0.95) -> Optional[ConfidenceEstimator]:
        """A §6 confidence estimator for this answer (None if no completion)."""
        if self.model is None or self.completed is None:
            return None
        return ConfidenceEstimator(self.model, self.completed, confidence)


class ReStore:
    """Neural data completion for one incomplete relational database.

    Parameters
    ----------
    db / annotation:
        The incomplete database and its §2.2 completeness annotation (pass
        an :class:`~repro.incomplete.IncompleteDataset` via
        :meth:`from_dataset` for convenience).
    config:
        Engine configuration.
    """

    def __init__(
        self,
        db: Database,
        annotation: SchemaAnnotation,
        config: Optional[ReStoreConfig] = None,
    ):
        annotation.check_covers(db)
        self.db = db
        self.annotation = annotation
        self.config = config or ReStoreConfig()
        self.encoders = build_encoders(db, self.config.num_bins)
        self._models: Dict[Tuple[str, Tuple[str, ...]], _CompletionModelBase] = {}
        self._candidates: Dict[str, List[CandidateScore]] = {}
        self.partial_cache = PartialJoinCache(PARTIAL_CACHE_CHUNKS)
        self.merge_stats: Dict[str, int] = {}
        #: Optional provenance: the registry scenario this engine's dataset
        #: came from; stamped into saved artifacts (repro.serving).
        self.scenario_name: Optional[str] = None
        #: Fit-time anchors for the incremental layer: the database digest
        #: gates warm-start fine-tuning (unchanged data = exact no-op) and
        #: the encoded-distribution summary is the drift baseline.
        self._fitted_digest: Optional[str] = None
        self._drift_baseline: Optional[Dict] = None

    @classmethod
    def from_dataset(
        cls, dataset: IncompleteDataset, config: Optional[ReStoreConfig] = None
    ) -> "ReStore":
        return cls(dataset.incomplete, dataset.annotation, config)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def incomplete_targets(self) -> List[str]:
        """Incomplete tables with modelable columns (link tables excluded —
        they are completed as interior hops of other targets' paths)."""
        return [
            t for t in self.db.table_names()
            if not self.annotation.is_complete(t)
            and self.db.table(t).modelable_columns()
        ]

    def paths_for(self, target: str) -> List[CompletionPath]:
        paths = enumerate_completion_paths(
            self.db, self.annotation, target, self.config.max_path_length
        )
        return paths[: self.config.max_paths_per_target]

    def fit(self, targets: Optional[Sequence[str]] = None) -> "ReStore":
        """Train AR (and SSAR where fan-out evidence exists) candidates.

        Per-path training runs on the configured executor
        (``parallel_backend`` / ``n_workers``): every (path, seed offset)
        task derives its own seeds, so the fitted models are identical to a
        serial run regardless of scheduling.  Process workers train on a
        worker-local engine copy and ship the fitted models back.

        Re-fitting invalidates the completion cache: cached joins and
        chunks were sampled from the previous models and no longer reflect
        the engine's state.
        """
        self.partial_cache.invalidate()
        targets = list(targets) if targets is not None else self.incomplete_targets()
        all_paths: List[CompletionPath] = []
        tasks: List[Tuple[str, Tuple[str, ...], int]] = []
        for target in targets:
            paths = self.paths_for(target)
            if not paths:
                raise ValueError(f"no admissible completion path for {target!r}")
            all_paths.extend(paths)
            for i, path in enumerate(paths):
                tasks.append((target, path.tables, i))

        results = self._run_training(tasks)
        if self.config.parallel_backend == "process":
            self._adopt_worker_models(results)

        by_target: Dict[str, List[_CompletionModelBase]] = {t: [] for t in targets}
        for (target, _tables, _offset), models in zip(tasks, results):
            for model in models:
                self._models[(model.kind, model.layout.path.tables)] = model
            by_target[target].extend(models)
        for target in targets:
            self._candidates[target] = score_candidates(by_target[target])
        self.merge_stats = training_savings(all_paths)
        self._stash_fit_anchors()
        return self

    def _run_training(self, tasks: List[Tuple[str, Tuple[str, ...], int]]):
        """Dispatch per-path training tasks to the configured executor."""
        executor = get_executor(self.config.parallel_backend, self.config.n_workers)
        if executor.shares_caller_state:
            return list(executor.map(_fit_path_task, tasks, payload=self))
        # Process workers rebuild a single-worker engine from the pickled
        # database and train there; fitted models (plain numpy state) ship
        # back.  Forcing the worker config serial keeps pools from nesting.
        worker_config = replace(
            self.config, n_workers=1, parallel_backend="serial"
        )
        payload = (self.db, self.annotation, worker_config)
        return list(executor.map(
            _fit_path_task, tasks, payload=payload, init=_build_worker_engine
        ))

    def _adopt_worker_models(self, results) -> None:
        """Re-anchor worker-trained models on the parent's database.

        Process workers train against a pickled copy of the database, and
        the fitted models come back carrying that copy in their layouts and
        forests.  The copies are content-identical to ``self.db`` (training
        is deterministic), so re-binding them to the parent's objects keeps
        one database in memory instead of one per trained path.
        """
        layouts: Dict[Tuple[str, ...], PathLayout] = {}
        for models in results:
            for model in models:
                tables = model.layout.path.tables
                if tables not in layouts:
                    layouts[tables] = PathLayout(
                        self.db, self.annotation,
                        CompletionPath(tables), self.encoders,
                    )
                model.layout = layouts[tables]
                forest = getattr(model, "forest", None)
                if forest is not None:
                    forest.rebind(self.db, self.encoders)

    def _train_path(self, path: CompletionPath, seed_offset: int = 0):
        """Train this path's AR/SSAR candidates (pure: registration is the
        caller's job, so executor workers can run this concurrently)."""
        models = []
        layout = PathLayout(self.db, self.annotation, path, self.encoders)
        base_seed = self.config.seed + 31 * seed_offset
        if self.config.use_ar:
            cfg = self._model_config(base_seed)
            ar = ARCompletionModel(layout, cfg)
            ar.fit()
            models.append(ar)
        if self.config.use_ssar:
            walks = fan_out_relations(self.db, self.annotation, path)
            if walks:
                forest = EvidenceForest(
                    self.db, path.tables[0], walks, self.encoders,
                    self_evidence_table=path.target,
                )
                cfg = self._model_config(base_seed + 17)
                ssar = SSARCompletionModel(layout, forest, cfg)
                ssar.fit()
                models.append(ssar)
        return models

    def _model_config(self, seed: int) -> ModelConfig:
        return replace(self.config.model, seed=seed)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def candidates(self, target: str) -> List[CandidateScore]:
        if target not in self._candidates:
            raise RuntimeError(f"call fit() first (no candidates for {target!r})")
        return self._candidates[target]

    def select_model(
        self,
        target: str,
        query: Optional[Query] = None,
        suspected_bias: Optional[SuspectedBias] = None,
    ) -> CandidateScore:
        """§5 selection: query coverage (hard), basic signal filter,
        optional suspected-bias hint."""
        with trace("engine.select_model", target=target) as span:
            candidates = self.candidates(target)

            # Coverage is a hard constraint: the completed join must contain
            # every query table, otherwise the query cannot be evaluated on it.
            if query is not None:
                covering = [
                    c for c in candidates
                    if set(query.tables) <= set(c.path.tables)
                ]
                if covering:
                    candidates = covering

            candidates = basic_filter(candidates, self.config.min_signal)

            if suspected_bias is not None and len(candidates) > 1:
                incomplete_value = self._aggregate_on_incomplete(
                    target, suspected_bias
                )
                candidates = apply_suspected_bias(
                    candidates,
                    suspected_bias,
                    lambda c: self._aggregate_on_completed(c, target, suspected_bias),
                    incomplete_value,
                )
            span.set("candidates", len(candidates))
            span.set("chosen", "/".join(candidates[0].path.tables))
            return candidates[0]

    def advanced_select(
        self,
        target: str,
        dataset: IncompleteDataset,
        seed: int = 0,
    ) -> CandidateScore:
        """§5 advanced selection via a derived incompleteness scenario.

        Re-applies the dataset's removal characteristics to the available
        data, trains each candidate's (path, kind) afresh on the derived
        data, completes it, and scores how well the *first-level* statistic
        is reconstructed — the first-level incomplete data acts as ground
        truth.  Candidates are ranked by that score.
        """
        from ..incomplete import derive_selection_scenario
        from ..metrics import bias_reduction, categorical_fraction, weighted_average
        from .selection import rank_by_derived_scenario

        derived = derive_selection_scenario(dataset, seed=seed)
        spec = next(s for s in dataset.specs if s.table == target)
        attribute = spec.biased_attribute

        derived_engine = ReStore.from_dataset(derived, self.config)
        derived_engine.fit(targets=[target])
        derived_by_key = {
            (c.model.kind, c.path.tables): c
            for c in derived_engine.candidates(target)
        }

        truth_table = derived.complete.table(target)  # = first-level data
        inc_table = derived.incomplete.table(target)
        categorical = truth_table.meta(attribute).kind.value == "categorical"
        if categorical:
            uniques, counts = np.unique(truth_table[attribute], return_counts=True)
            value = uniques[counts.argmax()]
            true_stat = categorical_fraction(truth_table[attribute], value)
            inc_stat = categorical_fraction(inc_table[attribute], value)
        else:
            true_stat = weighted_average(truth_table[attribute])
            inc_stat = weighted_average(inc_table[attribute])

        def evaluate(candidate: CandidateScore) -> float:
            derived_candidate = derived_by_key.get(
                (candidate.model.kind, candidate.path.tables)
            )
            if derived_candidate is None:
                return float("-inf")
            completed = derived_engine.completed_join(derived_candidate.model)
            column = f"{target}.{attribute}"
            projected = derived_engine.project_to_tables(
                completed, (target,), (column,)
            )
            values = projected.resolve(column)
            weights = projected.effective_weights()
            if categorical:
                stat = categorical_fraction(values, value, weights)
            else:
                stat = weighted_average(values, weights)
            score = bias_reduction(true_stat, inc_stat, stat)
            return score if not np.isnan(score) else float("-inf")

        ranked = rank_by_derived_scenario(self.candidates(target), evaluate)
        return ranked[0]

    def _aggregate_on_incomplete(self, target: str, bias: SuspectedBias) -> float:
        values = self.db.table(target)[bias.attribute]
        if bias.value is not None:
            return float(np.mean(values == bias.value))
        return float(np.mean(values.astype(float)))

    def _aggregate_on_completed(
        self, candidate: CandidateScore, target: str, bias: SuspectedBias
    ) -> float:
        completed = self.completed_join(candidate.model)
        column = f"{target}.{bias.attribute}"
        projected = self.project_to_tables(completed, (target,), (column,))
        values = projected.resolve(column)
        weights = projected.effective_weights()
        total = weights.sum()
        if total == 0:
            return float("nan")
        if bias.value is not None:
            return float((weights * (values == bias.value)).sum() / total)
        return float((weights * values.astype(float)).sum() / total)

    # ------------------------------------------------------------------
    # Completion + caching (§4.5)
    # ------------------------------------------------------------------
    def join_signature(self, model: _CompletionModelBase) -> Tuple:
        """Identity of the completed join a model would produce: every
        input that changes its content.

        The completion cache keys chunks and memoized joins by it, and the
        completion service groups concurrent requests by it so one
        incompleteness join serves a whole micro-batch.
        """
        return (
            model.kind,
            model.layout.path.tables,
            self.config.seed,
            self.config.approximate_replacement,
        )

    def _join(self, model: _CompletionModelBase) -> IncompletenessJoin:
        """The incompleteness join the engine runs for ``model``."""
        return IncompletenessJoin(
            model,
            approximate_replacement=self.config.approximate_replacement,
            seed=self.config.seed,
            chunk_size=self.config.chunk_size,
            n_workers=self.config.n_workers,
            parallel_backend=self.config.parallel_backend,
        )

    def _grid(self, model: _CompletionModelBase) -> Tuple[Tuple[int, int], ...]:
        """The canonical ``(start, stop)`` chunk grid of ``model``'s join.

        Chunks of ``chunk_size`` root rows, else about :data:`GRID_CHUNKS`
        chunks.  Chunk bounds key the partial cache, whose keys alone say
        which chunk holds a stale root row; how many chunks one walk pass
        covers is the join's business.
        """
        num_roots = len(self.db.table(model.layout.path.tables[0]))
        chunk_size = self.config.chunk_size
        if chunk_size is None:
            chunk_size = max(1, -(-num_roots // GRID_CHUNKS))
        return _chunk_grid(num_roots, chunk_size)

    def _complete(
        self,
        join: IncompletenessJoin,
        plan: Optional[PushdownPlan] = None,
        schedule: Optional[Sequence[int]] = None,
    ) -> Iterator[CompletedJoin]:
        """The completion executor: every completed join is built here.

        Walks the canonical grid in the steps of ``schedule`` (cumulative
        chunk counts; default: the whole grid in one step) and yields the
        assembled join after each step.  Chunks with no qualifying root row
        are skipped, cached chunks are served from the partial cache
        (re-filtered when a looser plan walked them), and the rest of a
        step are walked in one :meth:`IncompletenessJoin.walk_chunks` call
        and cached under the plan's fingerprints.  An unfiltered chunk
        whose cache entry has stale root rows (:meth:`apply_mutations`)
        joins that walk as just those rows, one single-root task each, and
        is spliced (:func:`splice_chunk_outputs`); it counts as walked.
        Chunk provenance lands on ``completed.recompletion`` and, with a
        plan, on ``completed.pushdown``; the step's span also counts the
        root rows walked so far (``roots_walked``).
        """
        model = join.model
        tables = join.effective_tables()
        grid = self._grid(model)
        signature = self.join_signature(model)
        fingerprints = plan.fingerprint_set() if plan is not None else frozenset()
        mask = join.qualifying_root_mask(plan)
        outputs: List = []
        walked = skipped = have = roots_walked = 0
        for upto in schedule if schedule is not None else [len(grid)]:
            with trace("engine.complete", tables="/".join(tables)) as span:
                # task -> its stale entry (output, stale roots) or None
                missing: Dict[Tuple[int, int], Optional[Tuple]] = {}
                index: Dict[Tuple[int, int], int] = {}
                for task in grid[have:upto]:
                    if mask is not None and not mask[task[0]:task[1]].any():
                        skipped += 1
                        continue
                    hit = self.partial_cache.lookup(
                        signature, grid, task, fingerprints
                    )
                    if hit is None:
                        missing[task] = None if fingerprints else \
                            self.partial_cache.stale_entry(signature, grid, task)
                        index[task] = len(outputs)
                        outputs.append(None)
                        continue
                    output, cached_fps = hit
                    if cached_fps != fingerprints:
                        output = restrict_chunk_output(
                            output, plan.filters_not_in(cached_fps)
                        )
                    outputs.append(output)
                have = upto
                if missing:
                    done, roots = self._walk_missing(join, tables, plan, missing)
                    for task in missing:
                        self.partial_cache.put(
                            signature, grid, task, fingerprints, done[task]
                        )
                        outputs[index[task]] = done[task]
                    roots_walked += roots
                walked += len(missing)
                chunks = {
                    "chunks_total": len(grid),
                    "chunks_walked": walked,
                    "chunks_cached": len(outputs) - walked,
                }
                for name, value in chunks.items():
                    span.set(name, value)
                span.set("chunks_skipped", skipped)
                span.set("roots_walked", roots_walked)
                completed = join.assemble(outputs, tables, plan)
            completed.recompletion = chunks
            if plan is not None:
                completed.pushdown = {
                    **self._scan_profile(join, plan, mask),
                    **chunks,
                    "chunks_skipped": skipped,
                }
            yield completed

    @staticmethod
    def _walk_missing(
        join: IncompletenessJoin,
        tables: Sequence[str],
        plan: Optional[PushdownPlan],
        missing: Dict[Tuple[int, int], Optional[Tuple]],
    ) -> Tuple[Dict[Tuple[int, int], object], int]:
        """Walk a step's missing chunks (grid order) in one walk: a chunk
        whole, or a stale one's root rows alone, spliced into its cached
        output.  Returns each chunk's output and the root rows walked."""
        tasks: List[Tuple[int, int]] = []
        for task, stale in missing.items():
            if stale is None:
                tasks.append(task)
            else:
                tasks.extend((root, root + 1) for root in stale[1].tolist())
        walked = iter(join.walk_chunks(tasks, tables, plan))
        done: Dict[Tuple[int, int], object] = {}
        fresh: List = []
        for task, stale in missing.items():
            if stale is None:
                done[task] = next(walked)
            else:
                fresh.extend(itertools.islice(walked, len(stale[1])))
        spliced = [task for task, stale in missing.items() if stale is not None]
        if spliced:
            done.update(zip(spliced, splice_chunk_outputs(
                spliced,
                [missing[task][0] for task in spliced],
                fresh,
                np.concatenate([missing[task][1] for task in spliced]),
            )))
        return done, sum(stop - start for start, stop in tasks)

    def _scan_profile(
        self,
        join: IncompletenessJoin,
        plan: PushdownPlan,
        mask: Optional[np.ndarray],
    ) -> Dict[str, object]:
        """Root rows scanned vs qualifying, and the plan's filter counts."""
        num_roots = len(self.db.table(join.path.tables[0]))
        return {
            "roots_total": num_roots,
            "roots_qualifying": num_roots if mask is None else int(mask.sum()),
            "filters": plan.counts_by_kind(),
            "residual_filters": len(plan.residual),
        }

    def completed_join(self, model: _CompletionModelBase) -> CompletedJoin:
        """The completed join of a model's full path, memoized (§4.5).

        The completion cache memoizes the completion executor's unfiltered
        assembly under the model's join signature.  On a miss, chunks
        already cached (left by pushdown, progressive or recompletion runs)
        are reused and the rest walked; the result is bitwise identical (up
        to row order) to a single-pass :meth:`IncompletenessJoin.run` at
        the same seed.  A hit comes back as a shallow copy whose
        ``recompletion`` reports every chunk cached, so results already
        handed out keep their own provenance.
        """
        signature = self.join_signature(model)
        with trace(
            "engine.completed_join", tables="/".join(model.layout.path.tables)
        ) as span:
            cached = self.partial_cache.get_join(signature)
            span.set("cache", "miss" if cached is None else "hit")
            if cached is None:
                completed = next(self._complete(self._join(model)))
                self.partial_cache.put_join(signature, completed)
                return completed
            total = cached.recompletion["chunks_total"]
            return replace(cached, recompletion={
                "chunks_total": total, "chunks_walked": 0,
                "chunks_cached": total,
            })

    def join_cached(self, model: _CompletionModelBase) -> bool:
        """Whether ``model``'s full completed join is memoized (a pure
        probe: no cache statistics, no recency)."""
        return self.partial_cache.has_join(self.join_signature(model))

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the memoized full joins."""
        return self.partial_cache.join_stats

    @property
    def partial_cache_stats(self) -> PartialCacheStats:
        """Hit/miss/subset-hit counters of the cached chunks."""
        return self.partial_cache.stats

    def clear_cache(self) -> None:
        """Drop every cached chunk and join and zero the cache counters."""
        self.partial_cache.clear()

    # ------------------------------------------------------------------
    # Incremental completion (repro.incremental)
    # ------------------------------------------------------------------
    def apply_mutations(
        self,
        *,
        inserts: Optional[Dict] = None,
        updates: Optional[Dict] = None,
        deletes: Optional[Dict] = None,
        cascade: bool = True,
    ) -> "MutationDelta":
        """Mutate the base database in place and invalidate precisely.

        Applies the batch via :func:`repro.incremental.apply_mutations`,
        re-anchors every fitted model on the mutated rows (layouts and
        evidence forests keep their fit-time structure — codecs, variable
        vocabularies and trained parameters are untouched), and drops
        exactly the cached state the delta made stale
        (:meth:`_invalidate_for_delta`): an in-place root update marks its
        root rows stale in the chunks that hold them, so a following
        :meth:`recomplete` re-walks only those rows; untouched chunks keep
        serving from the partial cache.  This is the only place a write
        invalidates.
        """
        from ..incremental.mutations import apply_mutations as apply_to_db

        new_db, new_annotation, delta = apply_to_db(
            self.db, self.annotation,
            inserts=inserts, updates=updates, deletes=deletes, cascade=cascade,
        )
        self.db = new_db
        if new_annotation is not None:
            self.annotation = new_annotation
        self._rebind_models()
        self._invalidate_for_delta(delta)
        return delta

    def recomplete(
        self,
        delta: Optional["MutationDelta"] = None,
        model: Optional[_CompletionModelBase] = None,
    ) -> CompletedJoin:
        """Re-run a model's completion after mutations, reusing chunks.

        The result is bitwise-identical (up to row order) to a
        from-scratch :meth:`completed_join` on the mutated database at
        the same seed — the counter-based per-row RNG keys every draw to
        the root row index, so untouched chunks coming from the partial
        cache are exactly what a fresh walk would produce, and so are the
        chunks whose updated root rows are re-walked and spliced in.

        The call only reads: :meth:`apply_mutations` already dropped what
        its write made stale.  ``delta``, the value that call returned, is
        accepted for callers that pass it back and has no effect.

        Chunk-level provenance of *this* call is attached as
        ``completed.recompletion`` (``chunks_total`` / ``chunks_walked`` /
        ``chunks_cached``; a spliced chunk counts as walked), as
        :meth:`completed_join` reports it.
        """
        return self.completed_join(
            model if model is not None else self._default_model()
        )

    def check_drift(self, thresholds=None) -> "DriftReport":
        """Compare today's encoded distributions against the fit baseline.

        Returns a :class:`~repro.incremental.DriftReport` recommending
        ``skip`` / ``fine_tune`` / ``refit`` (see
        :class:`~repro.incremental.DriftThresholds`).
        """
        from ..incremental.drift import (
            DriftThresholds,
            detect_drift,
            distribution_summary,
        )

        if self._drift_baseline is None:
            raise RuntimeError(
                "call fit() (or load an artifact) before check_drift()"
            )
        current = distribution_summary(self.db, self.encoders)
        return detect_drift(
            self._drift_baseline, current,
            thresholds if thresholds is not None else DriftThresholds(),
        )

    def fine_tune(self) -> Dict[str, object]:
        """Warm-start re-training of every fitted model, digest-gated.

        When the database digest still matches the last fit, nothing runs
        at all — an *exact* no-op (parameters bitwise unchanged).  When
        the data moved, every model re-trains from its current parameters
        (:meth:`~repro.core.models._CompletionModelBase.fit` with
        ``warm_start=True``: the output-bias re-initialization is skipped
        and training starts at the fitted weights), candidates are
        re-scored, and caches invalidate.
        """
        digest = self._database_digest()
        if digest == self._fitted_digest:
            return {"skipped": True, "digest": digest, "models_tuned": 0}
        self.partial_cache.invalidate()
        for model in self._models.values():
            model.fit(warm_start=True)
        for target, scores in self._candidates.items():
            self._candidates[target] = score_candidates(
                [score.model for score in scores]
            )
        self._stash_fit_anchors()
        return {
            "skipped": False,
            "digest": self._fitted_digest,
            "models_tuned": len(self._models),
        }

    def _default_model(self) -> _CompletionModelBase:
        for scores in self._candidates.values():
            if scores:
                return scores[0].model
        raise RuntimeError("call fit() first (no fitted models)")

    def _model_closure(self, model: _CompletionModelBase) -> set:
        """Tables whose rows influence the model's completed join."""
        closure = set(model.layout.path.tables)
        forest = getattr(model, "forest", None)
        if forest is not None:
            closure.update(forest.walk_tables())
        return closure

    def _rebind_models(self) -> None:
        """Point fitted models at the engine's current database.

        Layouts swap their data references in place (the variable layout,
        codecs and trained parameters are fit-time state and must not
        change); evidence forests drop their encoded evidence, which is
        re-encoded from the new rows on first use.
        """
        rebound_forests: set = set()
        for model in self._models.values():
            model.layout.db = self.db
            model.layout.annotation = self.annotation
            forest = getattr(model, "forest", None)
            if forest is not None and id(forest) not in rebound_forests:
                forest.rebind(self.db, self.encoders)
                rebound_forests.add(id(forest))

    def _invalidate_for_delta(self, delta: "MutationDelta") -> None:
        """Drop exactly the cached state ``delta`` made stale, per model.

        * a delta touching no table of the model's closure (path tables
          plus SSAR evidence walks) leaves its entries alone;
        * in-place updates of root rows only (``TableDelta.grid_stable``)
          make exactly those rows stale: :meth:`PartialJoinCache.mark_stale`
          marks them in the chunks that cover them, to be re-walked and
          spliced into the cached chunk outputs;
        * anything else — a root insert or delete, which changes the
          canonical grid and shifts row→stream assignments, or a write to
          a non-root closure table, which changes whole-table state every
          chunk consults — drops every entry under the model's signature.

        Why a root row is a sound unit: a walk in
        :class:`~repro.core.IncompletenessJoin` reads only its own row of
        the root table — its codes, raw columns and RNG streams are
        functions of the root row index and that row's values — while
        every whole-table structure a walk consults (the database's child
        indexes and key orders in :mod:`repro.relational.keys`,
        nearest-neighbour replacers, orphan weights, the SSAR forests'
        encoded evidence) derives from non-root path tables and the
        root's primary key only.  Updates never change a primary key, and
        every mutation builds a new database whose structures are built
        afresh, so no walk reads a stale one.  Each root row's walked
        rows, their place in the chunk (the join's walk order) and its
        synthesized tuples depend on that row alone; dangling-FK
        resolution happens at assembly time over all parked states.
        """
        touched = set(delta.affected_tables())
        for model in self._models.values():
            reach = touched & self._model_closure(model)
            if not reach:
                continue
            root = model.layout.path.tables[0]
            root_delta = delta.for_table(root)
            signature = self.join_signature(model)
            if reach == {root} and root_delta.grid_stable:
                self.partial_cache.mark_stale(
                    signature, root_delta.updated_positions
                )
            else:
                self.partial_cache.invalidate_delta(signature)

    def _database_digest(self) -> str:
        from ..serving.artifacts import database_digest

        return database_digest(self.db, self.annotation)

    def _stash_fit_anchors(self) -> None:
        from ..incremental.drift import distribution_summary

        self._fitted_digest = self._database_digest()
        self._drift_baseline = distribution_summary(self.db, self.encoders)

    # ------------------------------------------------------------------
    # Serving artifacts (repro.serving)
    # ------------------------------------------------------------------
    def fitted_models(self) -> Dict[Tuple[str, Tuple[str, ...]], _CompletionModelBase]:
        """The trained models, keyed by ``(kind, path tables)`` (a copy)."""
        return dict(self._models)

    def candidate_scores(self) -> Dict[str, List[CandidateScore]]:
        """Per-target candidate rankings as produced by ``fit`` (a copy)."""
        return {target: list(scores) for target, scores in self._candidates.items()}

    def adopt_fitted_state(
        self,
        models: Dict[Tuple[str, Tuple[str, ...]], _CompletionModelBase],
        candidates: Dict[str, List[CandidateScore]],
        encoders: Optional[Dict] = None,
    ) -> "ReStore":
        """Install externally restored fitted state (an artifact load).

        Any cached completed joins were sampled from the *previous* models,
        so the cache is cleared and its statistics reset: after adoption,
        ``cache_stats`` describes only the loaded engine's era — the first
        ``answer`` is a truthful miss, repeats are hits.
        """
        if encoders is not None:
            self.encoders = encoders
        self._models = dict(models)
        self._candidates = {t: list(c) for t, c in candidates.items()}
        unique_paths: List[CompletionPath] = []
        for model in self._models.values():
            if model.layout.path not in unique_paths:
                unique_paths.append(model.layout.path)
        self.merge_stats = training_savings(unique_paths)
        self._rebind_models()
        self.clear_cache()
        self._stash_fit_anchors()
        return self

    def save_artifact(self, path, scenario: Optional[str] = None,
                      overwrite: bool = False, parent=None, delta=None,
                      columnar: bool = False):
        """Persist this fitted engine to an artifact directory.

        See :func:`repro.serving.artifacts.save_artifact`; ``scenario``
        defaults to :attr:`scenario_name`.  ``parent``/``delta`` record
        incremental lineage (parent artifact path + mutation counts);
        ``columnar`` writes the database as a mapped column store so the
        loaded engine reads it out of core.
        """
        from ..serving.artifacts import save_artifact

        return save_artifact(
            self, path,
            scenario=scenario if scenario is not None else self.scenario_name,
            overwrite=overwrite, parent=parent, delta=delta,
            columnar=columnar,
        )

    @classmethod
    def load(cls, path, config_overrides: Optional[Dict] = None) -> "ReStore":
        """Reconstruct a ready-to-answer engine from a saved artifact.

        The loaded engine produces the same completed joins (bitwise, up to
        row order) as the engine that was saved, at the same seed.
        ``config_overrides`` replaces execution-only settings
        (``chunk_size``, ``n_workers``, ``parallel_backend``, …) without
        touching the trained state.
        """
        from ..serving.artifacts import load_artifact

        return load_artifact(path, config_overrides=config_overrides)

    # ------------------------------------------------------------------
    # Projection (§4.4: completion path may exceed the query path)
    # ------------------------------------------------------------------
    def project_to_tables(
        self,
        completed: CompletedJoin,
        tables: Sequence[str],
        columns: Optional[Sequence[str]] = None,
    ) -> JoinResult:
        """Restrict a completed join to the query's tables.

        Extra completion-path tables multiply rows (one per evidence
        combination); deduplicating by the logical identity of the kept
        tables' tuples restores correct query-path multiplicities.  Real
        tuples are identified by their primary key, synthetic ones by their
        unique negative ids.  ``columns`` (qualified names of kept tables'
        columns) limits the gathered columns; by default every column of
        the kept tables is.
        """
        result = completed.result
        keep_tables = [t for t in completed.path.tables if t in set(tables)]
        missing = set(tables) - set(keep_tables)
        if missing:
            raise ValueError(f"completed join does not contain {sorted(missing)}")

        identity_parts: List[np.ndarray] = []
        for table_name in keep_tables:
            table = self.db.table(table_name)
            key_col = table.primary_key
            if key_col is not None:
                identity_parts.append(
                    np.asarray(result.columns[f"{table_name}.{key_col}"], dtype=np.int64)
                )

        if identity_parts:
            keep_rows = _first_rows(identity_parts)
        else:
            keep_rows = np.arange(result.num_rows)

        if columns is None:
            kept = set(keep_tables)
            columns = [
                name for name in result.columns if name.split(".", 1)[0] in kept
            ]
        weights = result.effective_weights()[keep_rows]
        return JoinResult(
            {name: result.columns[name][keep_rows] for name in columns},
            weights=weights,
        )

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def answer(
        self,
        query: Query,
        suspected_bias: Optional[SuspectedBias] = None,
        model: Optional[_CompletionModelBase] = None,
        pushdown: bool = False,
    ) -> Answer:
        """Answer an SPJA query over the (completed) database.

        ``pushdown`` chooses whether the query's plan reaches the completion
        executor.  With ``pushdown=True``, the query's predicates are pushed
        into the incompleteness join (:mod:`repro.query.pushdown`): only
        qualifying root rows are completed, which on selective queries
        skips most of the model sampling while returning the exact same
        answer as full materialization.  A full join already sitting in the
        cache is used instead (it is free).  Pushed chunks are cached under
        the query's filter fingerprints and reused by overlapping queries
        with the same or stricter filters.  Without ``pushdown`` the answer
        is evaluated on the model's full completed join.
        """
        with trace(
            "engine.answer", tables="/".join(query.tables), pushdown=pushdown
        ) as span:
            columns = resolve_query_columns(self.db, query)
            model = self._completion_model(query, model, suspected_bias)
            if model is None:
                span.set("used_completion", False)
                return Answer(
                    result=execute(self.db, query),
                    query=query,
                    used_completion=False,
                )

            cached_before = self.join_cached(model)
            completed: Optional[CompletedJoin] = None
            if pushdown and not cached_before:
                plan = plan_pushdown(self.db, model.layout.path.tables, query)
                if plan.has_pushdown:
                    completed = next(self._complete(self._join(model), plan))
            if completed is None:
                completed = self.completed_join(model)

            span.set("used_completion", True)
            span.set("from_cache", cached_before)
            return Answer(
                result=execute_on_join(
                    self._query_rows(completed, query, columns), query
                ),
                query=query,
                used_completion=True,
                model=model,
                completed=completed,
                from_cache=cached_before,
                pushdown=completed.pushdown,
            )

    def answer_progressive(
        self,
        query: Query,
        budget: Optional[SamplingBudget] = None,
        confidence: float = 0.95,
        suspected_bias: Optional[SuspectedBias] = None,
        model: Optional[_CompletionModelBase] = None,
    ):
        """Budgeted answering: yield a :class:`Refinement` per schedule step.

        The first refinement answers from the budget's ``initial_chunks``
        chunks of the (pushdown-pruned) chunk grid and carries a §6
        :class:`ConfidenceBand` where the aggregate supports one; each
        subsequent refinement adds chunks per the budget's schedule.  Band
        widths are non-increasing, and — for an untruncated budget — the
        final refinement is exactly the budgetless pushdown answer.
        The steps are one run of the completion executor with the budget's
        schedule.  Completed chunks land in the partial cache, so an
        interrupted or truncated run's resumption and a later full join
        reuse them instead of walking again.
        """
        budget = budget if budget is not None else SamplingBudget()
        columns = resolve_query_columns(self.db, query)
        model = self._completion_model(query, model, suspected_bias)
        if model is None:
            yield Refinement(
                result=execute(self.db, query),
                query=query,
                band=None,
                chunks_completed=0,
                chunks_total=0,
                index=0,
                final=True,
            )
            return

        plan = plan_pushdown(self.db, model.layout.path.tables, query)
        num_chunks = len(self._grid(model))
        schedule = budget.schedule(num_chunks)
        steps = self._complete(self._join(model), plan, schedule)
        previous_width: Optional[float] = None
        for index, (upto, completed) in enumerate(zip(schedule, steps)):
            result = execute_on_join(
                self._query_rows(completed, query, columns), query
            )

            band: Optional[ConfidenceBand] = None
            if completed.num_rows:
                estimator = ConfidenceEstimator(model, completed, confidence)
                band = band_for_query(estimator, query)
            if band is not None and previous_width is not None \
                    and band.width > previous_width:
                # Enforce monotone tightening: more completed chunks never
                # widen the reported interval.  The raw §6 band can wobble
                # upward when a new chunk adds uncertain rows; clamp it
                # symmetrically around the current estimate.
                half = previous_width / 2.0
                band = ConfidenceBand(
                    estimate=band.estimate,
                    lower=band.estimate - half,
                    upper=band.estimate + half,
                    theoretical_min=band.theoretical_min,
                    theoretical_max=band.theoretical_max,
                )
            if band is not None:
                previous_width = band.width

            yield Refinement(
                result=result,
                query=query,
                band=band,
                chunks_completed=upto,
                chunks_total=num_chunks,
                index=index,
                final=upto == num_chunks,
            )

    def pushdown_profile(
        self,
        query: Query,
        model: Optional[_CompletionModelBase] = None,
        suspected_bias: Optional[SuspectedBias] = None,
    ) -> Optional[Dict[str, object]]:
        """Plan a query's pushdown without running it.

        Returns the scan profile a pushed run would have — how many root
        evidence rows qualify vs how many full materialization walks —
        plus the filter classification.  ``None`` when the query needs no
        completion; a selected path that does not cover the query raises
        like :meth:`answer`.  Cheap: only the pre-walk predicate is
        evaluated, on real root columns.
        """
        model = self._completion_model(query, model, suspected_bias)
        if model is None:
            return None
        plan = plan_pushdown(self.db, model.layout.path.tables, query)
        join = self._join(model)
        return self._scan_profile(join, plan, join.qualifying_root_mask(plan))

    def _completion_model(
        self,
        query: Query,
        model: Optional[_CompletionModelBase] = None,
        suspected_bias: Optional[SuspectedBias] = None,
    ) -> Optional[_CompletionModelBase]:
        """The model whose completed join answers ``query``.

        ``None`` when every query table is complete.  Otherwise ``model``
        if given, else the §5 selection for the query's primary target;
        its path must cover every query table.  This is the one
        model-for-query decision: the serving core and the fleet router
        route through it too.
        """
        incomplete = [
            t for t in query.tables if not self.annotation.is_complete(t)
        ]
        if not incomplete:
            return None
        if model is None:
            model = self.select_model(
                self._primary_target(query, incomplete), query=query,
                suspected_bias=suspected_bias,
            ).model
        if not set(query.tables) <= set(model.layout.path.tables):
            raise ValueError(
                f"selected completion path {model.layout.path} does not "
                f"cover query tables {query.tables}; no admissible "
                f"covering path"
            )
        return model

    def _query_rows(
        self, completed: CompletedJoin, query: Query, columns: Sequence[str]
    ) -> JoinResult:
        """The completed join restricted to the query's tables (§4.4),
        holding only ``columns`` (the query's resolved columns) and the
        weights, so filtering copies just what the query reads."""
        if set(completed.path.tables) != set(query.tables):
            return self.project_to_tables(completed, query.tables, columns)
        result = completed.result
        return JoinResult(
            {name: result.columns[name] for name in columns},
            weights=result.effective_weights(),
        )

    def _primary_target(self, query: Query, incomplete_tables: Sequence[str]) -> str:
        """The target whose candidates answer ``query`` (§5 selects among them).

        Link tables (no modelable columns) are completed as interior hops,
        so prefer a table with attributes; ties break to the table with the
        most candidates available.  When no incomplete query table has
        candidates of its own (e.g. a link table), the query is answered on
        a trained path that covers all its tables, projected (§4.4): the
        target of the covering candidate with the best §5 signal.
        """
        with_columns = [
            t for t in incomplete_tables if self.db.table(t).modelable_columns()
        ]
        pool = with_columns or list(incomplete_tables)
        known = [t for t in pool if t in self._candidates]
        if known:
            return known[0]
        if not self._candidates:
            raise RuntimeError(
                f"fit() has not trained models for any of {sorted(pool)}"
            )
        covering = [
            (score, target)
            for target, scores in self._candidates.items()
            for score in scores
            if set(query.tables) <= set(score.path.tables)
        ]
        if not covering:
            trained = sorted({
                " -> ".join(score.path.tables)
                for scores in self._candidates.values() for score in scores
            })
            raise QueryValidationError(
                f"no trained completion path covers query tables "
                f"{sorted(query.tables)} (trained paths: {trained})"
            )
        best = basic_filter([score for score, _t in covering], self.config.min_signal)[0]
        return next(target for score, target in covering if score is best)


@functools.lru_cache(maxsize=64)
def _chunk_grid(num_roots: int, chunk_size: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(start, stop)`` chunks of ``chunk_size`` rows over ``num_roots``
    (built once per shape: every completion and write asks for its grid)."""
    return tuple((s.start, s.stop) for s in chunk_slices(num_roots, chunk_size))


def _first_rows(keys: Sequence[np.ndarray]) -> np.ndarray:
    """Ascending positions of the first row of each distinct key tuple.

    Equals ``np.sort(np.unique(np.stack(keys, axis=1), axis=0,
    return_index=True)[1])``, from one stable lexsort over the 1-D key
    columns instead of a sort of the stacked rows as void records.
    """
    order = np.lexsort(keys)
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for key in keys:
        ordered = key[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    return np.sort(order[first])


# ----------------------------------------------------------------------
# Executor worker hooks for parallel ``fit`` (module-level: process
# workers import them by reference)
# ----------------------------------------------------------------------

def _build_worker_engine(payload) -> ReStore:
    """Process-pool initializer: a worker-local engine from pickled state."""
    db, annotation, config = payload
    return ReStore(db, annotation, config)


def _fit_path_task(engine: ReStore, task):
    """Executor task: train one completion path's candidate models."""
    _target, path_tables, seed_offset = task
    return engine._train_path(CompletionPath(path_tables), seed_offset=seed_offset)
