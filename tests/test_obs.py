"""Tests for :mod:`repro.obs` — tracing, metrics, logging, exporters.

Four rings:

* **primitives** — spans nest and carry attrs; trace context crosses
  threads via :func:`activate` and processes via the wire dict; the
  tracer's buffer is bounded; sampling is per-trace, never partial.
* **metrics** — the registry's histogram percentiles *are*
  ``np.percentile`` (the single implementation every stats surface now
  reports through), counters survive a Barrier-synchronized hammering
  without losing increments, collectors fold external stats in.
* **exporters** — Chrome-trace JSON round-trips and validates (spans
  nest, parents resolve), the latency report renders, the benchmark
  envelope schema-checks itself.
* **integration** — a traced engine answer yields one nested tree down
  to per-chunk spans; ``ServingCore.stats()`` equals a straight
  ``np.percentile`` over its registry histogram (no duplicate
  percentile code left to drift); a traced 2-worker fleet query
  stitches router→worker→engine→chunk spans into one tree (``slow``).
"""

import json
import threading

import numpy as np
import pytest

from repro import ReStore, ReStoreConfig, parse_query
from repro.core import ModelConfig
from repro.incomplete.registry import make_scenario_dataset
from repro.nn import TrainConfig
from repro.obs import (
    NOOP_SPAN,
    ENVELOPE_VERSION,
    Histogram,
    MetricsRegistry,
    Span,
    TraceContext,
    Tracer,
    activate,
    bench_envelope,
    chrome_trace_events,
    clear_records,
    current_context,
    disable_tracing,
    enable_tracing,
    export_chrome_trace,
    get_logger,
    get_tracer,
    profile_kernels,
    recent_records,
    report,
    set_tracer,
    span_tree,
    trace,
    tracing_enabled,
    validate_chrome_trace,
    validate_envelope,
)
from repro.serving import ServingCore

FAST = TrainConfig(epochs=3, batch_size=128, lr=1e-2, patience=2)
COMPLETION_SQL = "SELECT COUNT(*) FROM ta NATURAL JOIN tb WHERE b = 'v1';"


@pytest.fixture(autouse=True)
def _clean_tracing():
    """Every test starts and ends with tracing off and a fresh tracer."""
    disable_tracing()
    set_tracer(Tracer())
    yield
    disable_tracing()
    set_tracer(Tracer())


@pytest.fixture(scope="module")
def engine() -> ReStore:
    dataset = make_scenario_dataset(
        "synthetic/biased", keep_rate=0.5, seed=1, scale=0.2
    )
    config = ReStoreConfig(model=ModelConfig(train=FAST), seed=3)
    return ReStore.from_dataset(dataset, config).fit()


# ----------------------------------------------------------------------
# Tracing primitives
# ----------------------------------------------------------------------


class TestSpans:
    def test_disabled_returns_shared_noop(self):
        assert not tracing_enabled()
        span = trace("anything", rows=3)
        assert span is NOOP_SPAN
        with span as s:
            s.set("key", "value")  # all no-ops, nothing collected
            s.event("instant")
        assert len(get_tracer()) == 0

    def test_spans_nest_and_carry_attrs(self):
        tracer = enable_tracing()
        with trace("outer", layer="engine") as outer:
            with trace("inner") as inner:
                inner.set("rows", 42)
            outer.set("done", True)
        spans = {s.name: s for s in tracer.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].trace_id == spans["outer"].trace_id
        assert spans["outer"].parent_id is None
        assert spans["inner"].attrs["rows"] == 42
        assert spans["outer"].attrs == {"layer": "engine", "done": True}
        assert spans["outer"].duration_us >= spans["inner"].duration_us

    def test_exception_annotates_and_still_records(self):
        tracer = enable_tracing()
        with pytest.raises(ValueError):
            with trace("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "ValueError"

    def test_context_restored_after_span(self):
        enable_tracing()
        assert current_context() is None
        with trace("root"):
            assert current_context() is not None
            with trace("child"):
                pass
        assert current_context() is None

    def test_activate_carries_context_across_threads(self):
        """Pool threads don't inherit contextvars; activate() bridges."""
        tracer = enable_tracing()
        with trace("root"):
            ctx = current_context()

        def worker():
            with activate(ctx):
                with trace("pool-child"):
                    pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        spans = {s.name: s for s in tracer.spans()}
        assert spans["pool-child"].trace_id == spans["root"].trace_id
        assert spans["pool-child"].parent_id == spans["root"].span_id

    def test_wire_round_trip(self):
        ctx = TraceContext("deadbeef" * 4, "cafe" * 4, sampled=True)
        assert TraceContext.from_wire(ctx.as_wire()) == ctx
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({}) is None
        assert TraceContext.from_wire({"trace_id": ""}) is None

    def test_sampling_is_per_trace_never_partial(self):
        tracer = enable_tracing(sample_rate=0.25)
        for _ in range(20):
            with trace("root"):
                with trace("child"):
                    pass
        spans = tracer.spans()
        # every ~4th root sampled, and each sampled trace is complete
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span.trace_id, []).append(span.name)
        assert len(by_trace) == 5
        for names in by_trace.values():
            assert sorted(names) == ["child", "root"]

    def test_tracer_buffer_is_bounded(self):
        tracer = Tracer(max_spans=4)
        enable_tracing(tracer=tracer)
        for i in range(10):
            with trace(f"span-{i}"):
                pass
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [s.name for s in tracer.spans()] == [
            "span-6", "span-7", "span-8", "span-9"
        ]

    def test_take_drains_one_trace_only(self):
        tracer = Tracer()
        a = Span("a", trace_id="t1", span_id="s1", parent_id=None, start_us=0)
        b = Span("b", trace_id="t2", span_id="s2", parent_id=None, start_us=0)
        tracer.add(a)
        tracer.add(b)
        taken = tracer.take("t1")
        assert [s.name for s in taken] == ["a"]
        assert [s.name for s in tracer.spans()] == ["b"]
        other = Tracer()
        other.ingest(taken)
        assert [s.name for s in other.spans()] == ["a"]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_instruments_are_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h", window=16) is reg.histogram("h")

    def test_histogram_percentile_is_np_percentile(self):
        """The one percentile implementation: byte-identical to numpy."""
        rng = np.random.default_rng(7)
        values = rng.gamma(2.0, 10.0, size=500)
        hist = Histogram("latency", window=1024)
        for v in values:
            hist.observe(v)
        for q in (50, 95, 99):
            assert hist.percentile(q) == pytest.approx(
                float(np.percentile(values, q)), abs=0.0
            )
        assert hist.mean() == pytest.approx(float(np.mean(values)))

    def test_histogram_window_bounds_percentiles_not_totals(self):
        hist = Histogram("h", window=4)
        for v in (1, 2, 3, 4, 100, 200, 300, 400):
            hist.observe(v)
        assert hist.values() == [100.0, 200.0, 300.0, 400.0]
        summary = hist.summary()
        assert summary["count"] == 8          # monotonic over full history
        assert summary["total"] == 1010.0
        assert summary["min"] == 1.0
        assert summary["max"] == 400.0
        assert summary["p50"] == pytest.approx(
            float(np.percentile([100, 200, 300, 400], 50))
        )

    def test_empty_histogram_reports_zeros(self):
        hist = Histogram("empty")
        assert hist.percentile(50) == 0.0
        assert hist.mean() == 0.0
        assert hist.summary()["p99"] == 0.0

    def test_collectors_fold_into_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("hits").add(3)
        reg.gauge("depth").set(7)
        reg.register_collector("cache", lambda: {"hits": 1, "misses": 2})
        reg.register_collector("broken", lambda: 1 / 0)
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["depth"] == 7.0
        assert snap["collected"]["cache"] == {"hits": 1, "misses": 2}
        assert "ZeroDivisionError" in snap["collected"]["broken"]["error"]
        json.loads(reg.to_json())  # snapshot stays JSON-representable

    def test_counter_concurrent_increments_never_lost(self):
        """Satellite: Barrier-synchronized threads, zero lost increments."""
        reg = MetricsRegistry()
        counter = reg.counter("hammered")
        hist = reg.histogram("observed", window=100_000)
        n_threads, per_thread = 8, 2_000
        barrier = threading.Barrier(n_threads)

        def hammer(worker_id: int) -> None:
            barrier.wait()  # maximal contention: everyone starts together
            for i in range(per_thread):
                counter.add()
                hist.observe(worker_id * per_thread + i)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == n_threads * per_thread
        assert hist.count == n_threads * per_thread
        assert len(hist.values()) == n_threads * per_thread


class TestKernelProfiling:
    def test_profile_kernels_accumulates(self, engine):
        """Every kernel name the benchmark's trace reads is recorded."""
        query = parse_query(COMPLETION_SQL)
        ssar = next(
            model for model in engine.fitted_models().values()
            if model.kind == "ssar"
        )
        engine.clear_cache()
        with profile_kernels() as prof:
            engine.answer(query, model=ssar)
        snap = prof.snapshot()
        for kernel in ("dense", "softmax", "made.sample", "tree.encode"):
            assert snap[kernel]["calls"] > 0, kernel
            assert snap[kernel]["rows"] > 0, kernel
        table = prof.report()
        assert "dense" in table
        # scoped: after exit the kernels are back on the no-op path
        from repro.obs import profile as profile_module
        assert profile_module.ACTIVE is None


# ----------------------------------------------------------------------
# Exporters, logs, envelope
# ----------------------------------------------------------------------


class TestChromeExport:
    def test_export_and_validate(self, tmp_path):
        tracer = enable_tracing()
        with trace("outer"):
            with trace("inner") as span:
                span.event("checkpoint")
        path = tmp_path / "trace.json"
        doc = export_chrome_trace(path, tracer=tracer)
        assert validate_chrome_trace(doc) == []
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"] == doc["traceEvents"]
        complete = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        instants = [e for e in loaded["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["checkpoint"]

    def test_validation_catches_broken_nesting(self):
        orphan = Span("o", trace_id="t", span_id="s1", parent_id="missing",
                      start_us=0, duration_us=1)
        doc = {"traceEvents": chrome_trace_events([orphan])}
        problems = validate_chrome_trace(doc)
        assert any("unresolved parent" in p for p in problems)
        assert validate_chrome_trace({"traceEvents": []}) == [
            "traceEvents missing or empty"
        ]

    def test_span_tree_and_report(self):
        tracer = enable_tracing()
        with trace("root", tables="ta/tb"):
            with trace("leaf", rows_scanned=200):
                pass
        roots = span_tree(tracer.spans())
        assert len(roots) == 1
        assert roots[0]["span"].name == "root"
        assert roots[0]["children"][0]["span"].name == "leaf"
        table = report(tracer.spans())
        assert "root" in table and "  leaf" in table
        assert "rows_scanned=200" in table
        assert "% root" in table
        assert report([]) == "(no spans collected — is tracing enabled?)"


class TestStructuredLogging:
    def test_records_carry_trace_ids(self):
        clear_records()
        enable_tracing()
        log = get_logger("test.obs")
        with trace("logged-op"):
            ctx = current_context()
            log.info("thing.happened", worker=3)
        (record,) = recent_records(event="thing.happened")
        assert record["logger"] == "test.obs"
        assert record["level"] == "info"
        assert record["trace_id"] == ctx.trace_id
        assert record["span_id"] == ctx.span_id
        assert record["worker"] == 3
        json.dumps(record, default=str)  # JSON-lines representable
        clear_records()

    def test_filtering_and_levels(self):
        clear_records()
        log = get_logger("test.filter")
        log.warning("a.warn")
        log.error("a.err", detail="bad")
        assert len(recent_records(logger="test.filter")) == 2
        (err,) = recent_records(event="a.err")
        assert err["level"] == "error"
        assert "trace_id" not in err  # no ambient trace context
        clear_records()


class TestBenchEnvelope:
    def test_envelope_validates(self):
        envelope = bench_envelope()
        assert validate_envelope(envelope) == []
        assert envelope["envelope_version"] == ENVELOPE_VERSION
        assert envelope["obs"]["tracing_enabled"] is False
        json.dumps(envelope, default=str)

    def test_validation_catches_problems(self):
        assert validate_envelope([]) != []
        envelope = bench_envelope()
        broken = dict(envelope)
        del broken["git_sha"]
        assert any("git_sha" in p for p in validate_envelope(broken))
        wrong_type = dict(envelope, hostname=42)
        assert any("hostname" in p for p in validate_envelope(wrong_type))
        wrong_version = dict(envelope, envelope_version=99)
        assert any(
            "envelope_version" in p for p in validate_envelope(wrong_version)
        )


# ----------------------------------------------------------------------
# Integration: engine spans and stats-surface equivalence
# ----------------------------------------------------------------------


class TestEngineTracing:
    def test_answer_produces_nested_tree_down_to_chunks(self, engine, tmp_path):
        engine.clear_cache()
        tracer = enable_tracing()
        engine.answer(parse_query(COMPLETION_SQL))
        names = {s.name for s in tracer.spans()}
        assert {"engine.answer", "engine.select_model",
                "engine.completed_join", "join.walk_chunks",
                "join.chunk"} <= names
        roots = span_tree(tracer.spans())
        top = [r["span"].name for r in roots]
        assert "engine.answer" in top
        chunk_spans = [s for s in tracer.spans() if s.name == "join.chunk"]
        assert all(s.attrs["rows_scanned"] > 0 for s in chunk_spans)
        doc = export_chrome_trace(tmp_path / "engine.json", tracer=tracer)
        assert validate_chrome_trace(doc) == []

    def test_cache_attrs_flip_from_miss_to_hit(self, engine):
        engine.clear_cache()
        tracer = enable_tracing()
        query = parse_query(COMPLETION_SQL)
        engine.answer(query)
        engine.answer(query)
        cache_attrs = [
            s.attrs.get("cache") for s in tracer.spans()
            if s.name == "engine.completed_join"
        ]
        assert "miss" in cache_attrs and "hit" in cache_attrs


class TestStatsEquivalence:
    """Satellite: the stats surfaces report through registry histograms."""

    def test_core_percentiles_equal_np_over_registry_window(self, engine):
        engine.clear_cache()
        core = ServingCore(engine)
        latencies = [3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0]
        for ms in latencies:
            core._latency_hist.observe(ms)
        for size in (1, 4, 2, 8):
            core.record_batch(size)
        stats = core.stats()
        assert stats.p50_latency_ms == float(np.percentile(latencies, 50))
        assert stats.p95_latency_ms == float(np.percentile(latencies, 95))
        assert stats.mean_batch_size == float(np.mean([1, 4, 2, 8]))
        assert stats.max_batch_size == 8
        # and the registry snapshot shows the same instruments + caches
        snap = core.metrics.snapshot()
        assert snap["histograms"]["serving.latency_ms"]["count"] == 7
        assert snap["collected"]["join_cache"]["hits"] == \
            engine.cache_stats.hits
        assert "partial_cache" in snap["collected"]

    def test_cache_collector_survives_reset_stats(self, engine):
        reg = MetricsRegistry()
        engine.partial_cache.register_metrics(reg)
        engine.partial_cache.get_join("no-such-key")  # one miss
        before = reg.snapshot()["collected"]["join_cache"]
        assert before["misses"] >= 1
        engine.partial_cache.reset_stats()
        after = reg.snapshot()["collected"]["join_cache"]
        assert after["misses"] == 0  # collector follows the live object
