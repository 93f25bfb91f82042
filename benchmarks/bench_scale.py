"""Scale-tier benchmarks: out-of-core generation and the streaming join.

Sizes the pipeline at SF 1/10/100 (≈100k/1M/10M root rows): the
counter-based generator streams straight into the mapped column store,
and the incompleteness join walks the mapped database in chunks,
appending each completed chunk to a store-backed result, so neither
phase ever holds a full table in RAM.  Every test stamps rows/sec and
the phase's peak-RSS delta into the benchmark JSON (``extra_info``);
every join asserts that its spill directory holds the result store and
nothing else (and stamps its bytes per row), and the SF-10 join asserts
the streaming claim — peak RSS bounded well below what the in-RAM
equivalent (database plus materialized completed join) must hold.

SF 1 runs in the per-push benchmark smoke, with a second join of the same
model and seed on a two-worker process pool: its workers hand walked
chunks back to the caller, which appends them, so its result files must be
the serial join's bytes and its spill directory must hold nothing else.
SF 10/100 are ``slow`` (nightly).  Peak RSS is measured per phase via the
kernel's VmHWM watermark (:func:`repro.obs.reset_peak_rss`); a short
warmup walk first pays the one-time costs (the model's float32 networks,
allocator pools) that would otherwise be billed to the measured phase.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from repro.core import (
    ARCompletionModel,
    IncompletenessJoin,
    ModelConfig,
    PathLayout,
    build_encoders,
)
from repro.datasets.scale import (
    ScaleConfig,
    generate_scale_incomplete,
    scale_training_slice,
)
from repro.nn import TrainConfig
from repro.obs import current_rss_bytes, peak_rss_bytes, reset_peak_rss
from repro.relational import CompletionPath
from repro.relational.storage import STORE_META

from conftest import run_once

#: Roots of the in-RAM training slice (the model transplants onto any SF).
TRAIN_ROOTS = 2000
TRAIN = TrainConfig(epochs=4, batch_size=256, lr=1e-2, patience=2)
#: Root rows per join chunk: bounds per-chunk transients at every SF.
CHUNK = 8192
#: Workers of the SF-1 smoke's pooled join.
POOL_WORKERS = 2
PATH = CompletionPath(("site", "reading"))


def _fit_transplanted_model(cfg: ScaleConfig, db, annotation):
    """Fit on a small in-RAM prefix, transplant onto the mapped layout.

    The generator's capped fan-out keeps the tuple-factor vocabulary
    identical at every SF, so the small model's weights load onto the big
    layout unchanged — training cost stays O(slice), not O(SF).
    """
    slice_cfg = scale_training_slice(cfg, TRAIN_ROOTS)
    train_db, train_ann = generate_scale_incomplete(slice_cfg)
    config = ModelConfig(hidden=(24, 24), train=TRAIN)
    small = ARCompletionModel(
        PathLayout(train_db, train_ann, PATH,
                   build_encoders(train_db, num_bins=8),
                   tf_cap=cfg.fan_out_cap),
        config,
    )
    small.fit()
    big = ARCompletionModel(
        PathLayout(db, annotation, PATH, build_encoders(db, num_bins=8),
                   tf_cap=cfg.fan_out_cap),
        config,
    )
    big.load_state_dict(small.state_dict())
    big.mark_fitted_from_artifact()
    return big


def _measure_phase(fn):
    """Run ``fn`` and return (result, seconds, peak-RSS delta, resettable)."""
    base = current_rss_bytes()
    resettable = reset_peak_rss()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    delta = max(0, peak_rss_bytes() - base)
    return result, seconds, delta, resettable


def _materialized_result_bytes(completed) -> int:
    """Bytes the completed join occupies fully materialized in RAM."""
    store = completed.result.columns.store
    total = store.nbytes_materialized()
    for extra in (completed.codes, completed.context,
                  completed.result.weights,
                  completed.target_synthesized()):
        if extra is not None:
            total += int(np.asarray(extra[:1]).itemsize) * completed.num_rows
    return total


def _result_store_bytes(completed) -> int:
    """Bytes of the files the store-backed result maps: the column store's
    columns, dictionaries and ``store.json``, and the join arrays."""
    store = completed.result.columns.store
    names = {STORE_META}
    for column in store.names():
        spec = store.spec(column)
        names.update(name for name in (spec.file, spec.dict_file) if name)
    paths = [os.path.join(store.directory, name) for name in names]
    paths += [array.filename for array in (
        completed.codes, completed.context, completed.result.weights,
        completed.target_synthesized(),
    ) if array is not None]
    return sum(os.path.getsize(path) for path in paths)


def _same_files(a, b) -> bool:
    """Whether directories ``a`` and ``b`` hold the same files, byte for byte."""
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        filecmp.cmp(os.path.join(a, name), os.path.join(b, name), shallow=False)
        for name in names
    )


def _bench_generation(benchmark, tmp_path, scale_factor: float):
    cfg = ScaleConfig(scale_factor=scale_factor, seed=0)

    def generate():
        return generate_scale_incomplete(
            cfg, spill_dir=str(tmp_path / "db")
        )

    (db, _), seconds, rss_delta, resettable = _measure_phase(
        lambda: run_once(benchmark, generate)
    )
    rows = len(db.table("site")) + len(db.table("reading"))
    materialized = db.nbytes_materialized()
    benchmark.extra_info.update({
        "scale_factor": scale_factor,
        "rows": rows,
        "rows_per_sec": rows / seconds,
        "peak_rss_delta_bytes": rss_delta,
        "db_materialized_bytes": materialized,
    })
    print(f"\nSF {scale_factor:g} generation: {rows:,} rows in {seconds:.1f}s "
          f"({rows / seconds:,.0f} rows/s), peak RSS +{rss_delta / 1e6:.0f}MB "
          f"vs {materialized / 1e6:.0f}MB materialized")
    assert all(t.is_mapped for t in db.tables.values())
    assert rows > 0
    return db, rss_delta, materialized, resettable


def _bench_join(benchmark, tmp_path, scale_factor: float, pooled=False):
    cfg = ScaleConfig(scale_factor=scale_factor, seed=0)
    db, annotation = generate_scale_incomplete(cfg, spill_dir=str(tmp_path / "db"))
    model = _fit_transplanted_model(cfg, db, annotation)

    # Warmup: two chunks pay the one-time costs outside the measured phase.
    warm = IncompletenessJoin(model, seed=0, chunk_size=CHUNK,
                              spill_dir=str(tmp_path / "warm"))
    warm.assemble(warm.walk_chunks(warm.chunk_tasks()[:2]))
    del warm

    def complete():
        return IncompletenessJoin(
            model, seed=0, chunk_size=CHUNK,
            spill_dir=str(tmp_path / "join"),
        ).run()

    completed, seconds, rss_delta, resettable = _measure_phase(
        lambda: run_once(benchmark, complete)
    )
    rows = completed.num_rows
    in_ram_equivalent = db.nbytes_materialized() + _materialized_result_bytes(completed)
    # Each row is written once, into the result store; nothing else stays.
    spill_dir = tmp_path / "join"
    assert os.listdir(spill_dir) == ["result"]
    spill_bytes = sum(f.stat().st_size for f in spill_dir.rglob("*") if f.is_file())
    assert spill_bytes == _result_store_bytes(completed)
    benchmark.extra_info.update({
        "scale_factor": scale_factor,
        "join_rows": rows,
        "rows_per_sec": rows / seconds,
        "peak_rss_delta_bytes": rss_delta,
        "in_ram_equivalent_bytes": in_ram_equivalent,
        "rss_fraction_of_in_ram": rss_delta / in_ram_equivalent,
        "spill_bytes": spill_bytes,
        "spill_bytes_per_row": spill_bytes / rows,
    })
    print(f"\nSF {scale_factor:g} join: {rows:,} rows in {seconds:.1f}s "
          f"({rows / seconds:,.0f} rows/s), peak RSS +{rss_delta / 1e6:.0f}MB "
          f"vs {in_ram_equivalent / 1e6:.0f}MB in-RAM equivalent, "
          f"{spill_bytes / rows:.0f} spilled bytes per row")
    # More output rows than surviving evidence rows: synthesis happened.
    assert rows > len(db.table("reading"))
    assert np.all(completed.result.effective_weights() > 0)
    if pooled:
        _bench_pooled_join(benchmark, tmp_path, model)
    return completed, rss_delta, in_ram_equivalent, resettable


def _bench_pooled_join(benchmark, tmp_path, model):
    """The serial join's model and seed on a process pool, beside it.

    The caller appends each walked chunk as the pool yields it and holds
    at most two walked passes per worker; its peak-RSS delta is the
    caller's alone (VmHWM does not count the workers).
    """
    spill_dir = tmp_path / "pooled"

    def complete():
        return IncompletenessJoin(
            model, seed=0, chunk_size=CHUNK, n_workers=POOL_WORKERS,
            parallel_backend="process", spill_dir=str(spill_dir),
        ).run()

    completed, seconds, rss_delta, _ = _measure_phase(complete)
    rows = completed.num_rows
    assert os.listdir(spill_dir) == ["result"]
    assert _same_files(spill_dir / "result", tmp_path / "join" / "result")
    benchmark.extra_info.update({
        "pooled_workers": POOL_WORKERS,
        "pooled_rows_per_sec": rows / seconds,
        "pooled_peak_rss_delta_bytes": rss_delta,
    })
    print(f"Join on {POOL_WORKERS} process workers: {rows:,} rows in "
          f"{seconds:.1f}s ({rows / seconds:,.0f} rows/s), caller's peak RSS "
          f"+{rss_delta / 1e6:.0f}MB; result files equal the serial join's")


def test_scale_sf1_generation(benchmark, tmp_path):
    """SF 1 (~100k roots): streamed generation into the mapped store."""
    _bench_generation(benchmark, tmp_path, 1.0)


def test_scale_sf1_join(benchmark, tmp_path):
    """SF 1: the spilled join end to end (the per-push smoke size), serial
    and on a two-worker process pool."""
    _bench_join(benchmark, tmp_path, 1.0, pooled=True)


@pytest.mark.slow
def test_scale_sf10_join_bounded_rss(benchmark, tmp_path):
    """SF 10 (~1M roots): the streaming claim, asserted.

    The join's peak-RSS delta must stay below half of what the in-RAM
    pipeline holds (materialized database + materialized completed join)
    — i.e. streaming genuinely beats materializing, not just by a
    rounding error.
    """
    _, rss_delta, in_ram_equivalent, resettable = _bench_join(
        benchmark, tmp_path, 10.0
    )
    if not resettable:
        pytest.skip("kernel lacks /proc/self/clear_refs; cannot isolate phase RSS")
    assert rss_delta < 0.5 * in_ram_equivalent, (
        f"streaming join peaked at {rss_delta / 1e6:.0f}MB, expected "
        f"< 50% of the {in_ram_equivalent / 1e6:.0f}MB in-RAM equivalent"
    )


@pytest.mark.slow
def test_scale_sf100_generation_bounded_rss(benchmark, tmp_path):
    """SF 100 (~10M roots): generation streams with near-flat RSS.

    The generator writes pre-sized npy files block by block; its peak-RSS
    delta must stay below half the materialized database size no matter
    the SF.
    """
    _, rss_delta, materialized, resettable = _bench_generation(
        benchmark, tmp_path, 100.0
    )
    if not resettable:
        pytest.skip("kernel lacks /proc/self/clear_refs; cannot isolate phase RSS")
    assert rss_delta < 0.5 * materialized, (
        f"generation peaked at {rss_delta / 1e6:.0f}MB, expected < 50% of "
        f"the {materialized / 1e6:.0f}MB materialized database"
    )
