"""Scale tier walkthrough: complete a larger-than-comfortable database
without ever materializing it.

The pipeline in four steps, each memory-bounded:

1. **Generate out of core** — the counter-based scale generator streams
   an SF-1 database (~100k sites, ~170k surviving readings after MCAR
   removal) straight into a memory-mapped column store; no full table
   ever exists in RAM.
2. **Train on a slice** — every row is a pure function of (seed,
   lineage), so a 2000-root prefix of the *same universe* is regenerated
   in RAM for cheap model fitting.  The capped fan-out vocabulary makes
   the small model's weights transplant onto the big layout unchanged.
3. **Stream the incompleteness join** — chunked walk over the mapped
   root table, each completed chunk appended to a store-backed result
   as soon as it is walked, so every row is written to disk once.  Peak
   RSS tracks the chunk size, not the table.
4. **Query the completed join** — the weighted result corrects the
   aggregate that incompleteness biased.

Run with ``python examples/scale_demo.py`` (a few seconds at the default
SF 1; raise ``SCALE_FACTOR`` to 10 for the ~1M-root tier, where
``benchmarks/bench_scale.py`` asserts the peak-RSS bound).
"""

import tempfile
import time

from repro.core import (
    ARCompletionModel,
    IncompletenessJoin,
    ModelConfig,
    PathLayout,
    build_encoders,
)
from repro.datasets import ScaleConfig, generate_scale_incomplete
from repro.datasets.scale import fan_outs, scale_training_slice
from repro.nn import TrainConfig
from repro.obs import current_rss_bytes, peak_rss_bytes, reset_peak_rss
from repro.relational import CompletionPath

SCALE_FACTOR = 1.0


def main() -> None:
    cfg = ScaleConfig(scale_factor=SCALE_FACTOR, seed=0)
    path = CompletionPath(("site", "reading"))

    with tempfile.TemporaryDirectory() as workdir:
        # -- 1. generate straight into the mapped store ----------------
        t0 = time.perf_counter()
        db, annotation = generate_scale_incomplete(
            cfg, spill_dir=f"{workdir}/db"
        )
        rows = len(db.table("site")) + len(db.table("reading"))
        print(f"generated {rows:,} rows out of core "
              f"in {time.perf_counter() - t0:.1f}s "
              f"(mapped: {all(t.is_mapped for t in db.tables.values())})")

        # -- 2. fit on a regenerated in-RAM prefix ---------------------
        t0 = time.perf_counter()
        slice_cfg = scale_training_slice(cfg, 2000)
        train_db, train_ann = generate_scale_incomplete(slice_cfg)
        config = ModelConfig(
            hidden=(24, 24),
            train=TrainConfig(epochs=6, batch_size=256, lr=1e-2, patience=3),
        )
        small = ARCompletionModel(
            PathLayout(train_db, train_ann, path,
                       build_encoders(train_db, num_bins=8),
                       tf_cap=cfg.fan_out_cap),
            config,
        )
        small.fit()
        model = ARCompletionModel(
            PathLayout(db, annotation, path, build_encoders(db, num_bins=8),
                       tf_cap=cfg.fan_out_cap),
            config,
        )
        model.load_state_dict(small.state_dict())
        model.mark_fitted_from_artifact()
        print(f"trained on a {slice_cfg.num_roots}-root slice and "
              f"transplanted in {time.perf_counter() - t0:.1f}s")

        # -- 3. stream the join, watching peak RSS ---------------------
        base = current_rss_bytes()
        reset_peak_rss()
        t0 = time.perf_counter()
        completed = IncompletenessJoin(
            model, seed=0, chunk_size=8192, spill_dir=f"{workdir}/join"
        ).run()
        seconds = time.perf_counter() - t0
        delta = max(0, peak_rss_bytes() - base)
        print(f"streaming join: {completed.num_rows:,} rows in {seconds:.1f}s "
              f"({completed.num_rows / seconds:,.0f} rows/s), "
              f"peak RSS +{delta / 1e6:.0f}MB "
              f"(database materialized: {db.nbytes_materialized() / 1e6:.0f}MB; "
              f"the peak tracks chunk size, not SF)")

        # -- 4. the completed estimate vs truth and raw evidence -------
        weights = completed.result.effective_weights()
        true_total = int(fan_outs(cfg, 0, cfg.num_roots).sum())
        observed = len(db.table("reading"))
        estimate = float(weights.sum())
        print(f"COUNT(reading): true {true_total:,}, observed {observed:,} "
              f"({observed / true_total:.0%}), completed estimate "
              f"{estimate:,.0f} ({estimate / true_total:.0%})")


if __name__ == "__main__":
    main()
