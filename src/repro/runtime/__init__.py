"""Execution runtime: the float32 substrate of both hot paths.

:mod:`repro.nn` holds the networks' named float64 parameters; completion
(inference), ``fit`` (training) and §5 selection scoring all execute here:

* :mod:`~repro.runtime.kernels` — the dense/embedding/softmax layer kernels
  every float32 forward and backward is built from,
* :mod:`~repro.runtime.training` — the one network implementation:
  hand-derived fused forward+backward kernels over flat float32 parameter
  buffers (what ``fit`` trains with), and — over a frozen buffer — the
  inference forwards the join samples with, run over fixed-size row tiles
  so results are independent of batch chunking,
* :mod:`~repro.runtime.rng` — counter-based per-row random streams, making
  sampling a pure function of a row's lineage rather than batch order,
* :mod:`~repro.runtime.cache` — the one bounded LRU cache of chunk outputs
  and memoized completed joins, with hit/miss/eviction accounting,
* :mod:`~repro.runtime.parallel` — serial/thread/process executors that fan
  chunked work out over workers with deterministic, ordered merging.
"""

from . import kernels, rng
from .kernels import TILE
from .cache import CacheStats, PartialCacheStats, PartialJoinCache
from .training import (
    FusedResidualMADE,
    FusedTrainStepper,
    FusedTreeEncoder,
    ParameterBuffer,
)
from .parallel import (
    PARALLEL_BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_chunk_size,
    get_executor,
)
from .rng import chunk_slices

__all__ = [
    "kernels",
    "rng",
    "CacheStats",
    "PartialCacheStats",
    "PartialJoinCache",
    "ParameterBuffer",
    "FusedResidualMADE",
    "FusedTreeEncoder",
    "FusedTrainStepper",
    "TILE",
    "chunk_slices",
    "PARALLEL_BACKENDS",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "default_chunk_size",
]
