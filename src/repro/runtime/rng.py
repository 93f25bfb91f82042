"""Counter-based random streams for chunk-invariant sampling.

The incompleteness join synthesizes tuples with autoregressive sampling, and
the runtime executes it over row chunks (bounded memory).  A shared
``np.random.Generator`` would make every sampled value depend on how rows are
batched — chunked and unchunked runs would diverge.  Instead, every walk row
carries its own *stream id* (derived from its lineage: the root evidence row
plus the ordinal of every child expansion along the way) and a *draw
counter*.  A uniform draw is then the pure function

    u = splitmix64(seed ⊕ stream ⊕ counter)  →  [0, 1)

so any partition of the rows into chunks consumes exactly the same
randomness per row.  All operations are vectorized over ``uint64`` arrays.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Lineage tags keep the streams of different derivation sites disjoint.
TAG_CHILD = np.uint64(0x1B873593C2B2AE35)    # existing child joined in a fan-out hop
TAG_SYNTH = np.uint64(0x9E3779B185EBCA87)    # synthesized child of a fan-out hop
TAG_KEY = np.uint64(0xC2B2AE3D27D4EB4F)      # shared parent keyed by a dangling FK


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 arrays.

    One new array (the sum); every later step works in place on it.
    Array arithmetic wraps modulo 2**64 without a warning.
    """
    z = np.add(z, _GOLDEN, dtype=np.uint64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def fold_seed(seed: int) -> np.uint64:
    """Condition an arbitrary integer seed into a well-mixed 64-bit word."""
    return _splitmix64(np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF)]))[0]


def derive_streams(
    parent_streams: np.ndarray, tag: np.uint64, ordinals: np.ndarray
) -> np.ndarray:
    """Stream ids for rows derived from parent rows.

    ``ordinals`` disambiguates siblings created from the same parent (the
    child's database row for joined children, the synthesis ordinal for
    model-generated children).  Distinct (parent, tag, ordinal) triples map
    to distinct streams up to 64-bit hash collisions.
    """
    with np.errstate(over="ignore"):
        mixed = _splitmix64(np.asarray(parent_streams, dtype=np.uint64) ^ tag)
        return _splitmix64(
            mixed + _GOLDEN * np.asarray(ordinals, dtype=np.uint64)
        )


def key_streams(tag: np.uint64, keys: np.ndarray) -> np.ndarray:
    """Streams keyed by a database value (shared synthesized parents).

    Every chunk that needs the parent of dangling-FK key ``k`` derives the
    same stream, so the shared tuple is synthesized identically regardless
    of which chunk its children land in.
    """
    with np.errstate(over="ignore"):
        return _splitmix64(
            _splitmix64(np.asarray(keys, dtype=np.int64).view(np.uint64) ^ tag)
        )


def uniforms(
    seed64: np.uint64, streams: np.ndarray, counters: np.ndarray, k: int = 1
) -> np.ndarray:
    """``(rows, k)`` uniforms in ``[0, 1)``: draws ``counter .. counter+k-1``.

    Callers must advance their counters by ``k`` afterwards (see
    :func:`draw`), otherwise the same numbers are returned again.
    """
    streams = np.asarray(streams, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        lane = _splitmix64(streams ^ seed64)[:, None]
        ticks = counters[:, None] + np.arange(k, dtype=np.uint64)[None, :]
        bits = _splitmix64(lane + _GOLDEN * ticks)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def draw(
    seed64: np.uint64, streams: np.ndarray, counters: np.ndarray, k: int = 1
) -> np.ndarray:
    """Like :func:`uniforms` but advances ``counters`` in place by ``k``."""
    out = uniforms(seed64, streams, counters, k)
    counters += np.uint64(k)
    return out


def root_streams(row_indices: np.ndarray) -> np.ndarray:
    """Initial streams of root evidence rows (one per database row)."""
    return _splitmix64(np.asarray(row_indices, dtype=np.uint64))


def sample_categorical(
    probs: np.ndarray, u: np.ndarray, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Invert the per-row CDF of ``probs`` at the uniforms ``u``.

    The counter-based analogue of ``rng.random`` + CDF inversion; row order
    does not influence any other row's draw.  ``rows[i]`` names the row of
    ``probs`` that uniform ``i`` draws from (row ``i`` when ``None``): each
    distinct row's CDF is computed once and gathered for its draws.
    """
    cdf = np.cumsum(probs, axis=-1)
    cdf[:, -1] = 1.0  # guard against round-off
    if rows is not None:
        cdf = cdf[rows]
    return (np.asarray(u).reshape(-1, 1) > cdf).sum(axis=-1).astype(np.int64)


def _sample_rows(
    probs: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    draws: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized categorical sampling: one draw per row of ``probs``.

    ``draws`` supplies precomputed per-row uniforms (counter-based streams);
    otherwise one uniform per row is taken from ``rng``.
    """
    if draws is None:
        if rng is None:
            raise ValueError("_sample_rows needs either rng or draws")
        draws = rng.random(len(probs))
    return sample_categorical(probs, draws)


def chunk_slices(num_rows: int, chunk_size: Optional[int]) -> Iterator[slice]:
    """Row slices covering ``range(num_rows)`` in chunks of ``chunk_size``.

    ``None`` (or any non-positive value) yields a single full slice.
    """
    if chunk_size is None or chunk_size <= 0 or chunk_size >= num_rows:
        yield slice(0, num_rows)
        return
    for start in range(0, num_rows, chunk_size):
        yield slice(start, min(start + chunk_size, num_rows))
