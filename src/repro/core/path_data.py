"""Variable layout and training-data assembly for path completion models.

A completion model for a path ``T_1 -> … -> T_m`` (paper §3.2/§3.4) is an
autoregressive model over all modelable columns along the path, in path
order, with a tuple-factor variable inserted before every fan-out hop:

.. code-block:: text

    [ cols(T_1) | TF(T_1→T_2)? | cols(T_2) | TF(T_2→T_3)? | … | cols(T_m) ]

The fixed ordering makes the same trained model usable for every hop of the
path (and, via merging, for sub-paths): completing hop *j* means sampling
the variables of slot *j* conditioned on everything before.

Training rows are assembled by joining the *available* data along the path;
tuple-factor variables take the annotated true counts where known and the
reserved ``unknown`` code elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..encoding import TableEncoder, TupleFactorCodec
from ..query import join_tables
from ..relational import (
    CompletionPath,
    Database,
    ForeignKey,
    SchemaAnnotation,
)
from ..relational.tuple_factors import TF_UNKNOWN, observed_tuple_factors


@dataclass(frozen=True)
class VariableSpec:
    """One autoregressive variable of a path model."""

    name: str            # "table.column" or "tf:<fk>"
    is_tuple_factor: bool
    table: str           # owning table (for TFs: the parent/evidence table)
    slot: int            # path position whose hop samples this variable
    vocab_size: int


class PathLayout:
    """The ordered variable layout of one completion path.

    Parameters
    ----------
    db / annotation:
        The incomplete database and its completeness annotation.
    path:
        The completion path.
    encoders:
        Shared per-table encoders (one code space per table across models —
        a prerequisite for model merging).
    tf_cap:
        Cap for the categorical tuple-factor encoding.
    """

    def __init__(
        self,
        db: Database,
        annotation: SchemaAnnotation,
        path: CompletionPath,
        encoders: Dict[str, TableEncoder],
        tf_cap: Optional[int] = None,
    ):
        self.db = db
        self.annotation = annotation
        self.path = path
        self.encoders = encoders

        self.variables: List[VariableSpec] = []
        self._slot_ranges: List[Tuple[int, int]] = []
        self.fan_out_hops: Dict[int, ForeignKey] = {}
        self.tf_codecs: Dict[int, TupleFactorCodec] = {}

        for slot, table in enumerate(path.tables):
            start = len(self.variables)
            if slot > 0:
                prev = path.tables[slot - 1]
                fk = db.fk_between(prev, table)
                if db.is_fan_out_step(prev, table):
                    self.fan_out_hops[slot] = fk
                    codec = TupleFactorCodec(
                        tf_cap if tf_cap is not None else self._adaptive_cap(slot, fk)
                    )
                    self.tf_codecs[slot] = codec
                    self.variables.append(
                        VariableSpec(
                            name=f"tf:{fk}",
                            is_tuple_factor=True,
                            table=prev,
                            slot=slot,
                            vocab_size=codec.vocab_size,
                        )
                    )
            encoder = encoders[table]
            for column, vocab in zip(encoder.columns, encoder.vocab_sizes()):
                self.variables.append(
                    VariableSpec(
                        name=f"{table}.{column}",
                        is_tuple_factor=False,
                        table=table,
                        slot=slot,
                        vocab_size=vocab,
                    )
                )
            self._slot_ranges.append((start, len(self.variables)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def vocab_sizes(self) -> List[int]:
        return [v.vocab_size for v in self.variables]

    def slot_range(self, slot: int) -> Tuple[int, int]:
        """Variable index range ``[start, stop)`` owned by path slot ``slot``."""
        return self._slot_ranges[slot]

    def slot_variables(self, slot: int) -> List[int]:
        start, stop = self._slot_ranges[slot]
        return list(range(start, stop))

    def target_variables(self) -> List[int]:
        """Variables of the final (incomplete target) table plus its TF."""
        return self.slot_variables(len(self.path.tables) - 1)

    def tf_variable_index(self, slot: int) -> Optional[int]:
        """Index of the TF variable sampled at ``slot`` (None if n:1 hop)."""
        if slot not in self.fan_out_hops:
            return None
        start, _ = self._slot_ranges[slot]
        return start

    def tf_codec_for(self, slot: int) -> TupleFactorCodec:
        """The tuple-factor codec of the fan-out hop entering ``slot``."""
        if slot not in self.tf_codecs:
            raise KeyError(f"slot {slot} is not a fan-out hop")
        return self.tf_codecs[slot]

    def _adaptive_cap(self, slot: int, fk: ForeignKey) -> int:
        """Cap the TF vocabulary just above the largest count we can observe.

        Known annotated TFs are true counts; observed counts are a lower
        bound.  A 30% margin leaves headroom for parents whose true count is
        unknown, bounded to keep the categorical head tractable.
        """
        candidates = [int(observed_tuple_factors(self.db, fk).max(initial=0))]
        annotated = self.annotation.tuple_factors_for(
            fk, len(self.db.table(fk.parent_table))
        )
        if annotated is not None:
            candidates.append(int(annotated.max(initial=0)))
        best = max(candidates)
        return int(np.clip(round(best * 1.3) + 1, 5, 250))

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def decode_slot_codes(
        self,
        slot: int,
        codes: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        uniforms: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Decode a slot's column block (TF excluded) back to raw values.

        ``uniforms`` forwards per-row dequantization draws to the codecs
        (see :meth:`repro.encoding.TableEncoder.decode_codes`).
        """
        table = self.path.tables[slot]
        return self.encoders[table].decode_codes(codes, rng=rng, uniforms=uniforms)

    def annotated_tfs(self, slot: int) -> np.ndarray:
        """Per-parent annotated tuple factors for the fan-out hop at ``slot``.

        True counts where the user annotation covers the parent tuple,
        ``TF_UNKNOWN`` elsewhere.  Aligned with the rows of the parent table
        in the (incomplete) database.
        """
        fk = self.fan_out_hops[slot]
        parent = self.db.table(fk.parent_table)
        annotated = self.annotation.tuple_factors_for(fk, len(parent))
        if annotated is not None:
            return annotated
        if self.annotation.is_complete(fk.child_table):
            return observed_tuple_factors(self.db, fk)
        return np.full(len(parent), TF_UNKNOWN, dtype=np.int64)


@dataclass
class TrainingData:
    """Encoded training rows of one path model plus row provenance.

    ``row_positions[table]`` holds, for every training row, the row index of
    the contributing tuple within the (incomplete) database's table — SSAR
    models need the root-table positions to attach evidence trees and the
    target-table positions for leave-one-out self-evidence.
    """

    matrix: np.ndarray
    row_positions: Dict[str, np.ndarray]

    @property
    def num_rows(self) -> int:
        return len(self.matrix)


def assemble_training_data(layout: PathLayout) -> TrainingData:
    """Join the available data along the path and encode it in layout order.

    Incomplete intermediate tables contribute only their available rows —
    the central consistency assumption (§2.4) is that the conditionals
    learned from the available rows transfer to the missing ones.
    """
    from ..relational import ColumnKind

    db = layout.db
    path = layout.path

    tf_columns: Dict[int, str] = {}
    working = db
    for slot, fk in layout.fan_out_hops.items():
        column = f"__tf_slot{slot}"
        parent = working.table(fk.parent_table)
        annotated = layout.annotated_tfs(slot)
        working = working.replace_table(
            parent.with_column(column, annotated, ColumnKind.KEY)
        )
        tf_columns[slot] = f"{fk.parent_table}.{column}"

    # Row-position bookkeeping columns (stripped after the join).
    for table_name in path.tables:
        table = working.table(table_name)
        working = working.replace_table(
            table.with_column(
                f"__pos_{table_name}", np.arange(len(table)), ColumnKind.KEY
            )
        )

    joined = join_tables(working, list(path.tables))

    blocks: List[np.ndarray] = []
    for slot, table in enumerate(path.tables):
        if slot in layout.fan_out_hops:
            tfs = joined.columns[tf_columns[slot]].astype(np.int64)
            blocks.append(layout.tf_codecs[slot].encode(tfs)[:, None])
        encoder = layout.encoders[table]
        if encoder.columns:
            cols = {c: joined.columns[f"{table}.{c}"] for c in encoder.columns}
            blocks.append(encoder.encode_columns(cols))
    if blocks:
        matrix = np.concatenate(blocks, axis=1)
    else:
        matrix = np.zeros((joined.num_rows, 0), dtype=np.int64)

    row_positions = {
        table: joined.columns[f"{table}.__pos_{table}"].astype(np.int64)
        for table in path.tables
    }
    return TrainingData(matrix=matrix, row_positions=row_positions)


def build_encoders(db: Database, num_bins: int = 32) -> Dict[str, TableEncoder]:
    """Fit one shared :class:`TableEncoder` per table of the database."""
    return {name: TableEncoder(db.table(name), num_bins) for name in db.table_names()}
