"""Biased tuple removal: derive incomplete databases from complete ones.

This reproduces the paper's removal protocol (§7.2/§7.3):

* **keep rate** — the fraction of tuples of the target table that survive.
* **removal correlation** — the strength of the bias.  For categorical
  attributes the removal probability correlates with one attribute *value*
  (the biased value); for continuous attributes it correlates with the
  normalized attribute value (approximating a target Pearson coefficient).
* **tuple-factor keep rate** — only a subset of parents keep their known
  tuple factors (20% movies / 30% housing in the paper).
* **dangling-link removal** — m:n link rows whose movie/parent was removed
  disappear too (the hardened movie-dataset protocol).

The result bundles the incomplete database, the matching schema annotation
(incl. TF masks) and the removal ground truth needed by the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..relational import Database, SchemaAnnotation, Table
from ..relational.keys import match_keys
from ..relational.tuple_factors import TF_UNKNOWN, observed_tuple_factors
from .mechanisms import MissingnessMechanism, _biased_scores


@dataclass(frozen=True)
class RemovalSpec:
    """How to remove tuples from one table.

    Attributes
    ----------
    table:
        The table to make incomplete.
    biased_attribute:
        The attribute whose values correlate with removal (the paper's
        protocol).  ``None`` when a ``mechanism`` decides instead.
    keep_rate:
        Fraction of rows kept.
    removal_correlation:
        Bias strength in ``[0, 1]``; 0 removes uniformly at random.
    biased_value:
        For categorical attributes: the value whose rows are preferentially
        removed.  Defaults to the most frequent value.
    mechanism:
        Optional :class:`~repro.incomplete.mechanisms.MissingnessMechanism`
        replacing the paper protocol's scoring (MCAR/MAR/MNAR/threshold/
        FK-cascade/temporal...).  The keep rate always stays with the spec.
    """

    table: str
    biased_attribute: Optional[str] = None
    keep_rate: float = 1.0
    removal_correlation: float = 0.0
    biased_value: Optional[object] = None
    mechanism: Optional[MissingnessMechanism] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.keep_rate <= 1.0:
            raise ValueError("keep_rate must be in (0, 1]")
        if not 0.0 <= self.removal_correlation <= 1.0:
            raise ValueError("removal_correlation must be in [0, 1]")
        if self.biased_attribute is None and self.mechanism is None:
            raise ValueError(
                f"RemovalSpec({self.table!r}): either a biased_attribute "
                f"(paper protocol) or a mechanism is required"
            )

    @property
    def mechanism_name(self) -> str:
        """The scenario-matrix vocabulary name of this spec's mechanism."""
        return self.mechanism.name if self.mechanism is not None else "biased"

    def validate_against(self, db: Database) -> None:
        """Raise ``ValueError`` when this spec cannot apply to ``db``."""
        if self.table not in db.table_names():
            raise ValueError(
                f"removal spec targets unknown table {self.table!r}; "
                f"have {sorted(db.table_names())}"
            )
        if self.mechanism is not None:
            self.mechanism.validate(db, self.table)
        if self.biased_attribute is not None:
            table = db.table(self.table)
            if self.biased_attribute not in table:
                raise ValueError(
                    f"removal spec for {self.table!r} biases on unknown "
                    f"attribute {self.biased_attribute!r}; "
                    f"have {table.column_names}"
                )

    def translated_for(self, db: Database) -> "RemovalSpec":
        """This spec, revalidated for re-application on another database.

        Used by the §5 derived selection scenarios: the incomplete database
        becomes ground truth and the same removal characteristics are
        re-applied.  Specs are immutable, so translation is validation —
        with a clear error when e.g. the biased attribute no longer exists
        on the (incomplete) table.
        """
        try:
            self.validate_against(db)
        except ValueError as exc:
            raise ValueError(
                f"cannot re-apply removal spec to the incomplete database: {exc}"
            ) from exc
        return self


@dataclass
class IncompleteDataset:
    """An incomplete database plus everything needed to evaluate completion.

    ``drop_dangling_links`` / ``dangling_parents`` record the cascade policy
    the dataset was produced under, so §5 re-removal
    (:func:`~repro.incomplete.scenarios.derive_selection_scenario`) applies
    the *same* characteristics instead of silently reverting to the default.
    """

    complete: Database
    incomplete: Database
    annotation: SchemaAnnotation
    keep_masks: Dict[str, np.ndarray]
    specs: Tuple[RemovalSpec, ...]
    drop_dangling_links: bool = True
    dangling_parents: Optional[Tuple[str, ...]] = None

    def kept_fraction(self, table: str) -> float:
        mask = self.keep_masks.get(table)
        if mask is None:
            return 1.0
        return float(mask.mean())


def removal_mask(
    table: Table,
    spec: RemovalSpec,
    rng: np.random.Generator,
    db: Optional[Database] = None,
) -> np.ndarray:
    """Boolean keep-mask implementing the removal for one table.

    The spec's mechanism (or the paper's biased protocol when none is set)
    scores every row — highest score removed first — and the keep rate
    decides how many go.  Mechanisms that look beyond the target table
    (MAR through a foreign key, FK-clustered removal) need ``db``; the
    single-table mechanisms and the legacy protocol do not.
    """
    n = len(table)
    num_remove = int(round((1.0 - spec.keep_rate) * n))
    if num_remove == 0:
        return np.ones(n, dtype=bool)
    if num_remove >= n:
        raise ValueError("removal would leave no tuples")

    if spec.mechanism is not None:
        if db is None:
            db = Database([table], [])
        scores = spec.mechanism.removal_scores(db, table.name, rng)
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (n,):
            raise ValueError(
                f"{spec.mechanism.describe()} returned {scores.shape} scores "
                f"for {n} rows of {table.name!r}"
            )
    else:
        # The paper's protocol (mathematically MNAR self-masking): bias on
        # one of the removed table's own attributes.
        values = table[spec.biased_attribute]
        scores = _biased_scores(
            values, table.meta(spec.biased_attribute).kind,
            spec.removal_correlation, spec.biased_value, rng,
        )

    # Remove the rows with the highest scores; ties broken by the random
    # jitter already contained in the scores.
    remove_idx = np.argpartition(scores, -num_remove)[-num_remove:]
    keep = np.ones(n, dtype=bool)
    keep[remove_idx] = False
    return keep


def make_incomplete(
    db: Database,
    specs: Sequence[RemovalSpec],
    tf_keep_rate: float = 1.0,
    drop_dangling_links: bool = True,
    dangling_parents: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> IncompleteDataset:
    """Apply biased removals and build the matching annotation.

    Parameters
    ----------
    db:
        The complete ground-truth database.
    specs:
        One removal per table to make incomplete.
    tf_keep_rate:
        Fraction of parent tuples that keep their known tuple factors for
        relationships into removed tables (paper: 0.2–0.3).
    drop_dangling_links:
        Also remove child rows (e.g. m:n link rows) that reference removed
        tuples, and mark those child tables incomplete.
    dangling_parents:
        Restrict the dangling cascade to links referencing these removed
        parent tables.  The paper's hardened movie protocol drops link rows
        whose *movie* was removed; links referencing removed directors /
        companies survive — their dangling foreign keys are exactly the
        evidence that a tuple is missing.  ``None`` cascades for every
        removed parent.
    seed:
        Randomness for removal, TF masks and dangling cleanup.
    """
    rng = np.random.default_rng(seed)
    keep_masks: Dict[str, np.ndarray] = {}
    incomplete_tables = {spec.table for spec in specs}
    if len(incomplete_tables) != len(specs):
        raise ValueError("at most one removal spec per table")
    for spec in specs:
        spec.validate_against(db)

    working = db.copy()
    for spec in specs:
        table = working.table(spec.table)
        keep = removal_mask(table, spec, rng, db=working)
        keep_masks[spec.table] = keep
        working = working.replace_table(table.select(keep))

    # Cascade: drop link rows referencing removed tuples.  A link table may
    # dangle against several removed parents (e.g. movie_company when both
    # movie and company tuples were removed) — cascades compose, and the
    # per-table keep mask always refers to the *original* rows.
    if drop_dangling_links:
        cascade_parents = (
            set(dangling_parents) if dangling_parents is not None
            else set(incomplete_tables)
        )
        for fk in working.foreign_keys:
            if fk.parent_table not in (incomplete_tables & cascade_parents):
                continue
            child = working.table(fk.child_table)
            keep = match_keys(
                working.table(fk.parent_table)[fk.parent_column],
                child[fk.child_column],
            ) >= 0
            if keep.all():
                continue
            prior = keep_masks.get(fk.child_table)
            if prior is None:
                keep_masks[fk.child_table] = keep
            else:
                combined = prior.copy()
                combined[np.flatnonzero(prior)] &= keep
                keep_masks[fk.child_table] = combined
            incomplete_tables.add(fk.child_table)
            working = working.replace_table(child.select(keep))

    annotation = SchemaAnnotation(
        complete_tables=set(working.table_names()) - incomplete_tables,
        incomplete_tables=incomplete_tables,
    )

    # Tuple-factor knowledge: for every FK whose child became incomplete,
    # ``tf_keep_rate`` of the surviving parents keep their *true* child
    # count (taken from the complete database); the rest are TF_UNKNOWN and
    # must be predicted by the completion models.
    for fk in working.foreign_keys:
        if fk.child_table not in incomplete_tables:
            continue
        true_tfs = observed_tuple_factors(db, fk)
        parent_keep = keep_masks.get(fk.parent_table)
        if parent_keep is not None:
            true_tfs = true_tfs[parent_keep]
        parent = working.table(fk.parent_table)
        known = rng.random(len(parent)) < tf_keep_rate
        annotated = np.where(known, true_tfs, TF_UNKNOWN).astype(np.int64)
        annotation.known_tuple_factors[str(fk)] = annotated

    return IncompleteDataset(
        complete=db,
        incomplete=working,
        annotation=annotation,
        keep_masks=keep_masks,
        specs=tuple(specs),
        drop_dangling_links=drop_dangling_links,
        dangling_parents=(
            tuple(dangling_parents) if dangling_parents is not None else None
        ),
    )
