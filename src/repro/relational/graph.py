"""Schema-graph walks: completion paths and fan-out evidence discovery.

ReStore needs two kinds of traversals over the foreign-key graph:

* **Completion paths** (§3.2, §5): simple paths ``T_1 — … — T_n — T_m`` from
  a *complete* table to the incomplete target.  Intermediate evidence tables
  must not introduce fan-out relative to the walk direction (each step toward
  the target except the last must be n:1 when read from the evidence side);
  the final hop may be 1:n (then tuple factors determine how many tuples to
  synthesize) or n:1.
* **Fan-out relations** (§3.3): for SSAR models, the acyclic walk that
  gathers additional 1:n evidence hanging off the evidence tables — these
  become deep-sets tree inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .schema import Database, SchemaAnnotation


@dataclass(frozen=True)
class CompletionPath:
    """An ordered walk from an evidence table to the incomplete target.

    ``tables[0]`` is the root evidence table and ``tables[-1]`` the
    incomplete table to synthesize.  ``tables[:-1]`` all must be complete.
    """

    tables: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tables) < 2:
            raise ValueError("a completion path needs at least evidence + target")
        if len(set(self.tables)) != len(self.tables):
            raise ValueError(f"completion path revisits a table: {self.tables}")

    @property
    def target(self) -> str:
        return self.tables[-1]

    @property
    def length(self) -> int:
        """Number of hops (paper's "path distance")."""
        return len(self.tables) - 1

    def __str__(self) -> str:
        return " -> ".join(self.tables)


def enumerate_completion_paths(
    db: Database,
    annotation: SchemaAnnotation,
    target: str,
    max_length: int = 6,
) -> List[CompletionPath]:
    """All admissible completion paths ending at the incomplete ``target``.

    Completion walks (Algorithm 1) repeatedly apply incompleteness joins, so
    interior tables may themselves be incomplete — the movie setups complete
    ``movie`` through the incomplete m:n link tables (§4.3), and the
    long-distance M4/M5 paths traverse several incomplete tables.  A path
    ``T_1, …, T_n, target`` (read root → target) is admissible when:

    * the root ``T_1`` is annotated complete (it seeds the walk with real
      evidence tuples),
    * every hop ``A -> B`` into a *complete* table ``B`` is 1:n — an n:1 hop
      into a complete table duplicates evidence tuples without completing
      anything, which is exactly the fan-out-evidence situation §3.2 rules
      out (the same evidence is reachable by rooting the path at ``B``'s
      side instead); hops into *incomplete* tables may go either way, since
      the incompleteness join synthesizes the missing side,
    * the path is simple (acyclic walk).

    Paths are returned shortest-first, root-table alphabetical second, which
    makes downstream selection deterministic.
    """
    if annotation.is_complete(target):
        raise ValueError(f"{target} is annotated complete; nothing to synthesize")

    paths: List[CompletionPath] = []

    def extend(prefix: List[str]) -> None:
        """Grow a partial path back-to-front: prefix ends at the target."""
        head = prefix[0]
        for neighbor in db.neighbors(head):
            if neighbor in prefix:
                continue
            # Hop neighbor -> head (toward the target): if head is complete
            # it must be the fan-out direction; incomplete tables (incl. the
            # target) accept both directions.
            head_complete = head != target and annotation.is_complete(head)
            if head_complete and not db.is_fan_out_step(neighbor, head):
                continue
            candidate = [neighbor, *prefix]
            if annotation.is_complete(neighbor):
                paths.append(CompletionPath(tuple(candidate)))
            if len(candidate) <= max_length:
                extend(candidate)

    extend([target])
    # Deduplicate (a prefix may be reachable through different recursions).
    unique = {p.tables: p for p in paths}
    ordered = sorted(unique.values(), key=lambda p: (p.length, p.tables))
    return ordered


def fan_out_relations(
    db: Database,
    annotation: SchemaAnnotation,
    path: CompletionPath,
    include_self_evidence: bool = True,
    max_depth: int = 2,
) -> List[Tuple[str, ...]]:
    """Fan-out walks usable as SSAR tree evidence for a completion path.

    Returns walks starting at the *root evidence table* ``path.tables[0]``
    into 1:n neighbourhoods not already on the path (paper §3.3).  When
    ``include_self_evidence`` is set and the last hop is 1:n, the target
    table itself is included as a walk — the already-available target tuples
    become self-evidence.

    Each walk is a tuple ``(root, child, [grandchild, …])``; depth is capped
    to keep training-data assembly tractable.
    """
    root = path.tables[0]
    walks: List[Tuple[str, ...]] = []

    def descend(prefix: Tuple[str, ...], depth: int) -> None:
        head = prefix[-1]
        for neighbor in db.neighbors(head):
            if neighbor in prefix or neighbor in path.tables[:-1]:
                continue
            if not db.is_fan_out_step(head, neighbor):
                continue
            is_target = neighbor == path.target
            if is_target and (not include_self_evidence or len(prefix) > 1):
                continue
            if not is_target and not annotation.is_complete(neighbor):
                continue
            walk = prefix + (neighbor,)
            walks.append(walk)
            if depth + 1 < max_depth:
                descend(walk, depth + 1)

    descend((root,), 0)
    return walks


def join_order(db: Database, tables: Sequence[str]) -> List[Tuple[str, str]]:
    """An edge sequence joining ``tables`` one hop at a time.

    Returns ``(already_joined_table, new_table)`` pairs forming a spanning
    tree of the induced subgraph; raises if the tables are not connected
    through each other (the paper restricts queries to acyclic FK joins).
    """
    remaining = list(tables)
    if not remaining:
        return []
    joined = {remaining.pop(0)}
    order: List[Tuple[str, str]] = []
    while remaining:
        for i, candidate in enumerate(remaining):
            anchor = next(
                (t for t in joined if db.fks_between(t, candidate)), None
            )
            if anchor is not None:
                order.append((anchor, candidate))
                joined.add(candidate)
                remaining.pop(i)
                break
        else:
            raise ValueError(
                f"tables {remaining} are not FK-connected to {sorted(joined)}"
            )
    return order
