"""Spatial shards over the cell grid: the routing geometry of the
sharded mobility engine.

The incremental engine (:meth:`Topology.apply_delta`) already confines a
link flip's effect to the dirty ball of radius ``k + metric_locality``
around its endpoints (Definition 2 locality).  To parallelise *within*
one mobile trace, the deployment area is partitioned into **shards** —
contiguous blocks of :class:`~repro.graph.cellgrid.CellGrid` cells — and
each shard re-decides the dirty nodes that fall inside its block.

Because the cell side is at least the transmission radius, one hop moves
a node by at most one cell in Chebyshev distance, so a dirty ball of
hop-radius ``r`` seeded at a flip endpoint stays within ``r`` cells of
that endpoint.  Giving every shard a **halo** of ``halo_cells = k +
metric_locality`` cells around its core block therefore guarantees that
a flip whose endpoint lies in a shard's core has its *entire* dirty ball
inside that shard's core + halo.  Conversely, a dirty node near a shard
boundary lies in the halo of every adjacent shard — those shards all
re-decide it (cross-shard handoff), and the driver's owner rule (lowest
shard id wins) picks the canonical forward-set entry deterministically.

The same geometry also bounds **memory**: a shard's re-decisions only
read the ``k + max(metric_locality, metric_value_radius)`` ball of each
node it answers for, and that ball stays within a fixed cell distance of
the node.  :class:`ShardSubgraph` materialises exactly that slice — a
partial :class:`~repro.graph.topology.Topology` over a shard's
core + halo **universe**, under its own stable
:class:`~repro.graph.nodeindex.NodeIndex` whose insertion-order bit
positions are the shard's *local* ids, with an explicit local↔global
mapping.  Workers in :mod:`repro.experiments.sharded` hold these
O(core + halo) replicas instead of full copies; the parent routes each
link flip only to the shards whose universe contains *both* endpoints
(an edge with an endpoint outside the universe is not part of the
induced subgraph), so every replica equals the induced global graph on
its universe at every step, and a re-decision whose decision ball lies
inside the universe is exact.

Shard assignment is pinned from one set of positions (the trace's base
snapshot) and stays byte-stable for the whole sweep: node movement
never re-routes a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..instrument import _STACK as _COUNTER_STACK
from .cellgrid import CellGrid
from .geometry import Point
from .topology import Edge, Topology

__all__ = ["ShardAssignment", "ShardGrid", "ShardSubgraph"]


@dataclass(frozen=True)
class ShardAssignment:
    """A pinned node-to-shard routing table.

    ``routed`` maps every node to the sorted tuple of all shards whose
    core + halo contains it — the shards that re-decide the node when it
    turns dirty.  It always includes the node's
    :meth:`ShardGrid.owner_of` shard.
    """

    routed: Dict[int, Tuple[int, ...]]


class ShardGrid:
    """A ``(sx, sy)`` grid of contiguous cell blocks over a deployment.

    The bounding box of ``positions`` (in cell coordinates, cell side
    from :class:`~repro.graph.cellgrid.CellGrid` for ``radius``) is
    split into ``sx`` runs of columns times ``sy`` runs of rows, as
    evenly as integer division allows; shard ids are row-major
    (``sid = by * sx + bx``).  Points outside the bounding box clamp
    into it, so every position maps to exactly one owning shard even
    after nodes wander past the box the grid was built from.
    """

    def __init__(
        self,
        positions: Dict[int, Point],
        radius: float,
        shape: Tuple[int, int] = (2, 2),
        halo_cells: int = 2,
    ) -> None:
        sx, sy = shape
        if sx < 1 or sy < 1:
            raise ValueError(f"shard shape must be >= 1x1, got {sx}x{sy}")
        if halo_cells < 0:
            raise ValueError(f"halo_cells must be >= 0, got {halo_cells}")
        self.shape = (int(sx), int(sy))
        self.halo_cells = int(halo_cells)
        self.cell_size = CellGrid(radius).cell_size
        cells = [self._cell_of(p) for p in positions.values()]
        if cells:
            self._min_cx = min(cx for cx, _cy in cells)
            self._max_cx = max(cx for cx, _cy in cells)
            self._min_cy = min(cy for _cx, cy in cells)
            self._max_cy = max(cy for _cx, cy in cells)
        else:
            self._min_cx = self._max_cx = 0
            self._min_cy = self._max_cy = 0
        self._x_starts = self._splits(self._max_cx - self._min_cx + 1, sx)
        self._y_starts = self._splits(self._max_cy - self._min_cy + 1, sy)

    @staticmethod
    def _splits(extent: int, blocks: int) -> List[int]:
        """Start offsets of ``blocks`` balanced runs over ``extent`` cells.

        Returns ``blocks + 1`` offsets (the last equals ``extent``); run
        ``i`` covers offsets ``[starts[i], starts[i+1])``.  The first
        ``extent % blocks`` runs get the extra cell, so the partition is
        deterministic and independent of the data.
        """
        base, extra = divmod(extent, blocks)
        starts = [0]
        for index in range(blocks):
            starts.append(starts[-1] + base + (1 if index < extra else 0))
        return starts

    @property
    def shard_count(self) -> int:
        """Total number of shards (``sx * sy``)."""
        return self.shape[0] * self.shape[1]

    def _cell_of(self, p: Point) -> Tuple[int, int]:
        return (
            math.floor(p.x / self.cell_size),
            math.floor(p.y / self.cell_size),
        )

    def _clamped_offsets(self, p: Point) -> Tuple[int, int]:
        """``p``'s cell as offsets into the bounding box, clamped."""
        cx, cy = self._cell_of(p)
        cx = min(max(cx, self._min_cx), self._max_cx)
        cy = min(max(cy, self._min_cy), self._max_cy)
        return cx - self._min_cx, cy - self._min_cy

    @staticmethod
    def _block_of(offset: int, starts: List[int]) -> int:
        """The run index whose ``[start, next_start)`` holds ``offset``.

        Zero-width runs (more blocks than cells) are skipped in favour of
        the first run that actually covers the offset.
        """
        for index in range(len(starts) - 1):
            if starts[index] <= offset < starts[index + 1]:
                return index
        return len(starts) - 2

    def owner_of(self, p: Point) -> int:
        """The shard whose core block contains ``p`` (clamped)."""
        ox, oy = self._clamped_offsets(p)
        bx = self._block_of(ox, self._x_starts)
        by = self._block_of(oy, self._y_starts)
        return by * self.shape[0] + bx

    def touching(
        self, p: Point, halo_cells: Optional[int] = None
    ) -> Tuple[int, ...]:
        """All shards whose core + halo contains ``p``, sorted by id.

        Always includes :meth:`owner_of`; additional entries are the
        neighbouring shards whose halo reaches ``p``'s cell — the shards
        that must also re-decide ``p``'s node when a nearby flip dirties
        it (cross-shard handoff).  ``halo_cells`` overrides the grid's
        default halo for this query: the sharded driver routes with the
        dirty-ball halo but extracts replica *universes* with a wider
        one (routing halo + decision radius), so a routed node's whole
        decision ball usually sits inside its shard's universe.
        """
        ox, oy = self._clamped_offsets(p)
        halo = self.halo_cells if halo_cells is None else int(halo_cells)
        if halo < 0:
            raise ValueError(f"halo_cells must be >= 0, got {halo}")
        sx, sy = self.shape
        xs = self._x_starts
        ys = self._y_starts
        hit: List[int] = []
        for by in range(sy):
            if ys[by] == ys[by + 1]:
                continue  # zero-width block: owns no cells, gets no work
            if not (ys[by] - halo <= oy <= ys[by + 1] - 1 + halo):
                continue
            for bx in range(sx):
                if xs[bx] == xs[bx + 1]:
                    continue
                if xs[bx] - halo <= ox <= xs[bx + 1] - 1 + halo:
                    hit.append(by * sx + bx)
        return tuple(hit)

    def assign(self, positions: Dict[int, Point]) -> ShardAssignment:
        """Pin every node's routed-shard tuple from ``positions``.

        Iterates ``positions`` in insertion order, so the resulting
        table is byte-stable for a given deployment.
        """
        return ShardAssignment(
            routed={node: self.touching(p) for node, p in positions.items()}
        )


class ShardSubgraph:
    """A shard's partial topology replica over its core + halo universe.

    Holds the induced subgraph of the global topology on the shard's
    **universe** (the member nodes, in the parent's insertion order) as
    a fully independent :class:`~repro.graph.topology.Topology`: the
    replica's own :meth:`~repro.graph.topology.Topology.node_index`
    assigns bit positions in that same order, and those positions are
    the shard's *local* ids.  ``to_local``/``to_global`` translate
    between the worker protocol's compact local indices and the global
    ids the merge step speaks.

    The replica is kept current by :meth:`apply_flips`: the parent
    routes a link flip to every shard whose universe contains **both**
    endpoints, so after each step the replica equals the induced global
    graph on its universe — an edge with an endpoint outside the
    universe is not part of the induced subgraph and is never shipped.
    The membership filter inside :meth:`apply_flips` re-derives that
    rule locally, so the replica stays consistent even if a caller
    passes the unrouted flip list.

    State (``_global_nodes``, ``_local_of``, ``_subgraph``) is owned by
    this class alone; detlint DET010 flags foreign writes to any of it.
    """

    def __init__(
        self,
        shard_id: int,
        nodes: Iterable[int],
        edges: Iterable[Edge],
    ) -> None:
        self.shard_id = int(shard_id)
        self._global_nodes: Tuple[int, ...] = tuple(nodes)
        self._local_of: Dict[int, int] = {
            node: position
            for position, node in enumerate(self._global_nodes)
        }
        if len(self._local_of) != len(self._global_nodes):
            raise ValueError("duplicate node ids in shard universe")
        self._subgraph = Topology(nodes=self._global_nodes, edges=edges)

    @classmethod
    def extract(
        cls,
        shard_id: int,
        topology: Topology,
        members: Iterable[int],
    ) -> "ShardSubgraph":
        """Materialise the induced subgraph of ``topology`` on ``members``.

        Membership is resolved through the parent's node index, so the
        universe tuple (and with it every local id) follows the parent's
        insertion order regardless of the order ``members`` arrives in —
        the property that keeps local ids byte-stable across jobs
        counts.  Edges are read off the parent's adjacency-mask rows
        restricted to the member mask.
        """
        index = topology.node_index()
        member_mask = index.mask_of(members)
        ordered = index.members(member_mask)
        mask_index, rows = topology.adjacency_masks()
        edges: List[Edge] = []
        for u in ordered:
            row = rows[mask_index.position(u)] & member_mask
            for v in mask_index.members(row):
                if u < v:
                    edges.append((u, v))
        return cls(shard_id, ordered, edges)

    @property
    def graph(self) -> Topology:
        """The partial replica itself (induced subgraph, global ids)."""
        return self._subgraph

    @property
    def global_nodes(self) -> Tuple[int, ...]:
        """The universe in local-id order (``global_nodes[local] = gid``)."""
        return self._global_nodes

    def __len__(self) -> int:
        return len(self._global_nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._local_of

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardSubgraph(shard_id={self.shard_id}, "
            f"nodes={len(self._global_nodes)}, "
            f"edges={self._subgraph.edge_count()})"
        )

    def to_local(self, node: int) -> int:
        """The local id (bit position) of global ``node``."""
        return self._local_of[node]

    def to_global(self, position: int) -> int:
        """The global id at local ``position``."""
        return self._global_nodes[position]

    def apply_flips(
        self,
        added: Iterable[Edge],
        removed: Iterable[Edge],
        extra_radii: Iterable[int] = (),
    ) -> int:
        """Apply one step's link flips to the replica; count applied.

        Flips with an endpoint outside the universe are dropped (they do
        not exist in the induced subgraph), so passing the full global
        flip list is safe — the parent's routing merely avoids shipping
        flips this filter would discard anyway.  Applied flips go
        through :meth:`~repro.graph.topology.Topology.apply_delta`, so
        the replica's mask/word-table rows are patched in place under
        its stable local index.
        """
        local_of = self._local_of
        local_added = [
            (u, v) for u, v in added if u in local_of and v in local_of
        ]
        local_removed = [
            (u, v) for u, v in removed if u in local_of and v in local_of
        ]
        self._subgraph.apply_delta(
            added_edges=local_added,
            removed_edges=local_removed,
            extra_radii=extra_radii,
        )
        applied = len(local_added) + len(local_removed)
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].shard_flips_applied += applied
        return applied
