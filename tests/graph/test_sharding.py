"""Tests for the spatial shard grid geometry."""

import random

import pytest

from repro.graph.geometry import Area, Point, random_points
from repro.graph.sharding import ShardGrid, ShardSubgraph
from repro.graph.topology import Topology
from repro.instrument import collecting


def _positions(seed: int = 3, count: int = 60):
    return random_points(count, Area(), random.Random(seed))


class TestShardGridGeometry:
    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            ShardGrid(_positions(), 10.0, shape=(0, 2))
        with pytest.raises(ValueError):
            ShardGrid(_positions(), 10.0, shape=(2, 0))
        with pytest.raises(ValueError):
            ShardGrid(_positions(), 10.0, halo_cells=-1)

    def test_owner_unique_and_routed(self):
        positions = _positions()
        grid = ShardGrid(positions, 12.0, shape=(3, 2), halo_cells=2)
        for p in positions.values():
            owner = grid.owner_of(p)
            routed = grid.touching(p)
            assert owner in routed
            assert routed == tuple(sorted(routed))
            assert all(0 <= sid < grid.shard_count for sid in routed)

    def test_assignment_covers_every_node(self):
        positions = _positions()
        grid = ShardGrid(positions, 12.0, shape=(2, 2), halo_cells=1)
        assignment = grid.assign(positions)
        assert set(assignment.routed) == set(positions)
        for node, p in positions.items():
            assert grid.owner_of(p) in assignment.routed[node]

    def test_single_shard_routes_everything_to_zero(self):
        positions = _positions()
        grid = ShardGrid(positions, 12.0, shape=(1, 1), halo_cells=3)
        for p in positions.values():
            assert grid.owner_of(p) == 0
            assert grid.touching(p) == (0,)

    def test_core_blocks_partition_the_bounding_box(self):
        positions = _positions()
        grid = ShardGrid(positions, 12.0, shape=(3, 2), halo_cells=0)
        side = grid.cell_size
        blocks = {}
        # Every cell of the bounding box has exactly one owner (the
        # centre point of the cell asks owner_of)...
        for cx in range(grid._min_cx, grid._max_cx + 1):
            for cy in range(grid._min_cy, grid._max_cy + 1):
                centre = Point((cx + 0.5) * side, (cy + 0.5) * side)
                blocks.setdefault(grid.owner_of(centre), set()).add((cx, cy))
        # ...every shard owns some cells, and each shard's cells fill a
        # solid rectangle: the core blocks tile the box.
        assert sorted(blocks) == list(range(grid.shard_count))
        for cells in blocks.values():
            xs = [cx for cx, _cy in cells]
            ys = [cy for _cx, cy in cells]
            width = max(xs) - min(xs) + 1
            height = max(ys) - min(ys) + 1
            assert len(cells) == width * height, "core block not a rectangle"

    def test_zero_halo_means_no_handoff(self):
        positions = _positions()
        grid = ShardGrid(positions, 12.0, shape=(4, 4), halo_cells=0)
        for p in positions.values():
            assert grid.touching(p) == (grid.owner_of(p),)

    def test_points_outside_bounding_box_clamp(self):
        positions = {0: Point(40.0, 40.0), 1: Point(60.0, 60.0)}
        grid = ShardGrid(positions, 10.0, shape=(2, 2), halo_cells=0)
        far = Point(1e6, -1e6)
        owner = grid.owner_of(far)
        assert 0 <= owner < grid.shard_count
        assert owner in grid.touching(far)

    def test_empty_positions_degenerate_grid(self):
        grid = ShardGrid({}, 10.0, shape=(2, 2), halo_cells=1)
        assert grid.shard_count == 4
        assert grid.assign({}).routed == {}
        # Every point clamps into the single (0, 0) cell; with more
        # blocks than cells, the zero-width runs are skipped.
        assert grid.owner_of(Point(55.0, 5.0)) == 0

    def test_balanced_splits(self):
        assert ShardGrid._splits(10, 2) == [0, 5, 10]
        assert ShardGrid._splits(10, 3) == [0, 4, 7, 10]
        assert ShardGrid._splits(2, 4) == [0, 1, 2, 2, 2]

    def test_more_shards_than_cells_skips_empty_blocks(self):
        # Two cells along x, four x-blocks: blocks 2 and 3 are
        # zero-width and must never appear in owner/touching output.
        positions = {0: Point(5.0, 5.0), 1: Point(15.0, 5.0)}
        grid = ShardGrid(positions, 10.0, shape=(4, 1), halo_cells=5)
        for p in positions.values():
            routed = grid.touching(p)
            assert set(routed) <= {0, 1}

    def test_halo_widens_routing(self):
        positions = _positions()
        tight = ShardGrid(positions, 12.0, shape=(3, 3), halo_cells=0)
        wide = ShardGrid(positions, 12.0, shape=(3, 3), halo_cells=2)
        widened = 0
        for p in positions.values():
            assert set(tight.touching(p)) <= set(wide.touching(p))
            if len(wide.touching(p)) > len(tight.touching(p)):
                widened += 1
        assert widened > 0, "halo of 2 cells never widened any routing"

    def test_touching_halo_override(self):
        positions = _positions()
        grid = ShardGrid(positions, 12.0, shape=(3, 3), halo_cells=0)
        for p in positions.values():
            # Explicit halo widens routing beyond the grid default...
            assert set(grid.touching(p)) <= set(grid.touching(p, halo_cells=2))
            # ...and a None override means the grid default.
            assert grid.touching(p, halo_cells=None) == grid.touching(p)
        with pytest.raises(ValueError):
            grid.touching(next(iter(positions.values())), halo_cells=-1)


class TestShardSubgraph:
    def _line_topology(self, n=8):
        return Topology(nodes=range(n), edges=[(i, i + 1) for i in range(n - 1)])

    def test_extract_induced_subgraph_in_parent_order(self):
        topo = self._line_topology()
        sub = ShardSubgraph.extract(2, topo, [5, 3, 4])  # arbitrary order
        assert sub.shard_id == 2
        # Universe follows the parent's insertion order, not the
        # caller's, so local ids are byte-stable.
        assert sub.global_nodes == (3, 4, 5)
        assert sorted(sub.graph.edges()) == [(3, 4), (4, 5)]
        assert len(sub) == 3
        assert 4 in sub and 6 not in sub

    def test_local_global_round_trip(self):
        topo = self._line_topology()
        sub = ShardSubgraph.extract(0, topo, [2, 3, 4, 5])
        for node in sub.global_nodes:
            assert sub.to_global(sub.to_local(node)) == node
        index = sub.graph.node_index()
        for node in sub.global_nodes:
            assert index.position(node) == sub.to_local(node)
        with pytest.raises(KeyError):
            sub.to_local(7)

    def test_apply_flips_filters_foreign_endpoints(self):
        topo = self._line_topology()
        sub = ShardSubgraph.extract(0, topo, [2, 3, 4])
        # (4, 5) has endpoint 5 outside the universe: dropped.
        assert sub.apply_flips([(2, 4)], [(4, 5)]) == 1
        assert sorted(sub.graph.edges()) == [(2, 3), (2, 4), (3, 4)]

    def test_apply_flips_counts_into_the_active_scope(self):
        topo = self._line_topology()
        sub = ShardSubgraph.extract(0, topo, [2, 3, 4])
        with collecting() as counters:
            sub.apply_flips([(2, 4)], [(3, 4)])
        assert counters.shard_flips_applied == 2

    def test_duplicate_universe_rejected(self):
        with pytest.raises(ValueError):
            ShardSubgraph(0, [1, 2, 2], [])
