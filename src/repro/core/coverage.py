"""The generic coverage condition and its special cases (Sections 3 and 6).

**Coverage condition** — node ``v`` may take non-forward status if every
pair of its neighbors is connected by a *replacement path* whose
intermediate nodes (if any) all have priority strictly higher than
``Pr(v)``.

**Strong coverage condition** — node ``v`` may take non-forward status if
some *coverage set* ``C(v)`` dominates ``N(v)`` and lies inside one
connected component of the subgraph induced by nodes with priority higher
than ``Pr(v)``.  Strong implies generic (a connected dominating coverage
set yields a replacement path for every pair), and is cheaper to check:
O(D^2) versus O(D^3) in the local density D.

**Span condition** — the coverage condition with two restrictions (the
paper's "enhanced Span"): no visited intermediates, and replacement paths of
at most three hops (at most two intermediates).

All three operate on a :class:`~repro.core.views.View` and honour the
"visited nodes are mutually connected" convention when
``view.visited_connected`` is set.

Backends
--------
Three interchangeable implementations compute every predicate:

* ``bitset`` (the default) — the node-indexed bitmask kernel: the
  higher-priority eligible set is a priority-threshold mask read off a
  per-view suffix table, components come from word-parallel flood-fills
  (:func:`repro.graph.nodeindex.flood_fill` replaces the union-find
  pass), and each component's set of touching neighbors is one mask, so
  each neighbor's replaceable partners (the pairs
  :func:`uncovered_pairs` lists are the missing ones) and a component's
  domination of ``N(v)`` are single mask operations.  A
  :class:`~repro.core.views.MaskView` (a node's compiled view plus its
  broadcast state as masks) skips the per-view table altogether: its
  threshold mask is the node's static suffix with the status strata
  OR-ed in.
* ``sets`` — the original frozenset/union-find implementation, kept as
  the executable reference.
* ``numpy`` — the batched word-table kernel
  (:mod:`repro.core.coverage_numpy`): one decreasing-priority sweep per
  view computes *every* node's uncovered pairs and strong verdict at
  once, and component/span queries run vectorised frontier reductions
  over the ``uint64`` word table.  Optional: requires numpy, with a
  clear error (and the other backends untouched) when it is absent.

Select with ``REPRO_COVERAGE_BACKEND=sets`` (or ``bitset`` / ``numpy``);
the test suite cross-checks that all backends produce identical results —
forward sets are byte-identical across them.
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple, Union

from ..graph.nodeindex import flood_fill
from ..instrument import _STACK as _COUNTER_STACK
from . import status as st
from .unionfind import DisjointSet
from .views import MaskView, View, view_cache

__all__ = [
    "coverage_condition",
    "strong_coverage_condition",
    "span_condition",
    "uncovered_pairs",
    "higher_priority_components",
    "coverage_backend",
]

_BACKENDS = ("bitset", "sets", "numpy")


def coverage_backend() -> str:
    """The active backend name, from ``REPRO_COVERAGE_BACKEND``.

    ``bitset`` (default), ``sets``, or ``numpy``.  Read per call so tests
    and A/B benchmarks can flip the environment variable between
    evaluations; every memo key starts with the backend that computed
    it (see :func:`_memo`), so flipping mid-view is safe.
    """
    backend = os.environ.get("REPRO_COVERAGE_BACKEND", "bitset")
    if backend not in _BACKENDS:
        raise ValueError(
            f"REPRO_COVERAGE_BACKEND must be one of {_BACKENDS}, "
            f"got {backend!r}"
        )
    return backend


def _memo(view: View, backend: str, key: tuple, compute):
    """Per-view memoisation for the coverage hot path.

    Views are immutable value objects, so any derived quantity — the
    priority-threshold table, the higher-priority decomposition,
    component membership, neighbor reach — is stable for the view's
    lifetime and can be shared between calls instead of being recomputed.
    The bitset backend memoises only its per-view base table (the one
    layer that pays across calls: a shared view evaluated for many
    nodes); the sets and numpy backends memoise their decompositions
    too.  The cache rides on the view instance itself (see
    :func:`repro.core.views.view_cache`).  ``backend`` names the backend
    whose computation ``compute`` runs and is the first element of the
    stored key, so one backend's entry can never answer another's
    lookup.

    Dirty-awareness comes from ``view_cache`` itself: it stamps the
    cache with the view graph's ``version_stamp()`` and resets it when
    the graph is mutated underneath the view (e.g. by
    ``Topology.apply_delta`` during a mobility sweep), so every memo
    here — base tables, components, span verdicts — is invalidated as a
    unit the moment its topology input changes, and survives verbatim
    while the retained view graph stays untouched.
    """
    cache = view_cache(view)
    key = (backend, key)
    if key not in cache:
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].coverage_memo_misses += 1
        cache[key] = compute()
    elif _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_memo_hits += 1
    return cache[key]


# ----------------------------------------------------------------------
# Bitset backend: per-view base tables
# ----------------------------------------------------------------------


class _MaskBase:
    """Per-view bitmask tables shared by every predicate.

    ``index``/``masks`` come straight from the view graph's epoch-cached
    adjacency table; ``keys`` holds each node's full priority key in
    bit-position order; ``higher[v]`` is the priority-threshold mask —
    all nodes whose key ranks strictly above ``v``'s — precomputed as a
    suffix scan over the priority order, so one O(n log n) sort serves
    every ``v`` evaluated under the same view.
    """

    __slots__ = ("index", "masks", "keys", "higher", "visited_mask")

    def __init__(self, view: View) -> None:
        index, masks = view.graph.adjacency_masks()
        self.index = index
        self.masks = masks
        # Inlined View.priority for the visible universe: every indexed
        # node is in the graph by construction, so the invisible-node
        # branch and the per-call function overhead drop out.
        status = view.status
        metrics = view.metrics
        padding = view.metric_padding
        unvisited = st.UNVISITED
        self.keys = [
            (status.get(node, unvisited), *metrics.get(node, padding),
             float(node))
            for node in index.nodes
        ]
        nodes = index.nodes
        keys = self.keys
        order = sorted(range(len(nodes)), key=keys.__getitem__)
        higher: Dict[int, int] = {}
        above = 0
        for position in reversed(order):
            higher[nodes[position]] = above
            above |= 1 << position
        self.higher = higher
        self.visited_mask = view.visited_mask

    def eligible_mask(self, view: View, v: int) -> int:
        """Nodes (other than ``v``) ranking strictly above ``Pr(v)``.

        For a visible ``v`` this is one suffix-table lookup; for an
        invisible ``v`` (possible through
        :func:`higher_priority_components`) the threshold mask is built
        by a linear key scan against ``v``'s invisible-rank key.
        """
        mask = self.higher.get(v)
        if mask is None:
            threshold = view.priority(v)
            mask = 0
            for position, key in enumerate(self.keys):
                if key > threshold:
                    mask |= 1 << position
        return mask


def _mask_base(view: View) -> _MaskBase:
    return _memo(view, "bitset", ("mask-base",), lambda: _MaskBase(view))


def _component_masks(
    eligible: int, visited: int, masks: Tuple[int, ...]
) -> List[int]:
    """The components of ``eligible`` as masks, fusing those that hold a
    ``visited`` node: all visited nodes are connected through the source
    even when the view cannot see how (pass 0 to fuse nothing)."""
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].component_decompositions += 1
    components: List[int] = []
    remaining = eligible
    while remaining:
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].mask_floodfills += 1
        component = flood_fill(remaining & -remaining, eligible, masks)
        remaining &= ~component
        components.append(component)
    visited &= eligible
    if visited:
        merged = 0
        separate: List[int] = []
        for component in components:
            if component & visited:
                merged |= component
            else:
                separate.append(component)
        if merged:
            components = [merged] + separate
    return components


def _touches(
    eligible: int,
    visited: int,
    neighbors: Sequence[Tuple[int, int]],
    masks: Tuple[int, ...],
) -> List[int]:
    """Per higher-priority component, the neighbors touching it (belonging
    to or adjacent to it); ``neighbors`` holds each neighbor's ``(bit,
    closed neighborhood)``."""
    touches: List[int] = []
    for component in _component_masks(eligible, visited, masks):
        touch = 0
        for bit, closed in neighbors:
            if closed & component:
                touch |= bit
        touches.append(touch)
    return touches


def _partners(
    touches: List[int],
    visited: int,
    targets: int,
    neighbors: Sequence[Tuple[int, int]],
) -> Iterator[int]:
    """Per neighbor ``u`` of ``targets = N(v)``, the neighbors ``w`` with a
    replacement path for ``(u, w)``: adjacent to ``u``, touching one
    component with it, or, like ``u``, visited (``u`` itself included).
    Pass ``visited = 0`` when visited nodes are not taken as connected."""
    visited_neighbors = visited & targets
    for bit, closed in neighbors:
        partners = closed
        if bit & visited_neighbors:
            partners |= visited_neighbors
        for touch in touches:
            if touch & bit:
                partners |= touch
        yield partners


def _verdict(
    eligible: int,
    visited: int,
    targets: int,
    neighbors: Sequence[Tuple[int, int]],
    masks: Tuple[int, ...],
    strong: bool,
) -> bool:
    """The (strong) coverage condition from the higher-priority mask:
    every neighbor partners every other, or (strong) some component is
    touched by every neighbor."""
    if not targets:
        return True
    touches = _touches(eligible, visited, neighbors, masks)
    if strong:
        return targets in touches
    for partners in _partners(touches, visited, targets, neighbors):
        if targets & ~partners:
            return False
    return True


def _view_inputs(view: View, v: int):
    """``(eligible, visited, N(v), neighbors, masks)`` for :func:`_verdict`
    under a :class:`View`'s threshold table (neighbors in bit order)."""
    base = _mask_base(view)
    masks = base.masks
    targets = masks[base.index.position(v)]
    neighbors = []
    remaining = targets
    while remaining:
        bit = remaining & -remaining
        remaining ^= bit
        neighbors.append((bit, bit | masks[bit.bit_length() - 1]))
    visited = base.visited_mask if view.visited_connected else 0
    return base.eligible_mask(view, v), visited, targets, neighbors, masks


def _view_verdict(view: View, v: int, strong: bool) -> bool:
    return _verdict(*_view_inputs(view, v), strong)


def _mask_view_verdict(view: MaskView, v: int, strong: bool) -> bool:
    """:func:`_verdict` on a compiled view's decide.

    ``Pr`` ranks ``S`` first, so the higher-priority set is every status
    stratum above ``v``'s own, whole, plus ``v``'s own stratum above its
    static ``(metric..., id)`` suffix.
    """
    compiled = view.compiled
    if v != compiled.node:
        raise KeyError(f"node {v} is not the center of this compiled view")
    visited, designated, own = view.visited, view.designated, compiled.bit
    if visited & own:
        eligible = visited & compiled.suffix
    elif designated & own:
        eligible = visited | (designated & compiled.suffix)
    else:
        eligible = visited | designated | compiled.suffix
    return _verdict(
        eligible,
        visited,
        compiled.neighbor_mask,
        compiled.neighbors,
        compiled.masks,
        strong,
    )


# ----------------------------------------------------------------------
# Numpy backend: lazy import and per-view batched tables
# ----------------------------------------------------------------------


def _np_kernel():
    """The :mod:`repro.core.coverage_numpy` module, or a clear error.

    Imported lazily so the numpy dependency stays optional: the bitset
    and sets backends never trigger this import.
    """
    from . import coverage_numpy

    if coverage_numpy.np is None:
        raise RuntimeError(
            "REPRO_COVERAGE_BACKEND=numpy requires numpy, which is not "
            "installed in this environment; use 'bitset' or 'sets'"
        )
    return coverage_numpy


def _np_base(view: View):
    """The per-view word-table context (memoised)."""
    return _memo(
        view, "numpy", ("np-base",), lambda: _np_kernel().np_base(view)
    )


def _np_sweep(view: View):
    """Every node's (uncovered pairs, strong verdict), in one sweep.

    The whole batch is one memo entry: the first predicate evaluated on a
    view pays the sweep, every later node reads its slot for free.
    """
    return _memo(
        view,
        "numpy",
        ("np-sweep",),
        lambda: _np_kernel().sweep_compute(view, _np_base(view)),
    )


# ----------------------------------------------------------------------
# Sets backend: the original frozenset/union-find reference
# ----------------------------------------------------------------------


def _higher_priority_nodes(view: View, v: int) -> Set[int]:
    """Visible nodes other than ``v`` with priority above ``Pr(v)``."""
    threshold = view.priority(v)
    return {
        node
        for node in view.graph
        if node != v and view.priority(node) > threshold
    }


def _components_compute_sets(view: View, v: int) -> List[Set[int]]:
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].component_decompositions += 1
    eligible = _higher_priority_nodes(view, v)
    dsu = DisjointSet(eligible)
    for node in eligible:
        for neighbor in view.graph.neighbors(node):
            if neighbor in eligible:
                dsu.union(node, neighbor)
    if view.visited_connected:
        visited = [node for node in eligible if view.is_visited(node)]
        for node in visited[1:]:
            dsu.union(visited[0], node)
    return dsu.groups()


def _component_reach_sets(
    view: View, v: int
) -> Tuple[List[Set[int]], Dict[int, Set[int]]]:
    """Components and neighbor reach under the sets backend (memoised)."""
    return _memo(
        view,
        "sets",
        ("reach", v),
        lambda: _component_reach_compute_sets(view, v),
    )


def _component_reach_compute_sets(
    view: View, v: int
) -> Tuple[List[Set[int]], Dict[int, Set[int]]]:
    components = higher_priority_components(view, v)
    membership: Dict[int, int] = {}
    for index, component in enumerate(components):
        for node in component:
            membership[node] = index
    reach: Dict[int, Set[int]] = {}
    for u in view.graph.neighbors(v):
        touched: Set[int] = set()
        if u in membership:
            touched.add(membership[u])
        for x in view.graph.neighbors(u):
            if x in membership:
                touched.add(membership[x])
        reach[u] = touched
    return components, reach


# ----------------------------------------------------------------------
# Public predicates (backend-dispatching)
# ----------------------------------------------------------------------


def higher_priority_components(view: View, v: int) -> List[Set[int]]:
    """Connected components of the higher-priority subgraph for ``v``.

    Components are taken in ``view.graph`` minus ``v`` restricted to nodes
    with priority above ``Pr(v)``; when ``view.visited_connected`` holds,
    all visited nodes are additionally fused into one component (they are
    all connected through the source even if the view cannot see how).

    The sets and numpy backends memoise the result per ``(view, v)`` and
    share it with their coverage predicates; the bitset backend recomputes
    it from the view's memoised priority-threshold table, one flood-fill
    per component.  Treat the returned sets as read-only.  Component order
    is backend-dependent (their set of sets is not).
    """
    backend = coverage_backend()
    if backend == "sets":
        return _memo(
            view,
            "sets",
            ("components", v),
            lambda: _components_compute_sets(view, v),
        )
    if backend == "numpy":
        return _memo(
            view,
            "numpy",
            ("components", v),
            lambda: _np_kernel().components_compute(view, _np_base(view), v),
        )
    base = _mask_base(view)
    visited = base.visited_mask if view.visited_connected else 0
    return [
        set(view.index.members(mask))
        for mask in _component_masks(
            base.eligible_mask(view, v), visited, base.masks
        )
    ]


def uncovered_pairs(view: View, v: int) -> List[Tuple[int, int]]:
    """Neighbor pairs of ``v`` lacking a replacement path.

    The coverage condition holds exactly when this list is empty.  Exposed
    for diagnostics, tests, and the example walkthroughs.  The sets and
    numpy backends memoise it per ``(view, v)``; the bitset backend
    recomputes it from the view's memoised priority-threshold table.
    Every backend produces the identical (sorted-pair) list.
    """
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    backend = coverage_backend()
    if backend == "sets":
        return _memo(
            view,
            "sets",
            ("uncovered", v),
            lambda: _uncovered_pairs_compute_sets(view, v),
        )
    if backend == "numpy":
        # The sweep result is itself the memo; per-node reads are free.
        return _np_sweep(view)[v][0]
    return _uncovered_pairs_bitset(view, v)


def _uncovered_pairs_compute_sets(view: View, v: int) -> List[Tuple[int, int]]:
    neighbors = sorted(view.graph.neighbors(v))
    _components, reach = _component_reach_sets(view, v)
    failing: List[Tuple[int, int]] = []
    for i, u in enumerate(neighbors):
        for w in neighbors[i + 1:]:
            if view.graph.has_edge(u, w):
                continue
            if reach[u] & reach[w]:
                continue
            if (
                view.visited_connected
                and view.is_visited(u)
                and view.is_visited(w)
            ):
                # Visited endpoints are mutually connected by convention.
                continue
            failing.append((u, w))
    return failing


def _uncovered_pairs_bitset(view: View, v: int) -> List[Tuple[int, int]]:
    eligible, visited, targets, neighbors, masks = _view_inputs(view, v)
    node_at = view.index.node_at
    ids = [node_at(bit.bit_length() - 1) for bit, _closed in neighbors]
    touches = _touches(eligible, visited, neighbors, masks)
    partners = list(_partners(touches, visited, targets, neighbors))
    return sorted(
        (min(ids[i], ids[j]), max(ids[i], ids[j]))
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
        if not partners[i] & neighbors[j][0]
    )


def coverage_condition(view: Union[View, MaskView], v: int) -> bool:
    """Whether ``v`` may take non-forward status under the generic condition.

    True when **every pair** of ``v``'s neighbors has a replacement path —
    a direct edge, or a path whose intermediates all rank above ``Pr(v)``.
    A node with zero or one neighbor satisfies the condition vacuously (it
    is never needed to connect anything); the source still forwards
    unconditionally, so coverage is unaffected.

    ``view`` may also be a :class:`~repro.core.views.MaskView` centred
    on ``v``: the bitset kernel then decides straight from the compiled
    masks, with the verdict the equivalent :class:`View` would give.
    """
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
    if type(view) is MaskView:
        return _mask_view_verdict(view, v, strong=False)
    if coverage_backend() == "bitset":
        if v not in view.graph:
            raise KeyError(f"node {v} not visible in the view")
        return _view_verdict(view, v, strong=False)
    return not uncovered_pairs(view, v)


def strong_coverage_condition(view: Union[View, MaskView], v: int) -> bool:
    """Whether some connected higher-priority component dominates ``N(v)``.

    The maximal candidate coverage set is an entire component of the
    higher-priority subgraph, so it suffices to test each component.
    Accepts a :class:`~repro.core.views.MaskView` like
    :func:`coverage_condition`.
    """
    if type(view) is MaskView:
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].coverage_evaluations += 1
        return _mask_view_verdict(view, v, strong=True)
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
    backend = coverage_backend()
    if backend == "sets":
        neighbors = view.graph.neighbors(v)
        if not neighbors:
            return True
        for component in higher_priority_components(view, v):
            if _dominates(view, component, neighbors):
                return True
        return False
    if backend == "numpy":
        return _np_sweep(view)[v][1]
    return _view_verdict(view, v, strong=True)


def _dominates(view: View, component: Set[int], targets: FrozenSet[int]) -> bool:
    return all(
        u in component or (view.graph.neighbors(u) & component)
        for u in targets
    )


def span_condition(view: View, v: int, max_intermediates: int = 2) -> bool:
    """The enhanced-Span restriction of the coverage condition.

    Every pair of neighbors must be connected directly or via at most
    ``max_intermediates`` higher-priority, *un-visited* intermediate nodes
    (Span predates broadcast-state piggybacking).  With the default of two
    intermediates this is exactly the paper's "replacement path no more
    than three hops".

    The verdict is memoised per ``(view, v)``, so re-evaluations stop
    re-running the bounded BFS.
    """
    if max_intermediates < 0:
        raise ValueError(
            f"max_intermediates must be non-negative, got {max_intermediates}"
        )
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
    backend = coverage_backend()
    return _memo(
        view,
        backend,
        ("span", v, max_intermediates),
        lambda: _span_compute(view, v, max_intermediates, backend),
    )


def _span_compute(
    view: View, v: int, max_intermediates: int, backend: str
) -> bool:
    # The outer ("span", v, ...) memo already answers repeat queries, so
    # the per-pair searches below run at most once per (view, v).
    if backend == "sets":
        eligible = frozenset(
            node
            for node in _higher_priority_nodes(view, v)
            if not view.is_visited(node)
        )
        neighbors = sorted(view.graph.neighbors(v))
        for i, u in enumerate(neighbors):
            for w in neighbors[i + 1:]:
                if not _bounded_replacement_path_sets(
                    view, u, w, eligible, max_intermediates
                ):
                    return False
        return True
    if backend == "numpy":
        kernel = _np_kernel()
        np_base = _np_base(view)
        eligible = kernel.span_eligible(view, np_base, v)
        neighbors = sorted(view.graph.neighbors(v))
        for i, u in enumerate(neighbors):
            for w in neighbors[i + 1:]:
                if not kernel.bounded_replacement_path(
                    np_base, u, w, eligible, max_intermediates
                ):
                    return False
        return True
    base = _mask_base(view)
    index, masks = base.index, base.masks
    eligible = base.eligible_mask(view, v) & ~base.visited_mask
    neighbors = sorted(index.members(masks[index.position(v)]))
    for i, u in enumerate(neighbors):
        for w in neighbors[i + 1:]:
            if not _bounded_replacement_path_bitset(
                index, masks, u, w, eligible, max_intermediates
            ):
                return False
    return True


def _bounded_replacement_path_sets(
    view: View, u: int, w: int, eligible: FrozenSet[int], max_intermediates: int
) -> bool:
    """BFS through ``eligible`` from ``u`` to ``w`` with bounded length."""
    if view.graph.has_edge(u, w):
        return True
    seen: Set[int] = set()
    frontier = set(view.graph.neighbors(u)) & eligible
    for _used in range(1, max_intermediates + 1):
        if not frontier:
            return False
        if any(view.graph.has_edge(x, w) for x in frontier):
            return True
        seen |= frontier
        frontier = {
            y
            for x in frontier
            for y in view.graph.neighbors(x)
            if y in eligible and y not in seen
        }
    return False


def _bounded_replacement_path_bitset(
    index, masks, u: int, w: int, eligible: int, max_intermediates: int
) -> bool:
    """Mask-frontier BFS through ``eligible`` with bounded path length."""
    adjacency_u = masks[index.position(u)]
    adjacency_w = masks[index.position(w)]
    if adjacency_u & index.bit(w):
        return True
    seen = 0
    frontier = adjacency_u & eligible
    for _used in range(1, max_intermediates + 1):
        if not frontier:
            return False
        if frontier & adjacency_w:
            return True
        seen |= frontier
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & eligible & ~seen
    return False
