"""Bipartite graphs and the greedy lexicographically-first maximal matching.

The greedy rule: scan bottom vertices in index order, match each to its
least-index top neighbour that is still free, skip it if none remains.
The result depends only on the graph, and it is maximal.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain

from .errors import SIZE_LIMIT, BadShapeError, IndexOutOfRangeError, TooLargeError
from .value import Value


class BipartiteGraph(Value):
    # ``by_bottom`` holds one ascending tuple of neighbours per bottom vertex
    _fields = ("num_bottom", "num_top", "by_bottom")

    def __init__(self, num_bottom, num_top, edges=(), *, _by_bottom=None):
        """Check every field.  ``_by_bottom`` is for ``parse_graph`` and the
        graph lowerings alone: the rows, one ascending tuple of in-range tops
        per bottom, then stand for ``edges`` and only the size limit is
        checked."""
        if _by_bottom is None:
            edges = frozenset(edges)
            if num_bottom < 0 or num_top < 0:
                raise BadShapeError("negative vertex count")
        # the adjacency holds one tuple per vertex, so refuse before allocating it
        check_vertices(num_bottom, num_top)
        if _by_bottom is None:
            for (i, j) in edges:
                if not (0 <= i < num_bottom and 0 <= j < num_top):
                    raise IndexOutOfRangeError(f"edge ({i}, {j}) out of range")
            _by_bottom = adjacency(num_bottom, edges)
            vars(self)["edges"] = edges
        vars(self).update(num_bottom=num_bottom, num_top=num_top, by_bottom=_by_bottom)

    def __repr__(self):
        return (f"BipartiteGraph(num_bottom={self.num_bottom!r}, num_top={self.num_top!r}, "
                f"edges={self.edges!r})")

    def __reduce__(self):
        return self.__class__, (self.num_bottom, self.num_top, self.edges)

    @cached_property
    def edges(self) -> frozenset:
        """The (bottom, top) pairs, read off ``by_bottom`` on first read."""
        return frozenset((i, j) for i, tops in enumerate(self.by_bottom) for j in tops)

    @cached_property
    def by_top(self) -> tuple:
        """One ascending tuple of neighbours per top vertex, built on first
        read as the ``adjacency`` of the transposed edges."""
        return adjacency(self.num_top, ((j, i) for i, tops in enumerate(self.by_bottom)
                                        for j in tops))


def check_vertices(num_bottom: int, num_top: int) -> None:
    """Refuse a graph of more than ``SIZE_LIMIT`` vertices."""
    if num_bottom + num_top > SIZE_LIMIT:
        raise TooLargeError(f"a graph of {num_bottom} + {num_top} vertices is "
                            f"over the limit of {SIZE_LIMIT}")


def adjacency(count: int, pairs) -> tuple:
    """For each u in 0..count-1, the v of every pair (u, v) in ascending order."""
    out = [[] for _ in range(count)]
    for (u, v) in pairs:
        out[u].append(v)
    for vs in out:
        vs.sort()
    return tuple(map(tuple, out))


def lfm_matching(g: BipartiteGraph) -> frozenset:
    """The greedy matching as a frozenset of (bottom, top) pairs."""
    taken = [False] * g.num_top
    pairs = []
    for i, tops in enumerate(g.by_bottom):
        for j in tops:
            if not taken[j]:
                taken[j] = True
                pairs.append((i, j))
                break
    return frozenset(pairs)


def lfmm_decision(g: BipartiteGraph, e: tuple) -> int:
    """1 iff edge ``e`` belongs to the greedy matching."""
    i, j = e
    if not (0 <= i < g.num_bottom and 0 <= j < g.num_top):
        raise IndexOutOfRangeError(f"edge ({i}, {j}) out of range")
    return 1 if (i, j) in lfm_matching(g) else 0


def vlfmm_decision(g: BipartiteGraph, w: int) -> int:
    """1 iff top vertex ``w`` is covered by the greedy matching."""
    if not (0 <= w < g.num_top):
        raise IndexOutOfRangeError(f"top {w} out of range")
    return 1 if any(t == w for _, t in lfm_matching(g)) else 0


def max_degree(g: BipartiteGraph) -> int:
    """The largest degree on either side, the tops' counted off ``by_bottom``."""
    tops = Counter(chain.from_iterable(g.by_bottom))
    return max(max(map(len, g.by_bottom), default=0), max(tops.values(), default=0))
