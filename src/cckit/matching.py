"""Bipartite graphs and the greedy lexicographically-first maximal matching.

The greedy rule: scan bottom vertices in index order, match each to its
least-index top neighbour that is still free, skip it if none remains.
The result depends only on the graph, and it is maximal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SIZE_LIMIT, BadShapeError, IndexOutOfRangeError, TooLargeError


@dataclass(frozen=True)
class BipartiteGraph:
    num_bottom: int
    num_top: int
    edges: frozenset
    # one ascending tuple of neighbours per bottom vertex, and per top vertex
    by_bottom: tuple = field(init=False, repr=False, compare=False)
    by_top: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.num_bottom < 0 or self.num_top < 0:
            raise BadShapeError("negative vertex count")
        _check_size(self.num_bottom, self.num_top)
        for (i, j) in self.edges:
            if not (0 <= i < self.num_bottom and 0 <= j < self.num_top):
                raise IndexOutOfRangeError(f"edge ({i}, {j}) out of range")
        _fill_adjacency(self)

    @classmethod
    def _trusted(cls, num_bottom, num_top, edges) -> BipartiteGraph:
        """A graph from non-negative counts and a frozenset of edges already
        checked to be in range, built without checking each edge again.
        Only the text parser calls this."""
        _check_size(num_bottom, num_top)
        g = object.__new__(cls)
        vars(g).update(num_bottom=num_bottom, num_top=num_top, edges=edges)
        _fill_adjacency(g)
        return g


def _check_size(num_bottom, num_top) -> None:
    # the adjacency holds one tuple per vertex, so refuse before allocating it
    if num_bottom + num_top > SIZE_LIMIT:
        raise TooLargeError(f"a graph of {num_bottom} + {num_top} vertices is "
                            f"over the limit of {SIZE_LIMIT}")


def _fill_adjacency(g: BipartiteGraph) -> None:
    by_bottom = [[] for _ in range(g.num_bottom)]
    by_top = [[] for _ in range(g.num_top)]
    for (i, j) in g.edges:
        by_bottom[i].append(j)
        by_top[j].append(i)
    for v in by_bottom + by_top:
        v.sort()
    vars(g).update(by_bottom=tuple(map(tuple, by_bottom)), by_top=tuple(map(tuple, by_top)))


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
    return max(map(len, g.by_bottom + g.by_top), default=0)
