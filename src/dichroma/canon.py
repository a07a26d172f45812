"""Canonical keys of digraphs by refinement and individualisation.

Colours are refined by the multisets of out- and in-neighbour colours until
the number of classes stops growing or reaches n; the least class with two or
more members is then split by individualising each member in turn, on an
explicit stack.  The key is the least relabelled arc tuple over all discrete
leaves, so equal keys mean isomorphic digraphs.  There is no automorphism
pruning.  Refinement and the leaf arcs read neighbour lists built from
``Digraph.masks`` inside the call, so keying caches nothing on the digraph.
"""

from __future__ import annotations

from .digraph import Digraph, _arc_list


def _refine(adj: list[tuple[list[int], list[int]]], colours: list[int]) -> list[int]:
    count = len(set(colours))
    while True:
        keys = [
            (
                colours[v],
                tuple(sorted(colours[u] for u in outs)),
                tuple(sorted(colours[u] for u in ins)),
            )
            for v, (outs, ins) in enumerate(adj)
        ]
        ranks = {k: i for i, k in enumerate(sorted(set(keys)))}
        colours = [ranks[k] for k in keys]
        if len(ranks) in (count, len(adj)):
            return colours
        count = len(ranks)


def canonical_key(d: Digraph) -> tuple:
    """(n, least relabelled arcs): equal exactly for isomorphic digraphs."""
    best, pairs = None, _arc_list(d.masks[0])
    adj = [([], []) for _ in range(d.n)]  # out- and in-neighbour lists
    for u, w in pairs:
        adj[u][0].append(w)
        adj[w][1].append(u)
    stack = [[0] * d.n]
    while stack:
        colours = _refine(adj, stack.pop())
        ordered = sorted(colours)
        cell = next((a for a, b in zip(ordered, ordered[1:]) if a == b), None)
        if cell is None:
            arcs = tuple(sorted((colours[u], colours[w]) for u, w in pairs))
            best = arcs if best is None or arcs < best else best
            continue
        split = [2 * c + (c == cell) for c in colours]
        for v in range(d.n):
            if colours[v] == cell:
                stack.append(split[:v] + [2 * cell] + split[v + 1 :])
    return (d.n, best)
