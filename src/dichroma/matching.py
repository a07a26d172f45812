"""Maximum matching in general graphs via augmenting paths with blossoms.

Odd cycles met while growing an alternating tree are contracted to their
base vertex (the classic blossom step), which keeps the augmenting-path
search exact on non-bipartite graphs.  The graph is the digon graph of a
digraph, its adjacency read off the masks as ``out & in``.  Runs in O(n^3);
instances here are small complements of near-complete neighbourhoods.
"""

from __future__ import annotations

from collections import deque

from .digraph import Digraph, _bits


def maximum_matching(d: Digraph) -> frozenset[frozenset[int]]:
    """A maximum matching of the digon graph of d as a set of 2-element
    frozensets."""
    n = d.n
    adj = [o & i for o, i in zip(*d.masks)]
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> bool:
        used = [False] * n
        for i in range(n):
            parent[i] = -1
            base[i] = i
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in _bits(adj[v]):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom to the common base
                    cur_base = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur_base, to, blossom)
                    mark_path(to, cur_base, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # alternate matched/unmatched edges back to the root
                        u = to
                        while u != -1:
                            pv = parent[u]
                            next_u = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = next_u
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting_path(v)
    return frozenset(
        frozenset((u, match[u])) for u in range(n) if match[u] > u
    )


def is_matching(d: Digraph, edges: frozenset[frozenset[int]]) -> bool:
    """Digons of d, as vertex pairs, pairwise disjoint."""
    seen: frozenset[int] = frozenset()
    for e in edges:
        if len(e) != 2 or seen & e or not d.has_digon(*e):
            return False
        seen |= e
    return True
