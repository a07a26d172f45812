"""Immutable digraphs and graphs on vertex set {0, ..., n-1}.

A digraph here is loopless and simple: at most one arc u -> v for each ordered
pair.  A digon is a pair of opposite arcs u -> v and v -> u; it counts as a
directed cycle of length two throughout the package.  The symmetric part S(D)
is the graph of digons, the underlying graph UG(D) the graph of all adjacent
pairs.

Instances are immutable after construction (adjacency stored as tuples of
frozensets, and as int bitmasks cached on first read of ``Digraph.masks``),
so they can be shared freely across worker processes.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterable, Optional

from .errors import InstanceTooLarge, InvalidParameter, InvalidVertex, SelfLoop

MAX_VERTICES = 1 << 15
"""Largest vertex count a Digraph accepts; checked before any allocation."""

MAX_ARCS = 1 << 21
"""Most arcs a Digraph reads, duplicates included; bidirected K_1010 fits."""


class Graph:
    """Undirected simple graph; edges are frozensets of size two."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise InvalidParameter("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        edge_set = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge endpoint out of range: {(u, v)}")
            if u == v:
                raise SelfLoop(f"loop at vertex {u}")
            edge_set.add(frozenset((u, v)))
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.edges = frozenset(edge_set)
        self.adj = tuple(frozenset(a) for a in adj)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def connected_components(self) -> list[frozenset[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], set()
            seen[s] = True
            while stack:
                u = stack.pop()
                comp.add(u)
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(frozenset(comp))
        return comps


class Digraph:
    """Loopless digraph with frozen adjacency.

    ``out_adj[v]`` / ``in_adj[v]`` are frozensets of out/in-neighbours.
    ``masks`` caches them as int bitmasks on first read: n*n/4 bytes at worst,
    256 MiB at MAX_VERTICES.  Equality and hashing use only ``n`` and the arcs.
    """

    __slots__ = ("n", "out_adj", "in_adj", "_arcs", "_masks")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise InvalidParameter("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise InstanceTooLarge(f"{n} vertices is past the cap of {MAX_VERTICES}")
        out_adj = [set() for _ in range(n)]
        in_adj = [set() for _ in range(n)]
        arcs = iter(arcs)
        for u, v in islice(arcs, MAX_ARCS):
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"arc endpoint out of range: {(u, v)}")
            if u == v:
                raise SelfLoop(f"loop at vertex {u}")
            out_adj[u].add(v)
            in_adj[v].add(u)
        if next(arcs, None) is not None:
            raise InstanceTooLarge(f"more than {MAX_ARCS} arcs")
        self.n = n
        self.out_adj = tuple(frozenset(a) for a in out_adj)
        self.in_adj = tuple(frozenset(a) for a in in_adj)
        self._arcs = frozenset((u, v) for u in range(n) for v in out_adj[u])
        self._masks = None

    # -- basic queries -------------------------------------------------

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return self._arcs

    @property
    def masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(out, in): bit w of out[v] is set iff v -> w, of in[v] iff w -> v."""
        if self._masks is None:
            self._masks = tuple(
                tuple(sum(1 << w for w in a) for a in adj) for adj in (self.out_adj, self.in_adj)
            )
        return self._masks

    def arc_count(self) -> int:
        return len(self._arcs)

    def has_arc(self, u: int, v: int) -> bool:
        return v in self.out_adj[u]

    def has_digon(self, u: int, v: int) -> bool:
        return v in self.out_adj[u] and u in self.out_adj[v]

    def out_degree(self, v: int) -> int:
        return len(self.out_adj[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def digon_neighbours(self, v: int) -> frozenset[int]:
        return self.out_adj[v] & self.in_adj[v]

    def neighbours(self, v: int) -> frozenset[int]:
        return self.out_adj[v] | self.in_adj[v]

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.n == other.n and self._arcs == other._arcs

    def __hash__(self):
        return hash((self.n, self._arcs))

    def __repr__(self):
        return f"Digraph(n={self.n}, m={len(self._arcs)})"

    # -- derivations ---------------------------------------------------

    def reverse(self) -> "Digraph":
        return Digraph(self.n, ((v, u) for u, v in self._arcs))

    def symmetric_part(self) -> Graph:
        return Graph(self.n, ((u, v) for u, v in self._arcs if u < v and self.has_arc(v, u)))

    def underlying_graph(self) -> Graph:
        return Graph(self.n, ((u, v) for u, v in self._arcs if u < v or not self.has_arc(v, u)))

    def induced(self, vertices: Iterable[int]) -> tuple["Digraph", dict[int, int]]:
        """Induced subdigraph plus the old -> new vertex relabelling map."""
        keep = sorted(set(vertices))
        for v in keep:
            if not (0 <= v < self.n):
                raise InvalidVertex(f"vertex out of range: {v}")
        relabel = {v: i for i, v in enumerate(keep)}
        arcs = [
            (relabel[u], relabel[v])
            for u in keep
            for v in self.out_adj[u]
            if v in relabel
        ]
        return Digraph(len(keep), arcs), relabel

    def remove_vertices(self, vertices: Iterable[int]) -> tuple["Digraph", dict[int, int]]:
        drop = set(vertices)
        return self.induced(v for v in range(self.n) if v not in drop)

    def add_arcs(self, extra: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(self.n, list(self._arcs) + list(extra))

    def is_acyclic(self, vertices: Optional[Iterable[int]] = None) -> bool:
        """Kahn's algorithm on the induced subdigraph (digons are 2-cycles)."""
        if vertices is None:
            inside = set(range(self.n))
        else:
            inside = set(vertices)
        indeg = {v: len(self.in_adj[v] & inside) for v in inside}
        queue = [v for v, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            u = queue.pop()
            seen += 1
            for w in self.out_adj[u]:
                if w in inside:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        queue.append(w)
        return seen == len(inside)

    def is_connected(self) -> bool:
        """Weak connectivity (of the underlying graph); empty digraph counts as connected."""
        if self.n == 0:
            return True
        stack, seen = [0], {0}
        while stack:
            u = stack.pop()
            for w in self.out_adj[u] | self.in_adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


# -- constructors -------------------------------------------------------


def symmetric_closure(g: Graph) -> Digraph:
    """Replace every edge of ``g`` by a digon (the bidirected digraph of g)."""
    arcs = []
    for e in g.edges:
        u, v = tuple(e)
        arcs.append((u, v))
        arcs.append((v, u))
    return Digraph(g.n, arcs)


def _cap_arcs(m: int) -> None:
    """Refuse a generator's closed-form arc count m before any arc is drawn."""
    if m > MAX_ARCS:
        raise InstanceTooLarge(f"{m} arcs is past the cap of {MAX_ARCS}")


def complete_digraph(n: int) -> Digraph:
    _cap_arcs(n * (n - 1))
    return Digraph(n, ((u, v) for u in range(n) for v in range(n) if u != v))


def directed_cycle(n: int) -> Digraph:
    if n < 2:
        raise InvalidParameter("a directed cycle needs at least 2 vertices")
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def random_digraph(n: int, p_digon: float, p_simple: float, seed) -> Digraph:
    """Each unordered pair independently becomes a digon (prob p_digon), else a
    single arc of random direction (prob p_simple), else a non-edge."""
    if n < 0:
        raise InvalidParameter("vertex count must be non-negative")
    if p_digon < 0 or p_simple < 0 or p_digon + p_simple > 1:
        raise InvalidParameter("probabilities must be non-negative with sum <= 1")
    rng = random.Random(seed)

    def arcs():  # lazy, so Digraph checks n before any pair is drawn
        for u in range(n):
            for v in range(u + 1, n):
                x = rng.random()
                if x < p_digon:
                    yield u, v
                    yield v, u
                elif x < p_digon + p_simple:
                    yield (u, v) if rng.random() < 0.5 else (v, u)

    return Digraph(n, arcs())


def random_tournament(n: int, seed) -> Digraph:
    _cap_arcs(n * (n - 1) // 2)
    rng = random.Random(seed)
    pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
    return Digraph(n, ((u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs))


def obstruction(n_cycle: int, p: int) -> Digraph:
    """The bidirected lexicographic product of an n-cycle with a p-clique.

    Parts Q_0..Q_{n-1} of size p; every pair inside a part and every pair in
    consecutive parts (cyclically) is a digon.  Every vertex ends with
    in- and out-degree 3p - 1.  With n odd and >= 5 this family is exactly the
    connected digraph whose maximum bicliques admit no acyclic transversal.
    """
    if n_cycle < 3:
        raise InvalidParameter("the cycle length must be at least 3")
    if p < 1:
        raise InvalidParameter("part size must be at least 1")
    _cap_arcs(n_cycle * p * (3 * p - 1))

    def arcs():  # lazy, so Digraph checks n before any arc is listed
        part = [range(i * p, (i + 1) * p) for i in range(n_cycle)]
        for i in range(n_cycle):
            for u in part[i]:
                for v in part[i]:
                    if u != v:
                        yield u, v
                for v in part[(i + 1) % n_cycle]:
                    yield u, v
                    yield v, u

    return Digraph(n_cycle * p, arcs())

