"""Immutable digraphs and graphs on vertex set {0, ..., n-1}.

A digraph here is loopless and simple: at most one arc u -> v for each ordered
pair.  A digon is a pair of opposite arcs u -> v and v -> u; it counts as a
directed cycle of length two throughout the package.  The symmetric part S(D)
is the graph of digons, the underlying graph UG(D) the graph of all adjacent
pairs.

Instances are immutable after construction: the constructor stores only the
int-bitmask adjacency ``Digraph.masks``, every neighbourhood is read off it,
and no call leaves state on an instance, so instances are small and can be
shared freely across worker processes.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterable, Iterator, Optional

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
    """Loopless digraph stored as int bitmasks.

    ``masks`` is the (out, in) pair of int bitmasks, built in the loop that
    checks the arcs: bit w of out[v] is set iff v -> w, of in[v] iff w -> v;
    n*n/4 bytes at worst, 256 MiB at MAX_VERTICES.  It is the only stored
    form: ``arcs`` is read off it on each access.  Equality and hashing use
    the out-masks, which fix ``n``.
    """

    __slots__ = ("n", "masks")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise InvalidParameter("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise InstanceTooLarge(f"{n} vertices is past the cap of {MAX_VERTICES}")
        out, inn = [0] * n, [0] * n
        arcs = iter(arcs)
        for u, v in islice(arcs, MAX_ARCS):
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"arc endpoint out of range: {(u, v)}")
            if u == v:
                raise SelfLoop(f"loop at vertex {u}")
            out[u] |= 1 << v
            inn[v] |= 1 << u
        if next(arcs, None) is not None:
            raise InstanceTooLarge(f"more than {MAX_ARCS} arcs")
        self.n = n
        self.masks = (tuple(out), tuple(inn))

    # -- basic queries -------------------------------------------------

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arc set, read off the out-masks on every access: a caller
        that reads it in a loop should read it once before the loop."""
        return frozenset(_arc_list(self.masks[0]))

    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self.masks[0])

    def has_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v and self.masks[0][u] >> v & 1 == 1

    def has_digon(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v and (self.masks[0][u] & self.masks[1][u]) >> v & 1 == 1

    def out_degree(self, v: int) -> int:
        return self.masks[0][v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.masks[1][v].bit_count()

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.masks[0] == other.masks[0]

    def __hash__(self):
        return hash(self.masks[0])

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.arc_count()})"

    # -- derivations ---------------------------------------------------

    def reverse(self) -> "Digraph":
        return Digraph(self.n, _arc_list(self.masks[1]))

    def symmetric_part(self) -> Graph:
        return Graph(self.n, ((u, v) for u, v in _arc_list(map(int.__and__, *self.masks)) if u < v))

    def underlying_graph(self) -> Graph:
        return Graph(self.n, ((u, v) for u, v in _arc_list(map(int.__or__, *self.masks)) if u < v))

    def induced(self, vertices: Iterable[int]) -> tuple["Digraph", dict[int, int]]:
        """Induced subdigraph plus the old -> new vertex relabelling map."""
        keep = sorted(set(vertices))
        for v in keep:
            if not (0 <= v < self.n):
                raise InvalidVertex(f"vertex out of range: {v}")
        relabel = {v: i for i, v in enumerate(keep)}
        inside = sum(1 << v for v in keep)
        arcs = [(relabel[u], relabel[v]) for u in keep for v in _bits(self.masks[0][u] & inside)]
        return Digraph(len(keep), arcs), relabel

    def remove_vertices(self, vertices: Iterable[int]) -> tuple["Digraph", dict[int, int]]:
        drop = set(vertices)
        return self.induced(v for v in range(self.n) if v not in drop)

    def add_arcs(self, extra: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(self.n, _arc_list(self.masks[0]) + list(extra))

    def is_acyclic(self, vertices: Optional[Iterable[int]] = None) -> bool:
        """Kahn's algorithm on the induced subdigraph (digons are 2-cycles),
        over the masks: sources leave one at a time until none is left."""
        out, inn = self.masks
        if vertices is None:
            left = (1 << self.n) - 1
        else:
            left = 0
            for v in vertices:
                left |= 1 << v
        sources = [v for v in _bits(left) if not inn[v] & left]
        while sources:
            u = sources.pop()
            left ^= 1 << u
            for w in _bits(out[u] & left):
                if not inn[w] & left:
                    sources.append(w)
        return not left

    def is_connected(self) -> bool:
        """Weak connectivity (of the underlying graph); empty digraph counts as connected."""
        out, inn = self.masks
        seen = frontier = 1 if self.n else 0
        while frontier:
            reach = 0
            for u in _bits(frontier):
                reach |= out[u] | inn[u]
            frontier = reach & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _arc_list(out: Iterable[int]) -> list[tuple[int, int]]:
    """The arcs u -> v of the out-masks in lexicographic order: u ascending,
    then the set bits of out[u] ascending."""
    arcs = []
    for u, mask in enumerate(out):
        if mask and mask == 1 << mask.bit_length() - 1:  # a lone bit: one compare, no walk
            arcs.append((u, mask.bit_length() - 1))
            continue
        while mask:
            low = mask & -mask
            arcs.append((u, low.bit_length() - 1))
            mask ^= low
    return arcs


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
    if not (p_digon >= 0 and p_simple >= 0 and p_digon + p_simple <= 1):  # NaN fails too
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

