"""Independent reference computations for the test suite.

Everything here recomputes a quantity the package also computes, by a
deliberately different route (plain enumeration, networkx, or a textbook
algorithm), so that tests compare two implementations that share no code.
Oracles are exponential and meant for single-digit vertex counts.
"""

from __future__ import annotations

import re
from itertools import combinations, product
from typing import Optional

import networkx as nx


def to_nx(n: int, arcs) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(arcs)
    return g


def acyclic(n: int, arcs, vertices=None) -> bool:
    g = to_nx(n, arcs)
    if vertices is not None:
        g = g.subgraph(vertices)
    return nx.is_directed_acyclic_graph(g)


def brute_dichromatic(n: int, arcs) -> int:
    """Exact min number of acyclic classes, by canonical assignment search."""
    if n == 0:
        return 0
    g = to_nx(n, arcs)

    def classes_ok(assignment: tuple[int, ...]) -> bool:
        for c in set(assignment):
            part = [v for v, a in enumerate(assignment) if a == c]
            if not nx.is_directed_acyclic_graph(g.subgraph(part)):
                return False
        return True

    for k in range(1, n + 1):
        # canonical: vertex 0 gets colour 0, vertex i at most 1 + max so far
        def extend(assignment: list[int]) -> bool:
            if len(assignment) == n:
                return classes_ok(tuple(assignment))
            cap = min(k - 1, max(assignment) + 1)
            for c in range(cap + 1):
                assignment.append(c)
                part = [v for v, a in enumerate(assignment) if a == c]
                if nx.is_directed_acyclic_graph(g.subgraph(part)) and extend(
                    assignment
                ):
                    return True
                assignment.pop()
            return False

        if extend([0]):
            return k
    raise AssertionError("n colours always suffice")


def chromatic_number(n: int, edges) -> int:
    """Exact graph chromatic number by canonical assignment search."""
    if n == 0:
        return 0
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    for k in range(1, n + 1):
        colours: list[int] = [0]

        def extend() -> bool:
            v = len(colours)
            if v == n:
                return True
            cap = min(k - 1, max(colours) + 1)
            for c in range(cap + 1):
                if all(colours[u] != c for u in adj[v] if u < v):
                    colours.append(c)
                    if extend():
                        return True
                    colours.pop()
            return False

        if extend():
            return k
    raise AssertionError("n colours always suffice")


def clique_number(n: int, edges) -> int:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return max((len(c) for c in nx.find_cliques(g)), default=0)


def max_matching_size(n: int, edges) -> int:
    """Maximum matching cardinality by exhaustive edge subsets."""
    edges = [tuple(e) for e in edges]
    best = 0
    # a matching never holds more than n // 2 edges
    for size in range(min(len(edges), n // 2), 0, -1):
        if size <= best:
            break
        for subset in combinations(edges, size):
            seen: set[int] = set()
            ok = True
            for u, v in subset:
                if u in seen or v in seen:
                    ok = False
                    break
                seen.add(u)
                seen.add(v)
            if ok:
                best = size
                break
    return best


def list_colourable_brute(n: int, arcs, lists) -> bool:
    """Plain product search for an acyclic-classes list colouring."""
    g = to_nx(n, arcs)
    domains = [sorted(lists[v]) for v in range(n)]
    for assignment in product(*domains):
        ok = True
        for c in set(assignment):
            part = [v for v in range(n) if assignment[v] == c]
            if not nx.is_directed_acyclic_graph(g.subgraph(part)):
                ok = False
                break
        if ok:
            return True
    return False


def dichoosable_brute(n: int, arcs, k: int, universe: Optional[int] = None) -> bool:
    """Every assignment of k-lists from the universe admits a colouring.

    Lists are enumerated up to order: vertex 0's list is the canonical
    first k colours, and each later vertex draws from colours already seen
    plus a canonical block of fresh ones; any counterexample assignment
    can be renamed into this form.
    """
    if n == 0:
        return True
    total = n * k if universe is None else universe
    if total < k:
        return False

    def assignments(prefix: list[frozenset[int]], used: int):
        v = len(prefix)
        if v == n:
            yield list(prefix)
            return
        fresh_cap = min(total, used + k)
        for chosen in combinations(range(fresh_cap), k):
            top = max(chosen) + 1
            if v == 0 and top != k:
                continue  # canonical first list
            prefix.append(frozenset(chosen))
            yield from assignments(prefix, max(used, top))
            prefix.pop()

    # acyclic[s]: the vertex set with bitmask s is acyclic; acyclicity passes
    # to subsets, so a colour class may grow only through acyclic masks
    acyclic_sets = [
        acyclic(n, arcs, [v for v in range(n) if s >> v & 1]) for s in range(1 << n)
    ]

    def colourable(lists: list[frozenset[int]], v: int, classes: dict[int, int]) -> bool:
        if v == n:
            return True
        for c in lists[v]:
            grown = classes.get(c, 0) | 1 << v
            if acyclic_sets[grown] and colourable(lists, v + 1, {**classes, c: grown}):
                return True
        return False

    return all(colourable(lists, 0, {}) for lists in assignments([], 0))


def isomorphic(n1: int, arcs1, n2: int, arcs2) -> bool:
    return nx.is_isomorphic(to_nx(n1, arcs1), to_nx(n2, arcs2))


def maximum_bicliques(n: int, arcs, vertices=None) -> list[frozenset[int]]:
    """The largest vertex sets joined pairwise by digons, among `vertices`
    (all n by default), as maximal cliques of the networkx digon graph."""
    arcs = set(arcs)
    g = nx.Graph()
    g.add_nodes_from(range(n) if vertices is None else vertices)
    g.add_edges_from(
        (u, v) for u, v in arcs if (v, u) in arcs and u in g and v in g
    )
    cliques = [frozenset(c) for c in nx.find_cliques(g)]
    omega = max(map(len, cliques), default=0)
    return [c for c in cliques if len(c) == omega]


def least_biclique_transversal(n: int, arcs) -> Optional[frozenset[int]]:
    """A least acyclic vertex set meeting every maximum biclique, or None
    when no acyclic set meets them all."""
    maxima = maximum_bicliques(n, arcs)
    succ = [set() for _ in range(n)]
    for u, v in arcs:
        succ[u].add(v)

    def peels_to_nothing(vertices: set[int]) -> bool:
        # a set is acyclic exactly when removing sinks, one after another,
        # empties it
        while vertices:
            sinks = {v for v in vertices if not succ[v] & vertices}
            if not sinks:
                return False
            vertices -= sinks
        return True

    for size in range(n + 1):
        for combo in combinations(range(n), size):
            if all(b.intersection(combo) for b in maxima) and peels_to_nothing(set(combo)):
                return frozenset(combo)
    return None


def cycle_blowup_arcs(n_cycle: int, p: int) -> set[tuple[int, int]]:
    """Arcs of C_n[K_p]: parts {i*p, ..., i*p + p - 1} in cyclic order, a digon
    between any two vertices in the same or in consecutive parts."""
    part = [i // p for i in range(n_cycle * p)]
    return {
        (u, v)
        for u in range(n_cycle * p)
        for v in range(n_cycle * p)
        if u != v and (part[u] - part[v]) % n_cycle in (0, 1, n_cycle - 1)
    }


_DGF_INTEGER = re.compile(r"-?[0-9]+")


def dgf_outcome(text: str):
    """What an ASCII DGF document with a valid header means, read with regular
    expressions: ("arcs", set of arcs) or ("error", phrase in the message,
    line, column)."""
    n = None
    arcs = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = re.match(r"[^#]*", raw).group()
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", body)]
        if not tokens:
            continue
        if n is None:
            n = int(tokens[1][0])
            continue
        if len(tokens) != 2:
            return "error", "expected an arc", lineno, tokens[min(2, len(tokens) - 1)][1]
        for token, column in tokens:
            if not _DGF_INTEGER.fullmatch(token):
                return "error", "expected an integer", lineno, column
            if int(token) not in range(n):
                return "error", "out of range", lineno, column
        (u, _), (v, column) = tokens
        if int(u) == int(v):
            return "error", "self-loop", lineno, column
        arcs.add((int(u), int(v)))
    return "arcs", arcs
