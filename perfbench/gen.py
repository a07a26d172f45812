"""Seeded input generators for the benchmark, independent of dichroma.

The random generators take a ``random.Random`` and return the arcs as a
sorted list of ordered pairs, so the same seed always yields the same file
bytes.
"""

from __future__ import annotations

import random

Arcs = list[tuple[int, int]]


def dgf_text(n: int, arcs: Arcs, comment: str = "") -> str:
    """DGF text: optional comment, header, one arc per line."""
    head = f"# {comment}\n" if comment else ""
    return head + f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(arcs))


def relabel(n: int, arcs: Arcs, rng: random.Random) -> Arcs:
    """Apply a random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((perm[u], perm[v]) for u, v in arcs)


def tournament(n: int, rng: random.Random) -> Arcs:
    return sorted(
        (u, v) if rng.random() < 0.5 else (v, u)
        for u in range(n)
        for v in range(u + 1, n)
    )


def dense_random(n: int, p_digon: float, p_simple: float, rng: random.Random) -> Arcs:
    """Each pair a digon, else a single arc of random direction, else nothing."""
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            x = rng.random()
            if x < p_digon:
                arcs += [(u, v), (v, u)]
            elif x < p_digon + p_simple:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return sorted(arcs)


def sparse_random(n: int, digons: int, singles: int, rng: random.Random) -> Arcs:
    """Exactly ``digons`` digons and ``singles`` single arcs on distinct pairs,
    drawn in O(arcs) time."""
    pairs: set[tuple[int, int]] = set()
    arcs = []
    while len(pairs) < digons + singles:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (min(u, v), max(u, v)) in pairs:
            continue
        pairs.add((min(u, v), max(u, v)))
        arcs.append((u, v))
        if len(pairs) <= digons:
            arcs.append((v, u))
    return sorted(arcs)


def obstruction(n_cycle: int, p: int) -> Arcs:
    """Bidirected lexicographic product of the n-cycle with K_p; part i is
    the vertices i*p .. i*p + p - 1."""
    arcs = set()
    for i in range(n_cycle):
        part = range(i * p, (i + 1) * p)
        nxt = range(((i + 1) % n_cycle) * p, ((i + 1) % n_cycle + 1) * p)
        for u in part:
            for v in part:
                if u != v:
                    arcs.add((u, v))
            for v in nxt:
                arcs.add((u, v))
                arcs.add((v, u))
    return sorted(arcs)


def complete(n: int) -> Arcs:
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def regular_with_deficit(n: int, delta: int, rng: random.Random) -> Arcs:
    """A circulant on a random vertex order with ``delta`` distinct random
    shifts (out = in = delta everywhere), then every arc into the first
    vertex of the order removed, so the worst degree deficit is ``delta``."""
    order = list(range(n))
    rng.shuffle(order)
    shifts = rng.sample(range(1, n), delta)
    return sorted(
        (order[i], order[(i + s) % n])
        for i in range(n)
        for s in shifts
        if (i + s) % n != 0
    )


def triangle_chain(n: int, extra: int, rng: random.Random) -> Arcs:
    """n/3 disjoint directed triangles plus ``extra`` arcs that only run from
    an earlier triangle to a later one.  Every cycle lies inside a triangle,
    so the dichromatic number is exactly 2 and a greedy colouring never
    backtracks; an exact search that recurses per vertex goes n deep."""
    if n % 3:
        raise ValueError("n must be a multiple of 3")
    arcs = set()
    for t in range(n // 3):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        arcs |= {(a, b), (b, c), (c, a)}
    while len(arcs) < n + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u // 3 < v // 3:
            arcs.add((u, v))
    return sorted(arcs)
