"""Independent answer checks for the benchmark.

Nothing here imports dichroma: every quantity is recomputed from the arc
list by its definition, with bitmask dynamic programmes for small digraphs
and plain set code for large sparse ones.  Each ``check_*`` function returns
``None`` when the program's answer is right and a short reason otherwise.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from gen import Arcs, obstruction


def masks(n: int, arcs: Arcs) -> tuple[list[int], list[int]]:
    out = [0] * n
    inn = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return out, inn


def kahn_acyclic(n: int, arcs: Arcs, members) -> bool:
    """Kahn's algorithm on the subdigraph induced by ``members``."""
    inside = set(members)
    succ: dict[int, list[int]] = {v: [] for v in inside}
    indeg = dict.fromkeys(inside, 0)
    for u, v in arcs:
        if u in inside and v in inside:
            succ[u].append(v)
            indeg[v] += 1
    queue = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for w in succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(inside)


def check_colouring(n, arcs, colouring, max_colours=None, lists=None):
    """A total assignment whose every colour class passes Kahn's algorithm."""
    if not isinstance(colouring, dict) or "assignment" not in colouring:
        return "no colouring in the output"
    try:
        assignment = {int(v): c for v, c in colouring["assignment"].items()}
    except (TypeError, ValueError, AttributeError):
        return "assignment is not a vertex -> colour map"
    if set(assignment) != set(range(n)):
        return "colouring is not total"
    classes: dict[object, list[int]] = {}
    for v, c in assignment.items():
        classes.setdefault(c, []).append(v)
    if max_colours is not None and len(classes) > max_colours:
        return f"{len(classes)} colours used, at most {max_colours} allowed"
    if lists is not None:
        for v, c in assignment.items():
            if c not in lists[v]:
                return f"vertex {v} got colour {c} outside its list"
    for c, members in classes.items():
        if not kahn_acyclic(n, arcs, members):
            return f"colour class {c} contains a cycle"
    return None


# -- exact parameters of small digraphs, many at once ------------------------


@lru_cache(maxsize=None)
def _submask_table(n: int):
    """For every nonempty S: the subsets T of S holding S's lowest vertex."""
    table = []
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        subs = []
        t = rest
        while True:
            subs.append(t | low)
            if t == 0:
                break
            t = (t - 1) & rest
        table.append(np.array(subs, dtype=np.int64))
    return table


def small_params(n: int, arc_lists: list[Arcs]) -> list[dict]:
    """chi, biclique number, directed clique number and degree aggregates of
    many digraphs on the same n <= 10 vertices, by subset dynamic programmes
    vectorised across the batch."""
    count = len(arc_lists)
    if count == 0:
        return []
    full = (1 << n) - 1
    out = np.zeros((count, n), dtype=np.int64)
    inn = np.zeros((count, n), dtype=np.int64)
    for i, arcs in enumerate(arc_lists):
        o, m = masks(n, arcs)
        out[i] = o
        inn[i] = m
    dig = out & inn
    rows = np.arange(count)
    size = 1 << n
    pop = np.array([bin(s).count("1") for s in range(size)], dtype=np.int64)
    acyc = np.zeros((count, size), dtype=bool)
    clique = np.zeros((count, size), dtype=bool)
    within = np.zeros((count, size), dtype=np.int64)  # largest clique inside S
    common = np.zeros((count, size), dtype=np.int64)  # common out-neighbours
    acyc[:, 0] = clique[:, 0] = True
    common[:, 0] = full
    for s in range(1, size):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        # S is acyclic iff some member has no in-neighbour in S and the rest is
        member_ok = np.zeros(count, dtype=bool)
        t = s
        while t:
            b = t & -t
            u = b.bit_length() - 1
            member_ok |= acyc[:, s ^ b] & ((inn[:, u] & s) == 0)
            t ^= b
        acyc[:, s] = member_ok
        clique[:, s] = clique[:, rest] & ((rest & ~dig[:, v]) == 0)
        within[:, s] = np.maximum(within[:, rest], 1 + within[rows, rest & dig[:, v]])
        common[:, s] = common[:, rest] & out[:, v]
    chi = np.zeros((count, size), dtype=np.int64)
    for s, subs in enumerate(_submask_table(n), start=1):
        chi[:, s] = np.where(acyc[:, subs], 1 + chi[:, s ^ subs], 99).min(axis=1)
    omega = np.where(clique, pop, 0).max(axis=1)
    directed = omega.copy()
    for s in range(1, size):
        cand = np.where(clique[:, s], pop[s] + within[rows, common[:, s] & full], 0)
        directed = np.maximum(directed, cand)
    results = []
    for i in range(count):
        d_out = [bin(int(x)).count("1") for x in out[i]]
        d_in = [bin(int(x)).count("1") for x in inn[i]]
        results.append(
            {
                "chi": int(chi[i, full]) if n else 0,
                "omega_bi": int(omega[i]),
                "omega_directed": int(directed[i]) if n else 0,
                "delta_tilde_sq": max((o * m for o, m in zip(d_out, d_in)), default=0),
                "delta_min": max((min(o, m) for o, m in zip(d_out, d_in)), default=0),
                "delta_plus": max(d_out, default=0),
            }
        )
    return results


# -- exact bound values ------------------------------------------------------


def ceil_affine_sqrt(a: Fraction, radicand: int, b: Fraction) -> int:
    """Least integer k with k >= a * sqrt(radicand) + b, for a >= 0."""
    k = math.floor(b + a * math.isqrt(radicand)) - 1
    while not (k - b >= 0 and (k - b) ** 2 >= a * a * radicand):
        k += 1
    return k


def reed_value(delta_tilde_sq: int, omega_bi: int) -> int:
    """ceil((sqrt(delta_tilde_sq) + 1 + omega_bi) / 2)."""
    return ceil_affine_sqrt(Fraction(1, 2), delta_tilde_sq, Fraction(1 + omega_bi, 2))


def eps_value(delta_tilde_sq: int, omega_bi: int, eps: Fraction) -> int:
    """ceil((1 - eps)(sqrt(delta_tilde_sq) + 1) + eps * omega_bi)."""
    return ceil_affine_sqrt(1 - eps, delta_tilde_sq, (1 - eps) + eps * omega_bi)


def ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def delmin_reduction(n: int, arcs: Arcs) -> Arcs:
    """The min-degree reduction, rebuilt from its definition: X holds the
    vertices of out-degree at most max_v min(d+(v), d-(v)); arcs into X from
    outside go, arcs out of X become digons, arcs outside X are reversed."""
    d_out = [0] * n
    d_in = [0] * n
    for u, v in arcs:
        d_out[u] += 1
        d_in[v] += 1
    dmin = max((min(o, i) for o, i in zip(d_out, d_in)), default=0)
    x = {v for v in range(n) if d_out[v] <= dmin}
    out = set()
    for u, v in arcs:
        if u in x and v in x:
            out.add((u, v))
        elif u in x:
            out |= {(u, v), (v, u)}
        elif v not in x:
            out.add((v, u))
    return sorted(out)


# -- hunt records ------------------------------------------------------------


def hunt_stream(seed: int, count: int, n: int) -> list[tuple[int, Arcs]]:
    """The instances of ``hunt --mode random --seed SEED --count COUNT
    --n-max N``, regenerated from the stream's definition: a master
    Random(seed) draws each instance's seed and its digon and single-arc
    probabilities, and each pair of vertices then becomes a digon, a single
    arc of random direction, or nothing."""
    master = random.Random(seed)
    stream = []
    for _ in range(count):
        inst_seed = master.getrandbits(32)
        p_digon = master.uniform(0.0, 0.45)
        p_simple = master.uniform(0.0, 0.5)
        rng = random.Random(inst_seed)
        arcs = []
        for u in range(n):
            for v in range(u + 1, n):
                x = rng.random()
                if x < p_digon:
                    arcs += [(u, v), (v, u)]
                elif x < p_digon + p_simple:
                    arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        stream.append((inst_seed, arcs))
    return stream


def expected_record(p: dict, eps: Fraction) -> dict:
    """Every value of a verification record, from the exact parameters."""
    dmin, w_bi, w_dir = p["delta_min"], p["omega_bi"], p["omega_directed"]
    return {
        "chi": p["chi"],
        "omega_bi": w_bi,
        "omega_directed": w_dir,
        "delta_tilde_sq": p["delta_tilde_sq"],
        "delta_min": dmin,
        "reed_bound_value": reed_value(p["delta_tilde_sq"], w_bi),
        "eps_bound_value": eps_value(p["delta_tilde_sq"], w_bi, eps),
        "delmin_bound": ceil_fraction((1 - eps) * dmin + eps * w_dir),
        "delmin_digon_bound": ceil_fraction((1 - eps) * dmin + 2 * eps * w_bi),
    }


def check_hunt_records(records: list[dict], instances: list[tuple[int, Arcs]], n: int, eps: Fraction, bound: str):
    """Compare every record with recomputed values; return (problem, violated)."""
    if len(records) != len(instances):
        return f"{len(records)} records for {len(instances)} instances", False
    params = small_params(n, [arcs for _, arcs in instances])
    violated = False
    for rec, (inst_seed, _), p in zip(records, instances, params):
        want = expected_record(p, eps)
        if rec.get("seed") != inst_seed or rec.get("n") != n:
            return f"record {rec.get('instance_id')} is for another instance", False
        for key, value in want.items():
            if rec.get(key) != value:
                return f"{rec.get('instance_id')}: {key} = {rec.get(key)}, expected {value}", False
        holds = want["chi"] <= {
            "reed": want["reed_bound_value"],
            "eps": want["eps_bound_value"],
            "delmin": want["delmin_bound"],
        }[bound]
        if rec.get("holds", {}).get(bound) is not holds:
            return f"{rec.get('instance_id')}: holds[{bound}] is wrong", False
        violated |= not holds
    return None, violated


def check_delmin_record(rec: dict, n: int, arcs: Arcs, eps: Fraction):
    """Check a ``check --bound delmin`` record; return (problem, all_hold)."""
    h = delmin_reduction(n, arcs)
    p, q = small_params(n, [arcs, h])
    want = {
        "n": n,
        "delta_min": p["delta_min"],
        "omega_bi": p["omega_bi"],
        "omega_directed": p["omega_directed"],
        "chi": p["chi"],
        "bound": ceil_fraction((1 - eps) * p["delta_min"] + eps * p["omega_directed"]),
        "digon_bound": ceil_fraction((1 - eps) * p["delta_min"] + 2 * eps * p["omega_bi"]),
        "reduction_delta_plus": q["delta_plus"],
        "reduction_omega_bi": q["omega_bi"],
        "reduction_chi": q["chi"],
    }
    for key, value in want.items():
        if rec.get(key) != value:
            return f"{key} = {rec.get(key)}, expected {value}", False
    holds = {
        "delmin": want["chi"] <= want["bound"],
        "delmin_digon": want["chi"] <= want["digon_bound"],
        "reduction_out_degree": want["reduction_delta_plus"] <= want["delta_min"],
        "reduction_biclique": want["reduction_omega_bi"] <= want["omega_directed"],
        "reduction_chi": want["reduction_chi"] >= want["chi"],
    }
    if rec.get("holds") != holds:
        return "holds flags disagree with the values", False
    return None, all(holds.values())


# -- parameters of large sparse digraphs --------------------------------------


def _cliques(adj: dict[int, set[int]], pool: set[int]):
    """Every nonempty clique inside ``pool``, each once (increasing order)."""
    def grow(clique, cand):
        for v in sorted(cand):
            yield clique + [v]
            yield from grow(clique + [v], {w for w in cand & adj[v] if w > v})
    yield from grow([], set(pool))


def sparse_params(n: int, arcs: Arcs) -> dict:
    """The ``params`` record of a sparse digraph, by definition."""
    out = [set() for _ in range(n)]
    inn = [set() for _ in range(n)]
    for u, v in arcs:
        out[u].add(v)
        inn[v].add(u)
    d_out = [len(s) for s in out]
    d_in = [len(s) for s in inn]
    delta = max((max(o, i) for o, i in zip(d_out, d_in)), default=0)

    def inside(s):
        return sum(len(out[u] & s) for u in s)

    m_plus = [inside(out[v]) for v in range(n)]
    m_minus = [inside(inn[v]) for v in range(n)]
    digon = {v: out[v] & inn[v] for v in range(n)}
    cliques = list(_cliques(digon, set(range(n))))
    omega = max((len(c) for c in cliques), default=0)
    best = omega
    for c in cliques:
        common = set.intersection(*(out[u] for u in c))
        if len(c) + omega <= best or not common:
            continue
        inner = max((len(x) for x in _cliques(digon, common)), default=0)
        best = max(best, len(c) + inner)
    return {
        "n": n,
        "arc_count": len(arcs),
        "delta_max": delta,
        "delta_min": max((min(o, i) for o, i in zip(d_out, d_in)), default=0),
        "delta_plus": max(d_out, default=0),
        "delta_tilde_sq": max((o * i for o, i in zip(d_out, d_in)), default=0),
        "d_out": d_out,
        "d_in": d_in,
        "m_plus": m_plus,
        "m_minus": m_minus,
        "bv": [delta * (delta - 1) - min(p, m) for p, m in zip(m_plus, m_minus)],
        "omega_bi": omega,
        "omega_directed": best,
    }


def maximum_bicliques(n: int, arcs: Arcs) -> list[frozenset[int]]:
    out, inn = masks(n, arcs)
    digon = {v: {w for w in range(n) if (out[v] & inn[v]) >> w & 1} for v in range(n)}
    cliques = [frozenset(c) for c in _cliques(digon, set(range(n)))]
    omega = max(len(c) for c in cliques)
    return [c for c in cliques if len(c) == omega]


def check_transversal(n: int, arcs: Arcs, answer: dict, product: tuple[int, int] | None):
    """A hitting set must be acyclic and meet every maximum biclique; an
    obstruction must name the product and map the arcs exactly onto it."""
    if product is not None:
        if answer.get("hitting_set") is not None or answer.get("obstruction") != list(product):
            return f"expected obstruction {product}, got {answer.get('obstruction')}"
        iso = {int(k): v for k, v in (answer.get("isomorphism") or {}).items()}
        if sorted(iso) != list(range(n)) or sorted(iso.values()) != list(range(n)):
            return "isomorphism is not a bijection"
        image = sorted((iso[u], iso[v]) for u, v in arcs)
        if image != obstruction(*product):
            return "isomorphism does not map the arcs onto the product"
        return None
    hit = answer.get("hitting_set")
    if hit is None:
        return "expected a hitting set"
    if not kahn_acyclic(n, arcs, hit):
        return "hitting set is not acyclic"
    if any(not c & set(hit) for c in maximum_bicliques(n, arcs)):
        return "hitting set misses a maximum biclique"
    return None


# -- exact dichromatic number for reference answers ---------------------------


def chi_exact(n: int, arcs: Arcs) -> tuple[int, dict[int, int]]:
    """Exact chi with an optimal colouring, by bitmask backtracking with
    fewest-options vertex choice; used to build the committed references."""
    out, inn = masks(n, arcs)
    k = 1
    while True:
        found = _k_colour(n, out, inn, k)
        if found is not None:
            return k, found
        k += 1


def _closes_cycle(out: list[int], cls: int, v: int, inn_v: int) -> bool:
    reach = out[v] & cls
    frontier = reach
    target = inn_v & cls
    while frontier:
        if reach & target:
            return True
        b = frontier & -frontier
        frontier ^= b
        new = out[b.bit_length() - 1] & cls & ~reach
        reach |= new
        frontier |= new
    return bool(reach & target)


def _k_colour(n, out, inn, k):
    classes = [0] * k
    colour = {}

    def options(v):
        return [c for c in range(k) if not _closes_cycle(out, classes[c], v, inn[v])]

    def place(left: int, used: int) -> bool:
        if not left:
            return True
        best_v, best_opts = None, None
        t = left
        while t:
            b = t & -t
            t ^= b
            v = b.bit_length() - 1
            opts = [c for c in options(v) if c <= used]
            if best_opts is None or len(opts) < len(best_opts):
                best_v, best_opts = v, opts
                if not opts:
                    return False
        v = best_v
        for c in best_opts:
            classes[c] |= 1 << v
            colour[v] = c
            if place(left & ~(1 << v), used + (c == used)):
                return True
            classes[c] &= ~(1 << v)
            del colour[v]
        return False

    return dict(colour) if place((1 << n) - 1, 0) else None


# -- isomorphism classes of small tournaments ---------------------------------


def tournament_classes(n: int) -> list[Arcs]:
    """One tournament per isomorphism class on n <= 6 vertices: every
    labelled tournament is coded as a bit per pair, and its class is the
    least code over all vertex permutations."""
    from itertools import permutations

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    codes = np.arange(1 << len(pairs), dtype=np.int64)
    canon = codes.copy()
    for perm in permutations(range(n)):
        image = np.zeros_like(codes)
        for k, (u, v) in enumerate(pairs):
            a, b = perm[u], perm[v]
            bit = (codes >> k) & 1
            if a > b:
                a, b = b, a
                bit ^= 1
            image |= bit << index[(a, b)]
        np.minimum(canon, image, out=canon)
    reps = []
    for code in np.unique(canon):
        reps.append(sorted((u, v) if int(code) >> k & 1 else (v, u) for k, (u, v) in enumerate(pairs)))
    return reps


# -- the dense reduction report -----------------------------------------------


def _max_matching_size(n: int, edges: list[tuple[int, int]]) -> int:
    """Maximum matching by exhaustive branching; tiny graphs only."""
    if not edges:
        return 0
    (u, v), rest = edges[0], edges[1:]
    with_edge = 1 + _max_matching_size(n, [e for e in rest if u not in e and v not in e])
    return max(with_edge, _max_matching_size(n, rest))


def _delta_threshold(a: Fraction) -> int:
    """Least integer t >= (1-a)/a with t (sqrt(a) - a) >= 1 - a."""
    t = ceil_fraction((1 - a) / a)
    first = 1
    while first * first * a < (1 - a + first * a) ** 2:
        first += 1
    return max(t, first)


def dense_expectation(n: int, arcs: Arcs, a: Fraction, eps: Fraction) -> dict:
    """The dense-reduction report for a digraph whose first dense vertex v
    sees every other vertex on its dense side, so N = V and N1 = N2 = {}:
    the lists are the whole palette [k] and the core is all of D."""
    d = sparse_params(n, arcs)
    delta = d["delta_max"]
    bound = (1 - a) * delta * (delta - 1)
    v = next(u for u in range(n) if max(d["m_plus"][u], d["m_minus"][u]) > bound)
    side = "out" if d["m_plus"][v] >= d["m_minus"][v] else "in"
    degree = d["d_out"][v] if side == "out" else d["d_in"][v]
    if degree != n - 1 or delta != n - 1:
        raise ValueError("dense_expectation needs a dense vertex adjacent to all")
    rest = [u for u in range(n) if u != v]
    pos = {u: i for i, u in enumerate(rest)}
    minus_v = [(pos[x], pos[y]) for x, y in arcs if v not in (x, y)]
    chi_minus, chi_all = small_params(n - 1, [minus_v])[0]["chi"], small_params(n, [arcs])[0]["chi"]
    k = max(chi_minus, math.floor((1 - eps) * (delta + 1)))
    arc_set = set(arcs)
    non_digon = [
        (x, y) for x in range(n) for y in range(x + 1, n)
        if not ((x, y) in arc_set and (y, x) in arc_set)
    ]
    matched = _max_matching_size(n, non_digon)
    exposed = n - 2 * matched
    return {
        "dense_vertex": v,
        "side": side,
        "delta": delta,
        "k": k,
        "degree_hypothesis": delta >= _delta_threshold(a),
        "biclique_hypothesis": 3 * d["omega_bi"] <= 2 * (delta + 1),
        "size_claims": {
            "n1_small": 0 < 4 * a.numerator * delta**2,
            "n2_small": 0 < 4 * a.numerator * delta**2,
            "lists_large": k >= (5 * (delta + 1)) // 6,
            "matching_plus_exposed": 6 * (matched + exposed) <= 5 * (delta + 1),
        },
        "colourable": chi_all <= k,
    }


def check_dense(n: int, arcs: Arcs, answer: dict, a: Fraction, eps: Fraction):
    want = dense_expectation(n, arcs, a, eps)
    colourable = want.pop("colourable")
    for key, value in want.items():
        if answer.get(key) != value:
            return f"{key} = {answer.get(key)}, expected {value}"
    colouring = answer.get("colouring")
    if colourable != (colouring is not None) or answer.get("bound_achieved") is not colourable:
        return "colouring presence disagrees with chi <= k"
    if colouring is not None:
        return check_colouring(n, arcs, colouring, max_colours=want["k"])
    return None
