"""End-to-end gate: ten package-level checks, one verdict line each.

Every check is seeded and exact; a single counterexample fails its line.
Module-level tests cover the fine-grained contracts, so these stay at the
level of whole pipelines: generate, solve, cross-check against an
independent oracle, demand zero tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx

from dichroma.asr import (
    ASRInstance,
    biclique_transversal,
    find_asr,
    search_good_triplet,
)
from dichroma.dense import dense_colour, find_dense_vertex, partition_N123
from dichroma.digraph import (
    Digraph,
    complete_digraph,
    directed_cycle,
    obstruction,
    random_digraph,
    symmetric_closure,
)
from dichroma.harness import delmin_reduction, nonisomorphic_digraphs
from dichroma.params import (
    DegreeProfile,
    biclique_report,
    degree_profile,
    density_report,
    directed_clique_number,
    epsilon_bound,
    reed_bound,
)
from dichroma.solver import (
    Dicolouring,
    dichromatic_number,
    is_k_dichoosable,
    is_valid,
    k_dicolourable,
)
from dichroma.sparse import monte_carlo, sparse_dicolour, trial

from .oracles import (
    acyclic,
    chromatic_number,
    clique_number,
    least_biclique_transversal,
    maximum_bicliques,
)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


def _random_graph(rng: random.Random, n_max: int) -> tuple[int, list]:
    n = rng.randint(1, n_max)
    p = rng.uniform(0.2, 0.9)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return n, edges


def test_01_symmetric_closures_embed_graph_invariants() -> None:
    # Bidirecting a graph must reproduce its chromatic number, clique
    # number, and squared maximum degree, with nothing lost in transit.
    bad = 0
    for seed in range(200):
        rng = random.Random(seed)
        n, edges = _random_graph(rng, 8)
        d = symmetric_closure(n, edges)
        degs = [0] * n
        for u, v in edges:
            degs[u] += 1
            degs[v] += 1
        max_deg = max(degs, default=0)
        if dichromatic_number(d) != chromatic_number(n, edges):
            bad += 1
        elif biclique_report(d).omega_bi != clique_number(n, edges):
            bad += 1
        elif degree_profile(d).delta_tilde_sq != max_deg * max_deg:
            bad += 1
    _verdict(
        "symmetric-embedding",
        bad == 0,
        f"{bad} mismatches over 200 random graphs on up to 8 vertices",
    )


def test_02_geometric_mean_bound_tight_and_universal() -> None:
    # Three families meet the bound with equality; every tournament on at
    # most 5 vertices and a thousand random digraphs never exceed it.
    def bound(d: Digraph) -> int:
        return reed_bound(degree_profile(d), biclique_report(d).omega_bi)

    witnesses = [
        (directed_cycle(3), 2),
        (complete_digraph(4), 4),
        (obstruction(5, 2), 5),
    ]
    bad = sum(
        1
        for d, chi in witnesses
        if dichromatic_number(d) != chi or bound(d) != chi
    )
    checked = len(witnesses)
    for n in range(1, 6):
        for d in nonisomorphic_digraphs(n, "tournament"):
            checked += 1
            if dichromatic_number(d) > bound(d):
                bad += 1
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        d = random_digraph(n, rng.uniform(0, 0.6), rng.uniform(0, 0.4), seed)
        checked += 1
        if dichromatic_number(d) > bound(d):
            bad += 1
    _verdict(
        "geometric-mean-bound",
        bad == 0,
        f"{bad} violations over {checked} instances, equality witnesses included",
    )


def _transversal_stream():
    # Connected digraphs whose biclique number clears two thirds of
    # Delta + 1, found by filtering dense symmetric closures.
    accepted = 0
    seed = 0
    while accepted < 500:
        rng = random.Random(seed)
        seed += 1
        n = rng.randint(3, 9)
        p = rng.uniform(0.45, 0.95)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        if not nx.is_connected(g):
            continue
        d = symmetric_closure(n, edges)
        if 3 * biclique_report(d).omega_bi < 2 * (degree_profile(d).delta_max + 1):
            continue
        accepted += 1
        yield d
    for n_cycle in range(4, 8):
        for p in (1, 2):
            yield obstruction(n_cycle, p)


def test_03_transversal_dichotomy_matches_oracle() -> None:
    # Either an acyclic set drops the biclique number by exactly one, or
    # the instance is the odd product shape and no such set exists.
    bad = 0
    checked = 0
    for d in _transversal_stream():
        checked += 1
        arcs = sorted(d.arcs)
        out = biclique_transversal(d, degree_profile(d).delta_max)
        want = least_biclique_transversal(d.n, arcs)
        if (out.obstruction is not None) != (want is None):
            bad += 1
            continue
        if out.hitting_set is None:
            continue
        hs = out.hitting_set
        maxima = maximum_bicliques(d.n, arcs)
        if not acyclic(d.n, arcs, hs) or not all(hs & b for b in maxima):
            bad += 1
            continue
        rest = [v for v in range(d.n) if v not in hs]
        if max(map(len, maximum_bicliques(d.n, arcs, rest)), default=0) != len(maxima[0]) - 1:
            bad += 1
    _verdict(
        "transversal-dichotomy",
        bad == 0,
        f"{bad} oracle disagreements over {checked} instances",
    )


def _condition_instance(seed: int) -> tuple[ASRInstance, int, list[tuple[int, int]]]:
    # Random partitioned digraph kept inside the degree condition: at most
    # k arcs out of any vertex, at most |part| - k into it.
    rng = random.Random(seed)
    r = rng.randint(2, 5)
    sizes = [rng.randint(2, 5) for _ in range(r)]
    parts, base = [], 0
    for s in sizes:
        parts.append(frozenset(range(base, base + s)))
        base += s
    n = base
    k = rng.randint(1, min(sizes))
    part_of = {v: i for i, p in enumerate(parts) for v in p}
    out_used = [0] * n
    in_used = [0] * n
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and part_of[u] != part_of[v]
    ]
    rng.shuffle(pairs)
    arcs = []
    for u, v in pairs:
        if rng.random() < 0.4:
            if out_used[u] < k and in_used[v] < len(parts[part_of[v]]) - k:
                arcs.append((u, v))
                out_used[u] += 1
                in_used[v] += 1
    inst = ASRInstance(Digraph(n, arcs), parts, k)
    return inst, rng.randrange(n), arcs


def test_04_degree_condition_yields_anchored_representatives() -> None:
    # Under the degree condition every anchor extends to an acyclic system
    # of representatives and no good triplet exists to obstruct it.
    bad = 0
    for seed in range(500):
        inst, anchor, arcs = _condition_instance(seed)
        assert inst.satisfies_degree_condition
        d = inst.digraph
        rep = find_asr(inst, anchor)
        if anchor not in rep or not d.is_acyclic(rep):
            bad += 1
            continue
        if any(len(rep & part) != 1 for part in inst.parts):
            bad += 1
            continue
        heads = {w for u, w in arcs if u == anchor}
        if rep & heads or search_good_triplet(inst) is not None:
            bad += 1
    _verdict(
        "representative-systems",
        bad == 0,
        f"{bad} failures over 500 degree-condition instances",
    )


def test_05_matching_deleted_cliques_are_choosable() -> None:
    # The bidirected K_n with a p-matching of digons removed stays
    # (n - p)-dichoosable for every n <= 6.
    bad = 0
    checked = 0
    for n in range(1, 7):
        for p in range(0, n // 2 + 1):
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and not (u // 2 == v // 2 and u < 2 * p and v < 2 * p)
            ]
            checked += 1
            if not is_k_dichoosable(Digraph(n, arcs), n - p):
                bad += 1
    _verdict(
        "matching-deleted-choosability",
        bad == 0,
        f"{bad} failures over {checked} (n, p) pairs with n <= 6",
    )


def _near_diregular(seed: int) -> Digraph:
    # Circulant, so exactly diregular, then up to three arcs removed.
    rng = random.Random(seed)
    n = rng.randint(10, 60)
    degree = rng.randint(2, min(16, n - 1))
    jumps = rng.sample(range(1, n), degree)
    arcs = {(u, (u + j) % n) for u in range(n) for j in jumps}
    for _ in range(rng.randint(0, 3)):
        arcs.discard(rng.choice(sorted(arcs)))
    return Digraph(n, sorted(arcs))


def test_06_sparse_pipeline_end_to_end() -> None:
    # Trials retain valid partial dicolourings with consistent accounting,
    # and the sparse colouring stays within its palette.
    bad = 0
    for seed in range(100):
        d = _near_diregular(seed)
        prof = degree_profile(d)
        report = density_report(d)
        st = trial(d, seed=seed * 7 + 1)
        partial = st.partial_assignment()
        if not is_valid(d, Dicolouring(st.k, partial)):
            bad += 1
            continue
        if any(st.xv[v] != st.yv[v] - st.zv[v] for v in range(d.n)):
            bad += 1
            continue
        col = sparse_dicolour(d, min(report.bv), seed=seed)
        # the list-size term floor(B / (4 e^7 Delta)) vanishes at degree 16
        if col is None or not is_valid(d, col):
            bad += 1
            continue
        if len(set(col.assignment.values())) > prof.delta_max + 1:
            bad += 1
    _verdict(
        "sparse-pipeline",
        bad == 0,
        f"{bad} failures over 100 near-diregular digraphs up to 60 vertices",
    )


def test_07_uncolour_expectation_stays_small() -> None:
    # Monte Carlo estimate of the uncolour count Y_v against the
    # sparsity-driven ceiling 3 B_v / Delta, three standard errors wide.
    bad = 0
    probes = 0
    for i in range(20):
        rng = random.Random(1000 + i)
        delta = rng.randint(16, 30)
        base = complete_digraph(delta + 1)
        # drop arcs among the first delta vertices only, so the last vertex
        # pins the maximum degree at delta
        pool = sorted(
            (u, v) for u, v in base.arcs if u < delta and v < delta
        )
        drop = set(rng.sample(pool, rng.randint(delta, 3 * delta)))
        d = Digraph(base.n, sorted(set(base.arcs) - drop))
        prof = degree_profile(d)
        report = density_report(d)
        assert prof.delta_max == delta
        for v in (0, d.n // 2, d.n - 1):
            probes += 1
            est = monte_carlo(d, v, 10_000, seed=i * 31 + v)
            ceiling = 3 * report.bv[v] / delta + 3 * est.se_y
            if est.mean_y > ceiling + 1e-12:
                bad += 1
    _verdict(
        "uncolour-expectation",
        bad == 0,
        f"{bad} of {probes} probed vertices exceeded 3 B_v / Delta + 3 se",
    )


def _dense_instances():
    # Hub joined by digons to a near-complete digon clique, one clique
    # member carrying a digon halo; filtered on actually owning a dense
    # vertex at density parameter 1/3.
    a = Fraction(1, 3)
    found = 0
    seed = 0
    while found < 50:
        rng = random.Random(seed)
        seed += 1
        s = rng.randint(3, 7)
        h = rng.randint(1, 3)
        n = 1 + s + h
        arcs = set()
        for u in range(1, s + 1):
            arcs |= {(0, u), (u, 0)}
            for w in range(u + 1, s + 1):
                arcs |= {(u, w), (w, u)}
        for j in range(s + 1, n):
            arcs |= {(s, j), (j, s)}
        intra = [
            (u, w) for u in range(1, s + 1) for w in range(1, s + 1) if u != w
        ]
        arcs -= set(rng.sample(intra, rng.randint(0, s // 2)))
        d = Digraph(n, sorted(arcs))
        hit = find_dense_vertex(d, a)
        if hit is None:
            continue
        found += 1
        yield d, hit, a


def test_08_dense_partition_and_colour_merge() -> None:
    # Partition invariants on constructed dense instances; whenever the
    # core colouring succeeds it must merge validly and leave the base
    # untouched outside N3.  The complete digraph pins the colour count.
    bad = 0
    merged_count = 0
    for d, (v, side), a in _dense_instances():
        part = partition_N123(d, v, side, a)
        if v not in part.n3 or len(part.n_set) != part.delta + 1:
            bad += 1
            continue
        if (
            part.n1 | part.n2 | part.n3 != part.n_set
            or part.n1 & part.n2
            or part.n1 & part.n3
            or part.n2 & part.n3
        ):
            bad += 1
            continue
        outside = sorted(frozenset(range(d.n)) - part.n3)
        sub, relab = d.induced(frozenset(outside))
        exact = k_dicolourable(sub, dichromatic_number(sub))
        base_map = {u: exact.colour(relab[u]) for u in outside}
        k = degree_profile(d).delta_max + 1
        merged = dense_colour(d, v, side, a, k, Dicolouring(k, base_map))
        if merged is None:
            continue
        merged_count += 1
        if not is_valid(d, merged, require_total=True):
            bad += 1
            continue
        if any(merged.colour(u) != base_map[u] for u in outside):
            bad += 1
    k4 = complete_digraph(4)
    hit = find_dense_vertex(k4, Fraction(1, 4))
    full = dense_colour(k4, hit[0], hit[1], Fraction(1, 4), 4, Dicolouring(4, {}))
    if full is None or len(set(full.assignment.values())) != dichromatic_number(k4):
        bad += 1
    _verdict(
        "dense-partition",
        bad == 0,
        f"{bad} failures over 50 dense instances, {merged_count} merged colourings",
    )


def test_09_minimum_degree_reduction_preserves_hardness() -> None:
    # The rebuilt digraph must trade maximum out-degree down to the
    # min-degree parameter without shrinking the chromatic side.
    bad = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        d = random_digraph(n, rng.uniform(0, 0.6), rng.uniform(0, 0.4), seed)
        h = delmin_reduction(d)
        if degree_profile(h).delta_plus > degree_profile(d).delta_min:
            bad += 1
        elif biclique_report(h).omega_bi > directed_clique_number(d):
            bad += 1
        elif dichromatic_number(h) < dichromatic_number(d):
            bad += 1
    _verdict(
        "minimum-degree-reduction",
        bad == 0,
        f"{bad} violations over 300 random digraphs up to 8 vertices",
    )


def _profile(dts: int) -> DegreeProfile:
    return DegreeProfile(
        d_out=(0,),
        d_in=(0,),
        d_max=(0,),
        d_min=(0,),
        geo_sq=(dts,),
        delta_max=0,
        delta_min=0,
        delta_plus=0,
        delta_tilde_sq=dts,
    )


def test_10_bound_evaluators_agree_exactly() -> None:
    # reed_bound is epsilon_bound at one half on every profile, and the
    # exact integer always lands inside the outward-rounded high-precision
    # floating bracket, perfect squares or not.
    import mpmath

    rng = random.Random(424242)
    bad = 0
    for _ in range(1000):
        dts = rng.randint(0, 10**8)
        omega = rng.randint(0, 300)
        p = _profile(dts)
        if reed_bound(p, omega) != epsilon_bound(p, omega, Fraction(1, 2)):
            bad += 1
    with mpmath.workdps(60):
        for i in range(1000):
            t = rng.randint(1, 10**4)
            if i % 3 == 0:
                dts = t * t
            elif i % 3 == 1:
                dts = t * t + rng.randint(1, 2 * t)  # never a square
            else:
                dts = rng.randint(0, 10**8)
            omega = rng.randint(0, 300)
            q = rng.randint(2, 997)
            eps = Fraction(rng.randint(1, q - 1), q)
            value = (1 - mpmath.mpf(eps.numerator) / eps.denominator) * (
                mpmath.sqrt(dts) + 1
            ) + (mpmath.mpf(eps.numerator) / eps.denominator) * omega
            lo = int(mpmath.floor(value - mpmath.mpf("1e-30")))
            hi = int(mpmath.ceil(value + mpmath.mpf("1e-30")))
            if not lo <= epsilon_bound(_profile(dts), omega, eps) <= hi:
                bad += 1
    _verdict(
        "bound-evaluators",
        bad == 0,
        f"{bad} mismatches over 2000 fabricated degree profiles",
    )
