"""Degree, density and clique parameters against independent references."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dichroma
from dichroma.digraph import (
    Digraph,
    complete_digraph,
    directed_cycle,
    obstruction,
    random_digraph,
    symmetric_closure,
)
from dichroma.errors import CapExceeded, InvalidParameter
from dichroma.params import (
    DegreeProfile,
    biclique_number,
    biclique_report,
    degree_profile,
    delmin_bound,
    density_report,
    directed_clique_number,
    epsilon_bound,
    is_b_sparse,
    reed_bound,
)

from .oracles import clique_number, to_nx


def test_degree_profile_star() -> None:
    d = Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 0)])
    p = degree_profile(d)
    assert p.d_out == (3, 1, 0, 0) and p.d_in == (1, 1, 1, 1)
    assert p.delta_max == 3 and p.delta_plus == 3
    assert p.geo_sq == (3, 1, 0, 0) and p.delta_tilde_sq == 3
    assert p.delta_min == 1  # vertex 0 and 1 both have min degree 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**30))
def test_degree_profile_matches_networkx(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.5
    d = random_digraph(n, pd, rng.random() * (0.95 - pd), seed=seed)
    g = to_nx(d.n, d.arcs)
    p = degree_profile(d)
    assert p.d_out == tuple(g.out_degree(v) for v in range(n))
    assert p.d_in == tuple(g.in_degree(v) for v in range(n))
    assert p.delta_max == max(
        max(g.out_degree(v), g.in_degree(v)) for v in range(n)
    )
    assert p.delta_tilde_sq == max(
        g.out_degree(v) * g.in_degree(v) for v in range(n)
    )


def test_density_report_values() -> None:
    # vertex 0 of a bidirected triangle sees one digon in each neighbourhood
    d = complete_digraph(3)
    r = density_report(d)
    assert r.m_plus == (2, 2, 2) and r.m_minus == (2, 2, 2)
    assert r.bv == (0, 0, 0)  # Delta(Delta-1) - min = 2*1 - 2
    assert is_b_sparse(d, 0) and not is_b_sparse(d, 1)
    c = directed_cycle(5)
    rc = density_report(c)
    assert rc.m_plus == (0,) * 5 and rc.bv == (0,) * 5


def test_density_counts_arcs_not_digons() -> None:
    # N+(0) = {1,2} with a single arc 1->2 inside: m+ = 1
    d = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    r = density_report(d)
    assert r.m_plus[0] == 1 and r.m_minus[0] == 0


def test_biclique_report_examples() -> None:
    assert biclique_report(complete_digraph(4)).omega_bi == 4
    assert biclique_report(directed_cycle(6)).omega_bi == 1
    assert biclique_report(obstruction(5, 2)).omega_bi == 4
    rep = biclique_report(obstruction(4, 1))
    assert rep.omega_bi == 2
    assert all(len(b) == 2 for b in rep.maximum_bicliques)
    assert len(rep.maximum_bicliques) == 4


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**30))
def test_omega_bi_is_symmetric_clique_number(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.6
    d = random_digraph(n, pd, rng.random() * (0.95 - pd), seed=seed)
    digons = [
        (u, v) for u in range(n) for v in range(u) if d.has_digon(u, v)
    ]
    expected = max(clique_number(n, digons), 1 if n else 0)
    assert biclique_report(d).omega_bi == expected
    assert biclique_number(d) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 14), st.integers(0, 2**30))
def test_biclique_number_matches_the_report(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random()
    d = random_digraph(n, pd, rng.random() * (1 - pd), seed=seed)
    assert biclique_number(d) == biclique_report(d).omega_bi


def test_biclique_number_examples() -> None:
    assert biclique_number(Digraph(0, [])) == 0
    assert biclique_number(Digraph(1, [])) == 1
    assert biclique_number(directed_cycle(6)) == 1
    assert biclique_number(complete_digraph(40)) == 40
    assert biclique_number(obstruction(9, 3)) == 6
    # a bidirected path longer than the recursion limit: the search keeps
    # its own stack
    n = max(2000, 3 * sys.getrecursionlimit())
    path = [(v, v + 1) for v in range(n - 1)]
    assert biclique_number(Digraph(n, path + [(v, u) for u, v in path])) == 2


def _pairwise_components(maximum) -> tuple:
    """Components of the all-pairs intersection graph, by least index."""
    g = nx.Graph()
    g.add_nodes_from(range(len(maximum)))
    g.add_edges_from(
        (i, j) for i, j in combinations(range(len(maximum)), 2) if maximum[i] & maximum[j]
    )
    groups = sorted(sorted(c) for c in nx.connected_components(g))
    return tuple(tuple(maximum[i] for i in c) for c in groups)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**30))
def test_biclique_components_match_pairwise_grouping(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.8
    d = random_digraph(n, pd, rng.random() * (0.95 - pd), seed=seed)
    rep = biclique_report(d)
    assert rep.components == _pairwise_components(rep.maximum_bicliques)


def test_biclique_components_on_a_long_digon_free_chain() -> None:
    from .test_solver import triangle_chain

    rep = biclique_report(triangle_chain(1500))
    assert rep.omega_bi == 1
    assert rep.maximum_bicliques == tuple(frozenset({v}) for v in range(1500))
    assert rep.components == _pairwise_components(rep.maximum_bicliques)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 11), st.integers(0, 2**30))
def test_maximum_bicliques_match_networkx(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.9
    d = random_digraph(n, pd, rng.random() * (0.95 - pd), seed=seed)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u, v in d.arcs if u < v and d.has_arc(v, u))
    cliques = [frozenset(c) for c in nx.find_cliques(g)] if n else []
    top = max(map(len, cliques), default=0)
    expected = sorted((c for c in cliques if len(c) == top), key=sorted)
    rep = biclique_report(d)
    assert rep.omega_bi == top
    assert list(rep.maximum_bicliques) == expected


def test_biclique_report_deeper_than_the_recursion_limit() -> None:
    src = str(Path(dichroma.__file__).resolve().parents[1])
    code = (
        "import sys; sys.setrecursionlimit(300)\n"
        "from dichroma.digraph import complete_digraph\n"
        "from dichroma.params import biclique_number, biclique_report\n"
        "print(biclique_report(complete_digraph(400)).omega_bi)\n"
        "print(biclique_number(complete_digraph(400)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["400", "400"]


def test_biclique_cap_counts_maximal_cliques() -> None:
    # a 5-digon matching has 5 maximal bicliques; K9 has just one
    matching = symmetric_closure(10, [(2 * i, 2 * i + 1) for i in range(5)])
    with pytest.raises(CapExceeded):
        biclique_report(matching, cap=3)
    assert biclique_report(complete_digraph(9), cap=3).omega_bi == 9


def _directed_clique_brute(d: Digraph) -> int:
    from itertools import combinations

    best = 0
    for size in range(d.n, 0, -1):
        if size <= best:
            break
        for sub in combinations(range(d.n), size):
            for mask in range(1 << size):
                x1 = [v for i, v in enumerate(sub) if mask >> i & 1]
                x2 = [v for i, v in enumerate(sub) if not mask >> i & 1]
                if all(
                    d.has_digon(u, v)
                    for part in (x1, x2)
                    for u, v in combinations(part, 2)
                ) and all(d.has_arc(u, v) for u in x1 for v in x2):
                    best = size
                    break
            if best == size:
                break
    return best


def test_directed_clique_number_examples() -> None:
    assert directed_clique_number(complete_digraph(3)) == 3
    assert directed_clique_number(directed_cycle(3)) == 2
    # transitive tournament: the whole vertex set splits anywhere
    tt = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert directed_clique_number(tt) == 2
    assert directed_clique_number(Digraph(1, [])) == 1
    assert directed_clique_number(complete_digraph(40)) == 40
    assert directed_clique_number(obstruction(9, 3)) == 6


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**30))
def test_directed_clique_number_brute(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.6
    d = random_digraph(n, pd, rng.random() * (0.9 - pd), seed=seed)
    assert directed_clique_number(d) == _directed_clique_brute(d)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_directed_clique_number_deeper_than_the_recursion_limit(seed: int) -> None:
    # a bidirected path has no triangle in its underlying graph, so its own
    # directed clique number is 2; a disjoint dense piece settles the rest,
    # since X1 and X2 each lie in one component and every X1 -> X2 arc joins them
    n = max(2000, 3 * sys.getrecursionlimit())
    piece = random_digraph(8, 0.5, 0.3, seed=seed)
    path = [(v, v + 1) for v in range(n - 9)] + [(v + 1, v) for v in range(n - 9)]
    moved = [(u + n - 8, v + n - 8) for u, v in piece.arcs]
    d = Digraph(n, path + moved)
    assert directed_clique_number(d) == max(2, _directed_clique_brute(piece))


def _profile(dts: int, delta_min: int = 0) -> DegreeProfile:
    return DegreeProfile(
        d_out=(0,),
        d_in=(0,),
        d_max=(0,),
        d_min=(0,),
        geo_sq=(dts,),
        delta_max=0,
        delta_min=delta_min,
        delta_plus=0,
        delta_tilde_sq=dts,
    )


def test_bound_evaluators_worked_examples() -> None:
    # bidirected K4: sqrt(9) = 3, omega 4 -> ceil(8/2) = 4
    assert reed_bound(_profile(9), 4) == 4
    # oriented triangle: sqrt(1) = 1, omega 1 -> ceil(3/2) = 2
    assert reed_bound(_profile(1), 1) == 2
    assert reed_bound(_profile(25), 4) == 5
    # non-square: sqrt(2) ~ 1.414, omega 1 -> ceil(3.414/2) = 2
    assert reed_bound(_profile(2), 1) == 2
    assert epsilon_bound(_profile(9), 4, Fraction(1, 2)) == 4
    assert epsilon_bound(_profile(25), 4, Fraction(1, 4)) == 6
    with pytest.raises(InvalidParameter):
        epsilon_bound(_profile(4), 2, 0.5)
    with pytest.raises(InvalidParameter):
        epsilon_bound(_profile(4), 2, Fraction(0))
    with pytest.raises(InvalidParameter):
        reed_bound(_profile(4), -1)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**8), st.integers(0, 60))
def test_reed_equals_half_epsilon(dts: int, omega: int) -> None:
    p = _profile(dts)
    assert reed_bound(p, omega) == epsilon_bound(p, omega, Fraction(1, 2))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10**8),
    st.integers(0, 60),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
)
def test_epsilon_bound_is_outward_rounded(dts: int, omega: int, eps: Fraction) -> None:
    import mpmath

    with mpmath.workdps(60):
        root = mpmath.sqrt(dts)
        value = (1 - mpmath.mpf(eps.numerator) / eps.denominator) * (root + 1) + (
            mpmath.mpf(eps.numerator) / eps.denominator
        ) * omega
        lo = int(mpmath.floor(value - mpmath.mpf("1e-30")))
        hi = int(mpmath.ceil(value + mpmath.mpf("1e-30")))
    got = epsilon_bound(_profile(dts), omega, eps)
    assert lo <= got <= hi + 1


def test_delmin_bound_worked_examples() -> None:
    # bidirected K4: delta_min 3, directed clique number 4 -> ceil(3/2 + 2)
    assert delmin_bound(_profile(0, 3), 4, Fraction(1, 2)) == 4
    # exact value, no rounding: 3/2 + 5/2 = 4
    assert delmin_bound(_profile(0, 3), 5, Fraction(1, 2)) == 4
    # bidirected C5 at eps 99/100: ceil(2/100 + 198/100) = 2, digon variant
    # with 2 * omega_bi = 4: ceil(2/100 + 396/100) = 4
    assert delmin_bound(_profile(0, 2), 2, Fraction(99, 100)) == 2
    assert delmin_bound(_profile(0, 2), 4, Fraction(99, 100)) == 4
    assert delmin_bound(_profile(0, 5), 4, Fraction(1, 3)) == 5  # ceil(14/3)
    assert delmin_bound(_profile(0, 7), 1, Fraction(1, 4)) == 6  # ceil(11/2)
    assert delmin_bound(_profile(0, 0), 0, Fraction(1, 2)) == 0
    for eps in (0.5, Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(InvalidParameter):
            delmin_bound(_profile(0, 3), 4, eps)
    with pytest.raises(InvalidParameter):
        delmin_bound(_profile(0, 3), -1, Fraction(1, 2))


@pytest.mark.parametrize(
    "eps, accepted",
    [
        (0, False),
        (1, False),
        (Fraction(-1, 2), False),
        (Fraction(3, 2), False),
        (0.5, False),
        ("1/3", True),
        (Fraction(1, 3), True),
    ],
)
def test_eps_values_accepted_and_rejected(eps, accepted: bool) -> None:
    # (1 - 1/3) * (5 + 1) + 4/3 = 16/3 and (1 - 1/3) * 5 + 4/3 = 14/3
    checks = (
        (lambda e: epsilon_bound(_profile(25), 4, e), 6),
        (lambda e: delmin_bound(_profile(0, 5), 4, e), 5),
    )
    for bound, want in checks:
        if accepted:
            assert bound(eps) == want
        else:
            with pytest.raises(InvalidParameter):
                bound(eps)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.fractions(min_value=Fraction(1, 10**4), max_value=Fraction(9999, 10**4)),
)
def test_delmin_bound_is_the_exact_ceiling(dmin: int, omega: int, eps: Fraction) -> None:
    want = math.ceil((1 - eps) * dmin + eps * omega)
    assert delmin_bound(_profile(0, dmin), omega, eps) == want


def test_is_b_sparse_monotone() -> None:
    d = random_digraph(9, 0.3, 0.3, seed=2)
    values = [b for b in range(0, 60) if is_b_sparse(d, b)]
    assert values == list(range(0, len(values)))  # downward closed in b
