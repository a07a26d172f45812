"""Exact dicolouring solver against brute-force references."""

import random
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dichroma.digraph import (
    Digraph,
    complete_digraph,
    directed_cycle,
    obstruction,
    random_digraph,
    random_tournament,
    symmetric_closure,
    Graph,
)
from dichroma import solver
from dichroma.errors import (
    InternalInconsistency,
    InvalidParameter,
    MissingList,
    NotPartialKL,
    PreconditionViolated,
)
from dichroma.solver import (
    Dicolouring,
    check_partial_kl,
    dichromatic_number,
    greedy_complete,
    is_k_dichoosable,
    is_valid,
    k_dicolourable,
    list_dicolourable,
    optimal_dicolouring,
)

from .oracles import acyclic, brute_dichromatic, dichoosable_brute, list_colourable_brute


def test_dicolouring_container() -> None:
    c = Dicolouring(3, {0: 2, 1: 0})
    assert c.colour(0) == 2 and c.colour(2) is None
    assert not c.is_total(3) and c.is_total(2)
    with pytest.raises(InvalidParameter):
        Dicolouring(-1, {})


def test_is_valid_examples() -> None:
    c3 = directed_cycle(3)
    assert not is_valid(c3, Dicolouring(1, {0: 0, 1: 0, 2: 0}), require_total=True)
    assert is_valid(c3, Dicolouring(2, {0: 0, 1: 0, 2: 1}), require_total=True)
    assert is_valid(c3, Dicolouring(2, {0: 0, 1: 0}), require_total=False)
    assert not is_valid(c3, Dicolouring(2, {0: 0, 1: 0}), require_total=True)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 2**32),
            st.floats(0, 0.45),
            st.floats(0, 0.5),
            st.lists(st.none() | st.integers(0, 2), min_size=n, max_size=n),
        )
    ),
    st.booleans(),
)
def test_is_valid_matches_the_oracle(case, total: bool) -> None:
    n, seed, p_digon, p_simple, colours = case
    d = random_digraph(n, p_digon, p_simple, seed=seed)
    c = Dicolouring(3, {v: k for v, k in enumerate(colours) if k is not None})
    classes = [[v for v, k in c.assignment.items() if k == colour] for colour in range(3)]
    expect = all(acyclic(n, d.arcs, part) for part in classes)
    if total and len(c.assignment) < n:
        expect = False
    assert is_valid(d, c, require_total=total) == expect


def test_worked_chromatic_values() -> None:
    assert dichromatic_number(Digraph(0, [])) == 0
    assert dichromatic_number(Digraph(3, [])) == 1
    assert dichromatic_number(directed_cycle(5)) == 2
    assert dichromatic_number(complete_digraph(4)) == 4
    assert dichromatic_number(obstruction(5, 2)) == 5
    assert dichromatic_number(obstruction(4, 2)) == 4
    # transitive tournaments are acyclic
    tt = Digraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert dichromatic_number(tt) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.integers(0, 2**30))
def test_chromatic_matches_brute(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.6
    d = random_digraph(n, pd, rng.random() * (0.95 - pd), seed=seed)
    chi = dichromatic_number(d)
    assert chi == brute_dichromatic(d.n, d.arcs)
    witness = k_dicolourable(d, chi)
    assert witness is not None and is_valid(d, witness, require_total=True)
    if chi > 1:
        assert k_dicolourable(d, chi - 1) is None


def test_k_dicolourable_edges() -> None:
    assert k_dicolourable(directed_cycle(3), 0) is None
    assert k_dicolourable(Digraph(0, []), 0) is not None
    with pytest.raises(InvalidParameter):
        k_dicolourable(directed_cycle(3), -1)


def test_list_dicolourable_examples() -> None:
    c3 = directed_cycle(3)
    got = list_dicolourable(c3, {0: frozenset({0}), 1: frozenset({0}), 2: frozenset({1})})
    assert got is not None and is_valid(c3, got, require_total=True)
    # all lists equal {0}: the cycle cannot be monochromatic
    assert list_dicolourable(c3, {v: frozenset({0}) for v in range(3)}) is None
    # an empty list is unsatisfiable, not malformed
    assert (
        list_dicolourable(c3, {0: frozenset(), 1: frozenset({0}), 2: frozenset({0})})
        is None
    )
    # bidirected K9 needs nine colours: eight shared ones fail by pigeonhole
    k9 = complete_digraph(9)
    assert list_dicolourable(k9, {v: frozenset(range(8)) for v in range(9)}) is None
    got = list_dicolourable(k9, {v: frozenset(range(9)) for v in range(9)})
    assert got is not None and is_valid(k9, got, require_total=True)
    assert sorted(got.assignment.values()) == list(range(9))
    with pytest.raises(MissingList):
        list_dicolourable(c3, {0: frozenset({0}), 1: frozenset({0})})
    with pytest.raises(InvalidParameter):
        list_dicolourable(c3, {v: frozenset({-1}) for v in range(3)})


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**30))
def test_list_dicolourable_matches_brute(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.5
    d = random_digraph(n, pd, rng.random() * (0.9 - pd), seed=seed)
    lists = {
        v: frozenset(rng.sample(range(4), rng.randrange(1, 4))) for v in range(n)
    }
    got = list_dicolourable(d, lists)
    assert (got is not None) == list_colourable_brute(n, d.arcs, lists)
    if got is not None:
        assert is_valid(d, got, require_total=True)
        assert all(got.colour(v) in lists[v] for v in range(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**30))
def test_block_lists_match_brute(n: int, seed: int) -> None:
    # lists are unions of colour blocks, so whole blocks of colours are
    # allowed by exactly the same vertices
    rng = random.Random(seed)
    pd = rng.random() * 0.7
    d = random_digraph(n, pd, rng.random() * (0.95 - pd), seed=seed)
    blocks, start = [], 0
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 2)
        blocks.append(frozenset(range(start, start + size)))
        start += size
    lists = {
        v: frozenset().union(*rng.sample(blocks, rng.randint(1, len(blocks))))
        for v in range(n)
    }
    got = list_dicolourable(d, lists)
    assert (got is not None) == list_colourable_brute(n, d.arcs, lists)
    if got is not None:
        assert is_valid(d, got, require_total=True)
        assert all(got.colour(v) in lists[v] for v in range(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**30))
def test_tournament_chromatic_matches_brute(n: int, seed: int) -> None:
    d = random_tournament(n, seed=seed)
    best = optimal_dicolouring(d)
    assert best.k == brute_dichromatic(d.n, d.arcs)
    assert is_valid(d, best, require_total=True)
    if best.k > 1:
        assert k_dicolourable(d, best.k - 1) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**30))
def test_optimal_dicolouring_matches_brute(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.6
    d = random_digraph(n, pd, rng.random() * (0.95 - pd), seed=seed)
    best = optimal_dicolouring(d)
    chi = brute_dichromatic(d.n, d.arcs)
    assert best.k == chi == dichromatic_number(d)
    assert len(set(best.assignment.values())) == chi
    assert is_valid(d, best, require_total=True)


def triangle_chain(n: int) -> Digraph:
    """n/3 directed triangles, each with an arc into the next one; every
    cycle stays inside a triangle, so the dichromatic number is 2."""
    arcs = []
    for a in range(0, n - 2, 3):
        arcs += [(a, a + 1), (a + 1, a + 2), (a + 2, a)]
        if a:
            arcs.append((a - 1, a))
    return Digraph(n, arcs)


def test_searches_run_deeper_than_the_recursion_limit() -> None:
    n = 3 * sys.getrecursionlimit()
    d = triangle_chain(n)
    two = k_dicolourable(d, 2)
    assert two is not None and is_valid(d, two, require_total=True)
    assert k_dicolourable(d, 1) is None
    lists = {v: frozenset({5, 7}) for v in range(n)}
    got = list_dicolourable(d, lists)
    assert got is not None and is_valid(d, got, require_total=True)
    assert set(got.assignment.values()) == {5, 7}
    assert optimal_dicolouring(d).k == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**30))
def test_search_yields_each_acyclic_transversal_once(n: int, seed: int) -> None:
    # one class, one step per part: the search must enumerate, not just find
    rng = random.Random(seed)
    pd = rng.random() * 0.5
    d = random_digraph(n, pd, rng.random() * (0.9 - pd), seed=seed)
    order = rng.sample(range(n), n)
    parts = []
    while order:
        size = rng.randint(1, 3)
        parts.append(sorted(order[:size]))
        order = order[size:]
    got = list(solver._search(*d.masks, [0], [(part, (0,)) for part in parts]))
    assert all(set(y.values()) == {0} for y in got)
    want = [sorted(pick) for pick in product(*parts) if acyclic(n, d.arcs, pick)]
    assert sorted(sorted(y) for y in got) == sorted(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**30))
def test_spreads_meet_in_the_options_a_placement_kills(n: int, seed: int) -> None:
    # X + v is an acyclic class; w, which X alone admits, is shut out once v
    # joins exactly when w sits on a cycle through v inside X + v + w
    rng = random.Random(seed)
    pd = rng.random() * 0.5
    d = random_digraph(n, pd, rng.random() * (0.9 - pd), seed=seed)
    v, *rest = rng.sample(range(n), n)
    x: list[int] = []
    for u in rest:
        if rng.random() < 0.7 and acyclic(n, d.arcs, [v, u, *x]):
            x.append(u)
    cls = sum(1 << u for u in [v, *x])
    out, inn = d.masks
    meet = solver._spread(inn, cls, v) & solver._spread(out, cls, v)
    admitted = [w for w in range(n) if not cls >> w & 1 and acyclic(n, d.arcs, [w, *x])]
    assert [w for w in admitted if meet >> w & 1] == [
        w for w in admitted if not acyclic(n, d.arcs, [v, w, *x])
    ]


def test_witness_self_check(monkeypatch) -> None:
    c3 = directed_cycle(3)
    monochrome = [{0: 0, 1: 0, 2: 0}]
    monkeypatch.setattr(solver, "_search", lambda *args, **kw: iter(monochrome))
    with pytest.raises(InternalInconsistency):
        optimal_dicolouring(c3)
    with pytest.raises(InternalInconsistency):
        k_dicolourable(c3, 2)
    with pytest.raises(InternalInconsistency):
        list_dicolourable(c3, {v: frozenset({0, 1}) for v in range(3)})
    # one class of a 2-colouring of C3 + C3 holds the second triangle
    two = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    split = [{0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}]
    monkeypatch.setattr(solver, "_search", lambda *args, **kw: iter(split))
    with pytest.raises(InternalInconsistency):
        k_dicolourable(two, 2)


def _biclique_k32() -> Digraph:
    # digons between {0, 1, 2} and {3, 4}
    return symmetric_closure(
        Graph(5, [(a, b) for a in range(3) for b in (3, 4)])
    )


def test_check_partial_kl() -> None:
    d = directed_cycle(4)
    assert check_partial_kl(d, Dicolouring(2, {0: 0, 1: 0, 2: 1}), 2, 0)
    # a monochromatic cycle disqualifies the partial outright
    mono = Dicolouring(1, {v: 0 for v in range(4)})
    assert not check_partial_kl(d, mono, 1, 0)
    # neighbourhoods of size one can never repeat a colour
    assert not check_partial_kl(d, Dicolouring(2, {0: 0, 1: 1}), 2, 1)
    b = _biclique_k32()
    kl = Dicolouring(2, {3: 0, 4: 0, 0: 1, 1: 1})
    assert check_partial_kl(b, kl, 2, 1)


def test_greedy_complete_extends() -> None:
    d = complete_digraph(3)
    done = greedy_complete(d, Dicolouring(3, {0: 0}), 3, 0)
    assert is_valid(d, done, require_total=True)
    assert done.colour(0) == 0
    b = _biclique_k32()
    kl = Dicolouring(2, {3: 0, 4: 0, 0: 1, 1: 1})
    done = greedy_complete(b, kl, 2, 1)
    assert is_valid(b, done, require_total=True)
    assert done.k == 3  # palette Delta + 1 - ell


def test_greedy_complete_rejects_bad_input() -> None:
    b = _biclique_k32()
    with pytest.raises(NotPartialKL):
        greedy_complete(b, Dicolouring(2, {}), 2, 1)
    with pytest.raises(InvalidParameter):
        greedy_complete(b, Dicolouring(9, {}), 9, 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**30))
def test_greedy_complete_random(n: int, seed: int) -> None:
    rng = random.Random(seed)
    d = random_digraph(n, 0.25, 0.25, seed=seed)
    from dichroma.params import degree_profile

    delta = degree_profile(d).delta_max
    k = max(delta // 2, 1)
    done = greedy_complete(d, Dicolouring(delta + 1, {}), k, 0)
    assert is_valid(d, done, require_total=True)


def test_dichoosability_small_cases() -> None:
    # 1-dichoosable == acyclic: same singleton list everywhere is monochromatic
    tt3 = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert is_k_dichoosable(tt3, 1)
    assert not is_k_dichoosable(directed_cycle(3), 1)
    assert is_k_dichoosable(directed_cycle(3), 2)
    assert is_k_dichoosable(complete_digraph(3), 3)
    assert not is_k_dichoosable(complete_digraph(3), 2)
    # bidirected even cycle is 2-dichoosable
    cyc = symmetric_closure(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert is_k_dichoosable(cyc, 2)


@pytest.mark.parametrize("a, b, choosable", [(2, 3, True), (2, 4, False), (3, 3, False)])
def test_bidirected_complete_bipartite_2_dichoosability(a, b, choosable) -> None:
    # Erdos, Rubin and Taylor: K_{2,3} is 2-choosable, K_{2,4} and K_{3,3}
    # are not; their bad lists come after many colourable candidates
    g = Graph(a + b, [(x, y) for x in range(a) for y in range(a, a + b)])
    assert is_k_dichoosable(symmetric_closure(g), 2) == choosable


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**30))
def test_dichoosability_matches_brute(n: int, k: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.6
    d = random_digraph(n, pd, rng.random() * (0.9 - pd), seed=seed)
    assert is_k_dichoosable(d, k) == dichoosable_brute(n, d.arcs, k)


def test_ert_guarantee_small() -> None:
    # complete digon digraph minus a matching of size p is (n-p)-dichoosable
    for n in range(2, 6):
        for p in range(0, n // 2 + 1):
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and not (u // 2 == v // 2 and u < 2 * p and v < 2 * p)
            ]
            d = Digraph(n, arcs)
            assert is_k_dichoosable(d, n - p), (n, p)


def test_dichoosable_universe_restriction() -> None:
    # with only k colours in the universe every assignment is the same list,
    # so dichoosability collapses to k-dicolourability
    d = complete_digraph(3)
    assert is_k_dichoosable(d, 3, universe=3)
    assert not is_k_dichoosable(d, 2, universe=2)
