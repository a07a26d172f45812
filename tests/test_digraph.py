"""Digraph and graph containers, constructors, and structural queries."""

import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import repeat
from operator import length_hint

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dichroma.asr import ASRInstance, find_asr, list_dicolour_asr
from dichroma.canon import canonical_key
from dichroma.dense import dense_reduce_theorem
from dichroma.digraph import (
    MAX_ARCS,
    Digraph,
    Graph,
    complete_digraph,
    directed_cycle,
    obstruction,
    random_digraph,
    random_tournament,
    symmetric_closure,
)
from dichroma.errors import InstanceTooLarge, InvalidParameter, InvalidVertex, SelfLoop
from dichroma.solver import check_partial_kl
from dichroma.sparse import sparse_dicolour

from .oracles import acyclic, isomorphic


def digraphs(max_n: int = 8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            lambda arcs: Digraph(n, arcs),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda a: a[0] != a[1]
                ),
                max_size=3 * n,
            ),
        )
    )


def test_construction_and_errors() -> None:
    d = Digraph(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
    assert d.arc_count() == 3
    assert d.has_arc(0, 1) and d.has_digon(0, 1) and not d.has_digon(1, 2)
    assert d.out_degree(1) == 2 and d.in_degree(1) == 1
    with pytest.raises(SelfLoop):
        Digraph(2, [(1, 1)])
    with pytest.raises(InvalidVertex):
        Digraph(2, [(0, 2)])
    with pytest.raises(InvalidParameter):
        Digraph(-1, [])


def test_arc_cap_counts_duplicates() -> None:
    arcs = repeat((0, 1), MAX_ARCS + 2)
    with pytest.raises(InstanceTooLarge):
        Digraph(2, arcs)
    assert length_hint(arcs) == 1  # it read MAX_ARCS + 1 arcs, then stopped


def arc_lists(max_n: int = 9):
    """(n, arcs) with repeated arcs, in any order."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda a: a[0] != a[1]
                ),
                max_size=4 * n,
            ).map(lambda arcs: arcs + arcs[::3]),
        )
    )


@settings(max_examples=150, deadline=None)
@given(arc_lists())
def test_digraph_views_agree(case) -> None:
    n, arcs = case
    d = Digraph(n, arcs)
    want = set(arcs)
    assert d.arcs == want and d.arc_count() == len(want)
    out, inn = d.masks
    assert len(out) == len(inn) == n
    for v in range(n):
        heads = {w for u, w in want if u == v}
        tails = {u for u, w in want if w == v}
        assert heads == {w for w in range(n) if out[v] >> w & 1}
        assert tails == {w for w in range(n) if inn[v] >> w & 1}
        assert out[v] >> n == inn[v] >> n == 0
        assert d.out_degree(v) == len(heads) and d.in_degree(v) == len(tails)
    assert sum(map(d.out_degree, range(n))) == sum(map(d.in_degree, range(n))) == len(want)
    copy = pickle.loads(pickle.dumps(d))
    assert copy == d and hash(copy) == hash(d) and copy.masks == d.masks
    assert copy == Digraph(n, sorted(want))
    assert copy.arcs == want and repr(d) == f"Digraph(n={n}, m={len(want)})"
    for u, v in [(u, v) for u in range(n) for v in range(n)] + [(-1, 0), (0, n), (n, 0)]:
        assert d.has_arc(u, v) == ((u, v) in want)
        assert d.has_digon(u, v) == ((u, v) in want and (v, u) in want)
    shuffled = Digraph(n, random.Random(n).sample(arcs, len(arcs)) + arcs[:2])
    assert shuffled == d and hash(shuffled) == hash(d)
    assert Digraph(n + 1, arcs) != d
    assert d.reverse().arcs == {(v, u) for u, v in want}
    assert d.symmetric_part().edges == {frozenset(a) for a in want if a[::-1] in want}
    assert d.underlying_graph().edges == {frozenset(a) for a in want}


def test_digraph_footprint() -> None:
    """Mean bytes a small digraph retains: the masks alone, and keying it
    caches nothing on it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds = [random_digraph(6, 0.3, 0.4, seed) for seed in range(500)]
        built = tracemalloc.get_traced_memory()[0] - base
        for d in ds:
            canonical_key(d)
        keyed = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert built / len(ds) <= 512 and keyed / len(ds) <= 768


def test_first_bad_arc_decides_the_error() -> None:
    assert Digraph(0, []).masks == ((), ())
    with pytest.raises(SelfLoop):
        Digraph(3, [(0, 1), (2, 2), (0, 5)])
    with pytest.raises(InvalidVertex):
        Digraph(3, [(0, 1), (0, 5), (2, 2)])


def test_neighbourhoods() -> None:
    d = Digraph(4, [(0, 1), (1, 0), (0, 2), (3, 0)])
    out, inn = d.masks
    assert out == (0b0110, 0b0001, 0b0000, 0b0001)
    assert inn == (0b1010, 0b0001, 0b0001, 0b0000)


def test_library_calls_leave_no_state() -> None:
    """The masks are all a digraph holds, and the constructive procedures
    read them without caching anything on the digraph."""
    assert Digraph.__slots__ == ("n", "masks")
    # 0 sees a bidirected triangle 1, 2, 3 (a dense vertex); 4..7 are isolated
    arcs = [(0, 1), (0, 2), (0, 3)] + [(u, w) for u in (1, 2, 3) for w in (1, 2, 3) if u != w]
    d = Digraph(8, arcs)
    before = pickle.dumps(d)
    colouring = sparse_dicolour(d, 0, seed=1)
    assert colouring is not None and check_partial_kl(d, colouring, colouring.k, 0)
    report = dense_reduce_theorem(d, Fraction(1, 600), Fraction(1, 1000000))
    assert report.dense_vertex == 0 and report.colouring is not None
    parts = (frozenset({0, 7}), frozenset({1, 4}), frozenset({2, 5}), frozenset({3, 6}))
    assert len(find_asr(ASRInstance(d, parts, 1))) == 4
    assert list_dicolour_asr(d, {v: frozenset(range(6)) for v in range(8)}, 3).k == 6
    assert pickle.dumps(d) == before


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_reverse_involution(d: Digraph) -> None:
    r = d.reverse()
    assert r.arcs == frozenset((v, u) for u, v in d.arcs)
    assert r.reverse().arcs == d.arcs
    assert d.symmetric_part().edges == r.symmetric_part().edges
    out, inn = d.masks
    for v in range(d.n):
        for w in range(d.n):
            assert (out[v] >> w & 1) == ((v, w) in d.arcs)
            assert (inn[v] >> w & 1) == ((w, v) in d.arcs)
    assert r.masks == d.masks[::-1]
    assert d.masks is d.masks


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_induced_full_and_empty(d: Digraph) -> None:
    full, relabel = d.induced(frozenset(range(d.n)))
    assert full.arcs == d.arcs and relabel == {v: v for v in range(d.n)}
    empty, relabel = d.induced(frozenset())
    assert empty.n == 0 and relabel == {}


@settings(max_examples=150, deadline=None)
@given(digraphs(7), st.integers(0, 6))
def test_acyclicity_matches_networkx(d: Digraph, pick: int) -> None:
    assert d.is_acyclic() == acyclic(d.n, d.arcs)
    sub = frozenset(v for v in range(d.n) if (v * 7 + pick) % 3 != 0)
    assert d.is_acyclic(sub) == acyclic(d.n, d.arcs, sub)


def test_underlying_and_components() -> None:
    d = Digraph(5, [(0, 1), (2, 3), (3, 2)])
    g = d.underlying_graph()
    comps = sorted(sorted(c) for c in g.connected_components())
    assert comps == [[0, 1], [2, 3], [4]]
    assert not d.is_connected()
    assert directed_cycle(4).is_connected()


def test_remove_vertices_keeps_labels_dense() -> None:
    d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    sub, relabel = d.remove_vertices(frozenset({1}))
    assert sub.n == 3
    assert relabel == {0: 0, 2: 1, 3: 2}
    assert sub.arcs == frozenset({(1, 2), (2, 0)})


def test_families() -> None:
    k3 = complete_digraph(3)
    assert k3.arc_count() == 6 and all(k3.has_digon(u, v) for u in range(3) for v in range(u))
    c4 = directed_cycle(4)
    assert c4.arcs == frozenset({(0, 1), (1, 2), (2, 3), (3, 0)})
    assert symmetric_closure(Graph(2, [(0, 1)])).arcs == frozenset({(0, 1), (1, 0)})


def test_obstruction_structure() -> None:
    d = obstruction(5, 2)
    assert d.n == 10
    # parts of two consecutive blocks are digon-linked, skipping blocks are not
    assert d.has_digon(0, 2) and d.has_digon(0, 1) and d.has_digon(8, 0)
    assert not d.has_arc(0, 4) and not d.has_arc(4, 0)
    # every vertex sees its own block and both neighbouring blocks
    for v in range(10):
        assert d.out_degree(v) == d.in_degree(v) == 5
    with pytest.raises(InvalidParameter):
        obstruction(2, 1)
    with pytest.raises(InvalidParameter):
        obstruction(4, 0)


def test_obstruction_is_blowup_of_cycle() -> None:
    # contracting each block of obstruction(n, 1) gives the bidirected cycle
    d = obstruction(4, 1)
    e = symmetric_closure(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert isomorphic(d.n, d.arcs, e.n, e.arcs)


def test_random_generators_seeded() -> None:
    a = random_digraph(8, 0.3, 0.3, seed=5)
    b = random_digraph(8, 0.3, 0.3, seed=5)
    c = random_digraph(8, 0.3, 0.3, seed=6)
    assert a.arcs == b.arcs and a.arcs != c.arcs
    t = random_tournament(6, seed=1)
    assert t.arc_count() == 15
    assert all(
        t.has_arc(u, v) != t.has_arc(v, u) for u in range(6) for v in range(u)
    )
    with pytest.raises(InvalidParameter):
        random_digraph(4, 0.7, 0.7, seed=0)
    nan = float("nan")
    for p_digon, p_simple in ((nan, 0.5), (0.5, nan), (nan, nan), (float("inf"), 0.0)):
        with pytest.raises(InvalidParameter):
            random_digraph(4, p_digon, p_simple, seed=1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.randoms(use_true_random=False))
def test_random_digraph_probability_extremes(n: int, rng: random.Random) -> None:
    full = random_digraph(n, 1.0, 0.0, seed=rng.randrange(2**30))
    assert full.arc_count() == n * (n - 1)
    none = random_digraph(n, 0.0, 0.0, seed=rng.randrange(2**30))
    assert none.arc_count() == 0
