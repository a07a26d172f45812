"""Maximum matching of a digraph's digon graph against an exhaustive reference."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dichroma.digraph import Digraph, symmetric_closure
from dichroma.matching import is_matching, maximum_matching

from .oracles import max_matching_size


def _random_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def test_small_examples() -> None:
    assert maximum_matching(symmetric_closure(0, [])) == frozenset()
    assert maximum_matching(symmetric_closure(3, [])) == frozenset()
    path = symmetric_closure(4, [(0, 1), (1, 2), (2, 3)])
    assert len(maximum_matching(path)) == 2
    triangle = symmetric_closure(3, [(0, 1), (1, 2), (0, 2)])
    assert len(maximum_matching(triangle)) == 1
    # single arcs are not digons, so a directed 4-cycle has nothing to match
    assert maximum_matching(Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == frozenset()


def test_odd_cycles_need_augmenting() -> None:
    # two triangles joined by a bridge: greedy along the bridge loses an edge
    g = symmetric_closure(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    m = maximum_matching(g)
    assert is_matching(g, m)
    assert len(m) == 3
    for k in (5, 7, 9):
        cycle = symmetric_closure(k, [(i, (i + 1) % k) for i in range(k)])
        assert len(maximum_matching(cycle)) == k // 2


def test_is_matching_rejects() -> None:
    g = symmetric_closure(4, [(0, 1), (1, 2), (2, 3)])
    assert not is_matching(g, frozenset({frozenset({0, 1}), frozenset({1, 2})}))
    assert not is_matching(g, frozenset({frozenset({0, 2})}))
    assert is_matching(g, frozenset({frozenset({0, 1}), frozenset({2, 3})}))
    assert not is_matching(g, frozenset({frozenset({0})}))
    assert not is_matching(Digraph(2, [(0, 1)]), frozenset({frozenset({0, 1})}))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.integers(0, 2**30))
def test_matches_exhaustive_size(n: int, seed: int) -> None:
    edges = _random_edges(n, random.Random(seed ^ 1).random(), seed)
    g = symmetric_closure(n, edges)
    m = maximum_matching(g)
    assert is_matching(g, m)
    assert len(m) == max_matching_size(n, edges)
