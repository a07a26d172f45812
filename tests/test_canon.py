"""Canonical keys."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dichroma.canon import canonical_key
from dichroma.digraph import Digraph, random_digraph

from .oracles import isomorphic


def _relabel(d: Digraph, perm: list[int]) -> Digraph:
    return Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.integers(0, 2**30))
def test_key_invariant_under_relabelling(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.6
    d = random_digraph(n, pd, rng.random() * (0.9 - pd), seed=seed)
    perm = list(range(n))
    rng.shuffle(perm)
    assert canonical_key(d) == canonical_key(_relabel(d, perm))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**30))
def test_key_separates_nonisomorphic(n: int, seed: int) -> None:
    rng = random.Random(seed)
    d1 = random_digraph(n, 0.3, 0.2, seed=rng.getrandbits(32))
    d2 = random_digraph(n, 0.3, 0.2, seed=rng.getrandbits(32))
    same_key = canonical_key(d1) == canonical_key(d2)
    assert same_key == isomorphic(d1.n, d1.arcs, d2.n, d2.arcs)


def test_empty_and_singleton() -> None:
    assert canonical_key(Digraph(0, [])) == canonical_key(Digraph(0, []))
    assert canonical_key(Digraph(1, [])) != canonical_key(Digraph(2, []))
