"""Acyclic systems of representatives and biclique transversals."""

import random
import sys

import pytest

from dichroma.asr import (
    ASRInstance,
    _product_isomorphism,
    _transversal_fallback,
    GoodTriplet,
    TransversalOutcome,
    acyclic_hitting_set,
    biclique_transversal,
    brute_transversal_oracle,
    find_asr,
    is_good_triplet,
    list_dicolour_asr,
    search_good_triplet,
)
from dichroma.digraph import (
    Digraph,
    Graph,
    complete_digraph,
    obstruction,
    symmetric_closure,
)
from dichroma.errors import InvalidParameter, NoASR, PreconditionViolated
from dichroma.params import biclique_report, degree_profile
from dichroma.solver import is_valid


def test_instance_validation() -> None:
    d = Digraph(4, [(0, 2), (2, 1)])
    good = ASRInstance(d, (frozenset({0, 1}), frozenset({2, 3})), 1)
    assert good.satisfies_degree_condition
    assert good.part_of(3) == 1
    with pytest.raises(InvalidParameter):
        ASRInstance(d, (frozenset({0, 1}), frozenset({1, 2, 3})), 1)
    with pytest.raises(InvalidParameter):
        ASRInstance(d, (frozenset({0, 1}),), 1)
    with pytest.raises(InvalidParameter):
        ASRInstance(d, (frozenset({0, 2}), frozenset({1, 3})), 1)
    with pytest.raises(InvalidParameter):
        ASRInstance(d, (frozenset({0, 1}), frozenset({2, 3})), 0)


def test_find_asr_small() -> None:
    arcs = [(0, 2), (2, 1)]
    d = Digraph(4, arcs)
    inst = ASRInstance(d, (frozenset({0, 1}), frozenset({2, 3})), 1)
    for anchor in range(4):
        rep = find_asr(inst, anchor)
        assert anchor in rep
        assert all(len(rep & p) == 1 for p in inst.parts)
        assert d.is_acyclic(rep)
        # anchored search avoids the anchor's out-neighbourhood entirely
        assert not rep & {w for u, w in arcs if u == anchor}


def test_find_asr_none_exists() -> None:
    # all four cross pairs are digons: every transversal carries a 2-cycle
    d = symmetric_closure(Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))
    inst = ASRInstance(d, (frozenset({0, 1}), frozenset({2, 3})), 1)
    assert not inst.satisfies_degree_condition
    with pytest.raises(NoASR):
        find_asr(inst)


def test_find_asr_deeper_than_the_recursion_limit() -> None:
    # parts {2i, 2i+1}; the even vertices form one long directed cycle, so a
    # transversal must leave it somewhere, and every degree is at most 1
    m = 3 * sys.getrecursionlimit() // 2
    d = Digraph(2 * m, [(2 * i, 2 * ((i + 1) % m)) for i in range(m)])
    inst = ASRInstance(d, tuple(frozenset({2 * i, 2 * i + 1}) for i in range(m)), 1)
    assert inst.satisfies_degree_condition
    for anchor in (None, 0, 2 * m - 1):
        rep = find_asr(inst, anchor)
        assert anchor is None or anchor in rep
        assert all(len(rep & p) == 1 for p in inst.parts)
        assert d.is_acyclic(rep)


def _random_condition_instance(seed: int) -> tuple[ASRInstance, list[tuple[int, int]]]:
    """Random parts and arcs pruned until the degree condition holds, with
    the arcs kept."""
    rng = random.Random(seed)
    sizes = [rng.randrange(2, 5) for _ in range(rng.randrange(2, 5))]
    k = rng.randrange(1, min(sizes) + 1)
    parts = []
    v = 0
    for s in sizes:
        parts.append(frozenset(range(v, v + s)))
        v += s
    n = v
    part_of = {u: p for p in parts for u in p}
    arcs = [
        (u, w)
        for u in range(n)
        for w in range(n)
        if part_of[u] is not part_of[w] and rng.random() < 0.4
    ]
    rng.shuffle(arcs)
    out_used = {u: 0 for u in range(n)}
    in_used = {u: 0 for u in range(n)}
    kept = []
    for u, w in arcs:
        if out_used[u] < k and in_used[w] < len(part_of[w]) - k:
            kept.append((u, w))
            out_used[u] += 1
            in_used[w] += 1
    return ASRInstance(Digraph(n, kept), tuple(parts), k), kept


def test_find_asr_random_sweep() -> None:
    for seed in range(120):
        inst, arcs = _random_condition_instance(seed)
        assert inst.satisfies_degree_condition
        d = inst.digraph
        anchor = random.Random(seed ^ 99).randrange(d.n)
        rep = find_asr(inst, anchor)
        assert anchor in rep
        assert all(len(rep & p) == 1 for p in inst.parts)
        assert d.is_acyclic(rep)
        assert not rep & {w for u, w in arcs if u == anchor}


def test_good_triplet_certificate() -> None:
    # out-degree 2 at vertex 2 breaks the degree condition and admits (I, X, Y)
    d = Digraph(4, [(2, 0), (3, 0), (2, 1)])
    inst = ASRInstance(d, (frozenset({0, 1}), frozenset({2, 3})), 1)
    assert not inst.satisfies_degree_condition
    triplet = GoodTriplet(frozenset({0}), frozenset({2}), frozenset({0}))
    assert is_good_triplet(inst, triplet)
    assert search_good_triplet(inst) is not None
    # a triplet whose Y misses the in-arc count is rejected
    assert not is_good_triplet(
        inst, GoodTriplet(frozenset({0}), frozenset({3}), frozenset({0}))
    )


def test_no_good_triplet_under_condition() -> None:
    for seed in range(40):
        inst, _ = _random_condition_instance(seed)
        if len(inst.parts) > 3 or inst.digraph.n > 9:
            continue
        assert search_good_triplet(inst) is None, seed


def test_list_dicolour_asr() -> None:
    from dichroma.digraph import directed_cycle

    c3 = directed_cycle(3)
    lists = {v: frozenset({0, 1}) for v in range(3)}
    got = list_dicolour_asr(c3, lists, 1)
    assert is_valid(c3, got, require_total=True)
    assert all(got.colour(v) in lists[v] for v in range(3))
    with pytest.raises(PreconditionViolated):
        list_dicolour_asr(complete_digraph(3), lists, 1)


def test_acyclic_hitting_set() -> None:
    base = Graph(4, [(0, 1), (2, 3)])
    d = Digraph(
        4, list(symmetric_closure(base).arcs) + [(0, 2), (3, 1)]
    )
    parts = (frozenset({0, 1}), frozenset({2, 3}))
    hit = acyclic_hitting_set(d, parts, 1)
    assert all(len(hit & p) == 1 for p in parts)
    assert d.is_acyclic(hit)
    with pytest.raises(InvalidParameter):
        acyclic_hitting_set(d, (frozenset({0, 2}), frozenset({1, 3})), 1)
    dense = complete_digraph(4)
    with pytest.raises(PreconditionViolated):
        acyclic_hitting_set(dense, parts, 1)


def test_outcome_variant_exclusivity() -> None:
    with pytest.raises(InvalidParameter):
        TransversalOutcome()
    with pytest.raises(InvalidParameter):
        TransversalOutcome(
            hitting_set=frozenset({0}), obstruction=(5, 1), isomorphism={}
        )
    with pytest.raises(InvalidParameter):
        TransversalOutcome(obstruction=(4, 1), isomorphism={})
    with pytest.raises(InvalidParameter):
        TransversalOutcome(obstruction=(5, 1))


def _check_hitting(d: Digraph, outcome: TransversalOutcome) -> None:
    hit = outcome.hitting_set
    assert hit is not None
    assert d.is_acyclic(hit)
    rep = biclique_report(d)
    assert all(hit & b for b in rep.maximum_bicliques)
    remaining, _ = d.remove_vertices(hit)
    assert biclique_report(remaining).omega_bi == rep.omega_bi - 1


def _check_shape(d: Digraph, outcome: TransversalOutcome) -> None:
    assert outcome.obstruction is not None
    n_cycle, p = outcome.obstruction
    iso = outcome.isomorphism
    assert iso is not None
    target = obstruction(n_cycle, p)
    assert {(iso[u], iso[v]) for u, v in d.arcs} == set(target.arcs)


def test_transversal_worked_examples() -> None:
    _check_hitting(complete_digraph(4), biclique_transversal(complete_digraph(4), 3))
    c6 = symmetric_closure(Graph(6, [(i, (i + 1) % 6) for i in range(6)]))
    _check_hitting(c6, biclique_transversal(c6, 2))
    p4 = symmetric_closure(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    _check_hitting(p4, biclique_transversal(p4, 2))


def test_transversal_product_shapes() -> None:
    for n_cycle, p, delta in ((5, 1, 2), (7, 1, 2), (5, 2, 5)):
        d = obstruction(n_cycle, p)
        outcome = biclique_transversal(d, delta)
        assert outcome.obstruction == (n_cycle, p)
        _check_shape(d, outcome)
        assert brute_transversal_oracle(d) is None


def test_transversal_preconditions() -> None:
    star = symmetric_closure(Graph(4, [(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(PreconditionViolated):
        biclique_transversal(star, 3)
    two_digons = symmetric_closure(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(PreconditionViolated):
        biclique_transversal(two_digons, 1)
    with pytest.raises(PreconditionViolated):
        biclique_transversal(complete_digraph(4), 2)


def test_transversal_matches_oracle_sweep() -> None:
    checked = 0
    for seed in range(400):
        if checked >= 60:
            break
        rng = random.Random(seed)
        n = rng.randrange(3, 9)
        p = 0.35 + rng.random() * 0.55
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        d = symmetric_closure(Graph(n, edges))
        if not d.is_connected() or d.n == 0:
            continue
        delta = degree_profile(d).delta_max
        if 3 * biclique_report(d).omega_bi < 2 * (delta + 1):
            continue
        checked += 1
        outcome = biclique_transversal(d, delta)
        want = brute_transversal_oracle(d)
        if want is None:
            _check_shape(d, outcome)
        else:
            _check_hitting(d, outcome)
    assert checked >= 60


def _relabelled(d: Digraph, seed: int) -> Digraph:
    perm = list(range(d.n))
    random.Random(seed).shuffle(perm)
    return Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])


@pytest.mark.parametrize("n_cycle, p", [(5, 3), (7, 2), (9, 2), (11, 1)])
def test_relabelled_odd_products_return_the_shape(n_cycle: int, p: int) -> None:
    d = _relabelled(obstruction(n_cycle, p), 100 * n_cycle + p)
    outcome = biclique_transversal(d, 3 * p - 1)
    assert outcome.obstruction == (n_cycle, p)
    _check_shape(d, outcome)


@pytest.mark.parametrize("n_cycle, p", [(6, 3), (8, 3)])
def test_relabelled_even_products_are_hit(n_cycle: int, p: int) -> None:
    d = _relabelled(obstruction(n_cycle, p), 100 * n_cycle + p)
    _check_hitting(d, biclique_transversal(d, 3 * p - 1))


def _blocks(n_cycle: int, p: int) -> list[frozenset[int]]:
    return [frozenset(range(i * p, (i + 1) * p)) for i in range(n_cycle)]


def test_product_isomorphism_is_the_identity_on_the_product() -> None:
    d = obstruction(7, 2)
    assert _product_isomorphism(d, _blocks(7, 2)) == {v: v for v in range(14)}
    # the same cycle of parts, rotated and reflected, reads the same map
    turned = _blocks(7, 2)[3::-1] + _blocks(7, 2)[:3:-1]
    assert _product_isomorphism(d, turned) == {v: v for v in range(14)}


def test_product_isomorphism_rejects_near_products() -> None:
    d = obstruction(7, 2)
    parts = _blocks(7, 2)
    no_digon = Digraph(d.n, d.arcs - {(1, 2), (2, 1)})
    assert _product_isomorphism(no_digon, parts) is None
    extra_arc = d.add_arcs([(0, 4)])
    assert _product_isomorphism(extra_arc, parts) is None
    swapped = parts[:1] + [parts[2], parts[1]] + parts[3:]
    assert _product_isomorphism(d, swapped) is None


@pytest.mark.parametrize("n_cycle", [5, 7])
def test_fallback_names_the_relabelled_product(n_cycle: int) -> None:
    d = _relabelled(obstruction(n_cycle, 1), n_cycle)
    outcome = _transversal_fallback(d, 2, ValueError("forced"))
    assert outcome.obstruction == (n_cycle, 1)
    _check_shape(d, outcome)
