"""Dense-vertex reduction: partition, recolouring, and the audit report."""

import random
from fractions import Fraction

import mpmath
import pytest

from dichroma.dense import (
    DensePartition,
    _complement_matching,
    delta_threshold,
    dense_colour,
    dense_reduce_theorem,
    find_dense_vertex,
    partition_N123,
)
from dichroma.digraph import (
    Digraph,
    Graph,
    complete_digraph,
    directed_cycle,
    random_digraph,
    symmetric_closure,
)
from dichroma.errors import (
    InvalidParameter,
    InvalidVertex,
    NotDense,
    PreconditionViolated,
)
from dichroma.params import degree_profile, density_report
from dichroma.solver import Dicolouring, dichromatic_number, is_valid


def _digons(pairs) -> list[tuple[int, int]]:
    return [arc for u, v in pairs for arc in ((u, v), (v, u))]


def _planted() -> Digraph:
    """0 sees the digon clique {1..5}; 5 alone reaches {6..10} beyond it."""
    pairs = [(0, i) for i in range(1, 6)]
    pairs += [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    pairs += [(5, j) for j in range(6, 11)]
    return Digraph(11, _digons(pairs))


def test_density_parameter_validation() -> None:
    d = complete_digraph(3)
    with pytest.raises(InvalidParameter):
        find_dense_vertex(d, 0.25)
    with pytest.raises(InvalidParameter):
        find_dense_vertex(d, 0)
    with pytest.raises(InvalidParameter):
        find_dense_vertex(d, 1)
    assert find_dense_vertex(d, Fraction(1, 4)) == (0, "out")


def test_find_dense_vertex_examples() -> None:
    assert find_dense_vertex(directed_cycle(5), Fraction(1, 4)) is None
    # vertex 0 misses exactly the allowed fraction; vertex 1 exceeds it
    d = Digraph(
        4,
        _digons([(0, 1), (0, 2), (0, 3), (1, 2)]) + [(1, 3), (2, 3)],
    )
    assert degree_profile(d).delta_max == 3
    assert density_report(d).m_plus[0] == 4
    assert find_dense_vertex(d, Fraction(1, 3)) == (1, "out")
    # one-way dense neighbourhood picks the heavier side
    oneway = Digraph(
        6,
        [(0, i) for i in range(1, 6)]
        + _digons([(i, j) for i in range(1, 6) for j in range(i + 1, 6)]),
    )
    assert find_dense_vertex(oneway, Fraction(9, 10)) == (0, "out")
    assert find_dense_vertex(oneway.reverse(), Fraction(9, 10)) == (0, "in")


def test_partition_planted() -> None:
    d = _planted()
    part = partition_N123(d, 0, "out", Fraction(9, 10))
    assert part.delta == 10
    assert part.base_n == 11
    assert part.padded.n == 16
    assert part.n_set == frozenset({0, 1, 2, 3, 4, 5}) | frozenset(range(11, 16))
    assert len(part.n_set) == part.delta + 1
    assert part.nbar == frozenset(range(6, 11))
    assert part.n1 == frozenset({5})
    assert part.n2 == frozenset()
    assert part.n3 == part.n_set - {5}
    assert 0 in part.n3
    assert part.n1 | part.n2 | part.n3 == part.n_set


def test_partition_membership_rules() -> None:
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randrange(2, 9)
        pd = 0.5 + rng.random() * 0.45
        d = random_digraph(n, pd, rng.random() * (0.98 - pd), seed=seed)
        found = find_dense_vertex(d, Fraction(1, 3))
        if found is None:
            continue
        v, side = found
        part = partition_N123(d, v, side, Fraction(1, 3))
        arcs, delta = part.padded.arcs, part.delta
        for u in part.n_set:
            heads = {w for x, w in arcs if x == u}
            in_n1 = 2 * len(heads & part.nbar) >= delta
            assert (u in part.n1) == in_n1
            if u not in part.n1 and u != v:
                reach = len(heads & (part.nbar | part.n1))
                assert (u in part.n2) == (reach**2 * 3 >= 4 * delta * delta)
        assert v in part.n3
        assert part.n1 | part.n2 | part.n3 == part.n_set
        assert len(part.n_set) == delta + 1


def test_partition_side_duality() -> None:
    oneway = Digraph(
        6,
        [(0, i) for i in range(1, 6)]
        + _digons([(i, j) for i in range(1, 6) for j in range(i + 1, 6)]),
    )
    a = Fraction(9, 10)
    out_part = partition_N123(oneway, 0, "out", a)
    in_part = partition_N123(oneway.reverse(), 0, "in", a)
    assert out_part.n1 == in_part.n1
    assert out_part.n2 == in_part.n2
    assert out_part.n3 == in_part.n3
    assert out_part.nbar == in_part.nbar


def test_partition_rejections() -> None:
    with pytest.raises(NotDense):
        partition_N123(directed_cycle(5), 0, "out", Fraction(1, 4))
    # exactly the allowed miss count is still not dense
    d = Digraph(
        4,
        _digons([(0, 1), (0, 2), (0, 3), (1, 2)]) + [(1, 3), (2, 3)],
    )
    with pytest.raises(NotDense):
        partition_N123(d, 0, "out", Fraction(1, 3))
    with pytest.raises(InvalidParameter):
        partition_N123(d, 1, "sideways", Fraction(1, 3))
    with pytest.raises(InvalidVertex):
        partition_N123(d, 9, "out", Fraction(1, 3))


def test_complement_matching() -> None:
    k4 = complete_digraph(4)
    matching, exposed = _complement_matching(k4, [0, 1, 2, 3])
    assert matching == frozenset()
    assert exposed == frozenset({0, 1, 2, 3})
    two = symmetric_closure(Graph(4, [(0, 1), (2, 3)]))
    matching, exposed = _complement_matching(two, [0, 1, 2, 3])
    assert len(matching) == 2 and exposed == frozenset()


def test_dense_colour_complete() -> None:
    k4 = complete_digraph(4)
    got = dense_colour(k4, 0, "out", Fraction(1, 4), 4, Dicolouring(4, {}))
    assert got is not None and is_valid(k4, got, require_total=True)
    assert len(set(got.assignment.values())) == dichromatic_number(k4)
    assert dense_colour(k4, 0, "out", Fraction(1, 4), 3, Dicolouring(3, {})) is None


def test_dense_colour_planted() -> None:
    d = _planted()
    a = Fraction(9, 10)
    # outside N3 is the star at 5; two base colours suffice
    base = Dicolouring(6, {5: 0, 6: 1, 7: 1, 8: 1, 9: 1, 10: 1})
    got = dense_colour(d, 0, "out", a, 6, base)
    assert got is not None and is_valid(d, got, require_total=True)
    assert got.colour(5) == 0  # the base is kept verbatim
    assert dense_colour(d, 0, "out", a, 5, Dicolouring(5, base.assignment)) is None
    with pytest.raises(PreconditionViolated):
        dense_colour(d, 0, "out", a, 6, Dicolouring(6, {5: 0}))
    clashing = dict(base.assignment)
    clashing[6] = 0  # same colour across the digon 5-6
    with pytest.raises(PreconditionViolated):
        dense_colour(d, 0, "out", a, 6, Dicolouring(6, clashing))
    with pytest.raises(InvalidParameter):
        dense_colour(d, 0, "out", a, 0, base)


def test_delta_threshold_values() -> None:
    assert delta_threshold(Fraction(1, 600)) == 599
    assert delta_threshold(Fraction(1, 16)) == 15
    assert delta_threshold(Fraction(1, 4)) == 3
    with mpmath.workdps(60):
        for p, q in ((1, 9), (1, 100), (3, 1000), (1, 577)):
            a = mpmath.mpf(p) / q
            want = max(
                int(mpmath.ceil((1 - a) / (mpmath.sqrt(a) - a))),
                int(mpmath.ceil((1 - a) / a)),
            )
            assert delta_threshold(Fraction(p, q)) == want, (p, q)


def test_reduce_theorem_gate() -> None:
    d = complete_digraph(4)
    with pytest.raises(InvalidParameter):
        dense_reduce_theorem(d, Fraction(1, 600), 1e-7)
    with pytest.raises(PreconditionViolated):
        dense_reduce_theorem(d, Fraction(1, 600), Fraction(0))
    with pytest.raises(PreconditionViolated):
        dense_reduce_theorem(d, Fraction(1, 4), Fraction(1, 10**6))
    with pytest.raises(PreconditionViolated):
        dense_reduce_theorem(d, Fraction(1, 600), Fraction(1, 4))


def test_reduce_theorem_no_dense_vertex() -> None:
    report = dense_reduce_theorem(
        directed_cycle(5), Fraction(1, 600), Fraction(1, 10**6)
    )
    assert report.dense_vertex is None and report.side is None
    assert report.size_claims == {}
    assert report.colouring is None and not report.bound_achieved
    assert not report.degree_hypothesis and report.biclique_hypothesis


def test_reduce_theorem_audit_below_threshold() -> None:
    report = dense_reduce_theorem(
        complete_digraph(6), Fraction(1, 600), Fraction(1, 10**6)
    )
    assert report.dense_vertex == 0 and report.side == "out"
    assert report.delta == 5 and report.k == 5
    # both hypotheses fail at this scale, so the claims only get recorded
    assert not report.degree_hypothesis and not report.biclique_hypothesis
    assert report.size_claims["n1_small"] and report.size_claims["n2_small"]
    assert report.size_claims["lists_large"]
    assert not report.size_claims["matching_plus_exposed"]
    assert report.colouring is None and not report.bound_achieved
