"""Constants, per-instance verification, the min-degree reduction, and hunts."""

import dataclasses
import random
from fractions import Fraction

import mpmath
import networkx as nx
import pytest

from dichroma import harness
from dichroma.asr import biclique_transversal
from dichroma.digraph import (
    Digraph,
    complete_digraph,
    directed_cycle,
    obstruction,
    random_digraph,
    symmetric_closure,
)
from dichroma.errors import InstanceTooLarge, InternalInconsistency, InvalidParameter
from dichroma.exactmath import compare_to_ln_cubed
from dichroma.harness import (
    EXACT_CHI_CAP,
    delmin_reduction,
    hunt,
    hunt_records,
    log_cubed_threshold,
    main_constants,
    nonisomorphic_digraphs,
    verify_delmin,
    verify_instance,
)
from dichroma.params import (
    biclique_report,
    degree_profile,
    directed_clique_number,
)
from dichroma.solver import dichromatic_number

from .oracles import (
    acyclic,
    cycle_blowup_arcs,
    isomorphic,
    least_biclique_transversal,
    maximum_bicliques,
    to_nx,
)

A0 = Fraction(1, 600)
DELTA2 = 1_790_939


def _crosses(a: Fraction, delta: int) -> bool:
    return compare_to_ln_cubed(a * (delta - 1), delta) > 0


def test_log_cubed_threshold_value() -> None:
    assert log_cubed_threshold(A0) == DELTA2
    assert _crosses(A0, DELTA2)
    assert not _crosses(A0, DELTA2 - 1)
    assert log_cubed_threshold(Fraction(1, 2)) == 2


def test_log_cubed_threshold_mpmath() -> None:
    for a in (Fraction(1, 100), Fraction(1, 1000)):
        t = log_cubed_threshold(a)
        with mpmath.workdps(60):
            af = mpmath.mpf(a.numerator) / a.denominator
            assert mpmath.log(t) ** 3 / (t - 1) < af
            assert mpmath.log(t - 1) ** 3 / (t - 2) >= af


def test_main_constants_default() -> None:
    c = main_constants()
    assert c.a == A0
    assert c.delta2 == DELTA2
    assert c.delta_of_a == 599
    assert c.delta1 == DELTA2 and c.delta1_is_default
    assert Fraction(9, 10**8) < c.eps < Fraction(10, 10**8)
    assert c.gamma_eps == c.eps / (1 - c.eps)
    assert c.at_most_eps0(3 * c.eps)
    assert c.at_most_eps0(Fraction(1, 1000))
    assert not c.at_most_eps0(Fraction(1, 60))


def test_main_constants_configuration() -> None:
    c = main_constants(delta1=5)
    assert c.delta1 == 5 and not c.delta1_is_default
    assert c.eps <= Fraction(1, 5)
    with pytest.raises(InvalidParameter):
        main_constants(a=Fraction(1, 576))
    with pytest.raises(InvalidParameter):
        main_constants(a=1 / 600)
    with pytest.raises(InvalidParameter):
        main_constants(delta1=0)


def test_verify_instance_equalities() -> None:
    eps = Fraction(1, 2)
    rec = verify_instance(directed_cycle(3), eps)
    assert (rec.n, rec.chi, rec.omega_bi, rec.omega_directed) == (3, 2, 1, 2)
    assert rec.delta_tilde_sq == 1
    assert rec.reed_bound_value == 2 and rec.holds["reed"]
    k4 = complete_digraph(4)
    rec = verify_instance(k4, eps)
    assert rec.chi == 4 and rec.reed_bound_value == 4
    assert rec.violated == ()
    rec = verify_instance(obstruction(5, 2), eps, cap=10)
    assert rec.chi == 5 and rec.reed_bound_value == 5
    assert rec.delta_tilde_sq == 25 and rec.omega_bi == 4
    assert all(rec.holds.values())


def test_verify_instance_guards() -> None:
    with pytest.raises(InstanceTooLarge):
        verify_instance(obstruction(5, 2), Fraction(1, 2))
    with pytest.raises(InvalidParameter):
        verify_instance(directed_cycle(3), 0.5)


def test_delmin_reduction_traces() -> None:
    tt3 = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert set(delmin_reduction(tt3).arcs) == {(1, 2)}
    c5 = directed_cycle(5)
    assert set(delmin_reduction(c5).arcs) == set(c5.arcs)
    sym = symmetric_closure(4, [(i, (i + 1) % 4) for i in range(4)])
    assert set(delmin_reduction(sym).arcs) == set(sym.arcs)
    assert delmin_reduction(Digraph(0, [])).n == 0


def test_delmin_reduction_properties() -> None:
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randrange(1, 8)
        pd = rng.random() * 0.45
        d = random_digraph(n, pd, rng.random() * (0.95 - pd), seed=seed)
        h = delmin_reduction(d)
        assert h.n == d.n
        assert degree_profile(h).delta_plus <= degree_profile(d).delta_min
        assert biclique_report(h).omega_bi <= directed_clique_number(d)
        assert dichromatic_number(h) >= dichromatic_number(d)


def test_verify_delmin_records() -> None:
    eps = Fraction(1, 2)
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randrange(1, 8)
        d = random_digraph(n, rng.random() * 0.4, rng.random() * 0.4, seed=seed)
        rec = verify_delmin(d, eps)
        assert all(rec.holds.values()), (seed, rec.holds)
        assert rec.bound <= rec.digon_bound or rec.omega_directed > 2 * rec.omega_bi
    with pytest.raises(InstanceTooLarge):
        verify_delmin(complete_digraph(10), eps)


_TOURNAMENT_CLASSES = [1, 1, 2, 4, 12, 56, 456]  # OEIS A000568, n = 1..7
_DIGRAPH_CLASSES = [1, 3, 16, 218, 9608]  # OEIS A000273, n = 1..5


@pytest.fixture(scope="module")
def digraph_classes_5() -> list[Digraph]:
    return list(nonisomorphic_digraphs(5, "digraph"))


def test_enumeration_counts(digraph_classes_5) -> None:
    tournaments = [sum(1 for _ in nonisomorphic_digraphs(n)) for n in range(1, 8)]
    assert tournaments == _TOURNAMENT_CLASSES
    digraphs = [sum(1 for _ in nonisomorphic_digraphs(n, "digraph")) for n in range(1, 5)]
    assert digraphs + [len(digraph_classes_5)] == _DIGRAPH_CLASSES


def test_transversal_theorem_on_every_five_vertex_class(digraph_classes_5) -> None:
    """Each connected class with 3 omega_bi >= 2 (Delta_max + 1) has an
    acyclic set meeting every maximum biclique, except the bidirected C5."""
    audited = obstructions = 0
    for d in digraph_classes_5:
        arcs = sorted(d.arcs)
        delta = max(max(d.out_degree(v), d.in_degree(v)) for v in range(d.n))
        maxima = maximum_bicliques(d.n, arcs)
        omega = len(maxima[0])
        if 3 * omega < 2 * (delta + 1) or not nx.is_weakly_connected(to_nx(d.n, arcs)):
            continue
        audited += 1
        least = least_biclique_transversal(d.n, arcs)
        outcome = biclique_transversal(d, delta)
        hit = outcome.hitting_set
        assert (hit is None) == (least is None), arcs
        if hit is None:
            obstructions += 1
            iso = outcome.isomorphism
            assert outcome.obstruction == (5, 1)
            assert sorted(iso.values()) == list(range(d.n))
            assert {(iso[u], iso[v]) for u, v in arcs} == cycle_blowup_arcs(5, 1)
            continue
        assert acyclic(d.n, arcs, hit), arcs
        assert all(b & hit for b in maxima), arcs
        rest = [v for v in range(d.n) if v not in hit]
        assert max(map(len, maximum_bicliques(d.n, arcs, rest)), default=0) == omega - 1
    assert (audited, obstructions) == (667, 1)


def test_enumeration_classes_distinct() -> None:
    seen = list(nonisomorphic_digraphs(4, "tournament"))
    for i, d1 in enumerate(seen):
        for d2 in seen[i + 1 :]:
            assert not isomorphic(d1.n, d1.arcs, d2.n, d2.arcs)


def test_enumeration_guards() -> None:
    with pytest.raises(InvalidParameter):
        list(nonisomorphic_digraphs(9, "tournament"))
    with pytest.raises(InvalidParameter):
        list(nonisomorphic_digraphs(6, "digraph"))
    with pytest.raises(InvalidParameter):
        list(nonisomorphic_digraphs(3, "graph"))


def test_hunt_exhaustive() -> None:
    report = hunt({"mode": "exhaustive", "n_max": 4, "count": 0})
    assert report.bound == "reed" and report.eps == Fraction(1, 2)
    assert len(report.records) == 8  # 1 + 1 + 2 + 4 tournament classes
    assert report.violations == ()
    assert report.records[0].instance_id == "tournament-n1-00000"
    digraphs = hunt({"mode": "exhaustive", "n_max": 3, "family": "digraph"})
    assert len(digraphs.records) == 20  # 1 + 3 + 16 digraph classes
    assert digraphs.violations == ()


def test_hunt_exhaustive_grows_the_classes_once(monkeypatch) -> None:
    keyed = []
    key = harness.canonical_key
    monkeypatch.setattr(harness, "canonical_key", lambda d: keyed.append(d.n) or key(d))
    monkeypatch.setenv("DICHROMA_THREADS", "1")
    report = hunt({"mode": "exhaustive", "n_max": 6})
    # one growth to n = 6 keys 2^k children of each class on k <= 5 vertices
    assert len(keyed) == 471
    sizes = [1, 1, 2, 4, 12, 56]
    ids = [f"tournament-n{n}-{i:05d}" for n, c in enumerate(sizes, 1) for i in range(c)]
    assert [r.instance_id for r in report.records] == ids
    each = [
        verify_instance(d, Fraction(1, 2), f"tournament-n{n}-{i:05d}")
        for n in range(1, 7)
        for i, d in enumerate(nonisomorphic_digraphs(n))
    ]
    timeless = lambda r: dataclasses.replace(r, runtime=0.0)
    assert list(map(timeless, report.records)) == list(map(timeless, each))


def test_hunt_random_deterministic(monkeypatch) -> None:
    config = {"mode": "random", "n_max": 5, "count": 12, "seed": 41, "bound": "eps"}
    monkeypatch.setenv("DICHROMA_THREADS", "1")
    serial = hunt(config)
    monkeypatch.setenv("DICHROMA_THREADS", "2")
    pooled = hunt(config)
    assert len(serial.records) == 12
    stable = lambda r: (r.instance_id, r.seed, r.n, r.chi, r.reed_bound_value)
    assert [stable(r) for r in serial.records] == [stable(r) for r in pooled.records]
    assert serial.violations == pooled.violations == ()


def test_hunt_nmax_alias_and_empty() -> None:
    report = hunt({"mode": "random", "n_max": 4, "count": 0})
    assert report.records == ()
    with pytest.raises(InvalidParameter):
        hunt({"mode": "random", "nMax": 4, "count": 0})
    delmin = hunt(
        {"mode": "exhaustive", "n_max": 3, "bound": "delmin", "eps": Fraction(1, 3)}
    )
    assert delmin.eps == Fraction(1, 3)
    assert delmin.violations == ()


def test_hunt_validation(monkeypatch) -> None:
    with pytest.raises(InvalidParameter):
        hunt({"mode": "sideways"})
    with pytest.raises(InvalidParameter):
        hunt({"bound": "chromatic"})
    with pytest.raises(InvalidParameter):
        hunt({"n_max": EXACT_CHI_CAP + 1})
    with pytest.raises(InvalidParameter):
        hunt({"count": -1})
    with pytest.raises(InvalidParameter):
        hunt({"folds": 3})
    with pytest.raises(InvalidParameter):
        hunt({"eps": 0.5})
    for eps in (0, 1, Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(InvalidParameter):
            hunt({"eps": eps, "count": 0})
    with pytest.raises(InvalidParameter):
        hunt({"mode": "exhaustive", "n_max": 6, "family": "digraph"})
    monkeypatch.setenv("DICHROMA_THREADS", "zero")
    with pytest.raises(InvalidParameter):
        hunt({"mode": "random", "n_max": 3, "count": 12})
    monkeypatch.setenv("DICHROMA_THREADS", "0")
    with pytest.raises(InvalidParameter):
        hunt({"mode": "random", "n_max": 3, "count": 12})


def test_hunt_records_checks_first_then_draws_one_record_at_a_time(monkeypatch) -> None:
    drawn = []
    draw = harness.random_digraph
    monkeypatch.setattr(harness, "random_digraph", lambda *a, **kw: drawn.append(1) or draw(*a, **kw))
    monkeypatch.setenv("DICHROMA_THREADS", "1")
    violations: list[str] = []
    config = {"n_max": 9, "count": 466, "seed": 12345, "bound": "delmin"}
    bound, eps, records = hunt_records(config, violations)
    assert (bound, eps, drawn) == ("delmin", Fraction(1, 2), [])
    for i, record in enumerate(records):
        assert record.instance_id == f"random-n9-{i:05d}" and len(drawn) == i + 1
        assert violations == ([] if i < 465 else [record.instance_id])
    assert violations == ["random-n9-00465"] and len(drawn) == 466
    monkeypatch.setenv("DICHROMA_THREADS", "zero")
    with pytest.raises(InvalidParameter):
        hunt_records(config, [])
    assert len(drawn) == 466


def test_pooled_hunt_draws_a_batch_at_a_time() -> None:
    drawn = []

    def jobs():
        for i in range(200):
            drawn.append(i)
            yield random_digraph(4, 0.3, 0.3, seed=i), Fraction(1, 2), f"job-{i:03d}", i

    records = harness._verified(jobs(), "reed", 2, [])
    # a batch is four chunks of 8 jobs for each of the 2 workers; the next
    # one is drawn once the first record of the one before is out
    for i, record in enumerate(records):
        assert record.instance_id == f"job-{i:03d}"
        assert len(drawn) <= min(200, 64 if i == 0 else (i // 64 + 2) * 64)
    assert i == 199 and len(drawn) == 200


def test_hunt_records_grows_classes_as_they_are_read(monkeypatch) -> None:
    keyed = []
    key = harness.canonical_key
    monkeypatch.setattr(harness, "canonical_key", lambda d: keyed.append(d.n) or key(d))
    monkeypatch.setenv("DICHROMA_THREADS", "1")
    _, _, records = hunt_records({"mode": "exhaustive", "n_max": 4}, [])
    assert keyed == []
    assert next(records).instance_id == "tournament-n1-00000" and keyed == [1]
    assert len(list(records)) == 7 and keyed == [1] + [2] * 2 + [3] * 4 + [4] * 16


def test_hunt_records_drops_pool_jobs_when_the_reader_stops(monkeypatch) -> None:
    calls = []

    class Pool:
        def __init__(self, workers):
            calls.append(("start", workers))

        def map(self, fn, *iterables, chunksize):
            return map(fn, *iterables)

        def shutdown(self, **how):
            calls.append(("shutdown", how))

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    monkeypatch.setenv("DICHROMA_THREADS", "2")
    _, _, records = hunt_records({"n_max": 4, "count": 20}, [])
    assert next(records).instance_id == "random-n4-00000"
    records.close()
    assert calls == [("start", 2), ("shutdown", {"cancel_futures": True})]
