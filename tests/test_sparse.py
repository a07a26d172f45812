"""Random sparse colouring pipeline."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dichroma.digraph import (
    Digraph,
    random_digraph,
    symmetric_closure,
)
from dichroma.errors import (
    InvalidParameter,
    InvalidVertex,
    PreconditionViolated,
)
from dichroma.params import degree_profile, density_report, is_b_sparse
from dichroma.solver import check_partial_kl, is_valid
from dichroma.sparse import (
    monte_carlo,
    sample_partial,
    sparse_dicolour,
    trial,
)

from .oracles import acyclic


def circulant(n: int, jumps: tuple[int, ...]) -> Digraph:
    return Digraph(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


def test_trial_accounting() -> None:
    d = circulant(9, (1, 2))
    state = trial(d, seed=7)
    assert state.k == degree_profile(d).delta_max // 2
    for v in range(d.n):
        assert state.xv[v] == state.yv[v] - state.zv[v]
        assert 0 <= state.zv[v] <= state.yv[v] <= state.k
        # uncolouring rule depends on the initial assignment only
        same_in = any(
            state.assignment[(v - j) % 9] == state.assignment[v] for j in (1, 2)
        )
        same_out = any(
            state.assignment[(v + j) % 9] == state.assignment[v] for j in (1, 2)
        )
        assert state.retained[v] == (not (same_in and same_out))
    partial = state.partial_assignment()
    assert set(partial) == {v for v in range(d.n) if state.retained[v]}


def test_trial_needs_degree_two() -> None:
    with pytest.raises(PreconditionViolated):
        trial(Digraph(2, [(0, 1)]), seed=0)


def test_trial_deterministic() -> None:
    d = circulant(11, (1, 3, 4))
    assert trial(d, seed=5).assignment == trial(d, seed=5).assignment


def test_sample_partial() -> None:
    d = circulant(10, (1, 2, 3, 4))
    got = sample_partial(d, ell=0, max_tries=4, seed=1)
    assert got is not None
    assert check_partial_kl(d, got, got.k, 0)
    assert sample_partial(d, ell=degree_profile(d).delta_max, max_tries=2, seed=1) is None
    with pytest.raises(InvalidParameter):
        sample_partial(d, ell=-1, max_tries=1, seed=1)
    for tries in (0, -1):  # also where ell > k would answer None at once
        for ell in (0, degree_profile(d).delta_max):
            with pytest.raises(InvalidParameter):
                sample_partial(d, ell=ell, max_tries=tries, seed=1)


def test_sparse_dicolour_end_to_end() -> None:
    for seed, jumps in ((3, (1, 2)), (5, (1, 2, 3)), (8, (2, 3))):
        d = circulant(12, jumps)
        delta = degree_profile(d).delta_max
        b = min(density_report(d).bv)
        assert is_b_sparse(d, b)
        got = sparse_dicolour(d, b, seed=seed)
        assert got is not None
        assert is_valid(d, got, require_total=True)
        assert got.k <= delta + 1


def test_sparse_dicolour_validation() -> None:
    d = circulant(8, (1, 2))
    with pytest.raises(InvalidParameter):
        sparse_dicolour(d, -1)
    with pytest.raises(PreconditionViolated):
        sparse_dicolour(d, 10**6)
    # degenerate degrees skip the sampler but still colour exactly
    tiny = symmetric_closure(2, [(0, 1)])
    for tries in (0, -1):  # the Delta < 2 shortcut does not skip the check
        for g in (d, tiny, Digraph(0, [])):
            with pytest.raises(InvalidParameter):
                sparse_dicolour(g, 0, max_tries=tries)
    got = sparse_dicolour(tiny, 0)
    assert got is not None and is_valid(tiny, got, require_total=True)
    assert sparse_dicolour(Digraph(0, []), 0) is not None


def _is_dicolouring(d: Digraph, colouring) -> bool:
    """Total, and the arcs inside colour classes form an acyclic digraph."""
    col = colouring.assignment
    if set(col) != set(range(d.n)):
        return False
    return acyclic(d.n, [(u, v) for u, v in d.arcs if col[u] == col[v]])


def test_sparse_dicolour_non_regular_circulant() -> None:
    # regularising would take ten doubling rounds to reach 307,200 vertices
    d = circulant(300, (1, 2, 3, 5, 8, 13, 21, 34, 55, 89))
    d = Digraph(d.n, [(u, v) for u, v in d.arcs if v != 0])
    delta = degree_profile(d).delta_max
    assert delta == 10 and d.in_degree(0) == 0
    got = sparse_dicolour(d, min(density_report(d).bv), seed=4)
    assert got is not None and _is_dicolouring(d, got)
    assert got.k <= delta + 1


def _out_star(n: int) -> Digraph:
    return Digraph(n, [(0, v) for v in range(1, n)])


def test_sparse_dicolour_largest_star_with_ell_zero() -> None:
    # B = Delta (Delta - 1) gives ell = floor((Delta - 1) / (4 e^7)) = 0 at Delta = 4387
    d = _out_star(4388)
    delta = d.n - 1
    got = sparse_dicolour(d, delta * (delta - 1), max_tries=2)
    assert got is not None and _is_dicolouring(d, got)
    assert got.k == delta + 1


def test_sparse_dicolour_star_with_ell_one_misses_the_target() -> None:
    # at Delta = 4388 ell = 1, but a leaf's sides are {centre} and empty
    d = _out_star(4389)
    delta = d.n - 1
    assert sparse_dicolour(d, delta * (delta - 1), max_tries=2) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**30))
def test_sparse_dicolour_on_random_digraphs(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.5
    d = random_digraph(n, pd, rng.random() * (0.9 - pd), seed=seed)
    profile = degree_profile(d)
    delta = profile.delta_max
    assume(set(profile.d_out) | set(profile.d_in) != {delta})
    b = rng.randrange(min(density_report(d).bv) + 1)
    got = sparse_dicolour(d, b, seed=seed)
    assert got is not None and _is_dicolouring(d, got)
    assert got.k <= delta + 1
    assert sparse_dicolour(d, b, seed=seed) == got


def test_monte_carlo_degenerate() -> None:
    est = monte_carlo(symmetric_closure(2, [(0, 1)]), 0, 50, seed=3)
    assert est.mean_x == est.mean_y == est.mean_z == 0.0
    assert est.trials == 50
    with pytest.raises(InvalidVertex):
        monte_carlo(circulant(5, (1, 2)), 9, 10, seed=0)
    with pytest.raises(InvalidParameter):
        monte_carlo(circulant(5, (1, 2)), 0, 0, seed=0)


def test_monte_carlo_matches_trial_loop() -> None:
    d = circulant(9, (1, 2, 4))
    v = 0
    est = monte_carlo(d, v, 4000, seed=17)
    assert est.threshold == pytest.approx(
        math.log(degree_profile(d).delta_max) * math.sqrt(est.mean_x)
    )
    rng = random.Random(99)
    xs, ys = [], []
    n_loop = 1500
    for _ in range(n_loop):
        state = trial(d, rng.getrandbits(64))
        xs.append(state.xv[v])
        ys.append(state.yv[v])
    mean_x = sum(xs) / n_loop
    mean_y = sum(ys) / n_loop
    sd_x = math.sqrt(sum((x - mean_x) ** 2 for x in xs) / (n_loop - 1))
    sd_y = math.sqrt(sum((y - mean_y) ** 2 for y in ys) / (n_loop - 1))
    tol_x = 5 * (est.se_x + sd_x / math.sqrt(n_loop)) + 1e-9
    tol_y = 5 * (est.se_y + sd_y / math.sqrt(n_loop)) + 1e-9
    assert abs(est.mean_x - mean_x) <= tol_x
    assert abs(est.mean_y - mean_y) <= tol_y
    assert est.mean_z == pytest.approx(est.mean_y - est.mean_x)
