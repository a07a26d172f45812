"""Colour reduction around a locally dense vertex.

When some vertex sees almost all possible arcs inside one of its
neighbourhoods, that neighbourhood (closed, padded up to Delta + 1 with
fresh vertices dominated by v) splits into N1 (many arcs leaving into the
rest of the digraph), N2 (many arcs into N1 or outside), and the dense core
N3.  Any k-colouring of D - N3 leaves every core vertex a list of most of
[k]; the core is close to a complete digon digraph, so after removing a
maximum matching of its non-digon pairs it is choosable from lists of size
|M| + |X|, and the list colouring glues back onto the base.

All thresholds involving sqrt(a) are decided by squaring against the
rational a; nothing here depends on floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Optional

from .digraph import Digraph, _arc_list, _bits, symmetric_closure
from .errors import (
    InternalInconsistency,
    InvalidParameter,
    InvalidVertex,
    NotDense,
    PreconditionViolated,
)
from .exactmath import ceil_sqrt, exact_fraction
from .matching import maximum_matching
from .params import biclique_number, degree_profile, density_report
from .solver import (
    Dicolouring,
    is_valid,
    list_dicolourable,
    optimal_dicolouring,
)


def _check_density_parameter(a) -> Fraction:
    a = exact_fraction(a, "density parameter")
    if not 0 < a < 1:
        raise InvalidParameter("density parameter must lie strictly in (0, 1)")
    return a


def find_dense_vertex(d: Digraph, a) -> Optional[tuple[int, str]]:
    """First vertex whose denser neighbourhood misses fewer than an
    a-fraction of its Delta * (Delta - 1) possible arcs, with that side."""
    a = _check_density_parameter(a)
    profile = degree_profile(d)
    report = density_report(d)
    bound = (1 - a) * profile.delta_max * (profile.delta_max - 1)
    for v in range(d.n):
        if max(report.m_plus[v], report.m_minus[v]) > bound:
            side = "out" if report.m_plus[v] >= report.m_minus[v] else "in"
            return v, side
    return None


@dataclass(frozen=True)
class DensePartition:
    """The padded closed neighbourhood of a dense vertex, split three ways.

    Vertices are indices of `padded`; indices at or past `base_n` are the
    fresh padding, present only so that |N| = Delta + 1 exactly.
    """

    v: int
    side: str
    a: Fraction
    delta: int
    padded: Digraph
    base_n: int
    n_set: frozenset[int]
    nbar: frozenset[int]
    n1: frozenset[int]
    n2: frozenset[int]
    n3: frozenset[int]


def partition_N123(d: Digraph, v: int, side: str, a) -> DensePartition:
    """Split N+(v) with {v}, padded to Delta + 1 vertices, into N1/N2/N3.

    The in side is handled on the reversed digraph.  N1 holds the vertices
    with at least Delta/2 out-neighbours beyond N, N2 those with at least
    2 sqrt(a) Delta out-neighbours in Nbar or N1.  The dense vertex itself
    goes to N3 by definition: below the theorem's degree threshold the size
    bound |N1| < 2 sqrt(a) Delta that keeps it out of N2 can fail.
    """
    a = _check_density_parameter(a)
    if side not in ("out", "in"):
        raise InvalidParameter("side must be 'out' or 'in'")
    if not 0 <= v < d.n:
        raise InvalidVertex(f"vertex {v} out of range")
    work = d if side == "out" else d.reverse()
    profile = degree_profile(work)
    delta = profile.delta_max
    m_inside = density_report(work).m_plus[v]
    if m_inside * a.denominator <= (
        (a.denominator - a.numerator) * delta * (delta - 1)
    ):
        raise NotDense(
            f"vertex {v} misses too many arcs on its {side} side"
        )

    core = work.masks[0][v] | 1 << v
    pad_count = delta + 1 - core.bit_count()
    padded = Digraph(
        work.n + pad_count,
        _arc_list(work.masks[0]) + [(v, work.n + i) for i in range(pad_count)],
    )
    out = padded.masks[0]
    n_mask = core | ((1 << pad_count) - 1) << work.n
    nbar = ((1 << padded.n) - 1) ^ n_mask
    n_set = frozenset(_bits(n_mask))

    n1 = frozenset(
        u for u in n_set if 2 * (out[u] & nbar).bit_count() >= delta
    )
    outward = nbar | sum(1 << u for u in n1)
    n2 = frozenset(
        u
        for u in n_set - n1 - {v}
        if (out[u] & outward).bit_count() ** 2 * a.denominator
        >= 4 * a.numerator * delta * delta
    )
    n3 = n_set - n1 - n2
    if v not in n3 or n1 | n2 | n3 != n_set or len(n_set) != delta + 1:
        raise InternalInconsistency("neighbourhood partition is malformed")
    return DensePartition(
        v, side, a, delta, padded, d.n, n_set, frozenset(_bits(nbar)), n1, n2, n3
    )


def _complement_matching(
    d: Digraph, vertices: list[int]
) -> tuple[frozenset[frozenset[int]], frozenset[int]]:
    """Maximum matching on the non-digon pairs of the given vertices, and
    the uncovered rest, which must come out a biclique."""
    index = {u: i for i, u in enumerate(vertices)}
    edges = [
        (index[u], index[w])
        for u, w in combinations(vertices, 2)
        if not d.has_digon(u, w)
    ]
    matching = maximum_matching(symmetric_closure(len(vertices), edges))
    covered = set().union(*matching) if matching else set()
    exposed = frozenset(u for u in vertices if index[u] not in covered)
    for u, w in combinations(sorted(exposed), 2):
        if not d.has_digon(u, w):
            raise InternalInconsistency(
                "exposed pair without a digon contradicts maximality"
            )
    back = {
        frozenset(vertices[i] for i in edge) for edge in matching
    }
    return frozenset(back), exposed


def dense_colour(
    d: Digraph,
    v: int,
    side: str,
    a,
    k: int,
    base_colouring: Dicolouring,
) -> Optional[Dicolouring]:
    """Extend a k-colouring of D - N3 across the dense core by list
    dicolouring from L(u) = [k] minus the base colours out of u."""
    if k < 1:
        raise InvalidParameter("k must be positive")
    part = partition_N123(d, v, side, a)
    # checks that the vertices exposed by a maximum non-digon matching
    # pairwise share digons, i.e. the core is as dense as the lists assume
    _complement_matching(part.padded, sorted(part.n3))
    return _colour_core(d, part, k, base_colouring)


def _core_lists(part: DensePartition, base: Mapping[int, int], k: int) -> dict[int, frozenset[int]]:
    """L(u) = [k] minus the base colours on the out-neighbours of u beyond
    N3, for each core vertex u; base covers every vertex beyond N3."""
    out, beyond = part.padded.masks[0], ~sum(1 << u for u in part.n3)
    return {
        u: frozenset(range(k)) - {base[w] for w in _bits(out[u] & beyond)}
        for u in sorted(part.n3)
    }


def _colour_core(
    d: Digraph, part: DensePartition, k: int, base_colouring: Dicolouring
) -> Optional[Dicolouring]:
    """dense_colour on a partition already computed and matched."""
    padded = part.padded
    outside = sorted(frozenset(range(d.n)) - part.n3)
    base = base_colouring.assignment
    if any(u not in base or not 0 <= base[u] < k for u in outside):
        raise PreconditionViolated(
            "base colouring must cover D - N3 within [k]"
        )
    sub_out, relabel_out = d.induced(frozenset(outside))
    if not is_valid(
        sub_out,
        Dicolouring(k, {relabel_out[u]: base[u] for u in outside}),
        require_total=True,
    ):
        raise PreconditionViolated("base colouring is not a dicolouring")

    lists = _core_lists(part, base, k)
    core, relabel = padded.induced(part.n3)
    found = list_dicolourable(
        core, {relabel[u]: lists[u] for u in part.n3}
    )
    if found is None:
        return None
    merged = {u: base[u] for u in outside}
    merged.update(
        (u, found.colour(relabel[u])) for u in part.n3 if u < d.n
    )
    result = Dicolouring(k, merged)
    if not is_valid(d, result, require_total=True):
        raise InternalInconsistency("merged colouring went invalid")
    return result


def delta_threshold(a) -> int:
    """Least integer at or above max((1-a)/(sqrt(a)-a), (1-a)/a).

    As 1 - a = (1 - sqrt(a))(1 + sqrt(a)), the first term is 1 + 1/sqrt(a)
    and the second 1/a - 1; with c = ceil(1/a), ceil(1/sqrt(a)) is the least
    t with t^2 >= c, since t^2 is an integer."""
    a = _check_density_parameter(a)
    c = -(-a.denominator // a.numerator)
    return max(1 + ceil_sqrt(c), c - 1)


@dataclass(frozen=True)
class DenseReport:
    """Outcome of one end-to-end dense reduction with every size claim of
    the argument re-checked exactly; claims may fail when the digraph is
    below the degree threshold, so they are recorded, not asserted."""

    dense_vertex: Optional[int]
    side: Optional[str]
    delta: int
    k: int
    degree_hypothesis: bool
    biclique_hypothesis: bool
    size_claims: dict[str, bool]
    colouring: Optional[Dicolouring]
    bound_achieved: bool


def dense_reduce_theorem(d: Digraph, a, eps) -> DenseReport:
    """Locate a dense vertex, solve D - v exactly, run the reduction at
    k = max(chi(D - v), floor((1 - eps)(Delta + 1))), and audit the
    argument's internal bounds."""
    a = _check_density_parameter(a)
    eps = exact_fraction(eps, "eps")
    # 0 < eps <= 1/6 - 4 sqrt(a), via (1/6 - eps)^2 >= 16 a
    gap = Fraction(1, 6) - eps
    if eps <= 0 or gap < 0 or gap * gap < 16 * a:
        raise PreconditionViolated("need 0 < eps <= 1/6 - 4 sqrt(a)")

    profile = degree_profile(d)
    delta = profile.delta_max
    degree_ok = delta >= delta_threshold(a)
    omega = biclique_number(d)
    biclique_ok = 3 * omega <= 2 * (delta + 1)

    located = find_dense_vertex(d, a)
    if located is None:
        return DenseReport(
            None, None, delta, 0, degree_ok, biclique_ok, {}, None, False
        )
    v, side = located
    removed, relabel = d.remove_vertices(frozenset({v}))
    sub_col = optimal_dicolouring(removed)
    k = max(sub_col.k, int((1 - eps) * (delta + 1)))
    inverse = {new: old for old, new in relabel.items()}
    base = Dicolouring(
        k, {inverse[u]: sub_col.colour(u) for u in range(removed.n)}
    )

    part = partition_N123(d, v, side, a)
    matching, exposed = _complement_matching(
        part.padded, sorted(part.n3)
    )
    # base colours every vertex but v, and v lies in N3
    lists_min = min(map(len, _core_lists(part, base.assignment, k).values()), default=k)
    p, q = a.numerator, a.denominator
    claims = {
        "n1_small": len(part.n1) ** 2 * q < 4 * p * part.delta**2,
        "n2_small": len(part.n2) ** 2 * q < 4 * p * part.delta**2,
        "lists_large": lists_min >= (5 * (part.delta + 1)) // 6,
        "matching_plus_exposed": 6 * (len(matching) + len(exposed))
        <= 5 * (part.delta + 1),
    }
    colouring = _colour_core(d, part, k, base)
    achieved = colouring is not None and colouring.k <= k
    return DenseReport(
        v, side, delta, k, degree_ok, biclique_ok, claims, colouring, achieved
    )
