"""Degree, density and clique parameters of a digraph.

The geometric-mean degree of a vertex is sqrt(d_out * d_in); its maximum over
the digraph is irrational in general, so this module keeps the squared value
as an exact integer and evaluates every ceiling bound with pure integer
arithmetic.  Colour-count bounds of the shape ceil((1-e)(x+1) + e*w) with
x = sqrt(delta_tilde_sq) are resolved by isolating the square root and
squaring once the sign of the remaining side is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .digraph import Digraph
from .errors import CapExceeded, InternalInconsistency, InvalidParameter
from .exactmath import ceil_sqrt


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degrees and their digraph-wide aggregates.

    d_max/d_min are max(d_out, d_in) and min(d_out, d_in) per vertex; geo_sq
    is d_out * d_in, the squared geometric-mean degree.  delta_min is the
    maximum of d_min over vertices (not the minimum degree), delta_plus the
    maximum out-degree, delta_tilde_sq the maximum of geo_sq.
    """

    d_out: tuple[int, ...]
    d_in: tuple[int, ...]
    d_max: tuple[int, ...]
    d_min: tuple[int, ...]
    geo_sq: tuple[int, ...]
    delta_max: int
    delta_min: int
    delta_plus: int
    delta_tilde_sq: int


@dataclass(frozen=True)
class DensityReport:
    """Arc counts inside each vertex's out/in-neighbourhood.

    m_plus[v] is the number of arcs of the subdigraph induced by N+(v),
    m_minus[v] the same for N-(v).  bv[v] = Delta(Delta-1) - min of the two,
    with Delta the maximum degree of the whole digraph; a digraph is B-sparse
    when bv[v] >= B everywhere.
    """

    m_plus: tuple[int, ...]
    m_minus: tuple[int, ...]
    bv: tuple[int, ...]


@dataclass(frozen=True)
class BicliqueReport:
    """Maximum bicliques and the components of their intersection graph.

    A biclique is a vertex set inducing a complete digraph (all digons), so
    bicliques of D are exactly cliques of the digon graph.  components groups
    the maximum bicliques: two bicliques are adjacent in the intersection
    graph when they share a vertex.
    """

    omega_bi: int
    maximum_bicliques: tuple[frozenset[int], ...]
    components: tuple[tuple[frozenset[int], ...], ...]


def degree_profile(d: Digraph) -> DegreeProfile:
    d_out = tuple(d.out_degree(v) for v in range(d.n))
    d_in = tuple(d.in_degree(v) for v in range(d.n))
    d_max = tuple(max(o, i) for o, i in zip(d_out, d_in))
    d_min = tuple(min(o, i) for o, i in zip(d_out, d_in))
    geo_sq = tuple(o * i for o, i in zip(d_out, d_in))
    profile = DegreeProfile(
        d_out=d_out,
        d_in=d_in,
        d_max=d_max,
        d_min=d_min,
        geo_sq=geo_sq,
        delta_max=max(d_max, default=0),
        delta_min=max(d_min, default=0),
        delta_plus=max(d_out, default=0),
        delta_tilde_sq=max(geo_sq, default=0),
    )
    if sum(d_out) != d.arc_count() or sum(d_in) != d.arc_count():
        raise InternalInconsistency("degree sums disagree with the arc count")
    if not (
        profile.delta_min**2 <= profile.delta_tilde_sq <= profile.delta_max**2
    ):
        raise InternalInconsistency("geometric-mean degree out of range")
    return profile


def density_report(d: Digraph) -> DensityReport:
    delta = degree_profile(d).delta_max

    def arcs_within(s: frozenset[int]) -> int:
        return sum(len(d.out_adj[u] & s) for u in s)

    m_plus = tuple(arcs_within(d.out_adj[v]) for v in range(d.n))
    m_minus = tuple(arcs_within(d.in_adj[v]) for v in range(d.n))
    bv = tuple(
        delta * (delta - 1) - min(p, m) for p, m in zip(m_plus, m_minus)
    )
    return DensityReport(m_plus=m_plus, m_minus=m_minus, bv=bv)


def is_b_sparse(d: Digraph, b: int) -> bool:
    """True when every vertex v has min(m_plus, m_minus) <= Delta(Delta-1) - b."""
    return all(x >= b for x in density_report(d).bv)


def _maximal_cliques(adj: tuple[frozenset[int], ...], cap: int) -> list[frozenset[int]]:
    """All maximal cliques, pivoted branch and bound; CapExceeded past cap."""
    out: list[frozenset[int]] = []

    def extend(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(frozenset(r))
            if len(out) > cap:
                raise CapExceeded(f"more than {cap} maximal cliques")
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            extend(r | {v}, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    if adj:
        extend(set(), set(range(len(adj))), set())
    return out


def biclique_report(d: Digraph, cap: int = 10**6) -> BicliqueReport:
    s = d.symmetric_part()
    cliques = _maximal_cliques(s.adj, cap)
    if not cliques:
        return BicliqueReport(0, (), ())
    omega = max(len(c) for c in cliques)
    maximum = sorted((c for c in cliques if len(c) == omega), key=sorted)

    # connected components of the intersection graph of the maximum bicliques
    parent = list(range(len(maximum)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(maximum)):
        for j in range(i + 1, len(maximum)):
            if maximum[i] & maximum[j]:
                parent[find(i)] = find(j)
    groups: dict[int, list[frozenset[int]]] = {}
    for i, c in enumerate(maximum):
        groups.setdefault(find(i), []).append(c)
    components = tuple(
        tuple(g) for g in sorted(groups.values(), key=lambda g: sorted(g[0]))
    )
    return BicliqueReport(omega, tuple(maximum), components)


def directed_clique_number(d: Digraph, omega_bi: Optional[int] = None) -> int:
    """Largest |X1| + |X2| with X1, X2 bicliques and every arc from X1 to X2.

    Exact three-way branch per vertex (skip, join X1, join X2), pruned by the
    remaining-vertex count and by |X1|, |X2| <= biclique number; pass
    omega_bi when it is already known.
    """
    if d.n == 0:
        return 0
    omega = biclique_report(d).omega_bi if omega_bi is None else omega_bi
    best = omega  # X2 empty, X1 a maximum biclique
    digons = tuple(d.digon_neighbours(v) for v in range(d.n))

    def branch(idx: int, x1: list[int], x2: list[int]) -> None:
        nonlocal best
        size = len(x1) + len(x2)
        best = max(best, size)
        if idx == d.n:
            return
        room = min(d.n - idx, (omega - len(x1)) + (omega - len(x2)))
        if size + room <= best:
            return
        v = idx
        if all(v in digons[u] for u in x1) and all(d.has_arc(v, w) for w in x2):
            x1.append(v)
            branch(idx + 1, x1, x2)
            x1.pop()
        if all(v in digons[u] for u in x2) and all(d.has_arc(u, v) for u in x1):
            x2.append(v)
            branch(idx + 1, x1, x2)
            x2.pop()
        branch(idx + 1, x1, x2)

    branch(0, [], [])
    return best


def reed_bound(profile: DegreeProfile, omega_bi: int) -> int:
    """ceil((x + 1 + w)/2) with x the geometric-mean degree maximum, exactly.

    Equals the least k with 2k - 1 - w >= 0 and (2k - 1 - w)^2 >= x^2.
    """
    if omega_bi < 0:
        raise InvalidParameter("biclique number must be non-negative")
    t_min = ceil_sqrt(profile.delta_tilde_sq)
    return (t_min + omega_bi) // 2 + 1


def epsilon_bound(profile: DegreeProfile, omega_bi: int, eps: Fraction) -> int:
    """ceil((1-e)(x+1) + e*w) with x as in reed_bound, exactly for rational e.

    With e = p/q and a = q - p the target is the least k with
    q*k - a - p*w >= a*x, settled by comparing squares since a*x >= 0.
    """
    if omega_bi < 0:
        raise InvalidParameter("biclique number must be non-negative")
    if isinstance(eps, float):
        raise InvalidParameter("eps must be an exact rational, not a float")
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InvalidParameter("eps must satisfy 0 < eps < 1")
    p, q = eps.numerator, eps.denominator
    a = q - p
    t_min = ceil_sqrt(a * a * profile.delta_tilde_sq)
    return (t_min + a + p * omega_bi + q - 1) // q
