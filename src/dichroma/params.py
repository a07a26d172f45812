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

from .digraph import Digraph, Graph, _bits
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
    d_out, d_in = (tuple(m.bit_count() for m in side) for side in d.masks)
    d_max = tuple(map(max, d_out, d_in))
    d_min = tuple(map(min, d_out, d_in))
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
    if sum(d_out) != sum(d_in):
        raise InternalInconsistency("in- and out-degree sums disagree")
    if not (
        profile.delta_min**2 <= profile.delta_tilde_sq <= profile.delta_max**2
    ):
        raise InternalInconsistency("geometric-mean degree out of range")
    return profile


def density_report(d: Digraph) -> DensityReport:
    delta = degree_profile(d).delta_max

    out, inn = d.masks

    def arcs_within(s: int) -> int:
        return sum((out[u] & s).bit_count() for u in _bits(s))

    m_plus = tuple(map(arcs_within, out))
    m_minus = tuple(map(arcs_within, inn))
    bv = tuple(
        delta * (delta - 1) - min(p, m) for p, m in zip(m_plus, m_minus)
    )
    return DensityReport(m_plus=m_plus, m_minus=m_minus, bv=bv)


def is_b_sparse(d: Digraph, b: int) -> bool:
    """True when every vertex v has min(m_plus, m_minus) <= Delta(Delta-1) - b."""
    return all(x >= b for x in density_report(d).bv)


def _maximal_cliques(masks: list[int], cap: int) -> list[frozenset[int]]:
    """All maximal cliques, pivoted Bron-Kerbosch on an explicit stack of
    (clique, candidates, excluded) bitmasks; CapExceeded past cap."""
    out: list[frozenset[int]] = []
    stack = [(0, (1 << len(masks)) - 1, 0)] if masks else []
    while stack:
        r, p, x = stack.pop()
        if not p | x:
            out.append(frozenset(_bits(r)))
            if len(out) > cap:
                raise CapExceeded(f"more than {cap} maximal cliques")
            continue
        pivot = max(_bits(p | x), key=lambda u: (masks[u] & p).bit_count())
        for v in _bits(p & ~masks[pivot]):
            stack.append((r | 1 << v, p & masks[v], x & masks[v]))
            p ^= 1 << v
            x |= 1 << v
    return out


def biclique_report(d: Digraph, cap: int = 10**6) -> BicliqueReport:
    cliques = _maximal_cliques([o & i for o, i in zip(*d.masks)], cap)
    if not cliques:
        return BicliqueReport(0, (), ())
    omega = max(len(c) for c in cliques)
    maximum = sorted((c for c in cliques if len(c) == omega), key=sorted)

    # components of the intersection graph of the maximum bicliques, each in
    # index order; connected_components yields them by least index.  Linking
    # the first biclique through each vertex to the others through it keeps
    # the components of the all-pairs graph at linear cost
    holders: list[list[int]] = [[] for _ in range(d.n)]
    for i, c in enumerate(maximum):
        for v in c:
            holders[v].append(i)
    meets = Graph(len(maximum), [(ids[0], j) for ids in holders for j in ids[1:]])
    components = tuple(
        tuple(maximum[i] for i in sorted(c)) for c in meets.connected_components()
    )
    return BicliqueReport(omega, tuple(maximum), components)


def _clique_number(adj: list[int], n: int, best: int, top: int) -> int:
    """Largest clique of the graph with bitmask adjacency adj if it beats
    best, stopping at top.  Explicit-stack branch and bound: branch on the
    candidates outside the neighbourhood of a pivot with the most candidate
    neighbours, and prune when the clique plus the candidates left cannot
    beat best; candidates v and v + n count once, v < n."""
    low = (1 << n) - 1
    stack = [(0, (1 << len(adj)) - 1)]  # clique size, candidates
    while stack and best < top:
        r, p = stack.pop()
        if r + ((p | p >> n) & low).bit_count() <= best:
            continue
        if r >= best:
            best = r + 1
        pivot = most = -1
        rest = p
        while rest:
            bit = rest & -rest
            rest ^= bit
            u = bit.bit_length() - 1
            count = (p & adj[u]).bit_count()
            if count > most:
                pivot, most = u, count
        rest = p & ~adj[pivot]
        while rest:
            bit = rest & -rest
            rest ^= bit
            p ^= bit
            inside = p & adj[bit.bit_length() - 1]
            if inside:
                stack.append((r + 1, inside))
    return best


def biclique_number(d: Digraph) -> int:
    """omega_bi, the clique number of the digon graph, without listing the
    maximal bicliques that biclique_report groups."""
    return _clique_number([o & i for o, i in zip(*d.masks)], d.n, 0, d.n)


def directed_clique_number(d: Digraph, omega_bi: Optional[int] = None) -> int:
    """Largest |X1| + |X2| with X1, X2 bicliques and every arc from X1 to X2.

    The clique number of a graph on two copies of V: copy v means v in X1,
    copy v + n means v in X2.  Copies on one side are adjacent when their
    vertices form a digon, copy v is adjacent to copy w + n when v -> w, and
    the two copies of a vertex never are.  _clique_number starts at
    best = omega_bi (X2 empty), counts the two copies of a vertex once in
    its bound, and stops at min(n, 2 * omega_bi).  Pass omega_bi when known.
    """
    n = d.n
    omega = biclique_number(d) if omega_bi is None else omega_bi
    top = min(n, 2 * omega)  # X1 and X2 are disjoint bicliques
    if omega == top:
        return omega
    out, inn = d.masks
    adj = [o & i | o << n for o, i in zip(out, inn)]
    adj += [(o & i) << n | i for o, i in zip(out, inn)]
    return _clique_number(adj, n, omega, top)


def reed_bound(profile: DegreeProfile, omega_bi: int) -> int:
    """ceil((x + 1 + w)/2) with x the geometric-mean degree maximum, exactly.

    Equals the least k with 2k - 1 - w >= 0 and (2k - 1 - w)^2 >= x^2.
    """
    if omega_bi < 0:
        raise InvalidParameter("biclique number must be non-negative")
    t_min = ceil_sqrt(profile.delta_tilde_sq)
    return (t_min + omega_bi) // 2 + 1


def _eps_ratio(omega: int, eps) -> tuple[int, int]:
    """Numerator and denominator of eps, once omega >= 0 and 0 < eps < 1."""
    if omega < 0:
        raise InvalidParameter("clique number must be non-negative")
    if isinstance(eps, float):
        raise InvalidParameter("eps must be an exact rational, not a float")
    e = eps if isinstance(eps, Fraction) else Fraction(eps)
    if not 0 < e.numerator < e.denominator:  # the denominator is positive
        raise InvalidParameter("eps must satisfy 0 < eps < 1")
    return e.numerator, e.denominator


def epsilon_bound(profile: DegreeProfile, omega_bi: int, eps: Fraction) -> int:
    """ceil((1-e)(x+1) + e*w) with x as in reed_bound, exactly for rational e.

    With e = p/q and a = q - p the target is the least k with
    q*k - a - p*w >= a*x, settled by comparing squares since a*x >= 0.
    """
    p, q = _eps_ratio(omega_bi, eps)
    a = q - p
    t_min = ceil_sqrt(a * a * profile.delta_tilde_sq)
    return (t_min + a + p * omega_bi + q - 1) // q


def delmin_bound(profile: DegreeProfile, omega: int, eps: Fraction) -> int:
    """ceil((1-e) * delta_min + e*w), exactly for rational e.

    w is the directed clique number for the min-degree bound and twice the
    biclique number for its digon variant.  With e = p/q this is
    ceil(((q - p) * delta_min + p*w) / q).
    """
    p, q = _eps_ratio(omega, eps)
    return ((q - p) * profile.delta_min + p * omega + q - 1) // q
