"""Acyclic systems of representatives and biclique transversals.

An ASR for a partition of the vertices into independent parts is an acyclic
set picking exactly one vertex per part.  When every vertex of every part
V_i has out-degree at most k and in-degree at most |V_i| - k, an ASR always
exists, and more strongly one through any prescribed anchor x1: some ASR of
the remaining parts avoids N+(x1) entirely (were the minimum overlap with
N+(x1) positive, an augmentation process would grow partial ASRs forever,
which a counting bound on "good triplets" and the minimal choice of each
step forbid).  find_asr therefore searches for an ASR of the other parts
inside V \\ N+(x1); failure under the degree condition is a bug, not an
outcome.

biclique_transversal removes the biclique number of a connected digraph by
one: an acyclic set meeting every maximum biclique exists unless the digraph
is the symmetric lexicographic product of an odd cycle (length >= 5) by a
complete digraph.  The recursion strips vertices outside all maximum
bicliques, hits intersecting families through acyclic_hitting_set, and on a
family with empty intersection finds the chain of half-size bicliques
Q_1..Q_n.  A closed chain is the product digraph exactly when sending Q_i to
block i maps the arcs onto the product's; an open chain is contracted and the
recursive answer lifted back.  Every structural step is validated; a failed
validation falls back to the exhaustive oracle on small instances and is a
hard error otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .digraph import Digraph, _arc_list, _bits, obstruction
from .errors import (
    InstanceTooLarge,
    InternalInconsistency,
    InvalidParameter,
    MissingList,
    NoASR,
    PreconditionViolated,
)
from .params import biclique_number, biclique_report, degree_profile
from .solver import Dicolouring, ListAssignment, _closes_cycle, _search, is_valid


@dataclass(frozen=True)
class ASRInstance:
    """A digraph with its vertices split into independent parts.

    satisfies_degree_condition records whether every v in V_i has
    d+(v) <= k and d-(v) <= |V_i| - k, the hypothesis under which an ASR
    (through any anchor) is guaranteed.
    """

    digraph: Digraph
    parts: tuple[frozenset[int], ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParameter("k must be positive")
        object.__setattr__(self, "parts", tuple(frozenset(p) for p in self.parts))
        seen: set[int] = set()
        for part in self.parts:
            if not part:
                raise InvalidParameter("parts must be non-empty")
            if part & seen:
                raise InvalidParameter("parts must be disjoint")
            seen |= part
            for u in part:
                if not 0 <= u < self.digraph.n:
                    raise InvalidParameter(f"vertex {u} out of range")
            inside = sum(1 << u for u in part)  # only now: every u is in range
            if any(self.digraph.masks[0][u] & inside for u in part):
                raise InvalidParameter("parts must be independent sets")
        if seen != set(range(self.digraph.n)):
            raise InvalidParameter("parts must cover every vertex")

    @property
    def satisfies_degree_condition(self) -> bool:
        d = self.digraph
        return all(
            d.out_degree(v) <= self.k and d.in_degree(v) <= len(part) - self.k
            for part in self.parts
            for v in part
        )

    def part_of(self, v: int) -> int:
        for i, part in enumerate(self.parts):
            if v in part:
                return i
        raise InvalidParameter(f"vertex {v} out of range")


@dataclass(frozen=True)
class GoodTriplet:
    """Candidate certificate (I, X, Y) for the augmentation process.

    index_set collects part indices; the anchor is the sole member of X
    outside those parts.  A triplet meeting all four properties checked by
    is_good_triplet cannot exist under the degree condition.
    """

    index_set: frozenset[int]
    x: frozenset[int]
    y: frozenset[int]


@dataclass(frozen=True)
class TransversalOutcome:
    """Either an acyclic set meeting every maximum biclique, or the
    product-of-odd-cycle shape (n_cycle, p) with an isomorphism onto it."""

    hitting_set: Optional[frozenset[int]] = None
    obstruction: Optional[tuple[int, int]] = None
    isomorphism: Optional[dict[int, int]] = None

    def __post_init__(self):
        if (self.hitting_set is None) == (self.obstruction is None):
            raise InvalidParameter("exactly one outcome variant must be set")
        if self.obstruction is not None:
            n_cycle, p = self.obstruction
            if n_cycle < 5 or n_cycle % 2 == 0 or p < 1:
                raise InvalidParameter("shape must be an odd cycle length >= 5")
            if self.isomorphism is None:
                raise InvalidParameter("shape outcome requires its isomorphism")


class _StructureMismatch(Exception):
    """A validated structural step failed; try the fallback oracle."""


def _transversal_search(
    d: Digraph, parts: Sequence[frozenset[int]], fixed: int, forbidden: int
) -> Optional[set[int]]:
    """One vertex per part extending `fixed`, acyclic overall, avoiding the
    vertex mask `forbidden`; parts with the fewest allowed vertices first."""
    allowed = {p: [u for u in sorted(p) if not forbidden >> u & 1] for p in parts}
    order = sorted(parts, key=lambda p: (len(allowed[p]), sorted(p)))
    steps = [(allowed[p], (0,)) for p in order]
    found = next(_search(*d.masks, [1 << fixed], steps), None)
    return None if found is None else {fixed, *found}


def find_asr(inst: ASRInstance, anchor: Optional[int] = None) -> frozenset[int]:
    """An acyclic set with one vertex per part, through anchor when given.

    Under the degree condition the anchored search restricted to
    V \\ N+(anchor) must succeed; without it every transversal is tried and
    NoASR reports genuine non-existence.
    """
    d = inst.digraph
    idx = len(inst.parts) - 1 if anchor is None else inst.part_of(anchor)
    x1 = min(inst.parts[idx]) if anchor is None else anchor
    rest = tuple(p for i, p in enumerate(inst.parts) if i != idx)

    if inst.satisfies_degree_condition:
        found = _transversal_search(d, rest, x1, d.masks[0][x1])
        if found is None:
            raise InternalInconsistency(
                "no ASR avoiding the anchor's out-neighbours, though the "
                "degree condition guarantees one"
            )
    else:
        # without an anchor the representative of the last part is free
        for x1 in sorted(inst.parts[idx]) if anchor is None else [x1]:
            found = _transversal_search(d, rest, x1, 0)
            if found is not None:
                break
        if found is None:
            raise NoASR("no acyclic system of representatives exists")
    result = frozenset(found)
    if any(len(result & p) != 1 for p in inst.parts) or not d.is_acyclic(result):
        raise InternalInconsistency("search returned a non-ASR")
    return result


def is_good_triplet(inst: ASRInstance, triplet: GoodTriplet) -> bool:
    """All four certificate properties hold for (I, X, Y)."""
    d = inst.digraph
    r = len(inst.parts)
    i_set, x, y = triplet.index_set, triplet.x, triplet.y
    if not i_set <= frozenset(range(r - 1)):
        return False
    v_i = frozenset().union(*(inst.parts[i] for i in i_set)) if i_set else frozenset()
    anchors = x & inst.parts[r - 1]
    if len(anchors) != 1:
        return False
    x1 = next(iter(anchors))
    if not (x <= v_i | {x1} and y <= v_i):
        return False
    if x & y or not d.is_acyclic(x) or not d.is_acyclic(y):
        return False
    if any(len(y & inst.parts[i]) != 1 for i in i_set) or len(y) != len(i_set):
        return False
    out, inn = d.masks
    x_mask, y_mask = sum(1 << u for u in x), sum(1 << u for u in y)
    if any((inn[u] & x_mask).bit_count() != 1 for u in y):
        return False
    if any(not out[u] & y_mask for u in x):
        return False
    return all(inn[v] & x_mask or out[v] & y_mask for v in v_i | {x1})


def search_good_triplet(
    inst: ASRInstance, anchor: Optional[int] = None
) -> Optional[GoodTriplet]:
    """Exhaustive search for a good triplet; None under the degree condition
    is the expected outcome (any hit would refute the counting bound)."""
    d = inst.digraph
    r = len(inst.parts)
    anchors = [anchor] if anchor is not None else sorted(inst.parts[r - 1])
    for bits in range(1, 1 << (r - 1)):
        i_set = frozenset(i for i in range(r - 1) if bits >> i & 1)
        v_i = sorted(set().union(*(inst.parts[i] for i in i_set)))
        steps = [(sorted(inst.parts[i]), (0,)) for i in sorted(i_set)]
        # Y does not depend on the anchor, so each Y is enumerated once
        for y in map(set, _search(*d.masks, [0], steps)):
            for x1 in anchors:
                pool = [u for u in v_i if u not in y] + [x1]
                for x in _covering_sets(d, pool, x1, y):
                    triplet = GoodTriplet(i_set, frozenset(x), frozenset(y))
                    if is_good_triplet(inst, triplet):
                        return triplet
    return None


def _covering_sets(d: Digraph, pool: Sequence[int], x1: int, y: set[int]) -> Iterator[set[int]]:
    """Acyclic subsets of the pool containing x1 in which every vertex of y
    keeps exactly one in-neighbour (exact cover by in-stars).  Members with
    no out-neighbour in y are pruned: they could never sit in a good X."""
    out, inn = d.masks
    y_mask = sum(1 << u for u in y)

    def walk(i: int, x: int, covered: int) -> Iterator[set[int]]:
        if i == len(pool):
            if x >> x1 & 1 and covered == y_mask:
                yield {v for v in pool if x >> v & 1}
            return
        v = pool[i]
        hits = out[v] & y_mask
        if hits and not hits & covered and not _closes_cycle(out, inn, x, v):
            yield from walk(i + 1, x | 1 << v, covered | hits)
        yield from walk(i + 1, x, covered)

    yield from walk(0, 0, 0)


def list_dicolour_asr(d: Digraph, lists: ListAssignment, k: int) -> Dicolouring:
    """L-dicolouring through an ASR of the vertex-colour digraph.

    Requires, for every v and colour c in L(v), at most k out-neighbours and
    at most |L(v)| - k in-neighbours of v whose list also holds c.
    """
    if k < 1:
        raise InvalidParameter("k must be positive")
    for v in range(d.n):
        if v not in lists:
            raise MissingList(f"vertex {v} has no colour list")
    if d.n == 0:
        return Dicolouring(0, {})
    out, inn = d.masks
    for v in range(d.n):
        for c in lists[v]:
            out_c = sum(1 for u in _bits(out[v]) if c in lists[u])
            in_c = sum(1 for u in _bits(inn[v]) if c in lists[u])
            if out_c > k or in_c > len(lists[v]) - k:
                raise PreconditionViolated(
                    f"vertex {v}, colour {c}: colour-degree bounds fail"
                )
    pairs = [(v, c) for v in range(d.n) for c in sorted(lists[v])]
    index = {vc: i for i, vc in enumerate(pairs)}
    arcs = [
        (index[(u, c)], index[(v, c)])
        for (u, c) in pairs
        for v in _bits(out[u])
        if c in lists[v]
    ]
    h = Digraph(len(pairs), arcs)
    parts = tuple(
        frozenset(index[(v, c)] for c in lists[v]) for v in range(d.n)
    )
    rep = find_asr(ASRInstance(h, parts, k))
    assignment = {pairs[i][0]: pairs[i][1] for i in rep}
    colouring = Dicolouring(max(c for _, c in pairs) + 1, assignment)
    if not is_valid(d, colouring, require_total=True):
        raise InternalInconsistency("ASR produced an invalid colouring")
    return colouring


def acyclic_hitting_set(
    d: Digraph, biclique_parts: Sequence[frozenset[int]], k: int
) -> frozenset[int]:
    """An acyclic set with one vertex in each biclique of the partition.

    Needs every v in part C_i to have at most k out-neighbours and at most
    |C_i| - k in-neighbours outside C_i.  Deleting the arcs inside each part
    turns the parts independent, and a transversal never holds two vertices
    of one part, so an ASR of the reduced digraph is acyclic in d as well.
    """
    if k < 1:
        raise InvalidParameter("k must be positive")
    parts = tuple(frozenset(p) for p in biclique_parts)
    seen: set[int] = set()
    for part in parts:
        if not part or part & seen:
            raise InvalidParameter("parts must be non-empty and disjoint")
        seen |= part
        for u, v in combinations(sorted(part), 2):
            if not d.has_digon(u, v):
                raise InvalidParameter("every part must be a biclique")
    if seen != set(range(d.n)):
        raise InvalidParameter("parts must cover every vertex")
    out, inn = d.masks
    between = []  # the arcs that leave their part
    for part in parts:
        outside = ~sum(1 << v for v in part)
        for v in part:
            if (out[v] & outside).bit_count() > k or (inn[v] & outside).bit_count() > len(part) - k:
                raise PreconditionViolated(f"vertex {v}: outside-degree bounds fail")
            between += ((v, w) for w in _bits(out[v] & outside))
    reduced = Digraph(d.n, between)
    result = find_asr(ASRInstance(reduced, parts, k))
    if not d.is_acyclic(result):
        raise InternalInconsistency("hitting set is cyclic in the original")
    return result


def brute_transversal_oracle(d: Digraph) -> Optional[frozenset[int]]:
    """Smallest acyclic set meeting every maximum biclique, by enumeration."""
    if d.n > 14:
        raise InstanceTooLarge("oracle is exhaustive; 14 vertices at most")
    maxima = biclique_report(d).maximum_bicliques
    for size in range(d.n + 1):
        for combo in combinations(range(d.n), size):
            s = frozenset(combo)
            if all(s & b for b in maxima) and d.is_acyclic(s):
                return s
    return None


def biclique_transversal(d: Digraph, delta: int) -> TransversalOutcome:
    """Drop the biclique number of a connected digraph by exactly one.

    Requires max degree at most delta and 3 * biclique number >= 2 * (delta
    + 1).  Returns the acyclic hitting set, or the odd product shape with an
    isomorphism.  Structural failures fall back to the exhaustive oracle on
    at most 14 vertices and are hard errors beyond that.
    """
    profile = degree_profile(d)
    if profile.delta_max > delta:
        raise PreconditionViolated("maximum degree exceeds delta")
    rep = biclique_report(d)
    omega = rep.omega_bi
    if 3 * omega < 2 * (delta + 1):
        raise PreconditionViolated("biclique number below two thirds of delta+1")
    if not d.is_connected():
        raise PreconditionViolated("digraph must be connected")
    try:
        outcome = _transversal_structural(d, delta, rep)
        _validate_outcome(d, omega, outcome)
        return outcome
    except _StructureMismatch as exc:
        return _transversal_fallback(d, omega, exc)


def _validate_outcome(d: Digraph, omega: int, outcome: TransversalOutcome) -> None:
    if outcome.hitting_set is None:
        return  # _product_isomorphism compared every arc with the product
    hit = outcome.hitting_set
    if not d.is_acyclic(hit):
        raise _StructureMismatch("hitting set is not acyclic")
    remaining, _ = d.remove_vertices(hit)
    if biclique_number(remaining) != omega - 1:
        raise _StructureMismatch("biclique number did not drop by one")


def _transversal_fallback(d: Digraph, omega: int, cause: Exception) -> TransversalOutcome:
    if d.n > 14:
        raise InternalInconsistency(
            "structural recursion failed beyond oracle reach"
        ) from cause
    hit = brute_transversal_oracle(d)
    if hit is not None:
        outcome = TransversalOutcome(hitting_set=hit)
        try:
            _validate_outcome(d, omega, outcome)
        except _StructureMismatch as exc:
            raise InternalInconsistency("oracle set failed validation") from exc
        return outcome
    try:  # the product's maximum bicliques form one closed chain
        family = biclique_report(d).components[0]
        q_parts, cyclic = _chain_partition(family, omega // 2)
        shape = _handle_cycle_chain(d, q_parts) if cyclic else None
    except _StructureMismatch:
        shape = None
    if shape is not None and shape.obstruction is not None:
        return shape
    raise InternalInconsistency(
        "no transversal exists yet the shape is not the known product"
    ) from cause


def _transversal_structural(d, delta, rep) -> TransversalOutcome:
    omega = rep.omega_bi
    covered = frozenset().union(*rep.maximum_bicliques)
    if covered != frozenset(range(d.n)):
        return _strip_and_recurse(d, delta, covered)

    empties = [c for c in rep.components if not frozenset.intersection(*c)]
    if not empties:
        return _hit_intersections(d, delta, rep.components)
    component = empties[0]
    if 3 * omega != 2 * (delta + 1) or omega % 2:
        raise _StructureMismatch("empty intersection off the tight regime")
    q_parts, cyclic = _chain_partition(component, omega // 2)
    if cyclic:
        return _handle_cycle_chain(d, q_parts)
    return _handle_path_chain(d, delta, q_parts, omega // 2)


def _strip_and_recurse(d, delta, covered) -> TransversalOutcome:
    sub, relabel = d.induced(covered)
    inverse = {new: old for old, new in relabel.items()}
    hit: set[int] = set()
    for comp in sub.underlying_graph().connected_components():
        comp_d = frozenset(inverse[v] for v in comp)
        piece, relab = d.induced(comp_d)
        inv = {new: old for old, new in relab.items()}
        outcome = biclique_transversal(piece, delta)
        if outcome.hitting_set is None:
            # a diregular product component would leave no degree room for
            # its attachment to the rest of the connected digraph
            raise InternalInconsistency(
                "product shape arose on a proper stripped component"
            )
        hit |= {inv[v] for v in outcome.hitting_set}
    return TransversalOutcome(hitting_set=frozenset(hit))


def _hit_intersections(d, delta, components) -> TransversalOutcome:
    cores = [frozenset.intersection(*comp) for comp in components]
    union = frozenset().union(*cores)
    sub, relabel = d.induced(union)
    inverse = {new: old for old, new in relabel.items()}
    parts = [frozenset(relabel[v] for v in core) for core in cores]
    k = max(1, (delta + 1) // 3)
    try:
        hit = acyclic_hitting_set(sub, parts, k)
    except PreconditionViolated as exc:
        raise _StructureMismatch(str(exc)) from exc
    return TransversalOutcome(
        hitting_set=frozenset(inverse[v] for v in hit)
    )


def _chain_partition(
    component: Sequence[frozenset[int]], p: int
) -> tuple[list[frozenset[int]], bool]:
    """Split the union of a chained biclique family into consecutive parts
    Q_1..Q_n of size p with each family member equal to Q_i with Q_i+1."""
    cliques = sorted(component, key=sorted)
    m = len(cliques)
    if m < 3:
        raise _StructureMismatch("chain needs at least three bicliques")
    neighbours = [
        [j for j in range(m) if j != i and cliques[i] & cliques[j]]
        for i in range(m)
    ]
    degrees = sorted(len(ns) for ns in neighbours)
    if degrees == [2] * m and m >= 4:
        cyclic = True
        start = 0
    elif degrees == [1, 1] + [2] * (m - 2):
        cyclic = False
        start = min(i for i in range(m) if len(neighbours[i]) == 1)
    else:
        raise _StructureMismatch("family is neither a chain nor a closed chain")

    order = [start]
    seen = {start}
    while len(order) < m:
        step = [j for j in neighbours[order[-1]] if j not in seen]
        if not step:
            raise _StructureMismatch("chain walk stalled")
        order.append(min(step))
        seen.add(order[-1])
    walk = [cliques[i] for i in order]

    if cyclic:
        q = [walk[i] & walk[(i + 1) % m] for i in range(m)]
    else:
        q = [walk[0] - walk[1]]
        q += [walk[i - 1] & walk[i] for i in range(1, m)]
        q += [walk[-1] - walk[-2]]

    union = frozenset().union(*walk)
    if any(len(part) != p for part in q):
        raise _StructureMismatch("parts are not half-sized")
    if sum(len(part) for part in q) != len(union):
        raise _StructureMismatch("parts do not partition the union")
    n = len(q)
    for i, c in enumerate(walk):
        left = q[(i - 1) % n] if cyclic else q[i]
        right = q[i % n] if cyclic else q[i + 1]
        if c != left | right:
            raise _StructureMismatch("a biclique is not a consecutive union")
    return q, cyclic


def _product_isomorphism(d: Digraph, q_parts) -> Optional[dict[int, int]]:
    """The map onto obstruction(n, p) that n parts of size p in cyclic order
    spell out, or None unless it carries the arcs exactly.  The j-th least
    vertex of the i-th part goes to i * p + j, counting from the part with
    the least vertex towards its neighbour with the smaller least vertex, so
    the product itself maps to the identity."""
    n, p = len(q_parts), len(q_parts[0])
    lows = [min(q) for q in q_parts]
    s = lows.index(min(lows))
    order = q_parts[s:] + q_parts[:s]
    if lows[s - 1] < lows[(s + 1) % n]:
        order = order[:1] + order[:0:-1]
    iso = {v: i * p + j for i, q in enumerate(order) for j, v in enumerate(sorted(q))}
    if n < 3 or any(len(q) != p for q in q_parts) or sorted(iso) != list(range(d.n)):
        return None
    image = Digraph(d.n, ((iso[u], iso[w]) for u, w in _arc_list(d.masks[0])))
    return iso if image == obstruction(n, p) else None


def _handle_cycle_chain(d, q_parts) -> TransversalOutcome:
    n, p = len(q_parts), len(q_parts[0])
    iso = _product_isomorphism(d, q_parts)
    if iso is None:
        raise _StructureMismatch("closed chain is not the product digraph")
    if n % 2 == 1:
        return TransversalOutcome(obstruction=(n, p), isomorphism=iso)
    hit = frozenset(min(q_parts[i]) for i in range(0, n, 2))
    return TransversalOutcome(hitting_set=hit)


def _handle_path_chain(d, delta, q_parts, p) -> TransversalOutcome:
    n = len(q_parts)
    interior = frozenset().union(*q_parts[1:-1])
    shrunk, relabel = d.remove_vertices(interior)
    inverse = {new: old for old, new in relabel.items()}
    extra = [
        (relabel[u], relabel[w])
        for u in q_parts[0]
        for w in q_parts[-1]
    ]
    d_prime = shrunk.add_arcs(extra + [(b, a) for a, b in extra])
    if not d_prime.is_connected():
        raise _StructureMismatch("contracted digraph is disconnected")
    if degree_profile(d_prime).delta_max > delta:
        raise _StructureMismatch("contracted digraph exceeds delta")
    omega = 2 * p
    if biclique_number(d_prime) != omega:
        raise _StructureMismatch("contraction changed the biclique number")

    outcome = biclique_transversal(d_prime, delta)
    if outcome.obstruction is not None:
        # were d the product, its maximum bicliques would close a chain and
        # _handle_cycle_chain would have run; so d has a transversal that
        # this lift cannot build, and only the fallback can answer
        raise _StructureMismatch("contraction is the product, d is not")

    lifted = frozenset(inverse[v] for v in outcome.hitting_set)
    ends = lifted & (q_parts[0] | q_parts[-1])
    if len(ends) != 1:
        raise _StructureMismatch("lifted set misses the merged biclique")
    if ends <= q_parts[-1]:
        q_parts = list(reversed(q_parts))
    if n % 2 == 0:
        hit = lifted | {min(q_parts[j]) for j in range(2, n - 1, 2)}
    else:
        hit = (lifted - q_parts[0]) | {
            min(q_parts[j]) for j in range(1, n - 1, 2)
        }
    return TransversalOutcome(hitting_set=frozenset(hit))
