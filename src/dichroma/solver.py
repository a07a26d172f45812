"""Exact dicolouring decisions: k-dicolourability, lists, dichoosability.

A k-dicolouring partitions the vertices into k classes each inducing an
acyclic subdigraph; a digon is a directed cycle, so digon endpoints never
share a colour.  Colour labels are opaque to validity checking; solvers
produce colours 0..k-1.

Every exact search here and in the asr module runs on one engine, _search:
an explicit-stack backtracking over int bitmasks, one per colour class, so
its depth is not bounded by the recursion limit.  It reads adjacency from
Digraph.masks, which each digraph builds once.  Colourings branch on the
vertices highest total degree first and open at most one empty class per
vertex.  Each returned witness is checked with is_valid.

Dichoosability is decided without enumerating raw list assignments, which is
hopeless even at n = 6.  Three exact reductions shrink the search:

* a vertex whose in- or out-degree is below k never blocks an extension, so
  it can be peeled; the answer is unchanged for any colour universe.
* a bad assignment restricted to an inclusion-minimal support keeps every
  internal min-degree at least k and uses every colour on at least two
  lists (a colour on one list only would let that vertex be peeled).
* a bad assignment admits no system of distinct representatives (distinct
  colours on all vertices form singleton classes, which are acyclic), so by
  Hall's theorem some witness set of at least k+1 vertices sees fewer
  colours than vertices.

The search enumerates the witness block first over a bounded palette, then
extends canonically (fresh colours in first-use order), and calls the exact
list solver on every surviving candidate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping, Optional, Sequence

from .digraph import Digraph
from .errors import (
    CompletionStuck,
    InternalInconsistency,
    InvalidParameter,
    MissingList,
    NotPartialKL,
)
from .params import biclique_report, degree_profile


@dataclass(frozen=True)
class Dicolouring:
    """A (possibly partial) colour assignment with its palette size."""

    k: int
    assignment: Mapping[int, int]

    def __post_init__(self):
        if self.k < 0:
            raise InvalidParameter("palette size must be non-negative")
        object.__setattr__(self, "assignment", dict(self.assignment))

    def colour(self, v: int) -> Optional[int]:
        return self.assignment.get(v)

    def is_total(self, n: int) -> bool:
        return all(v in self.assignment for v in range(n))


ListAssignment = Mapping[int, frozenset[int]]
"""Per-vertex colour lists; a k-list assignment gives every vertex >= k colours."""


def _colour_classes(assignment: Mapping[int, int]) -> dict[int, set[int]]:
    classes: dict[int, set[int]] = {}
    for v, c in assignment.items():
        classes.setdefault(c, set()).add(v)
    return classes


def _closes_cycle(out: Sequence[int], inn: Sequence[int], cls: int, v: int) -> bool:
    """Would adding v to the class mask cls close a cycle inside it?  True iff
    a walk inside cls from N+(v) meets N-(v) (a digon is the length-0 case)."""
    targets = inn[v] & cls
    frontier = seen = out[v] & cls
    while frontier:
        if frontier & targets:
            return True
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= out[low.bit_length() - 1]
            frontier ^= low
        frontier = step & cls & ~seen
        seen |= frontier
    return False


def _search(
    out: Sequence[int],
    inn: Sequence[int],
    classes: list[int] | dict[int, int],
    steps: Sequence[tuple[Sequence[int], Sequence[int]]],
    fresh_once: bool = False,
) -> Iterator[dict[int, int]]:
    """Yield every way to take one option per step with all classes acyclic.

    classes maps class keys to member masks; it is updated in place and
    restored on backtrack.  The options of a step (vertices, keys) put each
    vertex into each class, in that order.  With fresh_once a step stops
    after the first option that opens an empty class: empty classes are
    interchangeable.  A yield maps each chosen vertex to its class key.
    """
    stack: list[tuple[int, int, int]] = []  # (vertex, key, next option)
    j = 0
    while True:
        depth = len(stack)
        if depth == len(steps):
            yield {v: key for v, key, _ in stack}
        else:
            vertices, keys = steps[depth]
            width = len(keys)
            end = len(vertices) * width
            while j < end:
                v, key = vertices[j // width], keys[j % width]
                j += 1
                cls = classes[key]
                if not (inn[v] & cls and _closes_cycle(out, inn, cls, v)):
                    classes[key] = cls | 1 << v
                    stack.append((v, key, j))
                    j = 0
                    break
            if len(stack) > depth:
                continue
        # back to the deepest step with an untried option
        while stack:
            v, key, j = stack.pop()
            classes[key] ^= 1 << v
            if not (fresh_once and classes[key] == 0):
                break
        else:
            return


def is_valid(d: Digraph, c: Dicolouring, require_total: bool = False) -> bool:
    """True iff every colour class induces an acyclic subdigraph."""
    for v in c.assignment:
        if not 0 <= v < d.n:
            return False
    if require_total and not c.is_total(d.n):
        return False
    return all(
        d.is_acyclic(cls) for cls in _colour_classes(c.assignment).values()
    )


def _branch_order(d: Digraph) -> list[int]:
    # high-degree vertices first: they prune earliest
    return sorted(
        range(d.n), key=lambda v: (-(d.out_degree(v) + d.in_degree(v)), v)
    )


def _checked(d: Digraph, colouring: Dicolouring) -> Dicolouring:
    if not is_valid(d, colouring, require_total=True):
        raise InternalInconsistency("search returned an invalid dicolouring")
    return colouring


def _k_search(d: Digraph, order: list[int], k: int) -> Optional[Dicolouring]:
    # a search never opens more than n classes, whatever k is
    keys = range(min(k, d.n))
    steps = [((v,), keys) for v in order]
    found = next(_search(*d.masks, [0] * len(keys), steps, fresh_once=True), None)
    return None if found is None else _checked(d, Dicolouring(k, found))


def k_dicolourable(d: Digraph, k: int) -> Optional[Dicolouring]:
    """A total k-dicolouring of d, or None if there is none."""
    if k < 0:
        raise InvalidParameter("colour count must be non-negative")
    return _k_search(d, _branch_order(d), k)


def optimal_dicolouring(d: Digraph, omega_bi: Optional[int] = None) -> Dicolouring:
    """A dicolouring with the fewest colours; its k is the dichromatic number.

    k climbs from max(2, omega_bi), a lower bound since a biclique needs
    one colour per vertex; pass omega_bi when it is already known.
    """
    if d.n == 0:
        return Dicolouring(0, {})
    order = _branch_order(d)
    if d.is_acyclic():
        return Dicolouring(1, dict.fromkeys(order, 0))
    k = max(2, biclique_report(d).omega_bi if omega_bi is None else omega_bi)
    while (found := _k_search(d, order, k)) is None:
        k += 1
    return found


def dichromatic_number(d: Digraph, omega_bi: Optional[int] = None) -> int:
    """Least k admitting a k-dicolouring; 0 only for the empty digraph."""
    return optimal_dicolouring(d, omega_bi).k


def _list_search(
    d: Digraph, order: list[int], lists: ListAssignment | Sequence[frozenset[int]]
) -> Optional[dict[int, int]]:
    """A list colouring as {vertex: colour}, or None.  Left unchecked, since
    is_k_dichoosable only asks whether one exists."""
    classes = dict.fromkeys(frozenset().union(*(lists[v] for v in order)), 0)
    return next(_search(*d.masks, classes, [((v,), sorted(lists[v])) for v in order]), None)


def list_dicolourable(d: Digraph, lists: ListAssignment) -> Optional[Dicolouring]:
    """A dicolouring with every colour drawn from its vertex's list, or None."""
    for v in range(d.n):
        if v not in lists:
            raise MissingList(f"vertex {v} has no colour list")
        if any(c < 0 for c in lists[v]):
            raise InvalidParameter("list colours must be non-negative")
    k = max((max(lists[v], default=-1) for v in range(d.n)), default=-1) + 1
    found = _list_search(d, _branch_order(d), lists)
    return None if found is None else _checked(d, Dicolouring(k, found))


def _bad_supports(d: Digraph, core: frozenset[int], k: int) -> Iterator[frozenset[int]]:
    """Subsets of the core whose induced min in/out degrees all reach k."""
    members = sorted(core)
    for mask in range(1, 1 << len(members)):
        sub = frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
        ok = True
        for v in sub:
            if min(len(d.out_adj[v] & sub), len(d.in_adj[v] & sub)) < k:
                ok = False
                break
        if ok:
            yield sub


def _candidate_assignments(
    m: int, k: int, block: int, block_colours: int, universe: int
) -> Iterator[tuple[frozenset[int], ...]]:
    """Canonical k-list assignments on m vertices, witness block first.

    Lists are built vertex by vertex; a list takes any subset of the colours
    already used plus the smallest unused ones, which enumerates every
    assignment exactly once up to colour renaming.  Inside the leading block
    of `block` vertices at most `block_colours` distinct colours may appear.
    Assignments where some colour sits on fewer than two lists are skipped,
    as are those that cannot fill every singleton colour's second slot with
    the list slots still to come.
    """
    lists: list[frozenset[int]] = []
    used: set[int] = set()
    counts: Counter[int] = Counter()

    def fresh(j: int) -> list[int]:
        out = []
        c = 0
        while len(out) < j:
            if c not in used:
                out.append(c)
            c += 1
        return out

    def gen(i: int) -> Iterator[tuple[frozenset[int], ...]]:
        if i == m:
            if all(n >= 2 for n in counts.values()):
                yield tuple(lists)
            return
        limit = block_colours if i < block else universe
        for j in range(0, k + 1):
            if len(used) + j > limit or len(used) + j > universe:
                continue
            if j > 0 and i == m - 1:
                continue  # a fresh colour on the last list stays single
            new = fresh(j)
            for base in combinations(sorted(used), k - j):
                chosen = frozenset(base) | frozenset(new)
                singles = sum(1 for c in counts if counts[c] == 1 and c not in chosen)
                singles += len(new)
                if singles > (m - i - 1) * k:
                    continue
                lists.append(chosen)
                used.update(new)
                counts.update(chosen)
                yield from gen(i + 1)
                counts.subtract(chosen)
                for c in list(counts):
                    if counts[c] == 0:
                        del counts[c]
                used.difference_update(new)
                lists.pop()

    yield from gen(0)


def _canonical_key(lists: tuple[frozenset[int], ...]) -> tuple:
    rename: dict[int, int] = {}
    for s in lists:
        for c in sorted(s):
            if c not in rename:
                rename[c] = len(rename)
    return tuple(frozenset(rename[c] for c in s) for s in lists)


def is_k_dichoosable(d: Digraph, k: int, universe: Optional[int] = None) -> bool:
    """True iff every k-list assignment over the universe is dicolourable.

    The default universe of k*n colours is enough to represent any k-list
    assignment up to renaming, so it decides dichoosability proper.  Smaller
    universes (down to k) restrict the adversary's palette; the reductions
    in the module docstring remain exact for every universe size.
    """
    if k < 0:
        raise InvalidParameter("list size must be non-negative")
    if d.n == 0:
        return True
    if k == 0:
        return False
    if universe is None:
        universe = k * d.n
    if universe < k:
        raise InvalidParameter("universe must hold at least one list")

    core = set(range(d.n))
    changed = True
    while changed:
        changed = False
        for v in list(core):
            s = core - {v}
            if min(len(d.out_adj[v] & s), len(d.in_adj[v] & s)) < k:
                core.remove(v)
                changed = True
    if not core:
        return True

    for support in _bad_supports(d, frozenset(core), k):
        sub, relabel = d.induced(support)
        m = sub.n
        order = _branch_order(sub)
        seen: set[tuple] = set()
        for u_size in range(k + 1, m + 1):
            for witness in combinations(range(m), u_size):
                rest = [v for v in range(m) if v not in witness]
                perm = list(witness) + rest
                for lists in _candidate_assignments(
                    m, k, u_size, u_size - 1, universe
                ):
                    by_vertex = [frozenset()] * m
                    for i, v in enumerate(perm):
                        by_vertex[v] = lists[i]
                    key = _canonical_key(tuple(by_vertex))
                    if key in seen:
                        continue
                    seen.add(key)
                    if _list_search(sub, order, by_vertex) is None:
                        return False
    return True


def check_partial_kl(d: Digraph, partial: Dicolouring, k: int, ell: int) -> bool:
    """Valid partial colouring in which every vertex has ell colours
    appearing at least twice in its in-neighbourhood or at least twice in
    its out-neighbourhood."""
    if not is_valid(d, partial):
        return False
    for v in range(d.n):
        if _repeats(partial.assignment, d.in_adj[v]) < ell and (
            _repeats(partial.assignment, d.out_adj[v]) < ell
        ):
            return False
    return True


def _repeats(assignment: Mapping[int, int], side: frozenset[int]) -> int:
    counts = Counter(assignment[u] for u in side if u in assignment)
    return sum(1 for n in counts.values() if n >= 2)


def greedy_complete(d: Digraph, partial: Dicolouring, k: int, ell: int) -> Dicolouring:
    """Extend a partial (k, ell)-dicolouring to all of d greedily.

    Palette is 0..Delta-ell; each uncoloured vertex, in ascending order,
    takes the least colour absent from its in-neighbourhood if ell colours
    already repeat there, else from its out-neighbourhood.  A vertex whose
    colour misses one whole side never lies on a monochromatic cycle, and
    a side with ell repeats shows at most Delta-ell distinct colours, so a
    palette colour is always free.
    """
    if ell < 0 or k < 0:
        raise InvalidParameter("k and ell must be non-negative")
    delta = degree_profile(d).delta_max
    palette = delta + 1 - ell
    if palette < k:
        raise InvalidParameter("palette Delta+1-ell is smaller than k")
    if any(not 0 <= c < k for c in partial.assignment.values()):
        raise InvalidParameter("partial colouring strays outside 0..k-1")
    if not check_partial_kl(d, partial, k, ell):
        raise NotPartialKL("input is not a valid partial (k, ell)-dicolouring")

    assignment = dict(partial.assignment)
    for v in range(d.n):
        if v in assignment:
            continue
        side = d.in_adj[v]
        if _repeats(assignment, side) < ell:
            side = d.out_adj[v]
        taken = {assignment[u] for u in side if u in assignment}
        colour = next((c for c in range(palette) if c not in taken), None)
        if colour is None:
            raise CompletionStuck(
                f"no palette colour free at vertex {v}; this cannot happen "
                "when the preconditions hold"
            )
        assignment[v] = colour
    return Dicolouring(palette, assignment)
