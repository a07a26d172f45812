"""Exact dicolouring decisions: k-dicolourability, lists, dichoosability.

A k-dicolouring partitions the vertices into k classes each inducing an
acyclic subdigraph; a digon is a directed cycle, so digon endpoints never
share a colour.  Colour labels are opaque to validity checking; solvers
produce colours 0..k-1.

Every exact search here and in the asr module runs on one engine, _search:
an explicit-stack backtracking over int bitmasks, so its depth is not
bounded by the recursion limit.  It reads Digraph.masks, built with the
digraph.  It branches on the vertex with the fewest colours left (DSATUR
order, Brelaz 1979), highest total degree first on a tie, and each
placement strikes the colours it rules out for the vertices still to come
(forward checking): once v joins a class, w loses it exactly when w has an
arc into a member that reaches v and an arc from a member v reaches, both
walks inside the class.  Empty colours that the same vertices allow are
interchangeable and tried once, so a k-dicolouring opens at most one new
class per vertex.  Each returned witness is checked with is_valid, a Kahn
pass over the masks of each colour class.

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
list solver on every surviving candidate that none of the last four
colourings it found already fits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping, Optional, Sequence

from .digraph import Digraph, _bits
from .errors import (
    CompletionStuck,
    InternalInconsistency,
    InvalidParameter,
    MissingList,
    NotPartialKL,
)
from .params import biclique_number, degree_profile


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


def _spread(adj: Sequence[int], cls: int, v: int) -> int:
    """The union of adj[u] over every u that v reaches along adj inside cls."""
    union = 0
    frontier = reached = 1 << v
    while frontier:
        while frontier:
            low = frontier & -frontier
            union |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = union & cls & ~reached
        reached |= frontier
    return union


def _search(
    out: Sequence[int],
    inn: Sequence[int],
    classes: list[int] | dict[int, int],
    steps: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> Iterator[dict[int, int]]:
    """Yield the ways to take one option per step with all classes acyclic.

    classes maps class keys to their initial member masks.  A step
    (vertices, keys) offers each of its vertices to each class in keys; no
    vertex is in two steps.  An option is live while its vertex can join its
    class without closing a cycle.  The step taken next is the untried one
    with the fewest live options, the earlier on a tie; its options are
    tried class by class in the order of classes, vertices in increasing
    order.  Placing v kills each live option (w, class) with w -> a ~> v ~>
    b -> w inside the class, and backtracks at once when an untried step has
    none left.  Two empty classes offered by exactly the same steps are
    interchangeable, so only the first is tried: every solution is yielded
    once up to such swaps.  A yield maps each chosen vertex to its class
    key.
    """
    names = list(classes) if isinstance(classes, dict) else range(len(classes))
    masks = [classes[name] for name in names]
    width = len(masks)
    span = len(out)  # option (v, i) is bit i * span + v of live
    m = len(steps)
    live = stacked = 0
    spreads = []  # per step, bit i * span set for each class i it offers
    rank = []  # untried steps rank by live options, then by position
    step_of = {}
    keys_seen = None
    for s, (vertices, keys) in enumerate(steps):
        if keys is not keys_seen:
            keys_seen = keys
            spread = 0
            for key in keys:
                spread |= 1 << names.index(key) * span
            stacked |= spread << s  # bit i * span + s: step s offers class i
            cost = spread.bit_count() * m
        for v in vertices:
            step_of[v] = s
            live |= spread << v
        spreads.append(spread)
        rank.append(len(vertices) * cost + s)
    full = (1 << span) - 1
    for i, cls in enumerate(masks):
        rest = live >> i * span & full if cls else 0
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if inn[v] & cls and _closes_cycle(out, inn, cls, v):
                live ^= low << i * span
                rank[step_of[v]] -= m
    if not steps:
        yield {}
        return
    if min(rank) < m:
        return
    # classes offered by the same steps are interchangeable: an empty class
    # is skipped while twin[i], the one before it, is empty too
    twin = []
    last = {}
    for i in range(width):
        offered = stacked >> i * span & full
        twin.append(last.get(offered, width))
        last[offered] = i
    masks.append(-1)  # the twin of a class that has none is never empty
    done = m * (span * width + 1)  # the rank of a tried step
    stack: list[tuple] = []  # (step, opened, options left, vertex, class, knocked)
    best = min(rank)
    while True:
        s = best % m  # open the most constrained untried step
        opened = 0
        for v in steps[s][0]:
            opened |= live & spreads[s] << v
        live ^= opened  # live holds the options of untried steps only
        rank[s] = done
        todo = opened
        while True:  # place the next live option of step s, or backtrack
            while todo:
                low = todo & -todo
                todo ^= low
                i, v = divmod(low.bit_length() - 1, span)
                cls = masks[i]
                if not cls and not masks[twin[i]]:
                    continue
                cls |= 1 << v
                masks[i] = cls
                shift = i * span
                doomed = live >> shift & full  # untried options into class i
                if doomed:
                    # with no class neighbour on a side, that side's spread is v's own
                    doomed &= _spread(inn, cls, v) if inn[v] & cls else inn[v]
                    if doomed:
                        doomed &= _spread(out, cls, v) if out[v] & cls else out[v]
                knocked = doomed << shift
                live ^= knocked
                while doomed:
                    low = doomed & -doomed
                    doomed ^= low
                    t = step_of[low.bit_length() - 1]
                    rank[t] -= m
                    if rank[t] < m:
                        break
                else:
                    if live:
                        break
                    # no untried step is left: v completes a solution
                    found = {frame[3]: names[frame[4]] for frame in stack}
                    found[v] = names[i]
                    yield found
                    masks[i] = cls ^ 1 << v
                    continue
                # an untried step has no option left: undo what was counted
                masks[i] = cls ^ 1 << v
                live |= knocked
                knocked = knocked >> shift ^ doomed
                while knocked:
                    low = knocked & -knocked
                    knocked ^= low
                    rank[step_of[low.bit_length() - 1]] += m
            else:
                rank[s] = opened.bit_count() * m + s
                live |= opened
                if not stack:
                    return
                s, opened, todo, v, i, knocked = stack.pop()
                masks[i] ^= 1 << v
                live |= knocked
                knocked >>= i * span
                while knocked:
                    low = knocked & -knocked
                    knocked ^= low
                    rank[step_of[low.bit_length() - 1]] += m
                continue
            break
        stack.append((s, opened, todo, v, i, knocked))
        best = min(rank)


def is_valid(d: Digraph, c: Dicolouring, require_total: bool = False) -> bool:
    """True iff every colour class induces an acyclic subdigraph: one Kahn
    pass over the coloured vertices that keeps only arcs inside a class."""
    for v in c.assignment:
        if not 0 <= v < d.n:
            return False
    if require_total and not c.is_total(d.n):
        return False
    members: dict[int, int] = {}
    for v, colour in c.assignment.items():
        members[colour] = members.get(colour, 0) | 1 << v
    same = {v: members[colour] for v, colour in c.assignment.items()}  # as masks
    out, inn = d.masks
    left = sum(members.values())  # the classes are disjoint
    sources = [v for v in c.assignment if not inn[v] & same[v]]
    while sources:
        u = sources.pop()
        left ^= 1 << u
        for w in _bits(out[u] & same[u] & left):
            if not inn[w] & same[w] & left:
                sources.append(w)
    return not left


def _branch_order(d: Digraph) -> list[int]:
    # ties between equally constrained vertices go to the higher degree
    degree = [-(o.bit_count() + i.bit_count()) for o, i in zip(*d.masks)]
    return sorted(range(d.n), key=degree.__getitem__)


def _checked(d: Digraph, colouring: Dicolouring) -> Dicolouring:
    if not is_valid(d, colouring, require_total=True):
        raise InternalInconsistency("search returned an invalid dicolouring")
    return colouring


def _k_search(d: Digraph, order: list[int], k: int) -> Optional[Dicolouring]:
    # a search never opens more than n classes, whatever k is
    keys = range(min(k, d.n))
    steps = [((v,), keys) for v in order]
    found = next(_search(*d.masks, [0] * len(keys), steps), None)
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
    k = max(2, biclique_number(d) if omega_bi is None else omega_bi)
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
    colours = sorted(frozenset().union(*(lists[v] for v in order)))
    classes = dict.fromkeys(colours, 0)
    return next(_search(*d.masks, classes, [((v,), lists[v]) for v in order]), None)


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


def _bad_supports(d: Digraph, core: int, k: int) -> Iterator[frozenset[int]]:
    """Subsets of the core mask whose induced min in/out degrees all reach k."""
    out, inn = d.masks
    members = list(_bits(core))
    for pick in range(1, 1 << len(members)):
        s = sum(1 << members[i] for i in range(len(members)) if pick >> i & 1)
        if all(min((out[v] & s).bit_count(), (inn[v] & s).bit_count()) >= k for v in _bits(s)):
            yield frozenset(_bits(s))


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

    out, inn = d.masks
    core, changed = (1 << d.n) - 1, True
    while changed:
        changed = False
        for v in _bits(core):
            if min((out[v] & core).bit_count(), (inn[v] & core).bit_count()) < k:
                core ^= 1 << v
                changed = True
    if not core:
        return True

    for support in _bad_supports(d, core, k):
        sub, relabel = d.induced(support)
        m = sub.n
        order = _branch_order(sub)
        seen: set[tuple] = set()
        recent: list[tuple[int, ...]] = []  # colourings found, last used first
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
                    # a colouring of sub whose colours the lists all hold
                    # settles them without a search
                    for known in recent:
                        if all(map(frozenset.__contains__, by_vertex, known)):
                            recent.remove(known)
                            break
                    else:
                        got = _list_search(sub, order, by_vertex)
                        if got is None:
                            return False
                        known = tuple(got[v] for v in range(m))
                    recent.insert(0, known)
                    del recent[4:]
    return True


def check_partial_kl(d: Digraph, partial: Dicolouring, k: int, ell: int) -> bool:
    """Valid partial colouring in which every vertex has ell colours
    appearing at least twice in its in-neighbourhood or at least twice in
    its out-neighbourhood."""
    if not is_valid(d, partial):
        return False
    if ell <= 0:  # no count of repeats falls below ell
        return True
    out, inn = d.masks
    for v in range(d.n):
        if _repeats(partial.assignment, inn[v]) < ell and (
            _repeats(partial.assignment, out[v]) < ell
        ):
            return False
    return True


def _repeats(assignment: Mapping[int, int], side: int) -> int:
    """How many colours the vertex mask `side` holds at least twice."""
    counts = Counter(assignment[u] for u in _bits(side) if u in assignment)
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
    out, inn = d.masks
    for v in range(d.n):
        if v in assignment:
            continue
        side = inn[v]
        if ell > 0 and _repeats(assignment, side) < ell:
            side = out[v]
        taken = {assignment[u] for u in _bits(side) if u in assignment}
        colour = next((c for c in range(palette) if c not in taken), None)
        if colour is None:
            raise CompletionStuck(
                f"no palette colour free at vertex {v}; this cannot happen "
                "when the preconditions hold"
            )
        assignment[v] = colour
    return Dicolouring(palette, assignment)
