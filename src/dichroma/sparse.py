"""Random partial dicolouring of sparse digraphs.

The pipeline colours every vertex uniformly from a half-degree palette,
then simultaneously uncolours each vertex with a same-coloured in-neighbour
and a same-coloured out-neighbour.  What survives is a valid partial
colouring of any digraph, and on B-sparse digraphs every vertex keeps, in
expectation, enough repeated colours on one side of its neighbourhood to
feed the greedy completion with palette Delta + 1 - ell.

Per vertex the chosen side N_v is the neighbourhood with fewer internal
arcs; a colour contributes to Y_v when it lands on a digon-free pair of
N_v, to X_v when such a pair is retained, and Z_v = Y_v - X_v charges the
uncolouring.  The existential argument is replaced by bounded resampling:
a trial either meets the target X_v >= ell everywhere or is redrawn whole,
keeping trials independent and the estimators unbiased.

sparse_dicolour samples the input itself, not a diregularisation of it:
regularity only makes the repeat target likely, and the target is checked
on every accepted trial.  diregularize stays as an experimental object.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .digraph import MAX_VERTICES, Digraph
from .errors import (
    InstanceTooLarge,
    InternalInconsistency,
    InvalidParameter,
    InvalidVertex,
    PreconditionViolated,
)
from .exactmath import floor_div_e7
from .params import degree_profile, density_report, is_b_sparse
from .solver import (
    Dicolouring,
    check_partial_kl,
    greedy_complete,
    is_valid,
    optimal_dicolouring,
)


@dataclass(frozen=True)
class SparseTrialState:
    """Outcome of one colour-and-uncolour round.

    retained(v) is decided by the initial assignment alone: it is false
    exactly when some in-neighbour and some out-neighbour share v's colour.
    X_v = Y_v - Z_v holds identically by construction and is re-asserted.
    """

    k: int
    ell: int
    assignment: Mapping[int, int]
    retained: Mapping[int, bool]
    chosen_side: Mapping[int, frozenset[int]]
    bv: Mapping[int, int]
    xv: Mapping[int, int]
    yv: Mapping[int, int]
    zv: Mapping[int, int]

    def __post_init__(self):
        for field in ("assignment", "retained", "chosen_side", "bv", "xv", "yv", "zv"):
            object.__setattr__(self, field, dict(getattr(self, field)))
        for v in self.assignment:
            if self.xv[v] != self.yv[v] - self.zv[v]:
                raise InternalInconsistency("X_v = Y_v - Z_v failed")
            if not 0 <= self.zv[v] <= self.yv[v] <= self.k:
                raise InternalInconsistency("0 <= Z_v <= Y_v <= k failed")

    def partial_assignment(self) -> dict[int, int]:
        return {v: c for v, c in self.assignment.items() if self.retained[v]}

    def meets_target(self) -> bool:
        return all(x >= self.ell for x in self.xv.values())


def _free_pair(members: list[int], d: Digraph) -> bool:
    """Some two members are not linked by a digon."""
    for i, u in enumerate(members):
        for w in members[i + 1:]:
            if not d.has_digon(u, w):
                return True
    return False


def trial(d: Digraph, seed, ell: int = 0) -> SparseTrialState:
    """One uniform colouring from the palette [floor(Delta/2)] with the
    simultaneous uncolouring rule and the per-vertex accounting."""
    profile = degree_profile(d)
    if profile.delta_max < 2:
        raise PreconditionViolated("trial needs maximum degree at least 2")
    k = profile.delta_max // 2
    report = density_report(d)
    rng = random.Random(seed)
    assignment = {v: rng.randrange(k) for v in range(d.n)}

    retained = {
        v: not (
            any(assignment[u] == assignment[v] for u in d.in_adj[v])
            and any(assignment[u] == assignment[v] for u in d.out_adj[v])
        )
        for v in range(d.n)
    }

    chosen, xv, yv, zv = {}, {}, {}, {}
    for v in range(d.n):
        side = (
            d.out_adj[v]
            if report.m_plus[v] <= report.m_minus[v]
            else d.in_adj[v]
        )
        chosen[v] = side
        classes: dict[int, list[int]] = {}
        for u in sorted(side):
            classes.setdefault(assignment[u], []).append(u)
        x = y = 0
        for members in classes.values():
            if len(members) < 2 or not _free_pair(members, d):
                continue
            y += 1
            if _free_pair([u for u in members if retained[u]], d):
                x += 1
        xv[v], yv[v], zv[v] = x, y, y - x
    return SparseTrialState(
        k, ell, assignment, retained, chosen, dict(enumerate(report.bv)), xv, yv, zv
    )


def sample_partial(
    d: Digraph, ell: int, max_tries: int, seed
) -> Optional[Dicolouring]:
    """Retained assignment of the first trial with X_v >= ell everywhere,
    as a partial (floor(Delta/2), ell)-dicolouring; None after max_tries."""
    if ell < 0:
        raise InvalidParameter("ell must be non-negative")
    k = degree_profile(d).delta_max // 2
    if ell > k:
        return None  # cannot repeat more colours than the palette holds
    master = random.Random(seed)
    for _ in range(max_tries):
        state = trial(d, master.getrandbits(64), ell)
        if not state.meets_target():
            continue
        partial = Dicolouring(state.k, state.partial_assignment())
        if not check_partial_kl(d, partial, state.k, ell):
            raise InternalInconsistency(
                "accepted trial is not a partial (k, ell)-dicolouring"
            )
        return partial
    return None


def diregularize(d: Digraph, delta: int) -> Digraph:
    """Embed d into a delta-diregular digraph on the same first vertices.

    Each round glues on a disjoint reversed copy and links every deficient
    vertex to its own copy, raising the minimum degree by one; internal
    neighbourhood arc counts never change, so sparsity survives.
    """
    profile = degree_profile(d)
    if profile.delta_max > delta:
        raise PreconditionViolated("maximum degree exceeds delta")
    if d.n:
        # every round doubles the order and raises each vertex's smaller
        # degree by one, so the worst deficit fixes the final size exactly
        rounds = delta - min(
            min(d.out_degree(v), d.in_degree(v)) for v in range(d.n)
        )
        if d.n << max(rounds, 0) > MAX_VERTICES:
            raise InstanceTooLarge(
                f"regularization needs {rounds} doubling rounds from "
                f"{d.n} vertices; refusing to build past {MAX_VERTICES}"
            )
    current = d
    for _ in range(delta + 1):
        if all(
            current.out_degree(v) == delta and current.in_degree(v) == delta
            for v in range(current.n)
        ):
            break
        n = current.n
        arcs = list(current.arcs)
        arcs += [(v + n, u + n) for u, v in current.arcs]
        arcs += [(v, v + n) for v in range(n) if current.out_degree(v) < delta]
        arcs += [(v + n, v) for v in range(n) if current.in_degree(v) < delta]
        current = Digraph(2 * n, arcs)
    else:
        raise InternalInconsistency("diregularization did not terminate")
    if d.n and min(density_report(current).bv) < min(density_report(d).bv):
        raise InternalInconsistency("diregularization lost sparsity")
    return current


def sparse_dicolour(
    d: Digraph, b: int, max_tries: int = 64, seed=0
) -> Optional[Dicolouring]:
    """A dicolouring of a B-sparse digraph with at most
    Delta + 1 - floor(B / (4 e^7 Delta)) colours, or None when every
    sampling attempt misses the repeat target.

    Trials are drawn on d itself.  The retained part is a valid partial
    colouring of any digraph, greedy completion avoids one whole side of
    each vertex's coloured neighbours, and the ell repeats of an accepted
    trial keep a colour of the palette free; with ell = 0, which holds for
    every Delta < 4388, every trial is accepted."""
    if b < 0:
        raise InvalidParameter("sparsity bound must be non-negative")
    if not is_b_sparse(d, b):
        raise PreconditionViolated("digraph is not B-sparse for this B")
    if d.n == 0:
        return Dicolouring(0, {})
    delta = degree_profile(d).delta_max
    if delta < 2:
        # too few colours for a trial; these digraphs are exactly solvable
        return optimal_dicolouring(d)
    ell = floor_div_e7(b, 4 * delta)
    partial = sample_partial(d, ell, max_tries, seed)
    if partial is None:
        return None
    total = greedy_complete(d, partial, delta // 2, ell)
    if not is_valid(d, total, require_total=True):
        raise InternalInconsistency("greedy completion went invalid")
    if total.k > delta + 1 - ell:
        raise InternalInconsistency("completion overshot the palette")
    return total


@dataclass(frozen=True)
class MonteCarloEstimates:
    """Sample means with standard errors, and the frequency of the
    deviation event |X_v - mean| > log(Delta) sqrt(mean)."""

    mean_x: float
    mean_y: float
    mean_z: float
    se_x: float
    se_y: float
    se_z: float
    tail_frequency: float
    tail_se: float
    threshold: float
    trials: int


def monte_carlo(d: Digraph, v: int, trials: int, seed) -> MonteCarloEstimates:
    """Estimate E(X_v), E(Y_v), E(Z_v) and the deviation tail over
    independent trials, vectorised over the trial axis."""
    if trials < 1:
        raise InvalidParameter("need at least one trial")
    if not 0 <= v < d.n:
        raise InvalidVertex(f"vertex {v} out of range")
    profile = degree_profile(d)
    if profile.delta_max < 2:
        return MonteCarloEstimates(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, trials)
    k = profile.delta_max // 2
    report = density_report(d)
    side = sorted(
        d.out_adj[v] if report.m_plus[v] <= report.m_minus[v] else d.in_adj[v]
    )
    rng = np.random.default_rng(seed)
    colours = rng.integers(0, k, size=(trials, d.n), dtype=np.int16)

    m = len(side)
    retained = np.ones((trials, m), dtype=bool)
    for j, u in enumerate(side):
        own = colours[:, u]
        hit_in = np.zeros(trials, dtype=bool)
        for w in d.in_adj[u]:
            hit_in |= colours[:, w] == own
        hit_out = np.zeros(trials, dtype=bool)
        for w in d.out_adj[u]:
            hit_out |= colours[:, w] == own
        retained[:, j] = ~(hit_in & hit_out)

    free = np.array(
        [[not d.has_digon(side[i], side[j]) for j in range(m)] for i in range(m)],
        dtype=bool,
    )
    xs = np.zeros(trials, dtype=np.int32)
    ys = np.zeros(trials, dtype=np.int32)
    side_cols = colours[:, side] if m else colours[:, :0]
    for c in range(k):
        member = side_cols == c
        y_event = np.zeros(trials, dtype=bool)
        x_event = np.zeros(trials, dtype=bool)
        for i in range(m):
            for j in range(i + 1, m):
                if not free[i, j]:
                    continue
                both = member[:, i] & member[:, j]
                y_event |= both
                x_event |= both & retained[:, i] & retained[:, j]
        ys += y_event
        xs += x_event
    zs = ys - xs

    def stats(a: np.ndarray) -> tuple[float, float]:
        mean = float(a.mean())
        se = float(a.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        return mean, se

    mean_x, se_x = stats(xs)
    mean_y, se_y = stats(ys)
    mean_z, se_z = stats(zs)
    threshold = math.log(profile.delta_max) * math.sqrt(mean_x)
    tail = float(np.mean(np.abs(xs - mean_x) > threshold))
    tail_se = math.sqrt(tail * (1.0 - tail) / trials)
    return MonteCarloEstimates(
        mean_x, mean_y, mean_z, se_x, se_y, se_z, tail, tail_se, threshold, trials
    )
