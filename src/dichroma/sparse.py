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
on every accepted trial.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Optional

from .digraph import Digraph, _bits
from .errors import (
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


def _free_pair(members: list[int], digons: list[int]) -> bool:
    """Some two members are not linked by a digon; bit w of digons[u] is
    set iff u and w are."""
    for i, u in enumerate(members):
        for w in members[i + 1:]:
            if not digons[u] >> w & 1:
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
    out, inn = d.masks
    digons = [o & i for o, i in zip(out, inn)]
    same = [0] * k  # the vertex mask of each colour
    for v, c in assignment.items():
        same[c] |= 1 << v
    retained = {v: not (inn[v] & same[c] and out[v] & same[c]) for v, c in assignment.items()}

    chosen, xv, yv, zv = {}, {}, {}, {}
    for v in range(d.n):
        side = list(_bits(out[v] if report.m_plus[v] <= report.m_minus[v] else inn[v]))
        chosen[v] = frozenset(side)
        classes: dict[int, list[int]] = {}
        for u in side:
            classes.setdefault(assignment[u], []).append(u)
        x = y = 0
        for members in classes.values():
            if len(members) < 2 or not _free_pair(members, digons):
                continue
            y += 1
            if _free_pair([u for u in members if retained[u]], digons):
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
    if max_tries < 1:
        raise InvalidParameter("max_tries must be at least 1")
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
    if max_tries < 1:
        raise InvalidParameter("max_tries must be at least 1")
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
    independent trials, vectorised over the trial axis.

    Each vertex of the chosen side and each of their neighbours holds its
    colours in all trials as one int, one 16-bit lane per trial, so a step
    of the accounting is a few int operations for all trials at once.
    Colours and counts stay below k < 2^14, so the top bit of every lane is
    free: adding 2^15 - 1 sets it exactly in the nonzero lanes and never
    carries into the next lane.
    """
    if trials < 1:
        raise InvalidParameter("need at least one trial")
    if not 0 <= v < d.n:
        raise InvalidVertex(f"vertex {v} out of range")
    profile = degree_profile(d)
    if profile.delta_max < 2:
        return MonteCarloEstimates(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, trials)
    k = profile.delta_max // 2
    report = density_report(d)
    out, inn = d.masks
    side_mask = out[v] if report.m_plus[v] <= report.m_minus[v] else inn[v]
    side = list(_bits(side_mask))
    one = int.from_bytes(b"\1\0" * trials, "little")
    high = one << 15
    low = high - one

    def same(a: int, b: int) -> int:
        """The top bit of each lane where a and b agree."""
        return high & ~((a ^ b) + low)

    rng = random.Random(seed)
    low32 = int.from_bytes(b"\xff\xff\xff\xff\0\0\0\0" * trials, "little")

    def draw() -> int:
        # colour floor(r k / 2^32) of 32 random bits r in a 64-bit lane, so
        # each colour has probability within 2^-32 of 1/k; then repack the
        # colour bytes of the 64-bit lanes into 16-bit lanes
        wide = (int.from_bytes(rng.randbytes(8 * trials), "little") & low32) * k
        raw = wide.to_bytes(8 * trials, "little")
        packed = bytearray(2 * trials)
        packed[0::2] = raw[4::8]
        packed[1::2] = raw[5::8]
        return int.from_bytes(packed, "little")

    touched = side_mask
    for u in side:
        touched |= out[u] | inn[u]
    colours = {u: draw() for u in _bits(touched)}  # ascending, as the stream needs

    side_cols = [colours[u] for u in side]
    retained = []  # top bits: no in-neighbour or no out-neighbour agrees
    for u, own in zip(side, side_cols):
        differ_in = differ_out = -1
        for w in _bits(inn[u]):
            differ_in &= (own ^ colours[w]) + low
        for w in _bits(out[u]):
            differ_out &= (own ^ colours[w]) + low
        retained.append((differ_in | differ_out) & high)

    m = len(side)
    free = [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if not d.has_digon(side[i], side[j])
    ]
    xs = ys = 0
    for c in range(k):
        lane_c = c * one
        member = [same(col, lane_c) for col in side_cols]
        kept = [a & r for a, r in zip(member, retained)]
        y_event = x_event = 0
        for i, j in free:
            y_event |= member[i] & member[j]
            x_event |= kept[i] & kept[j]
        ys += y_event >> 15
        xs += x_event >> 15

    def histogram(lanes: int) -> list[int]:
        """How many trials read 0, 1, ..., k in their lane."""
        return [same(lanes, j * one).bit_count() for j in range(k + 1)]

    def stats(counts: list[int]) -> tuple[float, float]:
        total = sum(j * c for j, c in enumerate(counts))
        if trials == 1:
            return float(total), 0.0
        spread = trials * sum(j * j * c for j, c in enumerate(counts)) - total * total
        return total / trials, math.sqrt(spread / (trials - 1)) / trials

    counts_x = histogram(xs)
    mean_x, se_x = stats(counts_x)
    mean_y, se_y = stats(histogram(ys))
    mean_z, se_z = stats(histogram(ys - xs))  # Z_v = Y_v - X_v >= 0 per lane
    threshold = math.log(profile.delta_max) * math.sqrt(mean_x)
    tail = sum(c for j, c in enumerate(counts_x) if abs(j - mean_x) > threshold) / trials
    tail_se = math.sqrt(tail * (1.0 - tail) / trials)
    return MonteCarloEstimates(
        mean_x, mean_y, mean_z, se_x, se_y, se_z, tail, tail_se, threshold, trials
    )
