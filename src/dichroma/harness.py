"""Verification campaigns over instance streams.

This module fixes the constants behind the headline bound, evaluates every
bound exactly on concrete digraphs small enough for the exact solver,
implements the out-degree reduction that trades maximum out-degree for the
min-degree parameter, and drives exhaustive or randomized hunts for
counterexamples.  Everything numeric is exact: irrational quantities enter
only through certified rational bounds, so a reported violation can never
be floating-point noise.
"""

from __future__ import annotations

import logging
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, product, starmap
from typing import Iterator, Mapping, Optional

from .canon import canonical_key
from .dense import delta_threshold
from .digraph import Digraph, _bits, random_digraph
from .errors import InstanceTooLarge, InternalInconsistency, InvalidParameter
from .exactmath import compare_to_ln_cubed, e7_bounds, exact_fraction, geq_sqrt
from .params import (
    DegreeProfile,
    biclique_number,
    degree_profile,
    delmin_bound,
    directed_clique_number,
    epsilon_bound,
    reed_bound,
)
from .solver import dichromatic_number

log = logging.getLogger(__name__)

EXACT_CHI_CAP = 9


def log_cubed_threshold(a) -> int:
    """Least integer x >= 2 with a > ln(x)^3 / (x - 1).

    The ratio starts at ln(2)^3 at x = 2, humps near e^3, then decreases to
    zero, so when the inequality fails at 2 it flips exactly once and
    bisection on the certified comparison finds the flip.
    """
    a = exact_fraction(a, "a")
    if a <= 0:
        raise InvalidParameter("a must be positive")

    def holds(x: int) -> bool:
        return compare_to_ln_cubed(a * (x - 1), x) > 0

    if holds(2):
        return 2
    hi = 4
    while not holds(hi):
        hi *= 2
    lo = max(hi // 2, 2)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _sqrt_upper(x: Fraction, bits: int = 64) -> Fraction:
    """A rational u with u >= sqrt(x), within 2^-bits of it."""
    if x < 0:
        raise InvalidParameter("negative radicand")
    if x == 0:
        return Fraction(0)
    scaled = (x.numerator << (2 * bits)) // x.denominator
    root = math.isqrt(scaled) + 1
    return Fraction(root, 1 << bits)


@dataclass(frozen=True)
class MainConstants:
    """The fixed parameters of the headline bound.

    eps0 equals 1/6 - 4 sqrt(a) and is irrational; it is carried as the
    pair (1/6, 16a) so that `x <= eps0` is decided by squaring.  eps is a
    certified rational lower bound of the five-term minimum, which is the
    safe direction: every use of eps in the argument needs it at most the
    true value.  delta1 has no closed form in the source argument and
    stays configurable; records must say whether it was defaulted.
    """

    a: Fraction
    eps0_pair: tuple[Fraction, Fraction]
    delta1: int
    delta1_is_default: bool
    delta2: int
    delta_of_a: int
    eps: Fraction
    gamma_eps: Fraction

    def __post_init__(self) -> None:
        ok = (
            0 < self.eps <= Fraction(1, 2)
            and self.gamma_eps == self.eps / (1 - self.eps)
            and self.gamma_eps <= 2 * self.eps
            and self.at_most_eps0(3 * self.eps)
            and self.eps * self.delta1 <= 1
            and self.eps * self.delta2 <= 1
            and self.eps * self.delta_of_a <= 1
        )
        if not ok:
            raise InternalInconsistency("constants out of relation")

    def at_most_eps0(self, x: Fraction) -> bool:
        """Exact test x <= 1/6 - 4 sqrt(a)."""
        head, squared = self.eps0_pair
        return geq_sqrt(head - x, squared)


def main_constants(delta1: Optional[int] = None, a=Fraction(1, 600)) -> MainConstants:
    """Assemble the constant set for a given density parameter.

    a must stay below 1/576 or 1/6 - 4 sqrt(a) degenerates.
    """
    a = exact_fraction(a, "a")
    if not 0 < a * 576 < 1:
        raise InvalidParameter("need 0 < a < 1/576")
    delta2 = log_cubed_threshold(a)
    d_of_a = delta_threshold(a)
    defaulted = delta1 is None
    if delta1 is None:
        delta1 = delta2
    if delta1 < 1:
        raise InvalidParameter("delta1 must be a positive integer")

    eps0_third = (Fraction(1, 6) - _sqrt_upper(16 * a)) / 3
    hi_e7 = e7_bounds(128)[1]
    e7_term = a / (16 * Fraction(hi_e7, 1 << 128))
    eps = min(
        Fraction(1, delta1),
        Fraction(1, delta2),
        Fraction(1, d_of_a),
        eps0_third,
        e7_term,
    )
    return MainConstants(
        a=a,
        eps0_pair=(Fraction(1, 6), 16 * a),
        delta1=delta1,
        delta1_is_default=defaulted,
        delta2=delta2,
        delta_of_a=d_of_a,
        eps=eps,
        gamma_eps=eps / (1 - eps),
    )


@dataclass(frozen=True)
class VerificationRecord:
    """One instance, every bound, exact values throughout.

    The pass flags are recomputed from the stored numbers on access, so a
    record can never disagree with itself.
    """

    instance_id: str
    seed: Optional[int]
    n: int
    delta_tilde_sq: int
    delta_min: int
    omega_bi: int
    omega_directed: int
    chi: int
    reed_bound_value: int
    eps_bound_value: int
    delmin_bound: int
    delmin_digon_bound: int
    eps: Fraction
    runtime: float

    @property
    def holds(self) -> dict[str, bool]:
        return {
            "reed": self.chi <= self.reed_bound_value,
            "eps": self.chi <= self.eps_bound_value,
            "delmin": self.chi <= self.delmin_bound,
            "delmin_digon": self.chi <= self.delmin_digon_bound,
        }

    @property
    def violated(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.holds.items() if not ok)


def _exact_parameters(d: Digraph, cap: int) -> tuple[DegreeProfile, int, int, int]:
    """Degree profile, biclique number, directed clique number and
    dichromatic number of a digraph small enough for the exact solver."""
    if d.n > cap:
        raise InstanceTooLarge(
            f"exact verification capped at {cap} vertices, got {d.n}"
        )
    profile = degree_profile(d)
    omega_bi = biclique_number(d)
    omega_dir = directed_clique_number(d, omega_bi)
    return profile, omega_bi, omega_dir, dichromatic_number(d, omega_bi)


def verify_instance(
    d: Digraph,
    eps,
    instance_id: str = "adhoc",
    seed: Optional[int] = None,
    cap: int = EXACT_CHI_CAP,
) -> VerificationRecord:
    """Evaluate every bound on one digraph with the exact solver."""
    eps = exact_fraction(eps, "eps")
    start = time.perf_counter()
    profile, omega_bi, omega_dir, chi = _exact_parameters(d, cap)
    record = VerificationRecord(
        instance_id=instance_id,
        seed=seed,
        n=d.n,
        delta_tilde_sq=profile.delta_tilde_sq,
        delta_min=profile.delta_min,
        omega_bi=omega_bi,
        omega_directed=omega_dir,
        chi=chi,
        reed_bound_value=reed_bound(profile, omega_bi),
        eps_bound_value=epsilon_bound(profile, omega_bi, eps),
        delmin_bound=delmin_bound(profile, omega_dir, eps),
        delmin_digon_bound=delmin_bound(profile, 2 * omega_bi, eps),
        eps=eps,
        runtime=time.perf_counter() - start,
    )
    if record.violated:
        log.warning("bound violation on %s: %s", instance_id, record.violated)
    return record


def delmin_reduction(d: Digraph) -> Digraph:
    """Rebuild the digraph so its maximum out-degree drops to the
    min-degree parameter without losing chromatic hardness.

    X holds the vertices of out-degree at most the min-degree maximum;
    arcs into X from outside are dropped, arcs out of X into the rest
    become digons, and arcs among the rest are reversed.  Any colouring
    that fails on the original fails on the result: a monochromatic cycle
    either avoids X (and survives reversal), stays in X (untouched), or
    crosses, in which case the crossing arc became a digon.
    """
    if d.n == 0:
        return d
    profile = degree_profile(d)
    dmin = profile.delta_min
    x = frozenset(v for v in range(d.n) if d.out_degree(v) <= dmin)
    rest = ~sum(1 << v for v in x)
    arcs: list[tuple[int, int]] = []
    for u, heads in enumerate(d.masks[0]):
        arcs += [(v, u) for v in _bits(heads & rest)]  # digon from X, reversal outside it
        if u in x:
            arcs += [(u, v) for v in _bits(heads)]
    h = Digraph(d.n, arcs)
    if degree_profile(h).delta_plus > dmin:
        raise InternalInconsistency("reduction exceeded the out-degree target")
    return h


@dataclass(frozen=True)
class DelminRecord:
    """Both min-degree bounds on one digraph, plus the reduction audit."""

    n: int
    delta_min: int
    omega_bi: int
    omega_directed: int
    chi: int
    bound: int
    digon_bound: int
    reduction_delta_plus: int
    reduction_omega_bi: int
    reduction_chi: int
    eps: Fraction
    runtime: float

    @property
    def holds(self) -> dict[str, bool]:
        return {
            "delmin": self.chi <= self.bound,
            "delmin_digon": self.chi <= self.digon_bound,
            "reduction_out_degree": self.reduction_delta_plus <= self.delta_min,
            "reduction_biclique": self.reduction_omega_bi <= self.omega_directed,
            "reduction_chi": self.reduction_chi >= self.chi,
        }


def verify_delmin(d: Digraph, eps, cap: int = EXACT_CHI_CAP) -> DelminRecord:
    """Evaluate the two min-degree bounds and audit the reduction on one
    digraph at exact-solver scale."""
    eps = exact_fraction(eps, "eps")
    start = time.perf_counter()
    profile, omega_bi, omega_dir, chi = _exact_parameters(d, cap)
    h = delmin_reduction(d)
    h_omega_bi = biclique_number(h)
    record = DelminRecord(
        n=d.n,
        delta_min=profile.delta_min,
        omega_bi=omega_bi,
        omega_directed=omega_dir,
        chi=chi,
        bound=delmin_bound(profile, omega_dir, eps),
        digon_bound=delmin_bound(profile, 2 * omega_bi, eps),
        reduction_delta_plus=degree_profile(h).delta_plus,
        reduction_omega_bi=h_omega_bi,
        reduction_chi=dichromatic_number(h, h_omega_bi),
        eps=eps,
        runtime=time.perf_counter() - start,
    )
    bad = [name for name, ok in record.holds.items() if not ok]
    if bad:
        log.warning("min-degree audit failed: %s", bad)
    return record


_EXHAUSTIVE_CAPS = {"tournament": 8, "digraph": 5}


def nonisomorphic_digraphs(n: int, family: str = "tournament") -> Iterator[Digraph]:
    """All digraphs on n vertices in the family, one per isomorphism class.

    The classes are grown one vertex at a time (naive orderly generation,
    McKay 1998): each class on k vertices is joined to a new vertex k in
    every allowed way, and the first digraph reached for each canonical key
    is kept.  A join gives each pair (u, k) a state whose bit 1 is the arc
    u -> k and bit 2 the arc k -> u.  Classes come in the order first
    reached: parent-class order, then `itertools.product` order over the
    states of the pairs (0, k), ..., (k - 1, k).  The family and size are
    checked on the call; the classes are built on iteration.
    """
    levels = _class_levels(n, family)
    return (d for k, level in enumerate(levels) if k == n for d in level)  # the last level


def _class_levels(n_max: int, family: str) -> Iterator[list[Digraph]]:
    """The classes on 0, 1, ..., n_max vertices, level by level from one
    growth; the family and size are checked on the call."""
    if family not in _EXHAUSTIVE_CAPS:
        raise InvalidParameter(f"unknown family {family!r}")
    if n_max < 0 or n_max > _EXHAUSTIVE_CAPS[family]:
        raise InvalidParameter(
            f"exhaustive {family} enumeration capped at"
            f" {_EXHAUSTIVE_CAPS[family]} vertices"
        )
    return _grown_levels(n_max, (1, 2) if family == "tournament" else (0, 1, 2, 3))


def _grown_levels(n_max: int, states: tuple[int, ...]) -> Iterator[list[Digraph]]:
    level = [Digraph(0, [])]
    yield level
    for k in range(n_max):
        seen: set[tuple] = set()
        grown: list[Digraph] = []
        for d in level:
            parent = list(d.arcs)
            for choice in product(states, repeat=k):
                arcs = parent + [(u, k) for u, s in enumerate(choice) if s & 1]
                arcs += [(k, u) for u, s in enumerate(choice) if s & 2]
                child = Digraph(k + 1, arcs)
                key = canonical_key(child)
                if key not in seen:
                    seen.add(key)
                    grown.append(child)
        level = grown
        yield level


@dataclass(frozen=True)
class HuntReport:
    """Outcome of a campaign: all records in generation order, and the ids
    whose chosen bound failed."""

    bound: str
    eps: Fraction
    records: tuple[VerificationRecord, ...]
    violations: tuple[str, ...]


_HUNT_DEFAULTS: dict[str, object] = {
    "mode": "random",
    "n_max": 6,
    "count": 100,
    "seed": 0,
    "bound": "reed",
    "eps": None,
    "family": "tournament",
}


def _workers() -> int:
    env = os.environ.get("DICHROMA_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise InvalidParameter("DICHROMA_THREADS must be an integer")
        if cap < 1:
            raise InvalidParameter("DICHROMA_THREADS must be at least 1")
        return cap
    return os.cpu_count() or 1


def hunt_records(
    config: Mapping[str, object], violations: list[str]
) -> tuple[str, Fraction, Iterator[VerificationRecord]]:
    """Check a campaign's settings, raising every InvalidParameter before
    any instance is drawn; return its bound, its eps and its records.

    Random mode draws `count` seeded digraphs on `n_max` vertices;
    exhaustive mode walks every isomorphism class of the family up to
    `n_max`.  Each record is drawn and verified as it is read, and
    appends its id to the empty list `violations` if its bound fails.
    """
    settings = dict(_HUNT_DEFAULTS)
    for key, value in config.items():
        if key not in settings:
            raise InvalidParameter(f"unknown hunt setting {key!r}")
        settings[key] = value
    mode = settings["mode"]
    n_max = int(settings["n_max"])  # type: ignore[arg-type]
    count = int(settings["count"])  # type: ignore[arg-type]
    seed = int(settings["seed"])  # type: ignore[arg-type]
    bound = str(settings["bound"])
    family = str(settings["family"])
    if mode not in ("random", "exhaustive"):
        raise InvalidParameter("mode must be 'random' or 'exhaustive'")
    if bound not in ("reed", "eps", "delmin"):
        raise InvalidParameter("bound must be 'reed', 'eps' or 'delmin'")
    if n_max < 0 or n_max > EXACT_CHI_CAP:
        raise InvalidParameter(f"n_max must be between 0 and {EXACT_CHI_CAP}")
    if count < 0:
        raise InvalidParameter("count must be non-negative")
    eps = settings["eps"]
    eps = Fraction(1, 2) if eps is None else exact_fraction(eps, "eps")
    if not 0 < eps < 1:
        raise InvalidParameter("eps must satisfy 0 < eps < 1")
    if mode == "random":
        jobs = _random_jobs(n_max, count, seed, eps)
    else:  # level 0, the empty digraph, is not hunted
        levels = enumerate(_class_levels(n_max, family))
        jobs = (
            (d, eps, f"{family}-n{n}-{i:05d}", None)
            for n, level in levels if n for i, d in enumerate(level)
        )
    return bound, eps, _verified(jobs, bound, _workers(), violations)


def _random_jobs(n: int, count: int, seed: int, eps: Fraction) -> Iterator[tuple]:
    master = random.Random(seed)
    for i in range(count):
        inst_seed = master.getrandbits(32)
        p_digon, p_simple = master.uniform(0.0, 0.45), master.uniform(0.0, 0.5)
        d = random_digraph(n, p_digon, p_simple, seed=inst_seed)
        yield d, eps, f"random-n{n}-{i:05d}", inst_seed


def _verified(
    jobs: Iterator[tuple], bound: str, workers: int, violations: list[str]
) -> Iterator[VerificationRecord]:
    """verify_instance on each job, in order, on up to DICHROMA_THREADS
    processes.  A pool pays off past 8 jobs and takes them in batches (see
    _pooled); one worker draws each job when it is due."""
    head = list(islice(jobs, 9)) if workers > 1 else []
    pool = ProcessPoolExecutor(workers) if len(head) > 8 else None
    try:
        jobs = chain(head, jobs)
        if pool is None:
            records = starmap(verify_instance, jobs)
        else:
            records = _pooled(pool, jobs, workers)
        for record in records:
            if not record.holds[bound]:
                violations.append(record.instance_id)
            yield record
    finally:  # a reader that stops early, at a closed pipe say, drops the jobs not begun
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if violations:
        log.warning("%d violation(s) of the %s bound", len(violations), bound)


def _pooled(pool, jobs: Iterator[tuple], workers: int) -> Iterator[VerificationRecord]:
    """verify_instance on each job through the pool, in order, in batches of
    four chunks of 8 jobs for each worker.  The next batch is drawn and
    queued once the first record of the current one is out, so the workers
    stay busy across a batch's end while at most two batches are held."""
    size = 4 * workers * 8
    batches = iter(lambda: list(islice(jobs, size)), [])
    records = iter(())
    for queued in (pool.map(verify_instance, *zip(*b), chunksize=8) for b in batches):
        yield from records
        yield next(queued)
        records = queued
    yield from records


def hunt(config: Mapping[str, object]) -> HuntReport:
    """Every record of a campaign, in generation order on any number of
    workers, and the ids whose chosen bound failed: hunt_records, collected."""
    violations: list[str] = []
    bound, eps, records = hunt_records(config, violations)
    records = tuple(records)
    return HuntReport(bound=bound, eps=eps, records=records, violations=tuple(violations))
