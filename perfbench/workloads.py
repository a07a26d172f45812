"""The three workloads: seeded inputs, the commands run on them, and the
independent check of every answer.

Each op is one ``dichroma`` command line.  ``check(code, stdout)`` returns
``None`` for a right answer and a reason otherwise.  An op with ``defect``
set is a probe of a known defect: at this commit it raises that exception
type, which is counted as a failed op in ``ops_failed_share`` but not timed;
if it ever returns, its answer is checked like any other.  An op with
``once`` runs one time per run instead of once per pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import gen
import oracle

REFS = Path(__file__).with_name("refs.json")

# The fixed solve set: (recipe, kind, n).  Tournaments at n = 28..30 are
# heavy-tailed for the exact solver (0.1 s to over 6 s on one core), so the
# set is pinned and its answers committed in refs.json; a seed-drawn set
# would swing the batch time by more than any bound.
SOLVE_SET = [
    ("T30-7", "tournament", 30),
    ("T28-1", "tournament", 28),
    ("T28-6", "tournament", 28),
    ("T29-4", "tournament", 29),
    ("T28-7", "tournament", 28),
    ("T29-7", "tournament", 29),
    ("T29-0", "tournament", 29),
    ("T28-5", "tournament", 28),
    ("R34-0.1-0.6-0", "dense", 34),
    ("R34-0.1-0.6-3", "dense", 34),
    ("R36-0.05-0.7-3", "dense", 36),
]
# instances that also get a --list op with seed-drawn lists
SOLVE_LISTED = ["T26-1", "R30-0.2-0.5-0", "R34-0.1-0.6-0"]
LIST_RECIPES = [("T26-1", "tournament", 26), ("R30-0.2-0.5-0", "dense", 30)]
SMOKE_SET = [("T12-0", "tournament", 12), ("R10-0.1-0.6-0", "dense", 10)]


def recipe_arcs(recipe: str, kind: str, n: int) -> gen.Arcs:
    """A dense recipe "R<n>-<p_digon>-<p_simple>-<i>" names its probabilities."""
    rng = random.Random(recipe)
    if kind == "tournament":
        return gen.tournament(n, rng)
    _, p_digon, p_simple, _ = recipe.split("-")
    return gen.dense_random(n, float(p_digon), float(p_simple), rng)


@dataclass
class Op:
    id: str
    kind: str
    argv: list[str]
    check: Callable[[int, str], Optional[str]]
    defect: Optional[str] = None
    once: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    info: dict = field(default_factory=dict)


class Files:
    """Writes the inputs of one workload under a directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self.bytes = 0

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text, encoding="ascii")
        self.bytes += len(text)
        return str(path)

    def dgf(self, name: str, n: int, arcs: gen.Arcs) -> str:
        return self.write(name, gen.dgf_text(n, arcs, name))


def _json(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def _expect_exit(code: int, want: int) -> Optional[str]:
    return None if code == want else f"exit code {code}, expected {want}"


def check_chi(n: int, arcs: gen.Arcs, chi: int):
    def check(code: int, stdout: str) -> Optional[str]:
        out, err = _json(stdout)
        if err or (err := _expect_exit(code, 0)):
            return err
        if out.get("dichromatic_number") != chi:
            return f"chi = {out.get('dichromatic_number')}, reference {chi}"
        return oracle.check_colouring(n, arcs, out.get("colouring"), max_colours=chi)

    return check


def check_lists(n: int, arcs: gen.Arcs, lists: list[list[int]]):
    def check(code: int, stdout: str) -> Optional[str]:
        out, err = _json(stdout)
        if err or (err := _expect_exit(code, 0)):
            return err
        if out.get("list_dicolourable") is not True:
            return "lists hold a colouring yet none was reported"
        return oracle.check_colouring(n, arcs, out.get("colouring"), lists=lists)

    return check


# -- hunt ---------------------------------------------------------------------


def hunt(seed: int, files: Files, smoke: bool) -> Workload:
    rng = random.Random(f"hunt:{seed}")
    n = 6 if smoke else 9
    count = 20 if smoke else 1000
    slice_size = 3 if smoke else 30
    streams = [
        (rng.getrandbits(31), "reed", Fraction(1, 2)),
        (rng.getrandbits(31), "eps", Fraction(1, 3)),
    ]
    ops = []
    for i, (stream_seed, bound, eps) in enumerate(streams):
        argv = ["hunt", "--n-max", str(n), "--count", str(count), "--seed", str(stream_seed), "--bound", bound, "--eps", str(eps)]
        ops.append(Op(f"hunt-{i}", "hunt.random", argv, _check_hunt(stream_seed, count, n, bound, eps)))
    first = oracle.hunt_stream(streams[0][0], slice_size, n)
    for i, (_, arcs) in enumerate(first):
        eps = Fraction(1, 2 + i % 2)
        path = files.dgf(f"slice-{i:03d}.dgf", n, arcs)
        ops.append(Op(f"check-{i:03d}", "hunt.check_delmin", ["check", path, "--bound", "delmin", "--eps", str(eps)], _check_delmin(n, arcs, eps)))
    sweep_n = 4 if smoke else 6
    ops.append(Op("exhaustive", "hunt.exhaustive", ["hunt", "--mode", "exhaustive", "--n-max", str(sweep_n)], _check_exhaustive(sweep_n), once=True))
    info = {
        "random_instances_per_pass": 2 * count,
        "random_n": n,
        "stream_seeds": [s for s, _, _ in streams],
        "check_delmin_files": slice_size,
        "exhaustive_n_max": sweep_n,
    }
    return Workload("hunt", ops, info)


def _record_tuple(rec: dict) -> tuple:
    keys = ("chi", "omega_bi", "omega_directed", "delta_tilde_sq", "delta_min", "reed_bound_value", "eps_bound_value", "delmin_bound", "delmin_digon_bound")
    return tuple(rec.get(k) for k in keys)


def _check_hunt(stream_seed: int, count: int, n: int, bound: str, eps: Fraction):
    def check(code: int, stdout: str) -> Optional[str]:
        out, err = _json(stdout)
        if err:
            return err
        instances = oracle.hunt_stream(stream_seed, count, n)
        problem, violated = oracle.check_hunt_records(out.get("records", []), instances, n, eps, bound)
        if problem:
            return problem
        if bool(out.get("violations")) != violated:
            return "violation list disagrees with the records"
        return _expect_exit(code, 1 if violated else 0)

    return check


def _check_delmin(n: int, arcs: gen.Arcs, eps: Fraction):
    def check(code: int, stdout: str) -> Optional[str]:
        out, err = _json(stdout)
        if err:
            return err
        problem, holds = oracle.check_delmin_record(out, n, arcs, eps)
        return problem or _expect_exit(code, 0 if holds else 1)

    return check


_TOURNAMENT_CLASSES = [1, 1, 2, 4, 12, 56]


def _check_exhaustive(n_max: int):
    def check(code: int, stdout: str) -> Optional[str]:
        out, err = _json(stdout)
        if err:
            return err
        records = out.get("records", [])
        violated = False
        for n in range(1, n_max + 1):
            got = sorted(_record_tuple(r) for r in records if r.get("n") == n)
            if len(got) != _TOURNAMENT_CLASSES[n - 1]:
                return f"{len(got)} tournament classes on {n} vertices, expected {_TOURNAMENT_CLASSES[n - 1]}"
            reps = oracle.tournament_classes(n)
            want = [oracle.expected_record(p, Fraction(1, 2)) for p in oracle.small_params(n, reps)]
            if got != sorted(_record_tuple(w) for w in want):
                return f"records on {n} vertices disagree with the recomputed classes"
            violated |= any(w["chi"] > w["reed_bound_value"] for w in want)
        if len(records) != sum(_TOURNAMENT_CLASSES[:n_max]):
            return "records outside 1..n_max"
        return _expect_exit(code, 1 if violated else 0)

    return check


# -- solve --------------------------------------------------------------------


def load_refs() -> dict:
    return json.loads(REFS.read_text(encoding="ascii"))


def solve(seed: int, files: Files, smoke: bool) -> Workload:
    rng = random.Random(f"solve:{seed}")
    refs = load_refs()["solve"]
    chosen = SMOKE_SET if smoke else SOLVE_SET
    ops = []
    sizes = []
    for recipe, kind, n in chosen:
        arcs = recipe_arcs(recipe, kind, n)
        path = files.dgf(f"{recipe}.dgf", n, arcs)
        sizes.append(n)
        ops.append(Op(f"dicolor-{recipe}", f"solve.{kind}", ["dicolor", path], check_chi(n, arcs, refs[recipe]["chi"])))
    listed = ["T12-0"] if smoke else SOLVE_LISTED
    kinds = {r: (k, n) for r, k, n in SOLVE_SET + LIST_RECIPES + SMOKE_SET}
    for recipe in listed:
        kind, n = kinds[recipe]
        arcs = recipe_arcs(recipe, kind, n)
        witness = refs[recipe]["colouring"]
        chi = refs[recipe]["chi"]
        palette = list(range(chi + 2))
        rng.shuffle(palette)
        lists = []
        for v in range(n):
            own = palette[witness[v]]
            others = rng.sample([c for c in palette if c != own], chi)
            lists.append(sorted([own] + others))
        path = files.dgf(f"{recipe}-list.dgf", n, arcs)
        lpath = files.write(f"{recipe}-lists.json", json.dumps(lists))
        ops.append(Op(f"list-{recipe}", "solve.list", ["dicolor", path, "--list", lpath], check_lists(n, arcs, lists)))
    big = 30 if smoke else 1500
    arcs = gen.relabel(big, gen.triangle_chain(big, big // 5, rng), rng)
    path = files.dgf("triangles.dgf", big, arcs)
    ops.append(Op("dicolor-triangles", "solve.sparse_big", ["dicolor", path], check_chi(big, arcs, 2), defect=None if smoke else "RecursionError"))
    rng.shuffle(ops)
    info = {"instances": len(ops), "solve_set": [r for r, _, _ in chosen], "list_ops": listed, "sizes": sizes, "sparse_big_n": big, "sparse_big_arcs": len(arcs)}
    return Workload("solve", ops, info)


# -- construct ----------------------------------------------------------------

DENSE_A, DENSE_EPS = Fraction(1, 600), Fraction(1, 1000000)


def construct(seed: int, files: Files, smoke: bool) -> Workload:
    rng = random.Random(f"construct:{seed}")
    ops = []
    products = [(5, 2), (6, 2)] if smoke else [(7, 2), (9, 2), (6, 2)]
    for n_cycle, p in products:
        n = n_cycle * p
        arcs = gen.relabel(n, gen.obstruction(n_cycle, p), rng)
        path = files.dgf(f"product-{n_cycle}-{p}.dgf", n, arcs)
        shape = (n_cycle, p) if n_cycle % 2 else None
        ops.append(Op(f"transversal-{n_cycle}-{p}", "construct.transversal", ["transversal", path], _check_transversal(n, arcs, shape)))

    n_sparse, delta = (20, 4) if smoke else (80, 8)
    arcs = gen.relabel(n_sparse, gen.regular_with_deficit(n_sparse, delta, rng), rng)
    b = min(oracle.sparse_params(n_sparse, arcs)["bv"])
    path = files.dgf("sparse.dgf", n_sparse, arcs)
    ops.append(Op("sparse", "construct.sparse", ["sparse", path, "--B", str(b), "--seed", str(rng.getrandbits(16))], _check_sparse(n_sparse, arcs, delta)))

    for name, missing in (("K9", 0), ("K9-minus-2", 2)):
        arcs = gen.complete(9)
        dropped = set(rng.sample(range(1, 9), missing))
        arcs = [(u, v) for u, v in arcs if not (v == 0 and u in dropped)]
        arcs = gen.relabel(9, arcs, rng)
        path = files.dgf(f"dense-{name}.dgf", 9, arcs)
        ops.append(Op(f"dense-{name}", "construct.dense", ["dense", path, "--a", str(DENSE_A), "--eps", str(DENSE_EPS)], _check_dense(9, arcs)))

    sizes = [(120, 60, 240)] if smoke else [(600, 300, 1200)]
    big = None if smoke else (2000, 2000, 24000)
    for n, digons, singles in sizes + ([big] if big else []):
        arcs = gen.sparse_random(n, digons, singles, rng)
        path = files.dgf(f"params-{n}.dgf", n, arcs)
        defect = "RecursionError" if n >= 1000 else None
        ops.append(Op(f"params-{n}", "construct.params" if defect is None else "construct.params_big", ["params", path], _check_params(n, arcs), defect=defect))
    rng.shuffle(ops)
    info = {
        "products": products,
        "sparse": {"n": n_sparse, "delta": delta, "B": b},
        "dense": ["K9", "K9-minus-2"],
        "params_n": [s[0] for s in sizes] + ([big[0]] if big else []),
        "params_arcs": [2 * s[1] + s[2] for s in sizes] + ([2 * big[1] + big[2]] if big else []),
    }
    return Workload("construct", ops, info)


def _check_transversal(n: int, arcs: gen.Arcs, shape):
    def check(code: int, stdout: str) -> Optional[str]:
        out, err = _json(stdout)
        if err or (err := _expect_exit(code, 0)):
            return err
        return oracle.check_transversal(n, arcs, out, shape)

    return check


def _check_sparse(n: int, arcs: gen.Arcs, delta: int):
    def check(code: int, stdout: str) -> Optional[str]:
        out, err = _json(stdout)
        if err or (err := _expect_exit(code, 0)):
            return err
        if out.get("found") is not True:
            return "no sparse colouring found"
        return oracle.check_colouring(n, arcs, out.get("colouring"), max_colours=delta + 1)

    return check


def _check_dense(n: int, arcs: gen.Arcs):
    def check(code: int, stdout: str) -> Optional[str]:
        out, err = _json(stdout)
        if err or (err := _expect_exit(code, 0)):
            return err
        return oracle.check_dense(n, arcs, out, DENSE_A, DENSE_EPS)

    return check


def _check_params(n: int, arcs: gen.Arcs):
    def check(code: int, stdout: str) -> Optional[str]:
        out, err = _json(stdout)
        if err or (err := _expect_exit(code, 0)):
            return err
        want = oracle.sparse_params(n, arcs)
        for key, value in want.items():
            if out.get(key) != value:
                return f"{key} differs from the recomputed value"
        return None

    return check


WORKLOADS = {"hunt": hunt, "solve": solve, "construct": construct}
