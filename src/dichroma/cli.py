"""Command line front end.

Every command reads digraphs from DGF files, writes one line of JSON to
standard output, and exits 0 on success, 1 when a hunted or checked bound
is violated, and 2 on any error, usage errors included, with one line of
JSON ``{"error", "message"}`` on standard error.  ``hunt`` checks every
argument, then writes each record once it is verified: its stdout is cut
short only when an internal error or a closed pipe stops it (exit 2).
The argument parser is built once per process, on the first call to main.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .asr import ASRInstance, biclique_transversal, find_asr
from .dense import dense_reduce_theorem
from .dgf import emit_dgf, emit_json, parse_dgf, write_json
from .digraph import (
    Digraph,
    complete_digraph,
    directed_cycle,
    obstruction,
    random_digraph,
    random_tournament,
)
from .errors import DichromaError, InvalidParameter, NoASR
from .harness import hunt_records, verify_delmin, verify_instance
from .params import (
    biclique_number,
    degree_profile,
    density_report,
    directed_clique_number,
)
from .solver import k_dicolourable, list_dicolourable, optimal_dicolouring
from .sparse import sparse_dicolour


def _read_digraph(path: str) -> Digraph:
    # surrogateescape hands non-ASCII bytes on to parse_dgf, which locates them
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        return parse_dgf(handle.read())


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidParameter(f"expected a fraction like 2/3, got {text!r}")


def _emit(payload) -> None:
    sys.stdout.write(emit_json(payload))


def _cmd_params(args) -> int:
    d = _read_digraph(args.file)
    profile = degree_profile(d)
    density = density_report(d)
    omega_bi = biclique_number(d)
    _emit(
        {
            "n": d.n,
            "arc_count": d.arc_count(),
            "delta_max": profile.delta_max,
            "delta_min": profile.delta_min,
            "delta_plus": profile.delta_plus,
            "delta_tilde_sq": profile.delta_tilde_sq,
            "d_out": list(profile.d_out),
            "d_in": list(profile.d_in),
            "m_plus": list(density.m_plus),
            "m_minus": list(density.m_minus),
            "bv": list(density.bv),
            "omega_bi": omega_bi,
            "omega_directed": directed_clique_number(d, omega_bi),
        }
    )
    return 0


def _load_json(path: str, what: str):
    with open(path, "r", encoding="ascii") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as err:
            raise InvalidParameter(f"{what} is not valid JSON: {err}")


def _integers(value, what: str) -> frozenset[int]:
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise InvalidParameter(f"{what} must be a JSON list of integers")
    return frozenset(value)


def _load_lists(path: str, n: int):
    data = _load_json(path, "list file")
    if isinstance(data, list):
        if len(data) != n:
            raise InvalidParameter("list file must cover every vertex")
        return {v: _integers(data[v], "each colour list") for v in range(n)}
    if isinstance(data, dict):
        try:
            return {int(v): _integers(c, "each colour list") for v, c in data.items()}
        except ValueError:
            raise InvalidParameter("list file keys must be vertex numbers")
    raise InvalidParameter("list file must hold a JSON list or object")


def _cmd_dicolor(args) -> int:
    d = _read_digraph(args.file)
    if args.lists is not None:
        colouring = list_dicolourable(d, _load_lists(args.lists, d.n))
        _emit({"list_dicolourable": colouring is not None, "colouring": colouring})
        return 0
    if args.k is not None:
        colouring = k_dicolourable(d, args.k)
        _emit({"k": args.k, "dicolourable": colouring is not None, "colouring": colouring})
        return 0
    colouring = optimal_dicolouring(d)
    _emit({"dichromatic_number": colouring.k, "colouring": colouring})
    return 0


def _cmd_transversal(args) -> int:
    d = _read_digraph(args.file)
    delta = args.delta if args.delta is not None else degree_profile(d).delta_max
    _emit(biclique_transversal(d, delta))
    return 0


def _cmd_asr(args) -> int:
    d = _read_digraph(args.file)
    raw = _load_json(args.parts, "parts file")
    if not isinstance(raw, list):
        raise InvalidParameter("parts file must hold a JSON list of lists")
    inst = ASRInstance(d, tuple(_integers(part, "each part") for part in raw), args.k)
    try:
        transversal = find_asr(inst)
    except NoASR:
        _emit({"found": False})
        return 0
    _emit({"found": True, "transversal": sorted(transversal)})
    return 0


def _cmd_sparse(args) -> int:
    d = _read_digraph(args.file)
    colouring = sparse_dicolour(
        d, args.b, max_tries=args.max_tries, seed=args.seed
    )
    _emit({"found": colouring is not None, "colouring": colouring})
    return 0


def _cmd_dense(args) -> int:
    d = _read_digraph(args.file)
    _emit(dense_reduce_theorem(d, _fraction(args.a), _fraction(args.eps)))
    return 0


def _cmd_check(args) -> int:
    d = _read_digraph(args.file)
    eps = _fraction(args.eps)
    if args.bound == "delmin":
        record = verify_delmin(d, eps)
        _emit(record)
        return 0 if all(record.holds.values()) else 1
    record = verify_instance(d, eps)
    _emit(record)
    return 0 if record.holds[args.bound] else 1


def _cmd_hunt(args) -> int:
    violations: list[str] = []
    bound, eps, records = hunt_records(
        {
            "mode": args.mode,
            "n_max": args.n_max,
            "count": args.count,
            "seed": args.seed,
            "bound": args.bound,
            "eps": _fraction(args.eps) if args.eps is not None else None,
            "family": args.family,
        },
        violations,
    )
    report = {"bound": bound, "eps": eps, "records": records, "violations": violations}
    write_json(sys.stdout.write, report, "records")
    return 1 if violations else 0


_GENERATORS = {
    "complete": (("n",), lambda n: complete_digraph(int(n))),
    "cycle": (("n",), lambda n: directed_cycle(int(n))),
    "tournament": (
        ("n", "seed"),
        lambda n, seed="0": random_tournament(int(n), seed=int(seed)),
    ),
    "random": (
        ("n", "p_digon", "p_simple", "seed"),
        lambda n, p_digon, p_simple, seed="0": random_digraph(
            int(n), float(p_digon), float(p_simple), seed=int(seed)
        ),
    ),
    "obstruction": (
        ("n_cycle", "p"),
        lambda n_cycle, p: obstruction(int(n_cycle), int(p)),
    ),
}


def _cmd_gen(args) -> int:
    if args.family not in _GENERATORS:
        raise InvalidParameter(
            f"unknown family {args.family!r}; choose from"
            f" {', '.join(sorted(_GENERATORS))}"
        )
    names, build = _GENERATORS[args.family]
    required = len(names) - (1 if "seed" in names else 0)
    if not required <= len(args.args) <= len(names):
        raise InvalidParameter(
            f"family {args.family} takes arguments: {' '.join(names)}"
        )
    try:
        d = build(*args.args)
    except ValueError:
        raise InvalidParameter(f"bad arguments for {args.family}: {args.args}")
    text = emit_dgf(d)
    m = text.count("\n") - 1  # one line per arc: no popcount of wide masks
    if args.output is not None:
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write(text)
        _emit({"written": args.output, "n": d.n, "arc_count": m})
    else:
        _emit({"n": d.n, "arc_count": m, "dgf": text})
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 2 as JSON; subparsers inherit this
        raise InvalidParameter(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dichroma",
        description="digraph dicolouring laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="degree, density and clique parameters")
    p.add_argument("file")
    p.set_defaults(run=_cmd_params)

    p = sub.add_parser("dicolor", help="exact dicolouring")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--list", dest="lists", default=None, metavar="LISTS.json")
    p.set_defaults(run=_cmd_dicolor)

    p = sub.add_parser("transversal", help="clique transversal dichotomy")
    p.add_argument("file")
    p.add_argument("--delta", type=int, default=None)
    p.set_defaults(run=_cmd_transversal)

    p = sub.add_parser("asr", help="acyclic system of representatives")
    p.add_argument("file")
    p.add_argument("--parts", required=True, metavar="PARTS.json")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(run=_cmd_asr)

    p = sub.add_parser("sparse", help="colour a locally sparse digraph")
    p.add_argument("file")
    p.add_argument("--B", dest="b", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tries", type=int, default=64)
    p.set_defaults(run=_cmd_sparse)

    p = sub.add_parser("dense", help="dense-vertex reduction report")
    p.add_argument("file")
    p.add_argument("--a", required=True, metavar="P/Q")
    p.add_argument("--eps", required=True, metavar="P/Q")
    p.set_defaults(run=_cmd_dense)

    p = sub.add_parser("check", help="verify the bounds on one digraph")
    p.add_argument("file")
    p.add_argument("--bound", choices=("reed", "eps", "delmin"), default="reed")
    p.add_argument("--eps", default="1/2", metavar="P/Q")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("hunt", help="campaign over an instance stream")
    p.add_argument("--mode", choices=("random", "exhaustive"), default="random")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", choices=("reed", "eps", "delmin"), default="reed")
    p.add_argument("--eps", default=None, metavar="P/Q")
    p.add_argument("--family", choices=("tournament", "digraph"), default="tournament")
    p.set_defaults(run=_cmd_hunt)

    p = sub.add_parser("gen", help="write a digraph from a named family")
    p.add_argument("family")
    p.add_argument("args", nargs="*")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except DichromaError as err:
        sys.stderr.write(
            emit_json({"error": type(err).__name__, "message": str(err)})
        )
        return 2
    except OSError as err:
        sys.stderr.write(emit_json({"error": "OSError", "message": str(err)}))
        return 2
    except Exception as err:  # a bug; exit 1 stays reserved for a violated bound
        message = f"{type(err).__name__}: {err}"
        sys.stderr.write(emit_json({"error": "InternalError", "message": message}))
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
