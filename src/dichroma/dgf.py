"""Plain-text digraph files and JSON rendering of result records.

The file format is one header line ``n <count>`` followed by one arc per
line as ``u v`` with 0-based vertex numbers.  ``#`` starts a comment that
runs to the end of the line, blank lines are ignored, and the encoding is
7-bit text, so files diff cleanly and round-trip bit-exactly: emitting a
parsed digraph sorts the arcs lexicographically and is idempotent.  A parse
error names its line and column; columns are worked out only for that line.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from fractions import Fraction
from typing import Iterator

from . import digraph
from .digraph import Digraph, Graph
from .errors import InstanceTooLarge, ParseError
from .solver import Dicolouring


def _tokens(line: str) -> Iterator[tuple[str, int]]:
    """Whitespace-split tokens with their 1-based starting columns."""
    at = 0
    for token in line.split():
        at = line.index(token, at)
        yield token, at + 1
        at += len(token)


def _integer(token: str, lineno: int, column: int) -> int:
    if not (token.isdigit() or (token[:1] == "-" and token[1:].isdigit())):
        raise ParseError(f"expected an integer, got {token!r}", lineno, column)
    return int(token)


def _arc(line: str, lineno: int, n: int) -> tuple[int, int]:
    """The arc on a line the quick check refused ("-0 1" is one), or its offence."""
    parts = list(_tokens(line))
    if len(parts) != 2:
        where = parts[2][1] if len(parts) > 2 else parts[0][1]
        raise ParseError("expected an arc 'u v'", lineno, where)
    ends = []
    for token, column in parts:
        v = _integer(token, lineno, column)
        if not 0 <= v < n:
            raise ParseError(f"vertex {v} out of range", lineno, column)
        ends.append(v)
    if ends[0] == ends[1]:
        raise ParseError("self-loop", lineno, parts[1][1])
    return ends[0], ends[1]


def parse_dgf(text: str) -> Digraph:
    """Read a digraph, reporting the first offence with line and column.

    Past digraph.MAX_ARCS arc lines it stops at the first extra one, so a
    huge file is refused before its arcs are collected.
    """
    cap = digraph.MAX_ARCS
    n = None
    arcs: list[tuple[int, int]] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            column = next(i for i, ch in enumerate(raw, start=1) if ord(ch) > 127)
            raise ParseError("non-ASCII byte", lineno, column)
        cut = raw.find("#")
        line = raw if cut < 0 else raw[:cut]
        parts = line.split()
        if not parts:
            continue
        if n is None:
            parts = list(_tokens(line))
            if parts[0][0] != "n":
                raise ParseError("expected header 'n <count>'", lineno, parts[0][1])
            if len(parts) != 2:
                where = parts[2][1] if len(parts) > 2 else parts[0][1]
                raise ParseError("header takes exactly one count", lineno, where)
            n = _integer(parts[1][0], lineno, parts[1][1])
            if n < 0:
                raise ParseError("vertex count must be non-negative", lineno, parts[1][1])
            continue
        u = v = n  # out of range until the quick check reads the line
        if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
            u, v = int(parts[0]), int(parts[1])
        if u >= n or v >= n or u == v:
            u, v = _arc(line, lineno, n)
        if len(arcs) == cap:
            raise InstanceTooLarge(f"more than {cap} arcs, at line {lineno}")
        arcs.append((u, v))
    if n is None:
        raise ParseError("missing header 'n <count>'", lineno + 1, 1)
    return Digraph(n, arcs)


def emit_dgf(d: Digraph) -> str:
    """Canonical text form: header, then arcs sorted lexicographically."""
    lines = [f"n {d.n}"]
    lines.extend(f"{u} {v}" for u, v in digraph._arc_list(d.masks[0]))
    return "\n".join(lines) + "\n"


@functools.cache
def _record_names(cls) -> tuple[list[str], bool, bool]:
    """A record's field names, and whether it derives holds and violated."""
    names = [f.name for f in dataclasses.fields(cls)]
    holds = hasattr(cls, "holds") and "holds" not in names
    return names, holds, holds and hasattr(cls, "violated") and "violated" not in names


def _plain(obj):
    if obj is None or isinstance(obj, (int, str, float)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Digraph):
        return {"n": obj.n, "arcs": [list(a) for a in digraph._arc_list(obj.masks[0])]}
    if isinstance(obj, Graph):
        return {
            "n": obj.n,
            "edges": sorted(sorted(e) for e in obj.edges),
        }
    if isinstance(obj, Dicolouring):
        return {
            "k": obj.k,
            "assignment": {str(v): c for v, c in obj.assignment.items()},
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names, holds, violated = _record_names(type(obj))
        plain = {name: _plain(getattr(obj, name)) for name in names}
        if holds:  # str keys and bool values, plain already; violated is read off it
            plain["holds"] = checks = obj.holds
            if violated:
                plain["violated"] = [name for name, ok in checks.items() if not ok]
        return plain
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        items = [_plain(x) for x in obj]
        try:
            return sorted(items)
        except TypeError:
            return sorted(items, key=repr)
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    return repr(obj)


_encode = json.JSONEncoder(sort_keys=True).encode


def emit_json(record) -> str:
    """Deterministic JSON for any result record in this package, on one line:
    CPython uses its C encoder only when ``indent`` is None, several times
    faster.  ``python -m json.tool`` indents the output for reading."""
    return _encode(_plain(record)) + "\n"


def write_json(write, record: dict, key: str) -> None:
    """Write ``emit_json(record)`` through ``write``, rendering the items of
    the iterable ``record[key]`` one at a time.  The fields that sort after
    ``key`` are rendered last, so they may be filled in as the items pass."""
    fields = {**record, key: []}
    write(_encode(_plain({k: v for k, v in fields.items() if k <= key}))[:-2])  # to "["
    for i, item in enumerate(record[key]):
        write((", " if i else "") + _encode(_plain(item)))
    rest = _encode(_plain({k: v for k, v in fields.items() if k >= key}))
    write("]" + rest[len(_encode(key)) + 5 :] + "\n")  # past '{"<key>": []'
