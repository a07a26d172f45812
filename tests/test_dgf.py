"""Digraph file format and JSON rendering."""

import dataclasses
import json
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dichroma.dgf import _plain, emit_dgf, emit_json, parse_dgf, write_json
from dichroma.digraph import Digraph, random_digraph
from dichroma.errors import ParseError
from dichroma.harness import DelminRecord, verify_delmin, verify_instance

from .oracles import dgf_outcome


def test_parse_basic() -> None:
    d = parse_dgf("n 3\n0 1\n1 2\n2 0\n")
    assert d.n == 3 and set(d.arcs) == {(0, 1), (1, 2), (2, 0)}
    assert parse_dgf("n 0\n").n == 0
    assert parse_dgf("n 4").arc_count() == 0


def test_parse_comments_and_blanks() -> None:
    text = """
# a triangle
n 3   # three vertices

0 1
1 2  # middle arc
# done
2 0
"""
    d = parse_dgf(text)
    assert d.n == 3 and d.arc_count() == 3


def test_parse_duplicate_arcs_collapse() -> None:
    d = parse_dgf("n 2\n0 1\n0 1\n")
    assert d.arc_count() == 1


def _offence(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_dgf(text)
    return info.value


def test_parse_errors_located() -> None:
    err = _offence("")
    assert "missing header" in str(err) and (err.line, err.column) == (1, 1)
    err = _offence("digraph 3\n")
    assert "expected header" in str(err) and (err.line, err.column) == (1, 1)
    err = _offence("n 3 7\n")
    assert "exactly one count" in str(err) and (err.line, err.column) == (1, 5)
    err = _offence("n x\n")
    assert "expected an integer" in str(err) and (err.line, err.column) == (1, 3)
    err = _offence("n -2\n")
    assert "non-negative" in str(err)
    err = _offence("n 3\n0\n")
    assert "expected an arc" in str(err) and (err.line, err.column) == (2, 1)
    err = _offence("n 3\n0 1 2\n")
    assert "expected an arc" in str(err) and (err.line, err.column) == (2, 5)
    err = _offence("n 3\n0 3\n")
    assert "out of range" in str(err) and (err.line, err.column) == (2, 3)
    err = _offence("n 3\n1 1\n")
    assert "self-loop" in str(err) and (err.line, err.column) == (2, 3)
    err = _offence("n 3\n0 café\n")
    assert "non-ASCII" in str(err) and (err.line, err.column) == (2, 6)


@pytest.mark.parametrize(
    "line, arc",
    [("-0 1", (0, 1)), ("002 1", (2, 1)), ("0\t1\t# c", (0, 1)), ("0 1#c", (0, 1))],
)
def test_parse_arc_spellings(line: str, arc: tuple[int, int]) -> None:
    assert set(parse_dgf(f"n 3\n{line}\n").arcs) == {arc}


@pytest.mark.parametrize(
    "line, phrase, column",
    [
        ("+1 0", "expected an integer", 1),
        ("1_0 2", "expected an integer", 1),
        ("0x1 0", "expected an integer", 1),
        ("-1 0", "out of range", 1),
        ("5 x", "out of range", 1),
        ("0 1 2", "expected an arc", 5),
        ("2 2", "self-loop", 3),
        ("-0 -0", "self-loop", 4),
    ],
)
def test_parse_arc_offences(line: str, phrase: str, column: int) -> None:
    err = _offence(f"n 3\n0 1\n{line}\n1 2\n")
    assert phrase in str(err) and (err.line, err.column) == (3, column)


_DGF_CHARS = "0123456789-+_ \t#nx"
_DGF_TOKEN = st.integers(0, 13).map(str) | st.text(_DGF_CHARS, min_size=1, max_size=3)
# raw lines, and lines of tokens that are mostly arc-shaped, so documents parse too
_DGF_LINES = (
    st.text(_DGF_CHARS, max_size=12)
    | st.lists(_DGF_TOKEN, min_size=2, max_size=2).map(" ".join)
    | st.lists(_DGF_TOKEN, max_size=3).map("\t".join)
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.lists(_DGF_LINES, max_size=8))
def test_parse_matches_regex_oracle(n: int, lines: list[str]) -> None:
    text = "\n".join([f"n {n}", *lines])
    expected = dgf_outcome(text)
    try:
        got = ("arcs", set(parse_dgf(text).arcs))
    except ParseError as err:
        assert expected[0] == "error" and expected[1] in str(err), (str(err), expected)
        got = ("error", expected[1], err.line, err.column)
    assert got == expected


def test_emit_canonical() -> None:
    d = Digraph(3, [(2, 0), (0, 1), (1, 2)])
    text = emit_dgf(d)
    assert text == "n 3\n0 1\n1 2\n2 0\n"
    assert emit_dgf(parse_dgf(text)) == text


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(0, 2**30))
def test_round_trip(n: int, seed: int) -> None:
    rng = random.Random(seed)
    pd = rng.random() * 0.5
    d = random_digraph(n, pd, rng.random() * (0.9 - pd), seed=seed)
    back = parse_dgf(emit_dgf(d))
    assert back.n == d.n and set(back.arcs) == set(d.arcs)
    assert emit_dgf(back) == emit_dgf(d)


def test_emit_json_record() -> None:
    from fractions import Fraction

    rec = verify_instance(parse_dgf("n 3\n0 1\n1 0\n"), Fraction(1, 2))
    text = emit_json(rec)
    assert text == emit_json(rec)
    data = json.loads(text)
    assert data["n"] == 3 and data["chi"] == 2
    assert data["eps"] == "1/2"
    assert data["holds"]["reed"] is True
    assert data["violated"] == []


def test_emit_json_is_one_line_with_a_maskable_runtime() -> None:
    from fractions import Fraction

    class F(float):
        pass

    rec = verify_instance(parse_dgf("n 3\n0 1\n1 2\n2 0\n"), Fraction(1, 3))
    text = emit_json(rec)
    assert text.endswith("\n") and text.count("\n") == 1
    # benchmark and test comparisons mask the runtime with this pattern
    assert re.search(r'"runtime": [-+0-9.eE]+', text)
    # a float subclass stays a JSON number
    assert json.loads(emit_json({"x": F(0.25)})) == {"x": 0.25}


def test_emit_json_digraph_and_sets() -> None:
    data = json.loads(emit_json({"d": Digraph(2, [(1, 0)]), "s": frozenset({3, 1})}))
    assert data["d"] == {"n": 2, "arcs": [[1, 0]]}
    assert data["s"] == [1, 3]


def test_rendered_violated_is_read_off_holds() -> None:
    rec = verify_instance(parse_dgf("n 3\n0 1\n1 2\n2 0\n"), Fraction(1, 2))
    bounds = ("reed_bound_value", "eps_bound_value", "delmin_bound", "delmin_digon_bound")
    for oks in product((True, False), repeat=len(bounds)):
        fail = {name: rec.chi - (not ok) for name, ok in zip(bounds, oks)}
        data = _plain(dataclasses.replace(rec, **fail))
        failed = [name for name, ok in data["holds"].items() if not ok]
        assert data["violated"] == failed == list(dataclasses.replace(rec, **fail).violated)
        assert len(failed) == oks.count(False)


def test_delmin_record_renders_holds_only() -> None:
    rec = verify_delmin(parse_dgf("n 3\n0 1\n1 2\n2 0\n1 0\n"), Fraction(1, 3))
    data = json.loads(emit_json(rec))
    names = [f.name for f in dataclasses.fields(DelminRecord)]
    assert sorted(data) == sorted(names + ["holds"])
    assert data["holds"] == rec.holds
    assert data["eps"] == "1/3" and data["chi"] == rec.chi == 2


@pytest.mark.parametrize("key", ["a", "m", "z"])
@pytest.mark.parametrize("items", [[], [7], [{"x": Fraction(1, 3)}, None, "s", [1, 2]]])
def test_write_json_matches_emit_json(key: str, items: list) -> None:
    record = {"b": Fraction(2, 3), "n": [1, {"c": 2}], key: iter(items)}
    chunks: list[str] = []
    write_json(chunks.append, record, key)
    assert "".join(chunks) == emit_json({**record, key: items})
    assert len(chunks) == len(items) + 2  # the head, one chunk per item, the tail


def test_write_json_renders_later_fields_after_the_items() -> None:
    seen: list[int] = []

    def items():
        for i in range(3):
            seen.append(i)
            yield i

    chunks: list[str] = []
    write_json(chunks.append, {"a": 0, "items": items(), "seen": seen}, "items")
    assert "".join(chunks) == emit_json({"a": 0, "items": [0, 1, 2], "seen": [0, 1, 2]})
