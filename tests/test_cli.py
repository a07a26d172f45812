"""Command line interface, driven in-process through main()."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dichroma

from dichroma.cli import main
from dichroma.dgf import emit_dgf, emit_json, parse_dgf
from dichroma.digraph import complete_digraph, directed_cycle, obstruction
from dichroma.harness import hunt


@pytest.fixture()
def triangle(tmp_path):
    path = tmp_path / "c3.dgf"
    path.write_text(emit_dgf(directed_cycle(3)), encoding="ascii")
    return str(path)


@pytest.fixture()
def k4(tmp_path):
    path = tmp_path / "k4.dgf"
    path.write_text(emit_dgf(complete_digraph(4)), encoding="ascii")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err) if captured.err else None
    return code, out, err


def test_params(capsys, triangle) -> None:
    code, out, err = _run(capsys, ["params", triangle])
    assert code == 0 and err is None
    assert out["n"] == 3 and out["arc_count"] == 3
    assert out["delta_max"] == 1 and out["omega_bi"] == 1
    assert out["omega_directed"] == 2
    assert out["d_out"] == [1, 1, 1]


def test_dicolor_exact(capsys, triangle) -> None:
    code, out, _ = _run(capsys, ["dicolor", triangle])
    assert code == 0
    assert out["dichromatic_number"] == 2
    assert set(out["colouring"]["assignment"]) == {"0", "1", "2"}


def test_dicolor_with_k(capsys, triangle) -> None:
    code, out, _ = _run(capsys, ["dicolor", triangle, "--k", "1"])
    assert code == 0
    assert out["dicolourable"] is False and out["colouring"] is None
    code, out, _ = _run(capsys, ["dicolor", triangle, "--k", "2"])
    assert out["dicolourable"] is True


def test_dicolor_with_lists(capsys, tmp_path, triangle) -> None:
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps([[0], [0], [1]]), encoding="ascii")
    code, out, _ = _run(capsys, ["dicolor", triangle, "--list", str(lists)])
    assert code == 0 and out["list_dicolourable"] is True
    lists.write_text(json.dumps([[0], [0], [0]]), encoding="ascii")
    code, out, _ = _run(capsys, ["dicolor", triangle, "--list", str(lists)])
    assert code == 0 and out["list_dicolourable"] is False
    lists.write_text(json.dumps([[0], [0]]), encoding="ascii")
    code, out, err = _run(capsys, ["dicolor", triangle, "--list", str(lists)])
    assert code == 2 and err["error"] == "InvalidParameter"


def test_transversal(capsys, k4, tmp_path) -> None:
    code, out, _ = _run(capsys, ["transversal", k4])
    assert code == 0
    assert out["hitting_set"] is not None and out["obstruction"] is None
    path = tmp_path / "obs.dgf"
    path.write_text(emit_dgf(obstruction(5, 1)), encoding="ascii")
    code, out, _ = _run(capsys, ["transversal", str(path)])
    assert code == 0
    assert out["obstruction"] == [5, 1]
    assert out["isomorphism"] is not None


def test_asr(capsys, tmp_path) -> None:
    d = parse_dgf("n 4\n0 2\n2 1\n")
    path = tmp_path / "d.dgf"
    path.write_text(emit_dgf(d), encoding="ascii")
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps([[0, 1], [2, 3]]), encoding="ascii")
    code, out, _ = _run(
        capsys, ["asr", str(path), "--parts", str(parts), "--k", "1"]
    )
    assert code == 0 and out["found"] is True
    assert len(out["transversal"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[0, 2], [1, 3]]), encoding="ascii")
    code, _, err = _run(
        capsys, ["asr", str(path), "--parts", str(bad), "--k", "1"]
    )
    assert code == 2 and err["error"] == "InvalidParameter"


def test_sparse(capsys, tmp_path) -> None:
    d = parse_dgf("n 6\n" + "".join(f"{i} {(i + j) % 6}\n" for i in range(6) for j in (1, 2)))
    path = tmp_path / "circ.dgf"
    path.write_text(emit_dgf(d), encoding="ascii")
    code, out, _ = _run(capsys, ["sparse", str(path), "--B", "0", "--seed", "3"])
    assert code == 0 and out["found"] is True
    code, _, err = _run(capsys, ["sparse", str(path), "--B", "99"])
    assert code == 2 and err["error"] == "PreconditionViolated"
    for tries in ("0", "-1"):
        code, out, err = _run(capsys, ["sparse", str(path), "--B", "0", "--max-tries", tries])
        assert code == 2 and out is None and err["error"] == "InvalidParameter"


def test_dense(capsys, k4) -> None:
    code, out, _ = _run(
        capsys, ["dense", k4, "--a", "1/600", "--eps", "1/1000000"]
    )
    assert code == 0
    assert out["dense_vertex"] == 0 and out["side"] == "out"
    assert out["bound_achieved"] is False
    code, _, err = _run(capsys, ["dense", k4, "--a", "1/4", "--eps", "1/10"])
    assert code == 2 and err["error"] == "PreconditionViolated"
    code, _, err = _run(capsys, ["dense", k4, "--a", "zzz", "--eps", "1/10"])
    assert code == 2 and err["error"] == "InvalidParameter"


def test_check(capsys, triangle, k4) -> None:
    code, out, _ = _run(capsys, ["check", triangle])
    assert code == 0
    assert out["chi"] == 2 and out["holds"]["reed"] is True
    code, out, _ = _run(capsys, ["check", k4, "--bound", "eps", "--eps", "1/4"])
    assert code == 0 and out["holds"]["eps"] is True
    code, out, _ = _run(capsys, ["check", triangle, "--bound", "delmin"])
    assert code == 0
    assert out["reduction_chi"] >= out["chi"]
    assert all(out["holds"].values())


def test_hunt(capsys) -> None:
    code, out, _ = _run(
        capsys, ["hunt", "--mode", "exhaustive", "--n-max", "3"]
    )
    assert code == 0
    assert len(out["records"]) == 4  # tournament classes up to 3 vertices
    assert out["violations"] == []
    code, out, _ = _run(
        capsys,
        ["hunt", "--count", "5", "--n-max", "4", "--seed", "9", "--bound", "eps"],
    )
    assert code == 0 and len(out["records"]) == 5
    assert out["eps"] == "1/2"


def test_gen_roundtrip(capsys, tmp_path) -> None:
    out_path = tmp_path / "gen.dgf"
    code, out, _ = _run(
        capsys, ["gen", "obstruction", "5", "2", "-o", str(out_path)]
    )
    assert code == 0 and out["written"] == str(out_path)
    d = parse_dgf(out_path.read_text(encoding="ascii"))
    assert d.n == 10 and out["arc_count"] == d.arc_count()
    code, out, _ = _run(capsys, ["gen", "cycle", "4"])
    assert code == 0 and out["dgf"] == "n 4\n0 1\n1 2\n2 3\n3 0\n"
    code, out, _ = _run(capsys, ["gen", "random", "5", "0.3", "0.3", "7"])
    assert code == 0 and out["n"] == 5
    code, out, _ = _run(capsys, ["gen", "tournament", "4"])
    assert code == 0 and out["arc_count"] == 6


def test_gen_rejects(capsys) -> None:
    code, _, err = _run(capsys, ["gen", "moebius", "5"])
    assert code == 2 and err["error"] == "InvalidParameter"
    code, _, err = _run(capsys, ["gen", "cycle"])
    assert code == 2 and err["error"] == "InvalidParameter"
    code, _, err = _run(capsys, ["gen", "cycle", "x"])
    assert code == 2 and err["error"] == "InvalidParameter"
    for probabilities in (["nan", "0"], ["0", "nan"], ["nan", "nan"], ["inf", "0"]):
        code, out, err = _run(capsys, ["gen", "random", "5", *probabilities])
        assert code == 2 and out is None and err["error"] == "InvalidParameter"


def test_error_exit_codes(capsys, tmp_path) -> None:
    code, _, err = _run(capsys, ["params", str(tmp_path / "missing.dgf")])
    assert code == 2 and err["error"] == "OSError"
    broken = tmp_path / "broken.dgf"
    broken.write_text("m 3\n", encoding="ascii")
    code, _, err = _run(capsys, ["params", str(broken)])
    assert code == 2 and err["error"] == "ParseError"
    assert "line 1" in err["message"]


def test_check_violation_exit_code(capsys, tmp_path) -> None:
    # at eps near 1 the min-degree bound collapses towards omega, and the
    # bidirected C5 needs 3 colours against directed clique number 2
    from dichroma.digraph import Graph, symmetric_closure

    c5 = symmetric_closure(Graph(5, [(i, (i + 1) % 5) for i in range(5)]))
    path = tmp_path / "c5.dgf"
    path.write_text(emit_dgf(c5), encoding="ascii")
    code, out, _ = _run(
        capsys, ["check", str(path), "--bound", "delmin", "--eps", "99/100"]
    )
    assert code == 1
    assert out["chi"] == 3 and out["bound"] == 2
    assert out["holds"]["delmin"] is False


def test_dicolor_long_triangle_chain(capsys, tmp_path) -> None:
    from .test_solver import triangle_chain

    path = tmp_path / "chain.dgf"
    path.write_text(emit_dgf(triangle_chain(1500)), encoding="ascii")
    code, out, err = _run(capsys, ["dicolor", str(path)])
    assert code == 0 and err is None
    assert out["dichromatic_number"] == 2
    assert len(out["colouring"]["assignment"]) == 1500


@pytest.mark.parametrize("module", ["dichroma", "dichroma.cli"])
def test_python_m_matches_main(capsys, triangle, module) -> None:
    assert main(["dicolor", triangle]) == 0
    expected = capsys.readouterr().out
    src = str(Path(dichroma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-m", module, "dicolor", triangle],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_import_loads_no_numpy() -> None:
    # every command pays for what the package imports
    src = str(Path(dichroma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", "import sys, dichroma, dichroma.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


_BAD_SIDE_FILES = {
    "list-malformed-json": ("dicolor", "{bad"),
    "list-truncated-json": ("dicolor", "[[0], [1"),
    "list-of-strings": ("dicolor", '["ab", "cd", "ef"]'),
    "list-of-ints": ("dicolor", "[1, 2, 3]"),
    "list-float-colour": ("dicolor", "[[0], [1.5], [0]]"),
    "list-string-colour": ("dicolor", '[[0], ["1"], [0]]'),
    "list-non-numeric-key": ("dicolor", '{"zero": [0], "1": [1], "2": [0]}'),
    "list-bare-colour": ("dicolor", '{"0": [0], "1": 1, "2": [0]}'),
    "list-nested-too-deep": ("dicolor", "[" * 100_000 + "]" * 100_000),
    "parts-malformed-json": ("asr", "{bad"),
    "parts-of-ints": ("asr", "[1, 2, 3]"),
    "parts-string-vertex": ("asr", '[["0"], [1], [2]]'),
    "parts-float-vertex": ("asr", "[[0.0], [1], [2]]"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SIDE_FILES))
def test_bad_side_files_exit_2(capsys, tmp_path, triangle, case) -> None:
    command, content = _BAD_SIDE_FILES[case]
    side = tmp_path / "side.json"
    side.write_text(content, encoding="ascii")
    if command == "dicolor":
        argv = ["dicolor", triangle, "--list", str(side)]
    else:
        argv = ["asr", triangle, "--parts", str(side), "--k", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out is None
    assert err["error"] == "InvalidParameter"


@pytest.mark.parametrize("command", ["params", "dicolor", "transversal"])
def test_non_ascii_dgf_exit_2(capsys, tmp_path, command) -> None:
    path = tmp_path / "accent.dgf"
    path.write_bytes(b"n 3\n0 1 \xc3\xa9\n")
    code, out, err = _run(capsys, [command, str(path)])
    assert code == 2 and out is None
    assert err["error"] == "ParseError"
    assert "line 2, column 5" in err["message"] and "non-ASCII" in err["message"]


def _dgf_text(n: int):
    vertex = st.integers(0, max(n - 1, 0))
    arcs = st.lists(st.tuples(vertex, vertex), max_size=30).map(
        lambda arcs: "".join(f"{u} {v}\n" for u, v in arcs if u != v)
    )
    body = st.text() | st.text("0123456789 \t\n#-", max_size=60) | arcs
    return body.map(f"n {n}\n".__add__)


def _one_json_line(argv) -> None:
    """main(argv) exits 0 with one JSON line on stdout, 1 (check only, a
    violated bound) with one JSON line on stdout, or 2 with one JSON error
    line on stderr that is never InternalError."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        assert json.loads(err.getvalue())["error"] != "InternalError"
        return
    assert code == 0 or (code == 1 and argv[0] == "check")
    assert out.getvalue().count("\n") == 1
    assert isinstance(json.loads(out.getvalue()), dict)
    if code == 0:
        assert err.getvalue() == ""


def _ends_in_one_json_line(text: str, commands) -> None:
    """Each command on a file holding the text ends as _one_json_line says."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "fuzz.dgf")
        with open(path, "wb") as handle:
            handle.write(text.encode("utf-8", "surrogatepass"))
        for command, *flags in commands:
            _one_json_line([command, path, *flags])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12).flatmap(_dgf_text))
def test_any_dgf_text_ends_in_one_json_line(text: str) -> None:
    _ends_in_one_json_line(text, [("dicolor",), ("params",)])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8).flatmap(_dgf_text))
def test_any_dgf_text_through_the_derived_views(text: str) -> None:
    """Commands that read a parsed digraph's derived arcs or adjacency."""
    dense = ("dense", "--a", "1/600", "--eps", "1/1000000")
    _ends_in_one_json_line(text, [("check", "--bound", "delmin"), ("transversal",), dense])


_SPARSE_FUZZ_FILES = ["n 0\n", "n 2\n0 1\n", "n 6\n" + "".join(
    f"{i} {(i + j) % 6}\n" for i in range(6) for j in (1, 2))]
_ANY_INT = st.integers(-2, 8) | st.integers()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SPARSE_FUZZ_FILES), _ANY_INT, _ANY_INT, _ANY_INT)
def test_any_sparse_ints_end_in_one_json_line(text: str, b: int, seed: int, tries: int) -> None:
    flags = ["--B", str(b), "--seed", str(seed), "--max-tries", str(tries)]
    _ends_in_one_json_line(text, [("sparse", *flags)])


def _small_or_not_an_int(arg: str) -> bool:
    """A free-form argument spells no int past 64 in size, so that every
    family stays small, and never reads as an option such as -o."""
    try:
        return abs(int(arg)) <= 64
    except ValueError:
        return not arg.startswith("-") or re.match(r"-[\d.]", arg) is not None


_SIZE = st.integers(-3, 64).map(str)
_PROBABILITY = (st.floats(0, 1) | st.floats()).map(str)
_SEED = st.integers().map(str)
_GEN_CALLS = st.one_of(
    st.tuples(st.sampled_from(["complete", "cycle"]), st.tuples(_SIZE)),
    st.tuples(st.just("tournament"), st.tuples(_SIZE) | st.tuples(_SIZE, _SEED)),
    st.tuples(st.just("random"), st.tuples(_SIZE, _PROBABILITY, _PROBABILITY, _SEED)),
    # a part size p lists about 3 n p^2 arcs: at most 16 keeps each call short
    st.tuples(st.just("obstruction"), st.tuples(_SIZE, st.integers(-3, 16).map(str))),
    st.tuples(  # any family name and any argument list
        st.text(max_size=6).filter(_small_or_not_an_int),
        st.lists(
            (_SIZE | _PROBABILITY | st.text(max_size=6)).filter(_small_or_not_an_int),
            max_size=5,
        ),
    ),
)


@settings(max_examples=80, deadline=None)
@given(_GEN_CALLS)
def test_any_gen_arguments_end_in_one_json_line(call) -> None:
    family, args = call
    _one_json_line(["gen", family, *args])


def _partition(order: list[int], cuts: set[int]) -> list[list[int]]:
    bounds = [0, *sorted(cuts), len(order)]
    return [order[i:j] for i, j in zip(bounds, bounds[1:])]


_PARTS = st.one_of(
    st.builds(_partition, st.permutations(range(6)), st.sets(st.integers(1, 5))),
    st.lists(st.lists(st.integers(-1, 6) | st.integers(), max_size=4), max_size=5),
)


@settings(max_examples=60, deadline=None)
@given(_PARTS, st.just([]) | st.lists(st.integers(), max_size=2), st.integers(1, 4) | st.integers())
def test_any_int_parts_end_in_one_json_line(parts, extra: list[int], k: int) -> None:
    # a directed triangle 0 1 2, an arc 3 -> 4 and a lone vertex 5
    text = "n 6\n0 1\n1 2\n2 0\n3 4\n"
    if parts:
        parts[0] += extra
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "parts.json")
        with open(path, "w", encoding="ascii") as handle:
            json.dump(parts, handle)
        _ends_in_one_json_line(text, [("asr", "--parts", path, "--k", str(k))])


def test_params_peak_on_a_big_sparse_file(tmp_path) -> None:
    """The traced peak of params on 2,000 vertices and 28,000 arcs: the
    parse holds the arc list and the masks, not an arc set beside them."""
    rng = random.Random(2000)
    pairs = sorted({tuple(sorted(rng.sample(range(2000), 2))) for _ in range(26500)})[:26000]
    rng.shuffle(pairs)
    arcs = [a for u, v in pairs[:2000] for a in ((u, v), (v, u))]
    arcs += [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs[2000:]]
    path = tmp_path / "params-2000.dgf"
    path.write_text("n 2000\n" + "".join(f"{u} {v}\n" for u, v in arcs), encoding="ascii")
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["params", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out.getvalue())["arc_count"] == 28000
    assert peak <= 7 * 2**20


@pytest.mark.parametrize("command", ["params", "dicolor"])
def test_huge_vertex_count_exit_2(capsys, tmp_path, command) -> None:
    path = tmp_path / "huge.dgf"
    path.write_text("n 100000000\n", encoding="ascii")
    code, out, err = _run(capsys, [command, str(path)])
    assert code == 2 and out is None
    assert err["error"] == "InstanceTooLarge"


def test_dgf_arc_cap_exit_2(capsys, monkeypatch, tmp_path) -> None:
    c4, c3 = tmp_path / "c4.dgf", tmp_path / "c3.dgf"
    c4.write_text(emit_dgf(directed_cycle(4)), encoding="ascii")
    c3.write_text(emit_dgf(directed_cycle(3)), encoding="ascii")
    monkeypatch.setattr("dichroma.digraph.MAX_ARCS", 3)
    code, out, err = _run(capsys, ["params", str(c4)])
    assert code == 2 and out is None
    assert err["error"] == "InstanceTooLarge"
    assert "line 5" in err["message"]  # the fourth arc, after the header
    code, out, err = _run(capsys, ["params", str(c3)])
    assert code == 0 and err is None and out["arc_count"] == 3


@pytest.mark.parametrize(
    "family",
    [
        "complete 100000",
        "tournament 100000",
        "random 100000 0 0",
        "obstruction 3 100000",
        "complete 32768",
        "tournament 32768",
        "obstruction 3 10922",
    ],
)
def test_gen_huge_vertex_count_exit_2(capsys, family) -> None:
    code, out, err = _run(capsys, ["gen", *family.split()])
    assert code == 2 and out is None
    assert err["error"] == "InstanceTooLarge"


def test_unexpected_exception_exit_2(capsys, monkeypatch, triangle) -> None:
    def broken(d):
        raise RuntimeError("boom")

    monkeypatch.setattr("dichroma.cli.degree_profile", broken)
    code, out, err = _run(capsys, ["params", triangle])
    assert code == 2 and out is None
    assert err == {"error": "InternalError", "message": "RuntimeError: boom"}


def _one_line(text: str):
    assert text.endswith("\n") and text.count("\n") == 1, text
    return json.loads(text)


@pytest.fixture()
def command_files(tmp_path, triangle, k4):
    d = parse_dgf("n 4\n0 2\n2 1\n")
    asr_dgf = tmp_path / "asr.dgf"
    asr_dgf.write_text(emit_dgf(d), encoding="ascii")
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps([[0, 1], [2, 3]]), encoding="ascii")
    circ = tmp_path / "circ.dgf"
    circ.write_text(
        "n 6\n" + "".join(f"{i} {(i + j) % 6}\n" for i in range(6) for j in (1, 2)),
        encoding="ascii",
    )
    return {
        "triangle": triangle,
        "k4": k4,
        "asr": str(asr_dgf),
        "parts": str(parts),
        "circ": str(circ),
        "out": str(tmp_path / "gen.dgf"),
    }


_EVERY_COMMAND = {
    "params": "params {triangle}",
    "dicolor": "dicolor {triangle}",
    "dicolor-k": "dicolor {triangle} --k 1",
    "transversal": "transversal {k4}",
    "asr": "asr {asr} --parts {parts} --k 1",
    "sparse": "sparse {circ} --B 0 --seed 3",
    "dense": "dense {k4} --a 1/600 --eps 1/1000000",
    "check": "check {triangle}",
    "check-delmin": "check {triangle} --bound delmin",
    "hunt": "hunt --count 12 --n-max 5 --seed 4",
    "hunt-exhaustive": "hunt --mode exhaustive --n-max 4 --family digraph",
    "gen": "gen cycle 4",
    "gen-output": "gen obstruction 3 1 -o {out}",
}


@pytest.mark.parametrize("case", sorted(_EVERY_COMMAND))
def test_every_command_writes_one_line(capsys, command_files, case) -> None:
    assert main(_EVERY_COMMAND[case].format(**command_files).split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert isinstance(_one_line(captured.out), dict)


_RUNTIME = re.compile(r'"runtime": [-+0-9.eE]+')


@pytest.mark.parametrize(
    "argv",
    [
        "hunt --count 24 --n-max 6 --seed 3 --bound eps --eps 1/3",
        "hunt --mode exhaustive --n-max 5 --bound delmin",
    ],
)
def test_hunt_output_is_the_same_on_one_and_two_workers(capsys, monkeypatch, argv) -> None:
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("DICHROMA_THREADS", workers)
        assert main(argv.split()) == 0
        out = capsys.readouterr().out
        assert len(_RUNTIME.findall(out)) == len(json.loads(out)["records"]) > 8
        outputs.append(_RUNTIME.sub("", out))
    assert outputs[0] == outputs[1]


_HUNT_STREAMS = {
    "hunt --n-max 7 --count 30 --seed 8": {"n_max": 7, "count": 30, "seed": 8},
    "hunt --n-max 6 --count 24 --seed 3 --bound eps --eps 1/3": {
        "n_max": 6, "count": 24, "seed": 3, "bound": "eps", "eps": Fraction(1, 3)
    },
    "hunt --mode exhaustive --n-max 5": {"mode": "exhaustive", "n_max": 5},
    "hunt --mode exhaustive --n-max 3 --family digraph": {
        "mode": "exhaustive", "n_max": 3, "family": "digraph"
    },
    "hunt --count 0": {"count": 0},
    "hunt --n-max 9 --count 466 --seed 12345 --bound delmin": {
        "n_max": 9, "count": 466, "seed": 12345, "bound": "delmin"
    },
}


@pytest.mark.parametrize("argv", sorted(_HUNT_STREAMS))
def test_hunt_stream_writes_emit_json_of_hunt(capsys, monkeypatch, argv) -> None:
    for workers in ("1", "2"):
        monkeypatch.setenv("DICHROMA_THREADS", workers)
        code = main(argv.split())
        out = capsys.readouterr().out
        report = hunt(_HUNT_STREAMS[argv])
        assert code == (1 if report.violations else 0)
        assert _RUNTIME.sub("", out) == _RUNTIME.sub("", emit_json(report))
        if "--count 466" in argv:
            assert report.violations == ("random-n9-00465",)


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def test_hunt_peak_stays_flat_as_records_stream(monkeypatch) -> None:
    """Records are written as they are verified, so a hunt holds one record
    at a time, not all 400 and their rendering."""
    monkeypatch.setenv("DICHROMA_THREADS", "1")
    argv = ["hunt", "--n-max", "4", "--count", "400"]
    with contextlib.redirect_stdout(_Discard()):
        assert main(argv[:-1] + ["1"]) == 0  # parser and caches are built once per process
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2**19


_HUNT_ERRORS = {
    "unknown-setting": ("hunt --colour red", None),
    "bad-mode": ("hunt --mode sideways", None),
    "bad-bound": ("hunt --bound chromatic", None),
    "n-max-negative": ("hunt --n-max -1", None),
    "n-max-past-cap": ("hunt --n-max 10", None),
    "count-negative": ("hunt --count -1", None),
    "eps-zero": ("hunt --eps 0", None),
    "eps-zero-no-records": ("hunt --eps 0 --count 0", None),
    "eps-one": ("hunt --eps 1", None),
    "family-past-cap": ("hunt --mode exhaustive --n-max 6 --family digraph", None),
    "threads-word": ("hunt --count 12 --n-max 3", "zero"),
    "threads-zero": ("hunt --count 12 --n-max 3", "0"),
}


@pytest.mark.parametrize("case", sorted(_HUNT_ERRORS))
def test_hunt_errors_come_before_any_output(capsys, monkeypatch, case) -> None:
    argv, threads = _HUNT_ERRORS[case]
    if threads is not None:
        monkeypatch.setenv("DICHROMA_THREADS", threads)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_line(captured.err)["error"] == "InvalidParameter"


# the largest n_max that keeps a call short, per mode and family
_HUNT_SIZES = {("random", "tournament"): 9, ("random", "digraph"): 9, ("exhaustive", "tournament"): 6, ("exhaustive", "digraph"): 4}
_HUNT_CAPS = {"random": 9, "tournament": 8, "digraph": 5}
_CLASSES = {"tournament": [1, 1, 1, 2, 4, 12, 56], "digraph": [1, 1, 3, 16, 218]}  # classes on 0, 1, ... vertices


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_HUNT_SIZES)), st.sampled_from([None, None, "n_max", "count", "eps", "text"]), st.data())
def test_any_hunt_arguments_end_in_one_json_line(kind, broken, data) -> None:
    """Random hunts draw at most 20 instances and exhaustive ones stop at 6
    tournament or 4 digraph vertices; at most one argument is drawn out of
    range (or, for eps, as any text)."""
    mode, family = kind
    cap = _HUNT_CAPS["random" if mode == "random" else family]
    n_max = data.draw(st.integers(0, _HUNT_SIZES[kind]))
    count = data.draw(st.integers(0, 20))
    eps = str(data.draw(st.fractions(0, 1).filter(lambda e: 0 < e < 1)))
    if broken == "n_max":
        n_max = data.draw(st.integers(max_value=-1) | st.integers(min_value=cap + 1))
    elif broken == "count":
        count = data.draw(st.integers(max_value=-1))
    elif broken == "eps":
        eps = str(data.draw(st.fractions(max_value=0) | st.fractions(min_value=1)))
    elif broken == "text":
        eps = data.draw(st.text(max_size=8))
    seed = data.draw(st.integers())
    bound = data.draw(st.sampled_from(["reed", "eps", "delmin"]))
    argv = ["hunt", "--mode", mode, "--family", family, "--n-max", str(n_max), "--count", str(count)]
    argv += ["--seed", str(seed), "--bound", bound, f"--eps={eps}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert broken is not None
        assert out.getvalue() == "" and isinstance(_one_line(err.getvalue()), dict)
        return
    assert code in (0, 1) and broken in (None, "text")
    report = _one_line(out.getvalue())
    assert (code == 1) == bool(report["violations"])
    classes = _CLASSES[family][1 : n_max + 1]
    assert len(report["records"]) == (count if mode == "random" else sum(classes))


_BAD_ARGV = {
    "no-command": "",
    "unknown-subcommand": "frobnicate {triangle}",
    "missing-positional": "params",
    "missing-required-flag": "asr {asr} --k 1",
    "bad-int": "hunt --count x",
    "bad-int-after-file": "dicolor {triangle} --k two",
    "bad-choice": "check {triangle} --bound brooks",
    "bad-choice-family": "hunt --family graph",
    "unknown-flag": "hunt --bogus",
    "unknown-flag-after-file": "params {triangle} --k 2",
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGV))
def test_usage_errors_are_json(capsys, command_files, case) -> None:
    argv = _BAD_ARGV[case].format(**command_files).split()
    for _ in range(2):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = _one_line(captured.err)
        assert set(err) == {"error", "message"}
        assert err["error"] == "InvalidParameter" and err["message"]
    # the parser is kept between calls; a failed parse leaves nothing behind
    assert main(["params", command_files["triangle"]]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and _one_line(captured.out)["n"] == 3


def test_help_still_exits_0(capsys) -> None:
    with pytest.raises(SystemExit) as stop:
        main(["hunt", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dichroma hunt")
