"""Seeded end-to-end and per-layer benchmark of the dichroma command line.

    python3 perfbench/run.py --workload hunt|solve|construct --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

A workload run imports dichroma from ``src/`` of the checkout, writes its
seeded inputs under ``.perfbench_work/``, and drives ``dichroma.cli.main``
in-process as a closed loop with one client: each command starts when the
previous one has returned.  Once-per-run commands go first, then passes
over the workload's commands repeat until ``--seconds`` are used up.  Every
answer is checked afterwards by the benchmark's own code (oracle.py).

With ``--trace 0`` the last line of stdout carries the bounded end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` untraced and traced passes
alternate and it carries the per-layer metrics of one unit of work (every
once-per-run command plus one pass), with the tracing overhead.  Lines
before the last one record the environment, every end-to-end figure of the
workload (latency median and tail with its sample count, failure share,
per-command figures), the median time of each command, the exceptions
raised, and any failed check.

Known-defect probes (see workloads.py) are never timed: batch_s sums the
commands that succeed, so a fix lowers ops_failed_share without reading as
a slowdown.  The top-level ``failed`` counts wrong answers and unexpected
exceptions; the probes' expected exceptions are reported apart.

``--report`` runs all three workloads, untraced and traced, in fresh
processes and prints every figure by name with its unit and direction.
``--smoke`` runs each command kind once at small size and shows that the
checks reject a corrupted colouring, a wrong chi and a wrong isomorphism.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 11
TAIL_BEYOND = 10

os.environ["DICHROMA_THREADS"] = "1"

import spans  # noqa: E402
import workloads  # noqa: E402


class SetupError(Exception):
    pass


def fresh_import() -> None:
    """Import dichroma.cli from the checkout's src/, dropping any copy
    already imported, and refuse any other installation."""
    if not (SRC / "dichroma" / "cli.py").is_file():
        raise SetupError(f"no dichroma sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "dichroma" or m.startswith("dichroma.")]:
        del sys.modules[name]
    import dichroma.cli

    if Path(dichroma.cli.__file__).resolve().parent != SRC / "dichroma":
        raise SetupError(f"dichroma imported from {dichroma.cli.__file__}, not {SRC}")


def setup(name: str, seed: int, smoke: bool, tag: str):
    """Import and generate SETUPS times; keep the last; time each."""
    times = []
    for i in range(SETUPS):
        target = WORK / f"{name}-{tag}-{os.getpid()}-{i}"
        gc.collect()
        start = time.perf_counter()
        fresh_import()
        files = workloads.Files(target)
        workload = workloads.WORKLOADS[name](seed, files, smoke)
        times.append(time.perf_counter() - start)
        if i < SETUPS - 1:
            shutil.rmtree(target)
    workload.info["input_bytes"] = files.bytes
    return workload, statistics.median(times), target


# verification records carry their wall-clock runtime, which differs from one
# execution to the next; answers are compared without it
_RUNTIME = re.compile(r'"runtime": [-+0-9.eE]+')


def execute(op):
    """Run one command in-process; return (exit code, stdout, exception type, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["dichroma.cli"].main
    raised = None
    code = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the op fails; the run goes on
            raised = type(exc).__name__
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), raised, elapsed


class Runner:
    """Executes ops, keeps one copy of each distinct answer for checking,
    and records every execution."""

    def __init__(self) -> None:
        self.answers: dict[tuple[str, str], tuple] = {}
        self.samples: list[dict] = []

    def run(self, op, pass_index: int, traced: bool) -> None:
        code, stdout, raised, elapsed = execute(op)
        digest = None
        if raised is None:
            digest = hashlib.sha256(f"{code}\n{_RUNTIME.sub('', stdout)}".encode()).hexdigest()
            self.answers.setdefault((op.id, digest), (op, code, stdout))
        sample = {"op": op, "pass": pass_index, "traced": traced, "seconds": elapsed, "raised": raised, "digest": digest}
        self.samples.append(sample)

    def verdicts(self) -> dict:
        verdicts = {}
        for key, (op, code, stdout) in self.answers.items():
            try:
                verdicts[key] = op.check(code, stdout)
            except Exception as exc:  # a malformed answer fails its check
                verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
        return verdicts


def status(sample: dict, verdicts: dict) -> str:
    op = sample["op"]
    if sample["raised"] is not None:
        return "xfail" if sample["raised"] == op.defect else "failed"
    return "failed" if verdicts[(op.id, sample["digest"])] else "ok"


def measure(workload, seconds: float, trace: bool, tracer=None):
    """The closed loop: once-per-run ops, then passes until time is up."""
    runner = Runner()
    once = [op for op in workload.ops if op.once]
    repeated = [op for op in workload.ops if not op.once]
    pass_times: list[tuple[bool, float]] = []
    start = time.perf_counter()
    if trace:
        tracer.install()
    for op in once:
        runner.run(op, -1, trace)
    if trace:
        tracer.uninstall()
    once_unit = tracer.snapshot() if trace else None
    index = 0
    while True:
        traced = trace and index % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        for op in repeated:
            runner.run(op, index, traced)
        pass_times.append((traced, time.perf_counter() - t0))
        if traced:
            tracer.uninstall()
        index += 1
        used = time.perf_counter() - start
        estimate = statistics.median(t for _, t in pass_times)
        if index >= (2 if trace else 1) and used + estimate / 2 > seconds:
            break
    return runner, pass_times, once_unit, index


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end(timed: list[dict], setup_s: float, rss_mb: float) -> dict:
    """The bounded metrics of BENCHMARK.json, as (value, unit)."""
    passes = sorted({s["pass"] for s in timed if s["pass"] >= 0})
    batch = [sum(s["seconds"] for s in timed if s["pass"] == p) for p in passes]
    return {"batch_s": (_median(batch), "s"), "peak_rss_mb": (rss_mb, "MB"), "setup_s": (setup_s, "s")}


def workload_figures(workload, timed: list[dict], e2e: dict, failed_share: float) -> dict:
    """Every end-to-end figure of the workload, as (value, unit, better): the
    bounded metrics, latency median and tail over all timed commands, the
    failure share, and the per-command figures named after the workload."""

    def per_pass(kind):
        by_pass: dict[int, list[float]] = {}
        for s in timed:
            if s["op"].kind == kind:
                by_pass.setdefault(s["pass"], []).append(s["seconds"])
        return by_pass.values()

    def kind_median(kind):
        """Median over passes of the mean latency of the kind's commands."""
        return _median(statistics.fmean(v) for v in per_pass(kind))

    latencies = [s["seconds"] for s in timed]
    tail_value, tail_pct, tail_n = tail(latencies) if latencies else (0.0, 0.0, 0)
    better = {m["name"]: m["better"] for m in _benchmark()["end_to_end"]}
    figures = {key: (value, unit, better[key]) for key, (value, unit) in e2e.items()}
    figures.update(
        {
            "latency_p50_s": (_median(latencies), "s", "lower"),
            "latency_tail_s": (tail_value, "s", "lower"),
            "latency_tail_percentile": (tail_pct, "%", "none"),
            "latency_samples": (tail_n, "count", "none"),
            "ops_failed_share": (failed_share, "1", "lower"),
        }
    )
    if workload.name == "hunt":
        hunt_s = _median((sum(v) for v in per_pass("hunt.random")), 1.0)
        figures.update(
            {
                "hunt.instances_per_s": (workload.info["random_instances_per_pass"] / hunt_s, "1/s", "higher"),
                "hunt.exhaustive_s": (kind_median("hunt.exhaustive"), "s", "lower"),
                "hunt.check_delmin_p50_s": (
                    _median(s["seconds"] for s in timed if s["op"].kind == "hunt.check_delmin"), "s", "lower"
                ),
            }
        )
    elif workload.name == "solve":
        for key in ("batch_s", "latency_p50_s", "latency_tail_s"):
            figures[f"solve.{key}"] = figures[key]
    else:
        for kind in ("params", "transversal", "sparse", "dense"):
            figures[f"construct.{kind}_s"] = (kind_median(f"construct.{kind}"), "s", "lower")
    return figures


def environment(seed: int, workload) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "DICHROMA_THREADS": os.environ.get("DICHROMA_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
        "workload": workload.name,
        "inputs": workload.info,
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown (not a git work tree)"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload, setup_s, target = setup(name, seed, smoke=False, tag="run")
    try:
        _warm_up(name, seed)
        tracer = spans.Tracer() if trace else None
        runner, pass_times, once_unit, passes = measure(workload, seconds, trace, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_start = time.perf_counter()
        verdicts = runner.verdicts()
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(target, ignore_errors=True)
    statuses = [status(s, verdicts) for s in runner.samples]
    failed = statuses.count("failed")
    xfail = statuses.count("xfail")
    failed_share = (failed + xfail) / len(statuses)
    # known-defect probes are never timed, so fixing one lowers the failure
    # share without reading as a slowdown; a traced run times traced passes
    timed = [
        s for s, st in zip(runner.samples, statuses)
        if st == "ok" and s["op"].defect is None and (s["traced"] or not trace)
    ]
    e2e = end_to_end(timed, setup_s, rss_mb)
    figures = workload_figures(workload, timed, e2e, failed_share)
    env = environment(seed, workload)
    env.update({"passes": passes, "check_s": check_s, "known_defect_failures": xfail})
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"workload_metrics": {k: {"value": v, "unit": u, "better": b} for k, (v, u, b) in figures.items()}}, sort_keys=True))
    op_medians: dict[str, list[float]] = {}
    for s in runner.samples:
        op_medians.setdefault(s["op"].id, []).append(s["seconds"])
    print(json.dumps({"op_median_s": {k: statistics.median(v) for k, v in sorted(op_medians.items())}}))
    for (op_id, _), problem in sorted(verdicts.items()):
        if problem:
            print(json.dumps({"check_failed": op_id, "problem": problem}))
    defects = sorted({(s["op"].id, s["raised"]) for s in runner.samples if s["raised"]})
    for op_id, raised in defects:
        print(json.dumps({"raised": op_id, "exception": raised}))
    if trace:
        metrics = _layer_metrics(tracer, once_unit, pass_times, failed_share)
        print(json.dumps({"error_types": spans.error_types(tracer.snapshot())}, sort_keys=True))
        print(json.dumps({"layer_targets": spans.TARGETS}, sort_keys=True))
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    return {
        "correct": failed == 0,
        "attempted": len(runner.samples),
        "failed": failed,
        "metrics": metrics,
    }


def _layer_metrics(tracer, once_unit, pass_times, failed_share: float) -> dict:
    final = tracer.snapshot()
    traced = [t for was_traced, t in pass_times if was_traced]
    plain = [t for was_traced, t in pass_times if not was_traced]
    unit = {}
    for key, counter in final.items():
        merged = type(counter)(once_unit[key])
        for name, value in counter.items():
            merged[name] += (value - once_unit[key][name]) / len(traced)
        unit[key] = merged
    values = spans.layer_values(unit)
    overhead = statistics.median(traced) - statistics.median(plain)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / statistics.median(plain)
    values["ops_failed_share"] = failed_share
    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    missing = set(units) ^ set(values)
    if missing:
        raise SetupError(f"per-layer metrics out of step with BENCHMARK.json: {sorted(missing)}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _warm_up(name: str, seed: int) -> None:
    """Run each command kind once at small size so lazy imports and caches
    are settled before timing."""
    target = WORK / f"{name}-warm-{os.getpid()}"
    try:
        for op in workloads.WORKLOADS[name](seed, workloads.Files(target), True).ops:
            execute(op)
    finally:
        shutil.rmtree(target, ignore_errors=True)


# -- smoke mode -----------------------------------------------------------------


def smoke() -> int:
    problems = []
    outputs = {}
    for name in workloads.WORKLOADS:
        workload, _, target = setup(name, 0, smoke=True, tag="smoke")
        try:
            for op in workload.ops:
                code, stdout, raised, elapsed = execute(op)
                verdict = f"raised {raised}" if raised else op.check(code, stdout)
                print(f"{name:9s} {op.id:22s} {elapsed:8.3f}s {'ok' if verdict is None else 'FAIL: ' + verdict}")
                if verdict:
                    problems.append(op.id)
                outputs[op.id] = (op, code, stdout)
        finally:
            shutil.rmtree(target, ignore_errors=True)
    for label, op_id, corrupt in _MUTATIONS:
        op, code, stdout = outputs[op_id]
        bad = json.loads(stdout)
        corrupt(bad)
        verdict = op.check(code, json.dumps(bad))
        print(f"mutation  {label:32s} {'flagged: ' + verdict if verdict else 'NOT FLAGGED'}")
        if not verdict:
            problems.append(label)
    print(json.dumps({"smoke_ok": not problems, "problems": problems}))
    return 0 if not problems else 1


def _one_colour(out):
    out["colouring"]["assignment"] = {v: 0 for v in out["colouring"]["assignment"]}


def _chi_plus_one(out):
    out["dichromatic_number"] += 1


def _swap_images(out):
    iso = out["isomorphism"]
    # images 0 and 4 lie in parts 0 and 2 of the product, which are not
    # adjacent, so exchanging their preimages breaks the arc map
    a = next(v for v, img in iso.items() if img == 0)
    b = next(v for v, img in iso.items() if img == 4)
    iso[a], iso[b] = iso[b], iso[a]


def _hunt_chi(out):
    out["records"][0]["chi"] += 1


_MUTATIONS = [
    ("corrupted colouring", "dicolor-T12-0", _one_colour),
    ("wrong chi", "dicolor-T12-0", _chi_plus_one),
    ("wrong isomorphism", "transversal-5-2", _swap_images),
    ("wrong chi in a hunt record", "hunt-0", _hunt_chi),
]


# -- report mode ----------------------------------------------------------------


def report(seed: int, seconds: int) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    rows = {}
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=ROOT)
            lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = lines[-1]
            figures = next(x["workload_metrics"] for x in lines if "workload_metrics" in x)
            rows[(name, trace)] = (result, figures, lines)
            ok &= result["correct"]
    for name in workloads.WORKLOADS:
        if (name, 0) not in rows:
            continue
        result, figures, lines = rows[(name, 0)]
        env = next(x["env"] for x in lines if "env" in x)
        print(f"\n== {name}  (seed {seed}, {env['passes']} passes, {result['attempted']} ops, "
              f"{result['failed']} failed checks, {env['known_defect_failures']} known-defect failures)")
        traced_figs = rows.get((name, 1), (None, {}, None))[1]
        print(f"   {'metric':32s} {'value':>14s} {'unit':6s} {'better':7s} {'traced - untraced':>18s}")
        for key, m in figures.items():
            delta = traced_figs.get(key, {}).get("value")
            extra = f"{delta - m['value']:18.6g}" if delta is not None else ""
            print(f"   {key:32s} {m['value']:14.6g} {m['unit']:6s} {m['better']:7s} {extra}")
        if (name, 1) in rows:
            layer = rows[(name, 1)][0]["metrics"]
            print("   per layer (one unit: once-per-run commands plus one pass):")
            for key, m in layer.items():
                if m["value"]:
                    targets = ", ".join(spans.TARGETS.get(key, []))
                    print(f"     {key:36s} {m['value']:14.6g} {m['unit']:6s} -> {targets}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(_benchmark()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.report:
            return report(args.seed, int(args.seconds))
        if not args.workload:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
