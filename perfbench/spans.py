"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of each dichroma module, and
``Digraph.__init__``, wherever the function is bound in a ``dichroma.*``
namespace, so calls between modules and recursive calls inside a module
both pass through a wrapper.  The source is not edited; ``uninstall`` puts
the original objects back.  Each wrapper records a span on an in-memory
stack: a layer's self time is its span's duration minus the part covered by
child spans, and an exception is counted once per layer it leaves.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "dgf",
    "digraph",
    "params",
    "solver",
    "canon",
    "asr",
    "sparse",
    "dense",
    "matching",
    "harness",
    "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.self_s: Counter = Counter()  # keys "layer" and "layer.function"
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()  # keys "layer" and "layer:ExceptionType"
        self.sizes: Counter = Counter()  # bytes and vertices seen at boundaries
        self._stack: list[list] = []  # [layer, time covered by children]
        self._swapped: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn, size=None):
        key = f"{layer}.{name}"
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if len(stack) < 2 or stack[-2][0] != layer:
                    self.errors[layer] += 1
                    self.errors[f"{layer}:{type(exc).__name__}"] += 1
                raise
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += span
                own = span - frame[1]
                self.self_s[layer] += own
                self.self_s[key] += own
                self.calls[layer] += 1
                self.calls[key] += 1
            if size is not None:
                size(self.sizes, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every public function of every layer module."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"dichroma.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(layer, name, obj, _SIZES.get(f"{layer}.{name}"))
        for modname, module in list(sys.modules.items()):
            if modname != "dichroma" and not modname.startswith("dichroma."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._swapped.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        digraph = sys.modules["dichroma.digraph"].Digraph
        init = digraph.__init__
        self._swapped.append((digraph, "__init__", init))
        digraph.__init__ = self._wrap("digraph", "Digraph.__init__", init, _SIZES["digraph.Digraph.__init__"])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._swapped):
            setattr(owner, attr, original)
        self._swapped.clear()

    def snapshot(self) -> dict[str, Counter]:
        return {
            "self_s": Counter(self.self_s),
            "calls": Counter(self.calls),
            "errors": Counter(self.errors),
            "sizes": Counter(self.sizes),
        }


def _vertices_built(sizes, args, kwargs, result):
    sizes["digraph.vertices_built"] += args[1] if len(args) > 1 else kwargs["n"]


def _parsed(sizes, args, kwargs, result):
    sizes["dgf.bytes_parsed"] += len(args[0] if args else kwargs["text"])


def _emitted(sizes, args, kwargs, result):
    sizes["dgf.bytes_emitted"] += len(result)


def _regular(sizes, args, kwargs, result):
    sizes["sparse.regular_vertices"] += result.n


def _partial(sizes, args, kwargs, result):
    sizes["sparse.partial_successes"] += result is not None


_SIZES = {
    "digraph.Digraph.__init__": _vertices_built,
    "dgf.parse_dgf": _parsed,
    "dgf.emit_json": _emitted,
    "dgf.emit_dgf": _emitted,
    "sparse.diregularize": _regular,
    "sparse.sample_partial": _partial,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(unit: dict[str, Counter]) -> dict[str, float]:
    """Every per-layer metric from one unit of traced work."""
    s, c, e, z = unit["self_s"], unit["calls"], unit["errors"], unit["sizes"]
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = s[layer]
        values[f"{layer}.calls"] = c[layer]
        values[f"{layer}.errors"] = e[layer]
    values.update(
        {
            "dgf.parse_s": s["dgf.parse_dgf"],
            "dgf.bytes_parsed": z["dgf.bytes_parsed"],
            "dgf.emit_s": s["dgf.emit_json"] + s["dgf.emit_dgf"],
            "dgf.bytes_emitted": z["dgf.bytes_emitted"],
            "digraph.build_s": s["digraph.Digraph.__init__"],
            "digraph.builds": c["digraph.Digraph.__init__"],
            "digraph.vertices_built": z["digraph.vertices_built"],
        }
    )
    for fn in ("degree_profile", "density_report", "biclique_report", "directed_clique_number"):
        values[f"params.{fn}_s"] = s[f"params.{fn}"]
        values[f"params.{fn}.calls"] = c[f"params.{fn}"]
    for fn in ("dichromatic_number", "k_dicolourable", "list_dicolourable", "greedy_complete"):
        values[f"solver.{fn}_s"] = s[f"solver.{fn}"]
        values[f"solver.{fn}.calls"] = c[f"solver.{fn}"]
    values.update(
        {
            "solver.k_tries_per_chi": _ratio(
                c["solver.k_dicolourable"], c["solver.dichromatic_number"]
            ),
            "canon.canonical_labelling_s": s["canon.canonical_labelling"],
            "canon.canonical_labelling.calls": c["canon.canonical_labelling"],
            "canon.find_isomorphism.calls": c["canon.find_isomorphism"],
            "asr.biclique_transversal_s": s["asr.biclique_transversal"],
            "asr.biclique_transversal.calls": c["asr.biclique_transversal"],
            "asr.brute_fallback.calls": c["asr.brute_transversal_oracle"],
            "sparse.diregularize_s": s["sparse.diregularize"],
            "sparse.regular_vertices": z["sparse.regular_vertices"],
            "sparse.trial.calls": c["sparse.trial"],
            "sparse.trials_per_success": _ratio(
                c["sparse.trial"], z["sparse.partial_successes"]
            ),
            "matching.maximum_matching_s": s["matching.maximum_matching"],
            "harness.instances": c["harness.verify_instance"] + c["harness.verify_delmin"],
        }
    )
    return values


def error_types(unit: dict[str, Counter]) -> dict[str, float]:
    return {k: v for k, v in sorted(unit["errors"].items()) if ":" in k}


# Which end-to-end figure each layer metric should move, as
# "workload:figure".  Dotted figures are the per-command figures run.py
# prints for each workload; batch_s, peak_rss_mb and setup_s are also the
# bounded metrics of BENCHMARK.json.
_TARGETS = {
    "dgf.parse_s": ["construct:construct.params_s", "construct:batch_s"],
    "dgf.bytes_parsed": ["construct:construct.params_s"],
    "dgf.emit_s": ["hunt:hunt.instances_per_s", "hunt:batch_s"],
    "dgf.bytes_emitted": ["hunt:hunt.instances_per_s"],
    "digraph.build_s": ["construct:construct.sparse_s", "construct:peak_rss_mb", "hunt:hunt.instances_per_s"],
    "digraph.builds": ["construct:construct.sparse_s", "hunt:hunt.instances_per_s"],
    "digraph.vertices_built": ["construct:construct.sparse_s", "construct:peak_rss_mb"],
    "solver.k_tries_per_chi": ["solve:solve.batch_s", "solve:solve.latency_p50_s", "solve:solve.latency_tail_s"],
    "canon.canonical_labelling_s": ["construct:construct.transversal_s", "hunt:hunt.exhaustive_s"],
    "canon.canonical_labelling.calls": ["construct:construct.transversal_s", "hunt:hunt.exhaustive_s"],
    "canon.find_isomorphism.calls": ["construct:construct.transversal_s"],
    "asr.biclique_transversal_s": ["construct:construct.transversal_s"],
    "asr.biclique_transversal.calls": ["construct:construct.transversal_s"],
    "asr.brute_fallback.calls": ["construct:construct.transversal_s"],
    "sparse.diregularize_s": ["construct:construct.sparse_s"],
    "sparse.regular_vertices": ["construct:construct.sparse_s", "construct:peak_rss_mb"],
    "sparse.trial.calls": ["construct:construct.sparse_s"],
    "sparse.trials_per_success": ["construct:construct.sparse_s"],
    "dense.self_s": ["construct:construct.dense_s"],
    "matching.maximum_matching_s": ["construct:construct.dense_s"],
    "harness.self_s": ["hunt:hunt.instances_per_s", "hunt:hunt.exhaustive_s", "hunt:hunt.check_delmin_p50_s"],
    "harness.instances": ["hunt:hunt.instances_per_s"],
    "cli.self_s": ["hunt:batch_s", "solve:batch_s", "construct:batch_s"],
    "ops_failed_share": ["solve:ops_failed_share", "construct:ops_failed_share"],
    "trace.overhead_s": [],
    "trace.overhead_share": [],
}
for _fn in ("degree_profile", "density_report", "biclique_report", "directed_clique_number"):
    for _suffix in ("_s", ".calls"):
        _TARGETS[f"params.{_fn}{_suffix}"] = ["hunt:hunt.instances_per_s", "construct:construct.params_s"]
for _fn in ("dichromatic_number", "k_dicolourable", "list_dicolourable", "greedy_complete"):
    for _suffix in ("_s", ".calls"):
        _TARGETS[f"solver.{_fn}{_suffix}"] = ["solve:solve.batch_s", "solve:solve.latency_p50_s", "solve:solve.latency_tail_s"]
for _layer in LAYERS:
    _TARGETS.setdefault(f"{_layer}.self_s", [f"{w}:batch_s" for w in ("hunt", "solve", "construct")])
    _TARGETS.setdefault(f"{_layer}.calls", [f"{w}:batch_s" for w in ("hunt", "solve", "construct")])
    _TARGETS[f"{_layer}.errors"] = ["solve:ops_failed_share", "construct:ops_failed_share"]
TARGETS = _TARGETS
