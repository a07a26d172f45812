"""Rebuild refs.json, the committed reference answers of the solve set.

    python3 perfbench/make_refs.py

Each dichromatic number and witness colouring comes from the benchmark's
own exact solver in oracle.py, never from dichroma.
"""

from __future__ import annotations

import json

import oracle
from workloads import LIST_RECIPES, REFS, SMOKE_SET, SOLVE_SET, recipe_arcs


def main() -> None:
    solve = {}
    for recipe, kind, n in SOLVE_SET + LIST_RECIPES + SMOKE_SET:
        arcs = recipe_arcs(recipe, kind, n)
        chi, colouring = oracle.chi_exact(n, arcs)
        solve[recipe] = {"n": n, "arcs": len(arcs), "chi": chi, "colouring": [colouring[v] for v in range(n)]}
        print(recipe, n, chi, flush=True)
    REFS.write_text(json.dumps({"solve": solve}, indent=1, sort_keys=True) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
