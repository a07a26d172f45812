"""
Dense vertices, the reduction, and hunting for counterexamples
==============================================================

"""

# A vertex is dense when one side of its neighbourhood misses only a small
# fraction of its possible arcs: max(m+, m-) > (1 - a) * Delta * (Delta-1).
# Dense vertices admit a local recolouring argument; everything else is
# handled by the sparse machinery, and the harness checks the bounds on
# whole instance streams.
from fractions import Fraction

from dichroma.dense import dense_colour, find_dense_vertex, partition_N123
from dichroma.digraph import Digraph, complete_digraph
from dichroma.harness import delmin_reduction, hunt, main_constants, verify_instance
from dichroma.params import biclique_report, degree_profile, directed_clique_number
from dichroma.solver import Dicolouring, dichromatic_number

# The bidirected K4 is as dense as it gets: every neighbourhood is a
# complete digraph, so any a works.
k4 = complete_digraph(4)
v, side = find_dense_vertex(k4, Fraction(1, 4))
print("dense vertex:", v, "on the", side, "side")

# Its neighbourhood, padded to exactly Delta + 1 vertices, splits into N1
# (many out-neighbours beyond N), N2 (many towards Nbar or N1), and the
# core N3 that is recoloured from lists.
part = partition_N123(k4, v, side, Fraction(1, 4))
print("N1:", sorted(part.n1), " N2:", sorted(part.n2), " N3:", sorted(part.n3))

# With the whole digraph inside N3 the base colouring is empty and the
# list recolouring reproduces the chromatic number exactly.
col = dense_colour(k4, v, side, Fraction(1, 4), k=4, base_colouring=Dicolouring(4, {}))
print("merged colours used:", len(set(col.assignment.values())),
      "==", dichromatic_number(k4))

# The min-degree reduction rebuilds a digraph so the maximum out-degree
# drops to Delta_min while the dichromatic number can only grow; the
# biclique number stays below the directed clique number.
d = Digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (1, 4)])
h = delmin_reduction(d)
print("Delta+ after reduction:", degree_profile(h).delta_plus,
      "<= Delta_min before:", degree_profile(d).delta_min)
print("chi grew or held:", dichromatic_number(h), ">=", dichromatic_number(d))
print("biclique vs directed clique:", biclique_report(h).omega_bi,
      "<=", directed_clique_number(d))

# verify_instance evaluates every bound on one digraph and records the
# exact numbers; the pass flags are recomputed from them on access.
rec = verify_instance(d, eps=Fraction(1, 2))
print("chi =", rec.chi, " reed bound =", rec.reed_bound_value, " holds:", rec.holds)

# The hunt streams instances.  Exhaustive mode walks isomorphism classes
# of a family; random mode draws seeded digraphs.  Either way each record
# carries the exact parameter values, so a violation would be fully
# reproducible from its id and seed.
report = hunt({"mode": "exhaustive", "family": "tournament", "n_max": 4, "eps": Fraction(1, 2)})
print("tournaments checked:", len(report.records),
      " violations:", len(report.violations))

report = hunt({"mode": "random", "n_max": 6, "count": 40, "seed": 11, "bound": "reed"})
print("random digraphs checked:", len(report.records),
      " violations:", len(report.violations))

# The headline constants: the density split point a, the degree floor
# where the dense argument engages, and the epsilon the two halves of the
# argument support together.
c = main_constants()
print("a =", c.a, " Delta_1 =", c.delta1, " eps ~", float(c.eps))
