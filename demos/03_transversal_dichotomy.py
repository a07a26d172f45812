"""
Hitting every maximum biclique, or naming the obstruction
=========================================================

"""

# Dropping the biclique number of a digraph by one means finding an
# acyclic set of vertices meeting every maximum biclique.  When the
# biclique number is large next to the maximum degree this is always
# possible, with exactly one family of exceptions: the bidirected
# product of an odd cycle with a complete graph.
from dichroma.asr import biclique_transversal
from dichroma.digraph import Digraph, complete_digraph, obstruction, symmetric_closure
from dichroma.params import biclique_report, degree_profile

# In the bidirected K4 every 3-subset is close to maximum; a single
# vertex already meets all maximum bicliques and is trivially acyclic.
k4 = complete_digraph(4)
out = biclique_transversal(k4, degree_profile(k4).delta_max)
print("bidirected K4 hitting set:", sorted(out.hitting_set))

new_omega = biclique_report(
    k4.induced(frozenset(range(4)) - out.hitting_set)[0]
).omega_bi
print("biclique number dropped from 4 to", new_omega)

# The product of the 5-cycle with K2: ten vertices, biclique number 4,
# maximum degree 5.  No acyclic transversal exists, and the solver
# certifies that by returning the shape with an explicit isomorphism.
shape = obstruction(5, 2)
out = biclique_transversal(shape, degree_profile(shape).delta_max)
print("shape detected:", out.obstruction)
print("isomorphism onto the product:", out.isomorphism)

# The even product is not an obstruction: the 4-cycle alternates, so
# picking every other bag gives an acyclic transversal.
even = obstruction(4, 1)
out = biclique_transversal(even, degree_profile(even).delta_max)
print("even cycle product hitting set:", sorted(out.hitting_set))

# Two triangles joined through a path: every answer is checked before it is
# returned, so the set is acyclic and really drops the biclique number.
g = symmetric_closure(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
out = biclique_transversal(g, degree_profile(g).delta_max)
rest = g.induced(frozenset(range(6)) - out.hitting_set)[0]
print("two triangles joined by a path:")
print("  hitting set:", sorted(out.hitting_set))
print("  biclique number dropped from", biclique_report(g).omega_bi, "to", biclique_report(rest).omega_bi)
