"""
Random colouring of sparse digraphs, with accounting
====================================================

"""

# When every neighbourhood misses many digons the digraph can be coloured
# with fewer than Delta + 1 colours by a random procedure: colour every
# vertex uniformly from floor(Delta / 2) colours, then uncolour each
# vertex that agrees with both an in-neighbour and an out-neighbour.
from dichroma.digraph import Digraph
from dichroma.params import degree_profile, density_report
from dichroma.solver import Dicolouring, is_valid
from dichroma.sparse import monte_carlo, sample_partial, sparse_dicolour, trial


def circulant(n: int, jumps) -> Digraph:
    return Digraph(n, [(u, (u + j) % n) for u in range(n) for j in jumps])


d = circulant(24, (1, 2, 3, 5, 8, 11))
profile = degree_profile(d)
report = density_report(d)
print("Delta =", profile.delta_max, " B =", min(report.bv))

# One trial returns the full accounting.  Per vertex, Y_v counts colour
# classes of the sparser neighbourhood side holding a digon-free pair,
# Z_v those whose digon-free pairs all lost a member to uncolouring, and
# X_v = Y_v - Z_v survives as the usable repeat count.
st = trial(d, seed=7)
kept = st.partial_assignment()
print("palette size k =", st.k)
print("vertices retained:", len(kept), "of", d.n)
print("retained part is a valid partial dicolouring:", is_valid(d, Dicolouring(st.k, kept)))
print("X = Y - Z everywhere:", all(st.xv[v] == st.yv[v] - st.zv[v] for v in range(d.n)))

# Averaging many trials estimates the expectations; the threshold column
# compares the repeat supply against log(Delta) * sqrt(E[X]).
est = monte_carlo(d, v=0, trials=4000, seed=1)
print(f"E[X_0] ~ {est.mean_x:.3f}  E[Y_0] ~ {est.mean_y:.3f}  E[Z_0] ~ {est.mean_z:.3f}")

# sample_partial retries trials until every vertex keeps at least ell
# same-coloured digon-free pairs on its sparser side.
partial = sample_partial(d, ell=0, max_tries=16, seed=3)
print("sampled partial colouring found:", partial is not None)

# The end-to-end routine: sample the digraph itself, then complete
# greedily.  The palette never exceeds Delta + 1 - floor(B / (4 e^7 Delta)).
col = sparse_dicolour(d, b=min(report.bv), seed=5)
print("sparse dicolouring uses", len(set(col.assignment.values())), "colours")
print("valid:", is_valid(d, col, require_total=True))
