"""The rescaled kernel collapses onto a product of ground states.

e^{t E0} p_t(x,y) -> phi0(x) phi0(y) at rate e^{-(E1-E0) t}, and the
profile Phi extracted from the kernel diagonal converges to the Perron
eigenvector phi0.  A killing term on one end of the path makes E0 positive
and bends Phi away from the absorbing vertex.
"""
import numpy as np

from heatlab import TimeGrid, assemble, build_graph, eigendecompose, \
    groundstate_limit


def main():
    n = 8
    c = np.zeros(n)
    c[0] = 2.0  # absorption at the left end
    g = build_graph([str(i) for i in range(n)],
                    [(str(i), str(i + 1), 1.0) for i in range(n - 1)], c=c)
    op = assemble(g)
    sd = eigendecompose(op)
    print(f"E0 = {sd.E0:.8f} (positive: mass leaks out at vertex 0)")

    grid = TimeGrid.geometric(1.0, 1.5, 14)
    profile = groundstate_limit(op, grid)
    print(f"\n{'t':>10}  {'max |e^(tE0) p_t - phi0 phi0|':>30}")
    for t, r in list(zip(profile.times, profile.residual_history))[::3]:
        print(f"  {t:10.2f}  {r:30.3e}")

    print("\nPhi vs Perron eigenvector:")
    for x, a, b in zip(g.vertices, profile.Phi, sd.vectors[:, 0]):
        print(f"  {x}: {a:.10f}  {b:.10f}")
    drift = np.max(np.abs(profile.Phi - sd.vectors[:, 0]))
    print(f"max deviation: {drift:.2e}")


if __name__ == "__main__":
    main()
