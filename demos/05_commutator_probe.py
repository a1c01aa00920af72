"""
The commutator [a, D^{1/2}] and a sharpness experiment
======================================================

The key harmonic-analysis input behind the solver is that the commutator
[a, D^{1/2}] u = a D^{1/2}u - D^{1/2}(a u) is bounded on L^2 whenever
D^{1/2}a has bounded mean oscillation -- and that mere 1/2-Holder
continuity of a is not enough.  Both directions are observable
numerically with the operator norm, converged by Lanczos iteration:

  * for a(t) = |t - t0|^{1/2} the norms settle under refinement;
  * for a rough Holder sample below exponent 1/2 they keep growing.

Finally, the factorization identity that the solver's analysis rests on
is checked directly: the residual is at the level of the Krylov solver
tolerance, i.e. the identity is exact up to roundoff.
"""
import numpy as np

from maxreg import SpaceMesh, TimeGrid, generate_family
from maxreg.coefficients import mollify
from maxreg.commutators import commutator_norm_estimate, factorization_check
from maxreg.norms import SpaceTimeField

mesh = SpaceMesh(0.0, 1.0, 8)

print("operator norms under grid refinement (alpha = 1/2)")
print("-" * 60)
for label, kind, kw in (("|t - t0|^{1/2}", "sqrt_product", {}),
                        ("0.45-Holder sample", "holder", {"alpha": 0.45})):
    estimates = []
    for n in (256, 512, 1024, 2048):
        grid = TimeGrid(-1.0, 1.0, n)
        a = generate_family(kind, grid, mesh, seed=7, **kw).column(0)
        probe = commutator_norm_estimate(a, 0.5)
        estimates.append(probe.estimate)
    growth = [b / a for a, b in zip(estimates, estimates[1:])]
    print(f"  {label:20s} estimates "
          f"{['%.4f' % e for e in estimates]}")
    print(f"  {'':20s} growth/doubling {['%.3f' % g for g in growth]}")

print()
print("the first multiplier is flat (D^{1/2}a is BMO), the second grows")
print("steadily: boundedness genuinely fails below Holder exponent 1/2.")

print()
print("factorization identity for the line solve")
print("-" * 60)
solver_mesh = SpaceMesh(0.0, 1.0, 32)
grid = TimeGrid(-1.0, 3.0, 512)
fvals = (np.cos(2 * np.pi * grid.points / grid.period)[:, None]
         * np.sin(np.pi * solver_mesh.nodes[solver_mesh.free_mask])[None, :])
f = SpaceTimeField(grid, solver_mesh, fvals)
for label, A in (
    ("constant", generate_family("constant", grid, solver_mesh)),
    ("lipschitz", generate_family("lipschitz", grid, solver_mesh, seed=1)),
    ("mollified sqrt", mollify(generate_family("sqrt_product", grid,
                                               solver_mesh, seed=1), 8)),
):
    r = factorization_check(A, f)
    print(f"  {label:15s} relative residual {r:.2e}")
