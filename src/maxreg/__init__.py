"""maxreg: a desk-scale numerical laboratory for maximal regularity of
non-autonomous divergence-form parabolic problems.

Subpackages:
  timefourier   periodized time grids, fractional derivative, Hilbert transform
  bmo           BMO / half-Sobolev / Hoelder / Dini regularity functionals
  coefficients  coefficient families, ellipticity certificates, extension
  fem           1-D P1 elements, banded and batched linear algebra
  norms         space-time fields and the norms of the spaces in play
  solver        hidden-coercivity line solver, Cauchy pipeline, oracles
  krylov        restarted right-preconditioned GMRES for the line solve
  commutators   [a, D^alpha]: application, converged operator norm, factorization check
  report        machine-readable experiment reports
  cli           experiment runner (solve / analyze / extend / commutator / sweep)
"""

from .timefourier import (TimeGrid, TimeSignal, frac_derivative, frac_order,
                          hilbert_transform, time_inner_product,
                          twist_inverse, twist_operator)
from .bmo import (IntervalFamily, SeminormValue, bmo_seminorm, dini_integral,
                  dini_verdict, dyadic_family, holder_constant,
                  refinement_verdict, scale_invariant_half_sobolev)
from .coefficients import (CoefficientField, certify_ellipticity, extend_full,
                           extend_reflect, generate_family, load_field,
                           mollify, save_field)
from .fem import SpaceMesh
from .norms import (SpaceTimeField, energy_norm, l2h_norm, maxreg_ratio,
                    sobolev_norm, zero_field)
from .solver import (CauchyResult, FormParameters, SolveDiagnostics,
                     SolverError, apply_L, autonomous_oracle, cauchy_solve,
                     choose_delta, coercive_form, solve_line,
                     timestep_reference)
from .commutators import (CommutatorProbe, commutator_norm_estimate,
                          factorization_check)
from .report import (RegularityReport, SeminormRow, emit_plot_data,
                     emit_report, load_report)

__version__ = "0.1.0"
