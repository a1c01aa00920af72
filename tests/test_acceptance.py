"""Acceptance gate: eleven theorem-backed criteria, one printed PASS/FAIL
line per criterion.  Tolerances are pinned; configurations are the
calibrated desk-scale setups used throughout the suite."""
import time

import numpy as np
import pytest

from maxreg.bmo import (
    dini_integral,
    dini_verdict,
    dyadic_family,
    refinement_verdict,
    scale_invariant_half_sobolev,
)
from maxreg.coefficients import extend_full, extend_reflect, generate_family, mollify
from maxreg.commutators import commutator_norm_estimate, factorization_check
from maxreg.fem import SpaceMesh
from maxreg.norms import SpaceTimeField, energy_norm, l2h_norm, maxreg_ratio
from maxreg.solver import (
    FormParameters,
    autonomous_oracle,
    cauchy_solve,
    choose_delta,
    coercive_form,
    solve_line,
    timestep_reference,
)
from maxreg.timefourier import (
    TimeGrid,
    TimeSignal,
    frac_derivative,
    hilbert_transform,
    time_inner_product,
    time_norm,
)

MESH64 = SpaceMesh(0.0, 1.0, 64)
MESH32 = SpaceMesh(0.0, 1.0, 32)
MESH8 = SpaceMesh(0.0, 1.0, 8)


def report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number:02d}] {label}: {status} ({detail})")
    assert ok, f"criterion {number:02d} {label}: {detail}"


def sine_forcing(grid, mesh=MESH64, time_profile=None):
    prof = np.sin(np.pi * mesh.nodes[mesh.free_mask])
    vals = np.broadcast_to(prof, (grid.n_points, mesh.n_dofs)).astype(complex).copy()
    if time_profile is not None:
        vals *= time_profile(grid.points)[:, None]
    return SpaceTimeField(grid, mesh, vals)


def test_criterion_01_symbol_calculus():
    grid = TimeGrid(-1.0, 1.0, 1024)
    rng = np.random.default_rng(0)
    worst_semi = 0.0
    worst_skew = 0.0
    for _ in range(10):
        v = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        v -= v.mean()
        u = TimeSignal(grid, v)
        once = frac_derivative(frac_derivative(u, 0.5), 0.5)
        full = frac_derivative(u, 1.0)
        worst_semi = max(worst_semi,
                         float(np.linalg.norm(once.values - full.values)
                               / np.linalg.norm(full.values)))
        skew = abs(time_inner_product(u, hilbert_transform(u)).real)
        worst_skew = max(worst_skew, skew / time_norm(u) ** 2)
    ok = worst_semi <= 1e-10 and worst_skew <= 1e-12
    report(1, "symbol calculus", ok,
           f"D^1/2 o D^1/2 vs D^1 rel err {worst_semi:.2e} <= 1e-10; "
           f"Hilbert skew-adjoint defect {worst_skew:.2e} <= 1e-12")


def test_criterion_02_hidden_coercivity():
    grid = TimeGrid(-1.0, 3.0, 256)
    A = generate_family("sqrt_product", grid, MESH32, seed=7)
    rng = np.random.default_rng(5)
    worst = np.inf
    n_fields = 0
    for theta in (1.0 + 0.0j, 1.0 + 10.0j, 0.1 + 0.0j):
        delta = choose_delta(A.lam, A.Lam, theta)
        lower = min(A.lam / (A.Lam + 1), theta.real / (abs(theta.imag) + 1))
        for _ in range(34):
            shape = (grid.n_points, MESH32.n_dofs)
            v = SpaceTimeField(grid, MESH32,
                               rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))
            form = coercive_form(v, v, A, FormParameters(theta=theta, delta=delta))
            en2 = energy_norm(v) ** 2
            worst = min(worst, (form.real - lower * en2) / en2)
            n_fields += 1
    ok = n_fields >= 100 and worst >= -1e-10
    report(2, "hidden coercivity", ok,
           f"min over {n_fields} random fields of "
           f"(Re e(v,v) - c||v||_E^2)/||v||_E^2 = {worst:.3e} >= -1e-10")


def test_criterion_03_resolvent_bound():
    grid = TimeGrid(-1.0, 3.0, 256)
    A = generate_family("sqrt_product", grid, MESH32, seed=7)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        theta = 0.3 + 2.0 * rng.random() + 1j * (4 * rng.random() - 2)
        shape = (grid.n_points, MESH32.n_dofs)
        f = SpaceTimeField(grid, MESH32,
                           rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
        u, _ = solve_line(A, f, theta=theta)
        worst = max(worst, l2h_norm(u) * theta.real / l2h_norm(f))
    ok = worst <= 1.0 + 1e-6
    report(3, "resolvent bound", ok,
           f"max Re(theta) ||u|| / ||f|| over 20 solves = {worst:.4f} <= 1 + 1e-6")


def test_criterion_04_extension_constants():
    grid = TimeGrid(0.0, 1.0, 512)
    T = 1.0
    failures = []
    for kind in ("constant", "sqrt_product", "holder", "lipschitz", "step"):
        A = generate_family(kind, grid, MESH8, seed=7)
        M = scale_invariant_half_sobolev(
            A.column(0), dyadic_family(grid)).value
        flat = extend_reflect(A).column(0)
        n = grid.n_points
        two = TimeGrid(-T, T, 2 * n)
        v2 = scale_invariant_half_sobolev(
            TimeSignal(two, flat.values[:2 * n]), dyadic_family(two)).value
        v3 = scale_invariant_half_sobolev(flat, dyadic_family(flat.grid)).value
        m_nat = scale_invariant_half_sobolev(
            extend_full(A).column(0),
            dyadic_family(extend_full(A).time_grid)).value
        bound = 9 * M + 8 * A.Lam ** 2 / T + 6 * (A.Lam ** 2 + A.lam ** 2) / T
        if not (v2 <= 3 * M + 1e-12 and v3 <= 9 * M + 1e-12
                and m_nat <= bound + 1e-12):
            failures.append(kind)
    report(4, "extension constants", not failures,
           "all 5 families satisfy [-T,T] <= 3M, [-T,2T] <= 9M, "
           f"M-natural <= 9M + 8L^2/T + 6(L^2+l^2)/T; violations: {failures or 'none'}")


def test_criterion_05_worked_example():
    # A(t,x) = 1 + |t - T/2|^{1/2} a(x): the scale-invariant half-Sobolev
    # functional is finite and refinement-stable while Dini(q=1) diverges.
    vals = []
    for n in (256, 512, 1024):
        grid = TimeGrid(0.0, 1.0, n)
        a = generate_family("sqrt_product", grid, MESH8, seed=7).column(0)
        vals.append(scale_invariant_half_sobolev(a, dyadic_family(grid)).value)
    stable = (not refinement_verdict(vals).divergent
              and all(np.isfinite(vals)))

    grid = TimeGrid(0.0, 1.0, 1024)
    a = generate_family("sqrt_product", grid, MESH8, seed=7).column(0)
    dini = dini_verdict(dini_integral(a, q=1.0)).divergent

    # D^{1/2}|t|^{1/2} behaves like c log|t| away from the endpoints.
    g = TimeGrid(-1.0, 1.0, 1024)
    f = np.sqrt(np.abs(g.points))
    f -= f.mean()
    df = frac_derivative(TimeSignal(g, f.astype(complex)), 0.5).values.real
    mask = (np.abs(g.points) > 0.02) & (np.abs(g.points) < 1 / 3)
    X = np.vstack([np.log(np.abs(g.points[mask])),
                   np.ones(mask.sum())]).T
    Y = df[mask]
    coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
    resid = Y - X @ coef
    r2 = 1 - np.sum(resid ** 2) / np.sum((Y - Y.mean()) ** 2)

    ok = stable and dini and r2 >= 0.99
    report(5, "worked example", ok,
           f"half-Sobolev ladder {['%.4f' % v for v in vals]} stable={stable}; "
           f"Dini(q=1) divergent={dini}; log-fit R^2={r2:.5f} >= 0.99")


def test_criterion_06_oracle_agreement():
    grid = TimeGrid(0.0, 1.0, 256)
    f = sine_forcing(grid)
    A = generate_family("constant", grid, MESH64)
    res = cauchy_solve(A, f, window_factor=4)
    ref = autonomous_oracle(np.ones(MESH64.n_cells), f)
    err_auto = float(np.linalg.norm(res.u.values - ref.values)
                     / np.linalg.norm(ref.values))

    err_cn = 0.0
    for kind in ("sqrt_product", "lipschitz"):
        A = generate_family(kind, grid, MESH64, seed=3)
        res = cauchy_solve(A, f)
        cn = timestep_reference(A, f)
        err_cn = max(err_cn, float(np.linalg.norm(res.u.values - cn.values)
                                   / np.linalg.norm(cn.values)))
    ok = err_auto <= 1e-3 and err_cn <= 1e-2
    report(6, "oracle agreement", ok,
           f"eigen-oracle rel err {err_auto:.2e} <= 1e-3; "
           f"Crank-Nicolson rel err {err_cn:.2e} <= 1e-2")


def test_criterion_07_initial_condition():
    # Forcing whose zero-extension stays continuous, so the line solve
    # resolves the vanishing initial value at second order.
    ratios = []
    for n in (256, 512):
        grid = TimeGrid(0.0, 1.0, n)
        A = generate_family("constant", grid, MESH64)
        f = sine_forcing(grid, time_profile=lambda t: np.sin(np.pi * t))
        res = cauchy_solve(A, f)
        ratios.append(res.v0_norm / l2h_norm(res.line_solution))
    ok = ratios[0] <= 1e-3 and ratios[1] < ratios[0]
    report(7, "vanishing initial value", ok,
           f"||v(0)||/||v|| = {ratios[0]:.2e} <= 1e-3 at n=256, "
           f"{ratios[1]:.2e} at n=512 (decreasing)")


def test_criterion_08_maximal_regularity():
    ratios = []
    for n in (64, 128, 256):
        grid = TimeGrid(0.0, 1.0, n)
        A = generate_family("sqrt_product", grid, MESH64, seed=7)
        f = sine_forcing(grid)
        res = cauchy_solve(A, f)
        ratios.append(maxreg_ratio(res.u, f, 0.5))
    spread = max(ratios) / min(ratios)

    # holder(0.3) violates the hypothesis: still solvable, but the
    # half-Sobolev functional is flagged divergent under refinement.
    grid = TimeGrid(0.0, 1.0, 256)
    A = generate_family("holder", grid, MESH64, seed=7, alpha=0.3)
    res = cauchy_solve(A, sine_forcing(grid))
    solved = np.isfinite(l2h_norm(res.u)) and l2h_norm(res.u) > 0
    vals = []
    for n in (2048, 4096, 8192):
        g = TimeGrid(0.0, 1.0, n)
        a = generate_family("holder", g, MESH8, seed=7, alpha=0.3).column(0)
        vals.append(scale_invariant_half_sobolev(a, dyadic_family(g)).value)
    flagged = refinement_verdict(vals).divergent

    ok = spread <= 2.0 and solved and flagged
    report(8, "maximal regularity", ok,
           f"sqrt_product ratio spread {spread:.3f} <= 2 over N_t in {{64,128,256}}; "
           f"holder(0.3) solvable={solved}, regularity flag divergent={flagged}")


def test_criterion_09_factorization_identity():
    grid = TimeGrid(-1.0, 3.0, 512)
    fvals = (np.cos(2 * np.pi * grid.points / grid.period)[:, None]
             * np.sin(np.pi * MESH32.nodes[MESH32.free_mask])[None, :])
    f = SpaceTimeField(grid, MESH32, fvals.astype(complex))
    tol = 1e-9
    A0 = generate_family("constant", grid, MESH32)
    r_auto = factorization_check(A0, f, tol=tol)
    r_moll = max(
        factorization_check(generate_family("lipschitz", grid, MESH32,
                                            seed=1), f, tol=tol),
        factorization_check(mollify(generate_family("sqrt_product", grid,
                                                    MESH32, seed=1), 8),
                            f, tol=tol),
    )
    ok = r_auto <= 10 * tol and r_moll <= 1e-6
    report(9, "factorization identity", ok,
           f"autonomous residual {r_auto:.2e} <= 1e-8; "
           f"Lipschitz/mollified residual {r_moll:.2e} <= 1e-6")


def test_criterion_10_commutator_sharpness():
    # The |t - t0|^{1/2} multiplier keeps the probe flat under refinement;
    # a 0.45-Holder sample shows steady growth (about 6% per doubling at
    # these scales, against the asymptotic 2^{0.05}).  The direction of
    # the dichotomy is what the criterion pins: flat vs growth at every
    # refinement, separated by a 3% per-doubling threshold.
    def ladder(kind, **kw):
        out = []
        for n in (256, 512, 1024, 2048):
            grid = TimeGrid(-1.0, 1.0, n)
            a = generate_family(kind, grid, MESH8, seed=7, **kw).column(0)
            out.append(commutator_norm_estimate(a, 0.5).estimate)
        return out

    smooth = ladder("sqrt_product")
    rough = ladder("holder", alpha=0.45)
    growth_smooth = [b / a for a, b in zip(smooth, smooth[1:])]
    growth_rough = [b / a for a, b in zip(rough, rough[1:])]
    threshold = 1.03
    ok = (max(growth_smooth) < threshold
          and min(growth_rough) >= threshold)
    report(10, "commutator sharpness", ok,
           f"sqrt growth/doubling {['%.3f' % g for g in growth_smooth]} < 1.03; "
           f"0.45-Holder growth {['%.3f' % g for g in growth_rough]} >= 1.03")


def test_criterion_11_fractional_variant():
    t0 = time.time()
    stable = True
    summary = []
    for alpha in (0.25, 0.4):
        vals = []
        for n in (128, 256, 512):
            grid = TimeGrid(0.0, 1.0, n)
            A = generate_family("holder", grid, MESH64, seed=7, alpha=0.45)
            f = sine_forcing(grid)
            res = cauchy_solve(A, f)
            vals.append(maxreg_ratio(res.u, f, alpha))
        stable = (stable and all(np.isfinite(vals))
                  and not refinement_verdict(vals).divergent)
        summary.append(f"alpha={alpha}: {['%.3f' % v for v in vals]}")
    elapsed = time.time() - t0
    ok = stable and elapsed <= 600
    report(11, "fractional variant", ok,
           f"{'; '.join(summary)}; refinement-stable={stable}; "
           f"sweep time {elapsed:.1f}s <= 600s")
