import json
import random
from fractions import Fraction

import numpy as np
import pytest

from petrov3.builder import SolutionData, derived_scalars
from petrov3.exactfield import Poly, RatFn
from petrov3.pdesolve import (CallableConnection, CharacteristicCrossing,
                              CharacteristicFan, InitialCurve, InvalidFanGrid, NonFiniteFan,
                              PlaneConnection, QuasiLinearPDE,
                              SectionPair, TangentInitialCurve, UnknownCase,
                              ZeroCrossing, _gauged_brd2_residual, brd_eigen_diagnostics,
                              characteristics_solve, classify_connection,
                              connection_normal_form, flat_case_solve,
                              from_connection_pair, gauge_fix, gauge_pde,
                              k0_solve, lccne_generate, omega_pair, residual_brd,
                              residual_eqn, residual_loc, to_connection_pair)

ZERO = Poly({}, 4)
Y1P = Poly.var(0, 4)
Y2P = Poly.var(1, 4)
ONE = RatFn.const(1, 4)
ZF = RatFn.const(0, 4)


def mu_solution():
    """Exact solution with nonzero mu, obtained by integrating the system."""
    mu_ca = Y1P - Y1P * Y1P * Fraction(1, 2)
    return SolutionData(K=Fraction(0), lambda_cc=Poly.const(1, 4) - Y1P,
                        lambda_ca=ZERO, lambda_aa=ZERO,
                        mu_cc=mu_ca * mu_ca, mu_ca=mu_ca, mu_aa=Poly.const(1, 4),
                        omega_cq=ZERO, omega_aq=ZERO)


def q_solution():
    """Exact K=0 solution with nonzero q and lambda, via the flat-connection ODE."""
    a1 = [[RatFn(Y1P), ZF], [RatFn(2 * Y1P), RatFn(-1 * Y1P)]]
    a2 = [[ZF, ZF], [ZF, ZF]]
    conn = PlaneConnection(a1, a2)
    _, sol = k0_solve(conn, (ZF, ONE), Y2P)
    return sol


# -- residuals ------------------------------------------------------------------------------


def test_lccne_residuals_vanish():
    sol = lccne_generate(1, 1)
    r1, r2 = residual_eqn(sol)
    assert r1.is_zero() and r2.is_zero()
    assert all(p.is_zero() for p in residual_loc(sol))


def test_all_zero_data_second_residual_one():
    sol = SolutionData(K=Fraction(0), lambda_cc=ZERO, lambda_ca=ZERO, lambda_aa=ZERO,
                       mu_cc=ZERO, mu_ca=ZERO, mu_aa=ZERO, omega_cq=ZERO,
                       omega_aq=ZERO, r_override=Fraction(0))
    r1, r2 = residual_eqn(sol)
    assert r1.is_zero()
    assert (r2 - 1).is_zero()


def test_perturbed_lccne_first_residual_nonzero():
    sol = lccne_generate(1, 1)
    bumped = SolutionData(K=sol.K, lambda_cc=sol.lambda_cc + Y2P,
                          lambda_ca=sol.lambda_ca, lambda_aa=sol.lambda_aa,
                          mu_cc=sol.mu_cc, mu_ca=sol.mu_ca, mu_aa=sol.mu_aa,
                          omega_cq=sol.omega_cq, omega_aq=sol.omega_aq,
                          r_override=Fraction(0))
    r1, _ = residual_eqn(bumped)
    assert not r1.is_zero()


def test_mu_and_q_solutions_solve_the_system():
    for sol in (mu_solution(), q_solution()):
        r1, r2 = residual_eqn(sol)
        assert r1.is_zero() and r2.is_zero()
        assert all(p.is_zero() for p in residual_loc(sol))


def test_loc_term_dropout():
    """With mu = q = 0 the first three component equations keep only lambda_2 terms."""
    lam = {"lambda_cc": Y1P * Y2P, "lambda_ca": Y2P * Y2P, "lambda_aa": Y2P}
    sol = SolutionData(K=Fraction(2), r_override=Fraction(0),
                       mu_cc=ZERO, mu_ca=ZERO, mu_aa=ZERO,
                       omega_cq=ZERO, omega_aq=ZERO, **lam)
    r1, r2, r3, _ = residual_loc(sol)
    assert (r1 + sol.lambda_cc.diff(1)).is_zero()
    assert (r2 + sol.lambda_aa.diff(1)).is_zero()
    assert (r3 + sol.lambda_ca.diff(1)).is_zero()


def test_loc_eqn_equivalence_on_seeded_inputs():
    """zero <-> zero on 20 random data sets plus genuine solutions."""
    rng = random.Random(17)

    def rand_poly():
        return Poly({(rng.randint(0, 2), rng.randint(0, 1), 0, 0): Fraction(rng.randint(-3, 3))
                     for _ in range(3)}, 4)

    cases = []
    names = ("lambda_cc", "lambda_ca", "lambda_aa", "mu_cc", "mu_ca", "mu_aa",
             "omega_cq", "omega_aq")
    for _ in range(20):
        comps = {n: rand_poly() for n in names}
        cases.append(SolutionData(K=Fraction(rng.randint(-2, 2)),
                                  r_override=Fraction(0), **comps))
    cases += [lccne_generate(1, 1), mu_solution(), q_solution()]
    solved = 0
    for sol in cases:
        a, b = residual_eqn(sol)
        eqn_zero = a.is_zero() and b.is_zero()
        loc_zero = all(p.is_zero() for p in residual_loc(sol))
        assert eqn_zero == loc_zero
        solved += eqn_zero
    assert solved >= 3        # the appended genuine solutions keep the test non-vacuous


# -- connection pair --------------------------------------------------------------------------


def test_connection_matrices_trace_free():
    conn, _ = to_connection_pair(mu_solution())
    assert (conn.a1[0][0] + conn.a1[1][1]).is_zero()
    assert (conn.a2[0][0] + conn.a2[1][1]).is_zero()


def test_roundtrip_identity():
    sol = q_solution()
    conn, sp = to_connection_pair(sol)
    back = from_connection_pair(conn, sp, sol.K)
    for name in ("lambda_cc", "lambda_ca", "lambda_aa", "mu_cc", "mu_ca", "mu_aa",
                 "omega_cq", "omega_aq"):
        assert (getattr(back, name) - getattr(sol, name)).is_zero()


def test_lccne_delta_from_lambda_cc_only():
    sol = lccne_generate(1, 1)
    conn, sp = to_connection_pair(sol)
    # delta = Omega^-1 lambda with lambda(c,c) = 1 - y1 the only nonzero entry
    assert conn.a1[0][0].is_zero() and conn.a1[0][1].is_zero()
    assert (conn.a1[1][0] - RatFn(Poly.const(1, 4) - Y1P)).is_zero()
    assert conn.a1[1][1].is_zero()
    assert all(conn.a2[i][j].is_zero() for i in range(2) for j in range(2))


def test_brd_residuals_vanish_for_solutions():
    for sol in (lccne_generate(1, 1), mu_solution(), q_solution()):
        conn, sp = to_connection_pair(sol)
        first, second = residual_brd(conn, sp, sol.K)
        assert all(first[i][j].is_zero() for i in range(2) for j in range(2))
        assert second.is_zero()


def test_brd_equivalence_with_eqn():
    rng = random.Random(23)

    def rand_poly():
        return Poly({(rng.randint(0, 1), rng.randint(0, 1), 0, 0): Fraction(rng.randint(-2, 2))
                     for _ in range(2)}, 4)

    names = ("lambda_cc", "lambda_ca", "lambda_aa", "mu_cc", "mu_ca", "mu_aa",
             "omega_cq", "omega_aq")
    for _ in range(10):
        sol = SolutionData(K=Fraction(rng.randint(-2, 2)), r_override=Fraction(0),
                           **{n: rand_poly() for n in names})
        conn, sp = to_connection_pair(sol)
        first, second = residual_brd(conn, sp, sol.K)
        brd_zero = (all(first[i][j].is_zero() for i in range(2) for j in range(2))
                    and second.is_zero())
        a, b = residual_eqn(sol)
        assert brd_zero == (a.is_zero() and b.is_zero())


def test_brd_k0_requires_flatness():
    """With K = 0 the endomorphism residual is the curvature itself."""
    sol = q_solution()
    conn, sp = to_connection_pair(sol)
    first, _ = residual_brd(conn, sp, Fraction(0))
    R = conn.curvature()
    assert all((first[i][j] - R[i][j]).is_zero() for i in range(2) for j in range(2))


def test_brd_nonzero_K_with_zero_q_forces_flat():
    """For K != 0, q = 0 makes the first residual equal the curvature."""
    sol = mu_solution()
    conn, sp = to_connection_pair(sol)
    first, _ = residual_brd(conn, sp, Fraction(2))
    R = conn.curvature()
    assert all((first[i][j] - R[i][j]).is_zero() for i in range(2) for j in range(2))


def test_flat_branch_nonzero_K_forces_q_zero():
    """A flat connection with K != 0 satisfies the curvature condition only if q = 0."""
    conn = connection_normal_form("III")
    with_q = SectionPair(c=(ONE, ZF), q=(ZF, RatFn(Y1P)))
    first, _ = residual_brd(conn, with_q, Fraction(2))
    assert not all(first[i][j].is_zero() for i in range(2) for j in range(2))
    without_q = SectionPair(c=(ONE, ZF), q=(ZF, ZF))
    first, _ = residual_brd(conn, without_q, Fraction(2))
    assert all(first[i][j].is_zero() for i in range(2) for j in range(2))


def test_curvature_squared_multiple_of_identity():
    """R^2 of any area-compatible connection is a scalar matrix at each sample."""
    conn = connection_normal_form("Ic", psi=Y2P, p=Poly({(1,): 1}, 1))
    R = conn.curvature()
    for pt in ((Fraction(1, 3), Fraction(-1, 2)), (Fraction(0), Fraction(1))):
        coords = (pt[0], pt[1], Fraction(0), Fraction(0))
        R0 = [[R[i][j].eval(coords) for j in range(2)] for i in range(2)]
        R2 = [[sum(R0[i][k] * R0[k][j] for k in range(2)) for j in range(2)]
              for i in range(2)]
        assert R2[0][1] == 0 and R2[1][0] == 0 and R2[0][0] == R2[1][1]


def test_brd_eigen_diagnostics():
    conn = connection_normal_form("Ia")
    sp = SectionPair(c=(ZF, ONE), q=(-ONE, ZF))
    d = brd_eigen_diagnostics(conn, sp, Fraction(1), (0.0, 0.0, 0.0, 0.0))
    assert abs(d["eigenvalue_on_c"] - 1.0) < 1e-12
    assert max(abs(x) for x in d["Rc_minus_eig_c"]) < 1e-12
    assert max(abs(x) for x in d["Rq_plus_eig_q"]) < 1e-12


# -- normal forms and classification -------------------------------------------------------------


def test_case_iii_flat():
    conn = connection_normal_form("III")
    recs = classify_connection(conn, [(Fraction(0), Fraction(0))])
    assert recs[0]["tag"] == "Flat"


def test_case_ii_positive():
    conn = connection_normal_form("II", psi=Y2P, chi=ZERO)
    recs = classify_connection(conn, [(Fraction(1, 2), Fraction(1, 3))])
    assert recs[0]["tag"] == "Positive"
    assert recs[0]["trR2"] > 0


def test_case_ic_null_nonzero_with_fundamental_tensor():
    conn = connection_normal_form("Ic", psi=Y2P, p=Poly({(1,): 1}, 1))
    recs = classify_connection(conn, [(Fraction(1, 2), Fraction(1, 3)),
                                      (Fraction(-1), Fraction(2))])
    for rec in recs:
        assert rec["tag"] == "NullNonzero"
        assert rec["trR2"] == 0
        assert rec["fundamental_tensor_nonzero"]


def test_case_ia_exact_positive():
    conn = connection_normal_form("Ia")
    assert isinstance(conn, PlaneConnection)
    recs = classify_connection(conn, [(Fraction(0), Fraction(0))])
    assert recs[0]["tag"] == "Positive"


def test_case_ia_numeric_with_exponentials():
    conn = connection_normal_form("Ia", psi=Poly({(0, 1, 0, 0): Fraction(1, 4)}, 4),
                                  chi=Poly({(1, 0, 0, 0): Fraction(1, 5)}, 4))
    assert isinstance(conn, CallableConnection)
    recs = classify_connection(conn, [(0.3, -0.2), (0.0, 0.5)])
    assert all(r["tag"] == "Positive" for r in recs)


def test_unknown_case():
    with pytest.raises(UnknownCase):
        connection_normal_form("IV")


def test_classification_trace_free_at_samples():
    for case, kw in (("II", {"psi": Y2P}), ("Ic", {"psi": Y2P, "p": Poly({(1,): 1}, 1)})):
        conn = connection_normal_form(case, **kw)
        recs = classify_connection(conn, [(Fraction(1, 3), Fraction(-1, 2))])
        assert abs(recs[0]["traceR"]) < 1e-12


# -- characteristics --------------------------------------------------------------------------


def test_linear_transport():
    pde = QuasiLinearPDE(rho=lambda *a: 1.0, sigma=lambda *a: 0.0, chi=lambda *a: 1.0)
    ic = InitialCurve(axis="y1", offset=0.0, values=lambda s: 0.0)
    fan = characteristics_solve(pde, ic, step=1e-2, extent=0.3, nsamples=15)
    assert fan.max_error(lambda y1, y2: y1) <= 1e-10
    assert fan.max_residual() <= 1e-10


def test_manufactured_quadratic():
    pde = QuasiLinearPDE(rho=lambda *a: 1.0, sigma=lambda *a: 1.0, chi=lambda *a: 0.0)
    ic = InitialCurve(axis="y2", offset=0.0, values=lambda s: s * s)
    fan = characteristics_solve(pde, ic, step=1e-3, extent=0.3, nsamples=15)
    assert fan.max_error(lambda y1, y2: (y1 - y2) ** 2) <= 1e-6


def test_fourth_order_convergence_on_exponential_problem():
    pde = QuasiLinearPDE(rho=lambda *a: 1.0, sigma=lambda *a: 0.0,
                         chi=lambda y1, y2, z: z)
    ic = InitialCurve(axis="y1", offset=0.0, values=lambda s: 1.0)
    errs = []
    for step in (0.04, 0.02, 0.01):
        fan = characteristics_solve(pde, ic, step=step, extent=0.32, nsamples=7)
        errs.append(fan.max_error(lambda y1, y2: np.exp(y1)))
    assert errs[0] / errs[1] >= 12
    assert errs[1] / errs[2] >= 12


def test_tangent_initial_curve_detected():
    pde = QuasiLinearPDE(rho=lambda *a: 0.0, sigma=lambda *a: 1.0, chi=lambda *a: 0.0)
    ic = InitialCurve(axis="y1", offset=0.0, values=lambda s: 0.0)
    with pytest.raises(TangentInitialCurve):
        characteristics_solve(pde, ic, step=1e-2, extent=0.2)


def test_fold_over_detected():
    # decreasing data with speed rho = z: the classic compressive crossing
    pde = QuasiLinearPDE(rho=lambda y1, y2, z: z, sigma=lambda *a: 1.0,
                         chi=lambda *a: 0.0)
    ic = InitialCurve(axis="y2", offset=0.0, values=lambda s: -2.0 * s)
    with pytest.raises(CharacteristicCrossing):
        characteristics_solve(pde, ic, step=1e-2, extent=1.2, nsamples=15)


def test_pde_json_roundtrip():
    data = {
        "rho": [{"e": [0, 0, 0], "c": "1"}],
        "sigma": [{"e": [0, 0, 0], "c": "1"}],
        "chi": [],
        "initialCurve": {"axis": "y2", "offset": 0, "poly": [{"e": [2], "c": "1"}]},
        "step": 1e-3,
        "extent": 0.25,
    }
    pde = QuasiLinearPDE.from_json(data)
    ic = InitialCurve.from_json(data["initialCurve"], extent=0.25)
    fan = characteristics_solve(pde, ic, step=1e-3, extent=0.25, nsamples=11)
    assert fan.max_error(lambda y1, y2: (y1 - y2) ** 2) <= 1e-6


def scalar_rk4_fan(pde, ic, step, extent, nsamples):
    """Reference: the per-sample scalar RK4 loop the array stepper replaced."""
    ss = np.linspace(-extent, extent, nsamples)
    nt = max(2, int(round(extent / step)))
    ts = np.concatenate([np.arange(-nt, 0), np.arange(0, nt + 1)]) * step

    def field(state):
        y1, y2, z = state
        return np.array([pde.rho(y1, y2, z), pde.sigma(y1, y2, z), pde.chi(y1, y2, z)])

    grid = np.zeros((3, len(ts), nsamples))
    for j, s in enumerate(ss):
        grid[:, nt, j] = (*ic.point(s), ic.values(s))
    for direction in (+1, -1):
        rng = range(nt + 1, len(ts)) if direction > 0 else range(nt - 1, -1, -1)
        for i in rng:
            prev = i - direction
            h = ts[i] - ts[prev]
            for j in range(nsamples):
                state = grid[:, prev, j].copy()
                k1 = field(state)
                k2 = field(state + 0.5 * h * k1)
                k3 = field(state + 0.5 * h * k2)
                k4 = field(state + h * k3)
                grid[:, i, j] = state + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return grid


@pytest.mark.parametrize("case", ["gauge_ia", "manufactured_quadratic"])
def test_array_fan_matches_scalar_rk4(case):
    if case == "gauge_ia":
        pde = gauge_pde(connection_normal_form("Ia"), SectionPair(c=(ZF, ONE), q=(-ONE, ZF)))
        ic = InitialCurve(axis="y2", offset=0.0, values=lambda s: 1.0)
        step, extent, n = 1e-2, 0.3, 21
    else:
        pde = QuasiLinearPDE(rho=lambda *a: 1.0, sigma=lambda *a: 1.0, chi=lambda *a: 0.0)
        ic = InitialCurve(axis="y2", offset=0.0, values=lambda s: s * s)
        step, extent, n = 1e-3, 0.3, 15
    fan = characteristics_solve(pde, ic, step=step, extent=extent, nsamples=n)
    ref = scalar_rk4_fan(pde, ic, step, extent, n)
    for got, want in zip((fan.y1, fan.y2, fan.z), ref):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_blow_up_raises_non_finite_fan():
    """z_1 = z^2 from z = 10 blows up at y1 = 0.1, inside the extent."""
    pde = QuasiLinearPDE(rho=lambda *a: 1.0, sigma=lambda *a: 0.0,
                         chi=lambda y1, y2, z: z * z)
    ic = InitialCurve(axis="y1", offset=0.0, values=lambda s: 10.0)
    with pytest.raises(NonFiniteFan):
        characteristics_solve(pde, ic, step=1e-2, extent=0.3, nsamples=9)
    fan = characteristics_solve(pde, ic, step=1e-2, extent=0.05, nsamples=9)
    assert np.isfinite(fan.z).all()


def test_residuals_propagate_nan():
    conn = connection_normal_form("Ia")
    sp = SectionPair(c=(ZF, ONE), q=(-ONE, ZF))
    ic = InitialCurve(axis="y2", offset=0.0, values=lambda s: 1.0)
    fan = characteristics_solve(gauge_pde(conn, sp), ic, step=1e-2, extent=0.2, nsamples=9)
    assert fan.max_residual() <= 1e-8
    assert _gauged_brd2_residual(conn, sp, fan) <= 1e-8
    for name in ("z", "y1"):            # a NaN position also makes the Jacobian NaN
        arrays = {"y1": fan.y1.copy(), "y2": fan.y2, "z": fan.z.copy()}
        arrays[name][len(fan.t) // 2, 4] = np.nan
        bad = CharacteristicFan(t=fan.t, s=fan.s, pde=fan.pde, **arrays)
        assert np.isnan(bad.max_residual())
        assert np.isnan(_gauged_brd2_residual(conn, sp, bad))
        assert np.isnan(bad.max_error(lambda y1, y2: y1 - y2))


# -- gauge fixing -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gauged_ia():
    conn = connection_normal_form("Ia")
    sp = SectionPair(c=(ZF, ONE), q=(-ONE, ZF))
    ic = InitialCurve(axis="y2", offset=0.0, values=lambda s: 1.0)
    return conn, sp, ic


def test_gauge_fix_reduces_brd2(gauged_ia):
    conn, sp, ic = gauged_ia
    gp = gauge_fix(conn, sp, ic, step=1e-3, extent=0.3, nsamples=21)
    assert gp.brd2_max_residual <= 1e-6


def test_gauge_fix_callable_connection():
    """Case Ia with a genuine exponential slot, sections given as callables."""
    conn = connection_normal_form("Ia", chi=Poly({(0, 1, 0, 0): Fraction(1, 4)}, 4))
    assert isinstance(conn, CallableConnection)
    sp = SectionPair(c=lambda y1, y2: (0.0, 1.0), q=lambda y1, y2: (-1.0, 0.0))
    ic = InitialCurve(axis="y2", offset=0.0, values=lambda s: 1.0)
    gp = gauge_fix(conn, sp, ic, step=1e-2, extent=0.2, nsamples=9)
    assert gp.brd2_max_residual <= 1e-8


def test_gauge_trivial_when_already_normalized():
    """A solution's own pair needs no rescaling: z == 1 solves the gauge PDE."""
    sol = lccne_generate(1, 1)
    conn, sp = to_connection_pair(sol)
    pde = gauge_pde(conn, sp)
    # z = 1: rho z_1 + sigma z_2 = 0 must equal chi(y, 1)
    for y1 in (-0.3, 0.0, 0.4):
        for y2 in (-0.2, 0.1):
            assert abs(pde.chi(y1, y2, 1.0)) < 1e-12


def test_gauge_switch_sections(gauged_ia):
    """Switching c and q preserves the curvature condition and still gauges."""
    conn, sp, ic = gauged_ia
    swapped = SectionPair(c=sp.q, q=sp.c)
    first, _ = residual_brd(conn, swapped, Fraction(1))
    assert all(first[i][j].is_zero() for i in range(2) for j in range(2))
    ic1 = InitialCurve(axis="y2", offset=0.0, values=lambda s: 1.0)
    gp = gauge_fix(conn, swapped, ic1, step=2e-3, extent=0.2, nsamples=15)
    assert gp.brd2_max_residual <= 1e-6


def test_gauge_case_ii_transversality():
    """Null-nonzero case: sigma = 0, so the initial curve must be a y2 line."""
    conn = connection_normal_form("Ic", psi=Y2P, p=None)
    # c spans the kernel-image line (e2 direction); q parallel with Omega(c,q)=0
    sp = SectionPair(c=(ZF, ONE), q=(ZF, ONE))
    pde = gauge_pde(conn, sp)
    assert abs(pde.sigma(0.1, -0.2, 1.0)) < 1e-12
    assert abs(pde.rho(0.1, -0.2, 1.0)) > 0


def test_gauge_zero_crossing_raises():
    conn = connection_normal_form("Ia")
    sp = SectionPair(c=(ZF, ONE), q=(-ONE, ZF))
    ic = InitialCurve(axis="y2", offset=0.0, values=lambda s: 1e-3 * (1 if s >= 0 else -1))
    with pytest.raises((ZeroCrossing, TangentInitialCurve, CharacteristicCrossing)):
        gauge_fix(conn, sp, ic, step=5e-3, extent=0.3, nsamples=15)


# -- special branches -------------------------------------------------------------------------


def test_flat_case_constant_profile():
    fc = flat_case_solve()
    assert fc.max_residual <= 1e-8
    # sigma = (y1)^2 / 2 for rho == 1
    for y in (-0.5, 0.0, 0.7):
        assert abs(fc.sigma(y) - y * y / 2) < 1e-8


def test_flat_case_polynomial_profile():
    rho = Poly({(0,): 1, (2,): Fraction(1, 4)}, 1)       # 1 + y1^2/4 > 0
    fc = flat_case_solve(rho, extent=0.8, n=401)
    assert fc.max_residual <= 1e-8


def test_flat_case_rejects_nonpositive_profile():
    with pytest.raises(ValueError):
        flat_case_solve(Poly({(1,): 1}, 1))              # rho = y1 vanishes


def test_k0_trivial_connection():
    conn = connection_normal_form("III")
    sp, sol = k0_solve(conn, (ZF, ONE), ZERO)
    # q = (y2/2) a + q0(y1) with q0 = 0: components (0, y2/2)
    assert sp.q[0].is_zero()
    assert (sp.q[1] - RatFn(Y2P) / 2).is_zero()
    r1, r2 = residual_eqn(sol)
    assert r1.is_zero() and r2.is_zero()


def test_k0_brd2_identity():
    conn = connection_normal_form("III")
    sp, _ = k0_solve(conn, (ZF, ONE), Y1P)
    cc = conn.cov(1, conn.cov(1, sp.c))
    dq = conn.cov(2, sp.q)
    val = omega_pair(sp.c, (cc[0] - 2 * dq[0], cc[1] - 2 * dq[1]))
    assert (val - 1).is_zero()


def test_k0_nontrivial_flat_connection_roundtrip():
    sol = q_solution()
    ds = derived_scalars(sol)
    assert not ds.r.is_zero()        # this branch genuinely exercises r
    r1, r2 = residual_eqn(sol)
    assert r1.is_zero() and r2.is_zero()


def test_k0_rejects_curved_connection():
    bad = connection_normal_form("II", psi=Y2P)
    with pytest.raises(ValueError):
        k0_solve(bad, (ZF, ONE), ZERO)


# -- the explicit family -----------------------------------------------------------------------


def test_lccne_family_members():
    cases = [
        (1, 1, None, None),
        (0, 2, Poly({(1,): 1}, 1), Poly({(0,): 3}, 1)),
        (-2, 0, Poly({(2,): 1}, 1), None),
    ]
    for K, const0, paa, pac in cases:
        sol = lccne_generate(K, const0, paa, pac)
        r1, r2 = residual_eqn(sol)
        assert r1.is_zero() and r2.is_zero()


def test_connection_json_roundtrip():
    conn, _ = to_connection_pair(q_solution())
    data = json.loads(json.dumps(conn.to_json()))
    back = PlaneConnection.from_json(data)
    for i in range(2):
        for j in range(2):
            assert (conn.a1[i][j] - back.a1[i][j]).is_zero()
            assert (conn.a2[i][j] - back.a2[i][j]).is_zero()


@pytest.mark.parametrize("step, extent", [(0.0, 0.3), (-1e-3, 0.3), (float("nan"), 0.3),
                                          (1e-3, float("inf")), (1e-3, 0.0), (1e-9, 0.3)],
                         ids=["zero", "negative", "nan", "inf-extent", "zero-extent", "over-cap"])
def test_invalid_fan_grid_rejected_before_allocation(step, extent):
    pde = QuasiLinearPDE(rho=lambda *a: 1.0, sigma=lambda *a: 0.0, chi=lambda *a: 1.0)
    ic = InitialCurve(axis="y1", offset=0.0, values=lambda s: 0.0)
    with pytest.raises(InvalidFanGrid):
        characteristics_solve(pde, ic, step=step, extent=extent)

