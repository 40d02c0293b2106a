import json
from fractions import Fraction

import pytest

from petrov3.builder import (COMPONENT_NAMES, EqnResidualNonzero, SolutionData,
                             assemble_metric, derived_scalars,
                             eta_theta_extension, f_operator, fibre_forms, form_pair,
                             gamma_u_via_connection, gamma_via_connection,
                             htilde_frame, invariant_gamma_u,
                             octuple_fields, phi_ratfn,
                             raise_second_index, apply_morphism, zeta_matrix)
from petrov3.exactfield import Poly, RatFn, sample_points
from petrov3.pdesystem import lccne_generate
from petrov3.tensorcalc import christoffel, metric_det, metric_inverse, riemann
from tests_flat_helper import flat_reference_data
from tests_lemma_helper import f_on_wbar, gamma_closed_form, h_pairing_vertical

X1 = RatFn.var(2)
X2 = RatFn.var(3)
Y1 = RatFn.var(0)


@pytest.fixture(scope="module")
def lccne():
    sol = lccne_generate(1, 1)
    return sol, derived_scalars(sol)


@pytest.fixture(scope="module")
def generic():
    """A denser instance: every lambda component and K nonzero."""
    sol = lccne_generate(Fraction(-1, 2), 2, Poly({(1,): Fraction(1, 3)}, 1),
                         Poly({(0,): 1, (2,): -1}, 1))
    return sol, derived_scalars(sol)


# -- derived scalars ----------------------------------------------------------------------


def test_lccne_s_r_f(lccne):
    sol, ds = lccne
    assert ds.s.is_zero()
    assert ds.r.is_zero()
    expected_f = X1 * (1 - Y1) * X2 / 4
    assert (ds.f - expected_f).is_zero()


def test_lccne_E_L_Q(lccne):
    _, ds = lccne
    assert (ds.E - ((1 - Y1) + X2 * X2 / 2)).is_zero()
    assert ds.L.is_zero()
    assert (ds.Q - X1 * X1 * (1 - Y1)).is_zero()


def test_dq_phi_zero_when_q_zero(lccne):
    sol, _ = lccne
    ff = fibre_forms(sol)
    assert ff.om_qc.is_zero()


def test_lpm_closed_forms(generic):
    """2L+ = mu(X,X) + lam(c,X) - 3 Omega(q,c) + 4 r phi^2, and the L- mirror."""
    sol, ds = generic
    ff = fibre_forms(sol)
    phi = phi_ratfn()
    lhs_p = 2 * ds.Lp
    rhs_p = ff.mu_XX + ff.lam_cX - 3 * ff.om_qc + 4 * ds.r * phi * phi
    assert (lhs_p - rhs_p).is_zero()
    lhs_m = 2 * ds.Lm
    rhs_m = 3 * ff.mu_XX - ff.lam_cX - ff.om_qc - 4 * ds.r * phi * phi
    assert (lhs_m - rhs_m).is_zero()


def test_A_combination(generic):
    _, ds = generic
    phi = phi_ratfn()
    assert (ds.A - (ds.f / (phi * phi) - 2 * ds.r * phi)).is_zero()


def test_guard_rejects_non_solution():
    bad = SolutionData(K=Fraction(1), lambda_cc=Poly({}, 4), lambda_ca=Poly({}, 4),
                       lambda_aa=Poly({}, 4), mu_cc=Poly({}, 4), mu_ca=Poly({}, 4),
                       mu_aa=Poly({}, 4), omega_cq=Poly({}, 4), omega_aq=Poly({}, 4))
    with pytest.raises(EqnResidualNonzero):
        derived_scalars(bad)
    # with an override the derived scalars build fine
    ds = derived_scalars(bad.with_r_override(Fraction(0)))
    assert ds.f.is_zero()


# -- the deformation operator -----------------------------------------------------------------


def test_fK_on_wbar_is_half_K_X(generic):
    sol, ds = generic
    _, parts = f_on_wbar(f_operator(sol, ds), parts=True)
    K = RatFn.const(sol.K)
    # K X / 2 has components (K x1 / 2, K x2 / 2)
    assert (parts["K"][0] - K * X1 / 2).is_zero()
    assert (parts["K"][1] - K * X2 / 2).is_zero()


def test_f_kills_verticals(generic):
    sol, ds = generic
    op = f_operator(sol, ds)
    vertical = [RatFn.const(0), RatFn.const(0), RatFn.const(1), RatFn.const(7)]
    out = [vertical[0] * op.total[0][i] + vertical[1] * op.total[1][i] for i in range(2)]
    assert all(c.is_zero() for c in out)


def test_hfk_closed_forms(generic):
    """h(F^part w, w') against the tabulated closed forms at random points."""
    sol, ds = generic
    op = f_operator(sol, ds)
    ff = fibre_forms(sol)
    phi = phi_ratfn()
    K = RatFn.const(sol.K)
    xi = (RatFn.const(1), RatFn.const(0))
    tau = (RatFn.const(0), RatFn.const(1))
    closed = {
        "K": lambda i, j: -K * phi * phi * tau[i] * tau[j] / 2,
        "q": lambda i, j: (2 * ff.om_Xq * xi[i] * xi[j]
                           - ff.om_qc * (xi[i] * tau[j] + xi[j] * tau[i])),
        "lambda": lambda i, j: ff.lam_XX * xi[i] * xi[j] - ff.lam_cc * tau[i] * tau[j],
        "mu": lambda i, j: (ff.mu_XX * (xi[i] * tau[j] + xi[j] * tau[i])
                            + 2 * ff.mu_cX * tau[i] * tau[j]),
    }
    pts = sample_points(5, seed=12)
    for name, form in closed.items():
        for i in range(2):
            for j in range(2):
                got = h_pairing_vertical(op.parts[name][i], j)
                want = form(i, j)
                for p in pts:
                    assert got.eval(p.coords) == want.eval(p.coords)
                assert (got - want).is_zero()


def test_hfk_table_symmetric_fzeta_antisymmetric(generic):
    """The four linear summands give a symmetric h-pairing; the f zeta part is skew."""
    sol, ds = generic
    op = f_operator(sol, ds)
    for name in ("K", "q", "lambda", "mu"):
        for i in range(2):
            for j in range(2):
                a = h_pairing_vertical(op.parts[name][i], j)
                b = h_pairing_vertical(op.parts[name][j], i)
                assert (a - b).is_zero()
    fz01 = h_pairing_vertical(op.parts["fzeta"][0], 1)
    fz10 = h_pairing_vertical(op.parts["fzeta"][1], 0)
    assert (fz01 + fz10).is_zero()
    # and the antisymmetry carries exactly 2 [[F]] zeta = 2 f zeta
    zeta = zeta_matrix()
    assert (fz01 - fz10 - 2 * ds.f * zeta[0][1]).is_zero()


def test_compact_form_identity(generic):
    """phi F w = [E tau(w) - L+ xi(w)] X + [L- tau(w) + Q xi(w)] c, full F."""
    sol, ds = generic
    op = f_operator(sol, ds)
    phi = phi_ratfn()
    for i, (xw, tw) in enumerate(((1, 0), (0, 1))):
        coef_X = ds.E * tw - ds.Lp * xw
        coef_c = ds.Lm * tw + ds.Q * xw
        want = [coef_X * X1 + coef_c, coef_X * X2]
        got = [phi * op.total[i][0], phi * op.total[i][1]]
        assert (got[0] - want[0]).is_zero()
        assert (got[1] - want[1]).is_zero()


# -- metric assembly --------------------------------------------------------------------------


def test_metric_point_values(lccne):
    sol, _ = lccne
    m = assemble_metric(sol)
    pt = (0, 0, 1, 1)
    expect = [[-2, 0, 1, -1], [0, 3, 0, -1], [1, 0, 0, 0], [-1, -1, 0, 0]]
    for a in range(4):
        for b in range(4):
            assert m.g[a][b].eval(pt) == expect[a][b]


def test_metric_blocks(generic):
    sol, ds = generic
    m = assemble_metric(sol)
    # vertical-vertical block vanishes
    for a in (2, 3):
        for b in (2, 3):
            assert m.g[a][b].is_zero()
    # cross block fixed by the pairing, independent of F
    assert (m.g[0][2] - phi_ratfn()).is_zero()
    assert (m.g[0][3] + X1).is_zero()
    assert m.g[1][2].is_zero()
    assert (m.g[1][3] + 1).is_zero()
    # horizontal block in terms of the derived scalars
    assert (m.g[0][0] + 2 * ds.Q).is_zero()
    assert (m.g[0][1] + 2 * ds.L).is_zero()
    assert (m.g[1][1] - 2 * ds.E).is_zero()


def test_metric_det_phi_squared(generic):
    sol, _ = generic
    det = metric_det(assemble_metric(sol))
    phi = phi_ratfn()
    assert (det - phi * phi).is_zero()


def test_metric_f_r_independent(generic):
    sol, _ = generic
    m1 = assemble_metric(sol)
    m2 = assemble_metric(sol.with_r_override(Fraction(7)))
    m3 = assemble_metric(sol.with_r_override(Fraction(-3, 2)))
    for a in range(4):
        for b in range(4):
            assert (m1.g[a][b] - m2.g[a][b]).is_zero()
            assert (m1.g[a][b] - m3.g[a][b]).is_zero()


def test_flat_reference_riemann_zero():
    m = assemble_metric(flat_reference_data())
    curv = riemann(christoffel(m), m)
    assert all(curv.riemann[j][k][l][p].is_zero()
               for j in range(4) for k in range(4) for l in range(4) for p in range(4))


# -- octuple fields -----------------------------------------------------------------------------


def test_octuple_invariants(generic):
    sol, _ = generic
    oct_f = octuple_fields()
    phi = phi_ratfn()
    # beta = phi^-2 xi nonvanishing certificate
    assert (oct_f.beta[0] * phi * phi - 1).is_zero()
    assert all(oct_f.beta[i].is_zero() for i in (1, 2, 3))
    # h(ubar, d1) = beta(d1) = phi^-2
    got = h_pairing_vertical([oct_f.ubar[2], oct_f.ubar[3]], 0)
    assert (got - 1 / (phi * phi)).is_zero()
    # theta(c, a) = -phi^2
    assert (oct_f.theta_vert + phi * phi).is_zero()
    # xi(wbar) = 0, tau(wbar) = phi^-1
    assert oct_f.wbar[0].is_zero()
    assert (oct_f.wbar[1] - 1 / phi).is_zero()


def test_det_ratio_identity(generic):
    """[lam(c,X)]^2 - lam(c,c) lam(X,X) = -phi^2 det_ratio, the basis-free form."""
    from petrov3.builder import det_omega_lambda

    sol, _ = generic
    ff = fibre_forms(sol)
    phi = phi_ratfn()
    lhs = ff.lam_cX * ff.lam_cX - ff.lam_cc * ff.lam_XX
    rhs = -phi * phi * RatFn(det_omega_lambda(sol))
    assert (lhs - rhs).is_zero()


def test_beta_vanishes_on_wbar(generic):
    sol, _ = generic
    oct_f = octuple_fields()
    val = sum(oct_f.beta[i] * oct_f.wbar[i] for i in range(4))
    assert val.is_zero()


def test_zeta_wbar_pairing(generic):
    """zeta(w, wbar) = 2 beta(w) for the coordinate fields."""
    sol, _ = generic
    oct_f = octuple_fields()
    zeta = zeta_matrix()
    for j, unit in enumerate(((1, 0, 0, 0), (0, 1, 0, 0))):
        w = [RatFn.const(c) for c in unit]
        val = form_pair(zeta, w, oct_f.wbar)
        assert (val - 2 * oct_f.beta[j]).is_zero()


# -- deformed frame and the extensions ----------------------------------------------------------


def test_frame_vertical_parts_are_f(generic):
    sol, ds = generic
    op = f_operator(sol, ds)
    fr = htilde_frame(op)
    assert (fr.w1[2] - op.total[0][0]).is_zero()
    assert (fr.w1[3] - op.total[0][1]).is_zero()
    assert (fr.w2[2] - op.total[1][0]).is_zero()
    assert (fr.w2[3] - op.total[1][1]).is_zero()


def test_frame_is_null_and_zeta_unchanged(generic):
    sol, ds = generic
    m = assemble_metric(sol)
    fr = htilde_frame(f_operator(sol, ds))
    for u in (fr.w1, fr.w2):
        for v in (fr.w1, fr.w2):
            assert form_pair(m.g, u, v).is_zero()
    assert form_pair(m.g, fr.c, fr.a).is_zero()
    zeta = zeta_matrix()
    val = form_pair(zeta, fr.w1, fr.w2)
    assert (val - 2 / phi_ratfn()).is_zero()


def test_eta_eigenvalues_and_involution(generic):
    sol, ds = generic
    m = assemble_metric(sol)
    ginv = metric_inverse(m)
    op = f_operator(sol, ds)
    eta, _ = eta_theta_extension(ds, op)
    esharp = raise_second_index(eta, ginv)
    fr = htilde_frame(op)
    for vec, sign in ((fr.c, 1), (fr.a, 1), (fr.w1, -1), (fr.w2, -1)):
        out = apply_morphism(esharp, vec)
        for i in range(4):
            assert (out[i] - sign * vec[i]).is_zero()
    # involution on the coordinate basis
    for i in range(4):
        basis = [RatFn.const(1 if j == i else 0) for j in range(4)]
        twice = apply_morphism(esharp, apply_morphism(esharp, basis))
        for j in range(4):
            assert (twice[j] - basis[j]).is_zero()


def test_theta_kills_deformed_frame(generic):
    sol, ds = generic
    op = f_operator(sol, ds)
    _, theta = eta_theta_extension(ds, op)
    fr = htilde_frame(op)
    for w in (fr.w1, fr.w2):
        for v in (fr.w1, fr.w2, fr.c, fr.a):
            assert form_pair(theta, w, v).is_zero()
    assert (form_pair(theta, fr.c, fr.a) + phi_ratfn() ** 2).is_zero()


def test_eta_depends_on_r_metric_does_not(generic):
    sol, ds = generic
    sol2 = sol.with_r_override(ds.r.constant_value() + 1 if ds.r.is_constant() else Fraction(1))
    ds2 = derived_scalars(sol2)
    eta1, _ = eta_theta_extension(ds, f_operator(sol, ds))
    eta2, _ = eta_theta_extension(ds2, f_operator(sol2, ds2))
    assert not (eta1[0][1] - eta2[0][1]).is_zero()
    m1, m2 = assemble_metric(sol), assemble_metric(sol2)
    assert all((m1.g[a][b] - m2.g[a][b]).is_zero() for a in range(4) for b in range(4))


# -- invariants ---------------------------------------------------------------------------------


def test_invariant_values(lccne):
    sol, _ = lccne
    inv = invariant_gamma_u(sol)
    assert inv.eval((0, 0, 1, 1)) == 2
    assert inv.eval((0, 0, 1, 2)) == Fraction(5, 4)


def test_invariant_constant_when_lambda_cc_zero():
    zero = Poly({}, 4)
    sol = SolutionData(K=Fraction(3), lambda_cc=zero, lambda_ca=zero, lambda_aa=zero,
                       mu_cc=zero, mu_ca=zero, mu_aa=zero, omega_cq=zero,
                       omega_aq=zero, r_override=Fraction(0))
    inv = invariant_gamma_u(sol)
    assert inv.is_constant() and inv.constant_value() == 3


def connection_route(sol, ds):
    """The metric, its Christoffel field and the deformed frame."""
    m = assemble_metric(sol)
    return m, christoffel(m), htilde_frame(f_operator(sol, ds))


def test_gamma_connection_matches_closed_form(generic):
    sol, ds = generic
    chr_g = gamma_via_connection(*connection_route(sol, ds))
    closed = gamma_closed_form(sol, ds)
    assert (chr_g["c"] - closed["c"]).is_zero()
    assert (chr_g["a"] - closed["a"]).is_zero()


def test_gamma_u_connection_matches_invariant(generic):
    """The normalized connection-route value equals the closed-form invariant."""
    sol, ds = generic
    inv = invariant_gamma_u(sol)
    via_conn = 4 * gamma_u_via_connection(*connection_route(sol, ds))
    assert (inv - via_conn).is_zero()
    for p in sample_points(5, seed=2):
        assert inv.eval(p.coords) == via_conn.eval(p.coords)


def test_gamma_vanishes_for_flat_reference():
    sol = flat_reference_data()
    ds = derived_scalars(sol)
    g = gamma_via_connection(*connection_route(sol, ds))
    assert g["c"].is_zero() and g["a"].is_zero()


# -- serialization -------------------------------------------------------------------------------


def test_solution_json_roundtrip(generic):
    sol, _ = generic
    data = json.loads(json.dumps(sol.to_json()))
    back = SolutionData.from_json(data)
    assert back.K == sol.K
    for name in COMPONENT_NAMES:
        assert getattr(back, name) == getattr(sol, name)


def test_solution_rejects_fibre_dependence():
    bad = Poly({(0, 0, 1, 0): 1}, 4)
    zero = Poly({}, 4)
    with pytest.raises(ValueError):
        SolutionData(K=Fraction(0), lambda_cc=bad, lambda_ca=zero, lambda_aa=zero,
                     mu_cc=zero, mu_ca=zero, mu_aa=zero, omega_cq=zero, omega_aq=zero)
