from dataclasses import replace
from fractions import Fraction

import pytest

from petrov3 import duality
from petrov3.builder import SolutionData, assemble_metric
from petrov3.exactfield import Poly, RatFn, sample_points
from petrov3.pdesystem import lccne_generate
from petrov3.tensorcalc import ChartMetric
from petrov3.verify import (VerificationBundle, curvature_model, frame_components,
                            frame_tables, nonhomogeneity_witness, run_suite, selfdual_orientation,
                            verify_curvature_homogeneity, verify_curvature_identity,
                            verify_einstein, verify_einstein_metric,
                            verify_nonwalker, verify_selfdual_typeIII)
from tests_flat_helper import flat_reference_data, flat_reference_metric
from tests_metric_helper import nonzero_K_and_q_solution, sheared

Y2P = Poly.var(1, 4)


@pytest.fixture(scope="module")
def bundle_k1():
    return VerificationBundle.build(lccne_generate(1, 1))


@pytest.fixture(scope="module")
def flat_bundle():
    return VerificationBundle.build(flat_reference_data())


def perturbed_solution():
    sol = lccne_generate(1, 1)
    return SolutionData(K=sol.K, lambda_cc=sol.lambda_cc + Y2P, lambda_ca=sol.lambda_ca,
                        lambda_aa=sol.lambda_aa, mu_cc=sol.mu_cc, mu_ca=sol.mu_ca,
                        mu_aa=sol.mu_aa, omega_cq=sol.omega_cq, omega_aq=sol.omega_aq,
                        r_override=Fraction(0))


# -- einstein ---------------------------------------------------------------------------------


def test_einstein_passes_for_solutions(bundle_k1):
    rep = verify_einstein(bundle_k1)
    assert rep.status == "pass"
    assert rep.details["scalarResidualZero"]


def test_flat_reference_einstein_only_with_k0(flat_bundle):
    assert verify_einstein(flat_bundle).status == "pass"
    m = flat_bundle.metric
    assert verify_einstein_metric(m, Fraction(1)).status == "fail"


def test_einstein_fails_on_perturbed_metric(bundle_k1):
    m = bundle_k1.metric
    g = [[m.g[a][b] for b in range(4)] for a in range(4)]
    g[0][0] = g[0][0] + RatFn.var(0)
    assert verify_einstein_metric(ChartMetric(g), Fraction(1)).status == "fail"


# -- self-duality and type III ---------------------------------------------------------------


def test_selfdual_type3_passes(bundle_k1):
    rep = verify_selfdual_typeIII(bundle_k1, n_points=10, seed=0)
    assert rep.status == "pass"
    assert rep.orientation_used in (1, -1)
    assert rep.points_sampled == 10
    assert all(v["tag"] == "TypeIII" for v in rep.details["verdicts"])


def test_orientation_exclusivity(bundle_k1):
    orient, Wp, W2, _, _ = selfdual_orientation(bundle_k1)
    assert orient is not None
    from petrov3.duality import (hodge_star, mat_mul, matrix_is_zero, sd_projectors)

    other = bundle_k1.metric.with_orientation(-orient)
    h = hodge_star(other, bundle_k1.ginv)
    _, Pm = sd_projectors(h)
    Wm_other = mat_mul(Pm, mat_mul(W2, Pm))
    assert not matrix_is_zero(Wm_other)


def test_flat_metric_reports_indeterminate(flat_bundle):
    rep = verify_selfdual_typeIII(flat_bundle)
    assert rep.status == "indeterminate"


def test_ricci_flat_still_type3():
    bundle = VerificationBundle.build(lccne_generate(0, 1))
    assert verify_einstein(bundle).status == "pass"
    rep = verify_selfdual_typeIII(bundle)
    assert rep.status == "pass"


def test_selfdual_type3_numeric_oracle(bundle_k1):
    """Independent float pipeline: FD curvature, numeric star, eigen/rank analysis."""
    import numpy as np
    from itertools import permutations
    from petrov3.tensorcalc import numeric_ricci_scalar

    m = bundle_k1.metric
    K = 1.0
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        s, pl = 1, list(p)
        for i in range(4):
            for j in range(i + 1, 4):
                if pl[i] > pl[j]:
                    s = -s
        eps[p] = s
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(-1, 1), rng.uniform(0.8, 1.6)])
        R, ric, scal = numeric_ricci_scalar(m.eval, x, h=5e-3)
        g0 = m.eval(x)
        ginv = np.linalg.inv(g0)
        assert abs(scal - 12 * K) < 1e-6
        gg = np.einsum("jl,kp->jklp", g0, g0) - np.einsum("kl,jp->jklp", g0, g0)
        W = R - K * gg
        G2 = np.array([[ginv[a, c] * ginv[b, d] - ginv[a, d] * ginv[b, c]
                        for (c, d) in pairs] for (a, b) in pairs])
        W2 = np.array([[W[a, b, c, d] for (c, d) in pairs] for (a, b) in pairs]) @ G2
        vol = np.sqrt(abs(np.linalg.det(g0)))
        found = 0
        E = np.array([[eps[a, b, c, d] for (c, d) in pairs] for (a, b) in pairs])
        for orient in (1, -1):
            S = orient * vol * E @ G2
            assert np.abs(S @ S - np.eye(6)).max() < 1e-6
            Pm = (np.eye(6) - S) / 2
            Pp = (np.eye(6) + S) / 2
            Wm = Pm @ W2 @ Pm
            if np.abs(Wm).max() < 1e-5:
                found += 1
                Wp = Pp @ W2 @ Pp
                assert np.abs(Wp).max() > 1e-3
                assert np.abs(Wp @ Wp).max() > 1e-4
                assert np.abs(Wp @ Wp @ Wp).max() < 1e-5
                assert np.linalg.matrix_rank(Wp, tol=1e-6) == 2
        assert found == 1


# -- master identity ---------------------------------------------------------------------------


def test_curvature_identity_passes(bundle_k1):
    assert verify_curvature_identity(bundle_k1).status == "pass"


def test_curvature_identity_r_sensitivity():
    sol = lccne_generate(1, 1)
    sol_bad = sol.with_r_override(Fraction(1))          # true r is 0
    bundle = VerificationBundle.build(sol_bad)
    assert verify_curvature_identity(bundle).status == "fail"
    # while the metric itself is unchanged and still Einstein
    assert verify_einstein(bundle).status == "pass"


def test_curvature_identity_flat_degenerate(flat_bundle):
    """With zero forms supplied, the identity reduces to 2R == 0 for flat data.

    With the construction's own (nonzero) octuple forms it rightly fails:
    the flat metric is not of the Petrov type the identity characterizes.
    """
    zero = [[RatFn.const(0, 4) for _ in range(4)] for _ in range(4)]
    assert verify_curvature_identity(flat_bundle, zeta=zero, eta=zero).status == "pass"
    assert verify_curvature_identity(flat_bundle).status == "fail"


# -- homogeneity --------------------------------------------------------------------------------


def test_curvature_homogeneity_passes(bundle_k1):
    rep = verify_curvature_homogeneity(bundle_k1)
    assert rep.status == "pass"
    assert rep.details["curvatureComponents"]
    assert rep.points_sampled == 0          # exact check, no point evaluated


def _frame_curv_all_slots(R, fr, a, b, c, d):
    """Reference: R(e_a, e_b, e_c, e_d) summed over all four slots at once."""
    s = RatFn.const(0, 4)
    for i in range(4):
        if fr[a][i].is_zero():
            continue
        for j in range(4):
            if fr[b][j].is_zero():
                continue
            for k in range(4):
                if fr[c][k].is_zero():
                    continue
                for l in range(4):
                    if fr[d][l].is_zero():
                        continue
                    s = s + fr[a][i] * fr[b][j] * fr[c][k] * fr[d][l] * R[i][j][k][l]
    return s


@pytest.mark.parametrize("make_sol", [lambda: lccne_generate(1, 1), nonzero_K_and_q_solution],
                         ids=["lccne_K1", "nonzero_K_and_q"])
def test_frame_components_match_all_slots_reference(make_sol):
    bundle = VerificationBundle.build(make_sol())
    fr = bundle.canonical_frame
    R = bundle.curvature.riemann
    _, table = frame_tables(bundle)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    want = _frame_curv_all_slots(R, fr, a, b, c, d)
                    got = table[a][b][c][d]
                    assert (got.num, got.den) == (want.num, want.den), (a, b, c, d)


def test_frame_components_slot_order():
    """A frame of scaled coordinate vectors exposes any slot permutation."""
    R = [[[[RatFn.const(1 + i + 4 * j + 16 * k + 64 * l, 4) for l in range(4)]
            for k in range(4)] for j in range(4)] for i in range(4)]
    fr = [[RatFn.const(a + 2 if i == a else 0, 4) for i in range(4)] for a in range(4)]
    T = frame_components(R, fr)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    want = (a + 2) * (b + 2) * (c + 2) * (d + 2) * R[a][b][c][d]
                    assert T[a][b][c][d] == want


def test_curvature_homogeneity_detects_nonconstant_component(bundle_k1):
    R = [[[list(row) for row in mat] for mat in blk] for blk in bundle_k1.curvature.riemann]
    bump = RatFn.var(0) * RatFn.var(3)
    for (i, j, k, l), sign in (((0, 1, 0, 1), 1), ((1, 0, 0, 1), -1),
                               ((0, 1, 1, 0), -1), ((1, 0, 1, 0), 1)):
        R[i][j][k][l] = R[i][j][k][l] + sign * bump
    bad = VerificationBundle(bundle_k1.sol, bundle_k1.metric, bundle_k1.ginv,
                             replace(bundle_k1.curvature, riemann=R), bundle_k1.ds)
    rep = verify_curvature_homogeneity(bad)
    assert rep.status == "fail"
    assert "not constant" in rep.residual_max
    assert rep.residual_max.startswith("R[")


def test_same_K_instances_share_curvature_model(bundle_k1):
    other = VerificationBundle.build(
        lccne_generate(1, 4, Poly({(1,): 2}, 1), Poly({(0,): -1}, 1)))
    assert curvature_model(bundle_k1) == curvature_model(other)


def test_different_K_instances_differ():
    b0 = VerificationBundle.build(lccne_generate(0, 1))
    b1 = VerificationBundle.build(lccne_generate(1, 1))
    assert curvature_model(b0) != curvature_model(b1)


# -- non-walker ----------------------------------------------------------------------------------


def test_nonwalker_certificate(bundle_k1):
    rep = verify_nonwalker(bundle_k1)
    assert rep.status == "pass"
    assert rep.details["domain"] == "phi = x2 > 0"
    assert Fraction(rep.details["minSampledAbsBeta"]) > 0


def test_nonwalker_any_solution_data(flat_bundle):
    assert verify_nonwalker(flat_bundle).status == "pass"


# -- witness -------------------------------------------------------------------------------------


def test_witness_values(bundle_k1):
    rep = nonhomogeneity_witness(bundle_k1)
    assert rep.status == "pass"
    assert rep.details["values"] == ["2", "5/4"]
    assert rep.details["basePoint"] == ["0", "0"]
    assert rep.details["closedFormMatchesChristoffel"]


def test_witness_soundness(bundle_k1):
    from petrov3.builder import invariant_gamma_u

    rep = nonhomogeneity_witness(bundle_k1)
    inv = invariant_gamma_u(bundle_k1.sol)
    p1, p2 = rep.details["fibrePoints"]
    v1 = inv.eval(tuple(Fraction(c) for c in p1))
    v2 = inv.eval(tuple(Fraction(c) for c in p2))
    assert v1 != v2
    assert [str(v1), str(v2)] == rep.details["values"]


def test_witness_indeterminate_for_constant_invariant(flat_bundle):
    rep = nonhomogeneity_witness(flat_bundle)
    assert rep.status == "indeterminate"
    assert "reason" in rep.details


# -- suite ---------------------------------------------------------------------------------------


def test_full_suite_all_pass():
    for K in (1, 0, -2):
        sol = lccne_generate(K, 1)
        reports = run_suite(sol)
        statuses = {r.name: r.status for r in reports}
        assert all(s == "pass" for s in statuses.values()), statuses


def test_full_suite_nonzero_K_and_q():
    """A solution with K != 0, q != 0 and a y-dependent derived r."""
    from petrov3.builder import derived_scalars

    sol = nonzero_K_and_q_solution()
    ds = derived_scalars(sol)
    assert not ds.r.is_constant()
    reports = run_suite(sol)
    statuses = {r.name: r.status for r in reports}
    assert all(s == "pass" for s in statuses.values()), statuses


def test_suite_subset_and_orientation_override(bundle_k1):
    sol = bundle_k1.sol
    reports = run_suite(sol, checks=("einstein",))
    assert [r.name for r in reports] == ["einstein"]
    # requesting the wrong orientation makes the self-duality check fail
    orient, *_ = selfdual_orientation(bundle_k1)
    reports = run_suite(sol, checks=("selfdual",), orientation=-orient)
    assert reports[0].status == "fail"
    reports = run_suite(sol, checks=("selfdual",), orientation=orient)
    assert reports[0].status == "pass"


def test_each_verifier_fails_on_perturbed_input():
    """No vacuous passes: a deterministic perturbation breaks each check."""
    bad = VerificationBundle.build(perturbed_solution())
    assert verify_einstein(bad).status == "fail"
    rep = verify_selfdual_typeIII(bad)
    assert rep.status == "fail"
    assert verify_curvature_identity(bad).status == "fail"
    assert verify_curvature_homogeneity(bad).status == "fail"


# -- one geometry context per metric ------------------------------------------------------


COUNTED = (("builder", "assemble_metric"), ("tensorcalc", "metric_inverse"),
           ("tensorcalc", "christoffel"), ("tensorcalc", "riemann"), ("builder", "f_operator"))


@pytest.mark.parametrize("make_sol", [lambda: lccne_generate(1, 1), nonzero_K_and_q_solution],
                         ids=["lccne_K1", "nonzero_K_and_q"])
def test_run_suite_computes_each_object_once(make_sol, monkeypatch):
    """The metric, its inverse, Christoffel, Riemann and F are each built once per suite."""
    import petrov3
    from petrov3 import builder, cli, duality, exactfield, pdesolve, tensorcalc, verify

    modules = (builder, cli, duality, exactfield, pdesolve, tensorcalc, verify)
    counts = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for home, name in COUNTED:
        fn = getattr(getattr(petrov3, home), name)
        counts[name] = 0
        wrapped = counting(name, fn)
        for mod in modules:                  # the defining module and every importer
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapped)
    reports = run_suite(make_sol())
    assert all(r.status == "pass" for r in reports)
    assert counts == {name: 1 for _, name in COUNTED}


@pytest.mark.parametrize("built", [1, -1])
def test_context_projectors_match_hodge_star_of_each_orientation(built):
    """P+- of either orientation, from the context's one star, equal those of its own star."""
    from petrov3.duality import hodge_star, sd_projectors

    ctx = VerificationBundle.build(lccne_generate(1, 1), built)
    for orient in (1, -1):
        want = sd_projectors(hodge_star(ctx.metric.with_orientation(orient), ctx.ginv))
        for got, ref in zip(ctx.projectors(orient), want):
            assert all((got[i][j] - ref[i][j]).is_zero() for i in range(6) for j in range(6))


def _shifted_points(n, seed, k):
    """Sample points moved along x2 so that phi = x2 - k y1^2 stays in [1/2, 2]."""
    return [c[:3] + (c[3] + k * c[0] * c[0],) for c in (p.coords for p in sample_points(n, seed))]


CORE_METRICS = {
    "lccne_K1": (lambda: assemble_metric(lccne_generate(1, 1), -1), 0),
    "nonzero_K_and_q": (lambda: assemble_metric(nonzero_K_and_q_solution()), 0),
    "lccne_K1_shear+1": (lambda: sheared(assemble_metric(lccne_generate(1, 1)), 1), 1),
    "lccne_K1_shear-1": (lambda: sheared(assemble_metric(lccne_generate(1, 1)), -1), -1),
    "nonzero_K_and_q_shear+1": (lambda: sheared(assemble_metric(nonzero_K_and_q_solution()), 1), 1),
    "nonzero_K_and_q_shear-1": (lambda: sheared(assemble_metric(nonzero_K_and_q_solution()), -1),
                                -1),
    "flat": (flat_reference_metric, 0),
}


@pytest.mark.parametrize("name", list(CORE_METRICS))
def test_pointwise_core_matches_symbolic_reference(name):
    """`weyl_endo` on the point values of `forms_at` equals `weyl_endo_at_point`
    on the evaluated symbolic P W P, for both orientations."""
    make, k = CORE_METRICS[name]
    ctx = VerificationBundle(None, make())
    pts = _shifted_points(10, 21, k)
    forms = [ctx.forms_at(c) for c in pts]
    for orient in (1, -1):
        Wp, Pp = ctx.weyl_part(orient)
        for c, (W2, star, g2) in zip(pts, forms):
            want = duality.weyl_endo_at_point(Wp, Pp, ctx.g2, c)
            got = duality.weyl_endo(W2, duality.projector(star, orient), g2, c)
            assert (got.matrix, got.gram, got.basis, got.point) == \
                (want.matrix, want.gram, want.basis, want.point)
