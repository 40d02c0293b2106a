"""Structural identities of the construction, checked as exact identities.

These are the four curvature conditions characterizing the deformed
horizontal distribution, the connection-form equations of the adapted
2-form triple, and the defining axioms of the underlying partial-metric
structure.  Together with the master identity they exercise every derived
object (alpha and gamma extensions, eta/theta, the deformation operator)
against the full Christoffel/curvature pipeline.  The last section checks
the layout of the package itself: module sizes and import order.
"""

import subprocess
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

from petrov3.builder import SolutionData, form_pair, octuple_fields
from petrov3.exactfield import Poly, RatFn
from petrov3.pdesolve import connection_normal_form
from petrov3.pdesystem import k0_solve, lccne_generate
from petrov3.verify import VerificationBundle
from tests_lemma_helper import (alpha_extended, covariant_derivative_2form,
                                exterior_derivative_1form, gamma_extended, sum_form,
                                wedge_1forms)

DIM = 4
ZERO = Poly({}, 4)
Y1P = Poly.var(0, 4)
Y2P = Poly.var(1, 4)


def solutions():
    """Four exact solutions exercising different parts of the data."""
    mu_ca = Y1P - Y1P * Y1P * Fraction(1, 2)
    with_mu = SolutionData(K=Fraction(0), lambda_cc=Poly.const(1, 4) - Y1P,
                           lambda_ca=ZERO, lambda_aa=ZERO,
                           mu_cc=mu_ca * mu_ca, mu_ca=mu_ca, mu_aa=Poly.const(1, 4),
                           omega_cq=ZERO, omega_aq=ZERO)
    conn = connection_normal_form("III")
    a1 = [[RatFn(Y1P), RatFn.const(0, 4)], [RatFn(2 * Y1P), RatFn(-1 * Y1P)]]
    a2 = [[RatFn.const(0, 4)] * 2, [RatFn.const(0, 4)] * 2]
    from petrov3.pdesystem import PlaneConnection

    _, with_q = k0_solve(PlaneConnection(a1, a2), (RatFn.const(0, 4), RatFn.const(1, 4)), Y2P)
    # K != 0 with constant q along a: r comes out genuinely y-dependent
    K, alpha = Fraction(2), Fraction(3)
    kq = SolutionData(K=K,
                      lambda_cc=Poly.const(1, 4) - Y1P,
                      lambda_ca=Poly.const(-K * alpha, 4) * Y2P + Y1P * Y1P,
                      lambda_aa=Y1P,
                      mu_cc=ZERO, mu_ca=ZERO, mu_aa=ZERO,
                      omega_cq=Poly.const(-alpha, 4), omega_aq=ZERO)
    return [lccne_generate(-2, 1, Poly({(1,): 1}, 1), None), with_mu, with_q, kq]


@pytest.fixture(scope="module", params=[0, 1, 2, 3],
                ids=["family", "with-mu", "with-q", "K-and-q"])
def setup(request):
    ctx = VerificationBundle.build(solutions()[request.param])
    return ctx.sol, ctx, ctx.metric, ctx.gamma


def frame_and_forms(ctx):
    eta, theta = ctx.eta_theta
    return ctx.htilde_frame, ctx.zeta, eta, theta


# -- the four curvature conditions ---------------------------------------------------------


def test_condition_vertical_curvature(setup):
    """R(w, u) v = K h(v, w) u for u, v vertical, w in the deformed frame."""
    sol, ctx, m, gam = setup
    R = ctx.curvature.riemann
    frame, _, _, _ = frame_and_forms(ctx)
    K = RatFn.const(sol.K, 4)
    for w in (frame.w1, frame.w2):
        for u in (frame.c, frame.a):
            for v in (frame.c, frame.a):
                # lowered: R(w, u, v, x) = K h(v, w) g(u, x) for every x
                hvw = form_pair(m.g, v, w)
                for x in range(DIM):
                    lhs = RatFn.const(0, 4)
                    for a in range(DIM):
                        if w[a].is_zero():
                            continue
                        for b in range(DIM):
                            if u[b].is_zero():
                                continue
                            for c in range(DIM):
                                if v[c].is_zero():
                                    continue
                                lhs = lhs + w[a] * u[b] * v[c] * R[a][b][c][x]
                    rhs = K * hvw * sum(u[b] * m.g[b][x] for b in range(DIM))
                    assert (lhs - rhs).is_zero()


def test_condition_beta_connection_form(setup):
    """d beta + 2 beta ^ alpha = -(K/2) zeta with the extended alpha."""
    sol, ctx, m, gam = setup
    beta = octuple_fields().beta
    alpha = alpha_extended(m, ctx.ginv, gam, ctx.htilde_frame)
    zeta = ctx.zeta
    K = RatFn.const(sol.K, 4)
    dbeta = exterior_derivative_1form(beta)
    ba = wedge_1forms(beta, alpha)
    for a in range(DIM):
        for b in range(DIM):
            res = dbeta[a][b] + 2 * ba[a][b] + K / 2 * zeta[a][b]
            assert res.is_zero()


def test_condition_theta_parallel(setup):
    """[nabla_w theta](u, v) = -2 alpha(w) theta(u, v) on frame directions."""
    sol, ctx, m, gam = setup
    frame, _, _, theta = frame_and_forms(ctx)
    alpha = alpha_extended(m, ctx.ginv, gam, ctx.htilde_frame)
    dtheta = covariant_derivative_2form(theta, gam)
    for w in (frame.w1, frame.w2):
        alpha_w = sum_form(alpha, w)
        for u in (frame.c, frame.a):
            for v in (frame.c, frame.a):
                lhs = RatFn.const(0, 4)
                for a in range(DIM):
                    if w[a].is_zero():
                        continue
                    lhs = lhs + w[a] * form_pair(dtheta[a], u, v)
                rhs = -2 * alpha_w * form_pair(theta, u, v)
                assert (lhs - rhs).is_zero()


def test_condition_gamma_curvature_form(setup):
    """2 d gamma + 4 alpha ^ gamma = K theta + eta, the full 2-form identity."""
    sol, ctx, m, gam = setup
    _, _, eta, theta = frame_and_forms(ctx)
    alpha = alpha_extended(m, ctx.ginv, gam, ctx.htilde_frame)
    gamma1 = gamma_extended(m, gam, ctx.htilde_frame)
    K = RatFn.const(sol.K, 4)
    dgamma = exterior_derivative_1form(gamma1)
    ag = wedge_1forms(alpha, gamma1)
    for a in range(DIM):
        for b in range(DIM):
            res = 2 * dgamma[a][b] + 4 * ag[a][b] - K * theta[a][b] - eta[a][b]
            assert res.is_zero()


# -- connection forms of the adapted triple ---------------------------------------------------


def test_triple_connection_forms(setup):
    """nabla zeta = 2a x zeta + 2b x eta, nabla eta = 2g x zeta + 2b x theta,
    nabla theta = 2g x eta - 2a x theta, all exact."""
    sol, ctx, m, gam = setup
    _, zeta, eta, theta = frame_and_forms(ctx)
    alpha = alpha_extended(m, ctx.ginv, gam, ctx.htilde_frame)
    gamma1 = gamma_extended(m, gam, ctx.htilde_frame)
    beta = octuple_fields().beta
    dz = covariant_derivative_2form(zeta, gam)
    de = covariant_derivative_2form(eta, gam)
    dt = covariant_derivative_2form(theta, gam)
    for a in range(DIM):
        for b in range(DIM):
            for c in range(DIM):
                r1 = dz[a][b][c] - 2 * alpha[a] * zeta[b][c] - 2 * beta[a] * eta[b][c]
                r2 = de[a][b][c] - 2 * gamma1[a] * zeta[b][c] - 2 * beta[a] * theta[b][c]
                r3 = dt[a][b][c] - 2 * gamma1[a] * eta[b][c] + 2 * alpha[a] * theta[b][c]
                assert r1.is_zero() and r2.is_zero() and r3.is_zero()


def test_divergence_relations(setup):
    """2 zeta gamma + eta alpha + theta beta = 2 eta beta + zeta alpha = zeta beta = 0.

    The (bue.ii)-raised combinations that express div W+ = 0.
    """
    from petrov3.builder import raise_second_index

    sol, ctx, m, gam = setup
    _, zeta, eta, theta = frame_and_forms(ctx)
    alpha = alpha_extended(m, ctx.ginv, gam, ctx.htilde_frame)
    gamma1 = gamma_extended(m, gam, ctx.htilde_frame)
    beta = octuple_fields().beta
    ginv = ctx.ginv

    def form_on_oneform(omega, xi):
        """(bue.ii): the 1-form omega(v, .) where g(v, .) = xi."""
        v = [sum(xi[w] * ginv[w][mm] for w in range(DIM)) for mm in range(DIM)]
        return [sum(v[u] * omega[u][b] for u in range(DIM)) for b in range(DIM)]

    zg = form_on_oneform(zeta, gamma1)
    ea = form_on_oneform(eta, alpha)
    tb = form_on_oneform(theta, beta)
    eb = form_on_oneform(eta, beta)
    za = form_on_oneform(zeta, alpha)
    zb = form_on_oneform(zeta, beta)
    for i in range(DIM):
        assert (2 * zg[i] + ea[i] + tb[i]).is_zero()
        assert (2 * eb[i] + za[i]).is_zero()
        assert zb[i].is_zero()


def test_gamma_bracket_identity(setup):
    """gamma(w) zeta(w', w'') = g(w, [w', w'']) on the deformed frame."""
    sol, ctx, m, gam = setup
    frame, zeta, _, _ = frame_and_forms(ctx)
    gamma1 = gamma_extended(m, gam, ctx.htilde_frame)

    def bracket(u, v):
        out = []
        for mm in range(DIM):
            s = RatFn.const(0, 4)
            for a in range(DIM):
                if not u[a].is_zero():
                    s = s + u[a] * v[mm].diff(a)
                if not v[a].is_zero():
                    s = s - v[a] * u[mm].diff(a)
            out.append(s)
        return out

    br = bracket(frame.w1, frame.w2)
    z12 = form_pair(zeta, frame.w1, frame.w2)
    for w in (frame.w1, frame.w2):
        lhs = sum_form(gamma1, w) * z12
        rhs = form_pair(m.g, w, br)
        assert (lhs - rhs).is_zero()


# -- partial-metric axioms --------------------------------------------------------------------


def test_octuple_axioms(setup):
    """The defining fibre-derivative axioms of the partial-metric structure.

    For parallel verticals u, v and projectable w: d_u[h(v,w)] = beta(w) theta(u,v);
    d_u[alpha(v)] = alpha(u) alpha(v); d_u[zeta(w,w')] = alpha(u) zeta(w,w');
    d_u[beta(w)] = 2 alpha(u) beta(w); d_u[theta(v,v')] = -2 alpha(u) theta(v,v');
    theta(v, zeta w) = 2 h(v, w); alpha(zeta w) = 2 beta(w).
    """
    from petrov3.builder import apply_morphism, raise_second_index

    sol, ctx, m, gam = setup
    oct_f = octuple_fields()
    frame, zeta, _, theta = frame_and_forms(ctx)
    zsharp = raise_second_index(zeta, ctx.ginv)
    verticals = {2: frame.c, 3: frame.a}
    horizontals = [frame.w1, frame.w2]
    alpha = oct_f.alpha
    beta = oct_f.beta

    for iu, u in verticals.items():
        alpha_u = alpha[iu]
        for iv, v in verticals.items():
            # d_u alpha(v) = alpha(u) alpha(v)
            assert (alpha[iv].diff(iu) - alpha_u * alpha[iv]).is_zero()
            # d_u theta(v, v') = -2 alpha(u) theta(v, v')
            for ivp, vp in verticals.items():
                t = form_pair(theta, v, vp)
                assert (t.diff(iu) + 2 * alpha_u * t).is_zero()
        for w in horizontals:
            hw = [form_pair(m.g, v, w) for v in verticals.values()]
            beta_w = sum_form(beta, w)
            # d_u h(v, w) = beta(w) theta(u, v); vertical parts of w are h-null
            for (iv, v), hvw in zip(verticals.items(), hw):
                assert (hvw.diff(iu) - beta_w * form_pair(theta, u, v)).is_zero()
            # d_u beta(w) = 2 alpha(u) beta(w)
            assert (beta_w.diff(iu) - 2 * alpha_u * beta_w).is_zero()
        # d_u zeta(w, w') = alpha(u) zeta(w, w')
        zww = form_pair(zeta, horizontals[0], horizontals[1])
        assert (zww.diff(iu) - alpha_u * zww).is_zero()

    # theta(v, zeta w) = 2 h(v, w) and alpha(zeta w) = 2 beta(w)
    for w in horizontals:
        zw = apply_morphism(zsharp, w)
        assert (sum_form(alpha, zw) - 2 * sum_form(beta, w)).is_zero()
        for v in verticals.values():
            assert (form_pair(theta, v, zw) - 2 * form_pair(m.g, v, w)).is_zero()


# -- package layout ---------------------------------------------------------------------------


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "petrov3"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# CPython's parser doubles its token array past 8,192 tokens, which shows in
# the memory of every import that compiles the module from source; 6,000
# leaves each module room to grow below that
MAX_MODULE_TOKENS = 6000


def _token_count(path: Path) -> int:
    """Tokens as `tokenize` yields them, without COMMENT and NL."""
    with path.open(encoding="utf-8") as f:
        return sum(1 for t in tokenize.generate_tokens(f.readline)
                   if t.type not in (tokenize.COMMENT, tokenize.NL))


def test_every_module_within_token_budget():
    sizes = {p.name: _token_count(p) for p in PACKAGE.glob("*.py")}
    assert len(sizes) >= 8
    assert {k: v for k, v in sizes.items() if v > MAX_MODULE_TOKENS} == {}


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_fresh_process(module):
    proc = subprocess.run([sys.executable, "-c", f"import petrov3.{module}"],
                          cwd=PACKAGE.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_pdesolve_keeps_the_names_its_importers_use():
    from petrov3 import pdesolve, pdesystem

    for name in ("lccne_generate", "SectionPair", "QuasiLinearPDE", "InitialCurve",
                 "characteristics_solve", "connection_normal_form", "gauge_fix"):
        assert hasattr(pdesolve, name), name
    assert pdesolve.lccne_generate is pdesystem.lccne_generate
    assert pdesolve.SectionPair is pdesystem.SectionPair
