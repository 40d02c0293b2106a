import random
from fractions import Fraction

import pytest

from petrov3 import builder
from petrov3.builder import (assemble_metric, derived_scalars, eta_theta_extension, f_operator,
                             zeta_matrix)
from petrov3.duality import (PAIRS, DegenerateFrame, NotSelfAdjoint,
                             NotTraceFree, NotTypeIII, WeylEndo,
                             canonical_frame, curvature_on_forms,
                             frac_eval_matrix, hodge_star, inverse_gram_pairs,
                             mat_mul, matrix_is_zero, normal_triple,
                             petrov_classify, sd_projectors, weyl_endo_at_point)
from petrov3.exactfield import RatFn, sample_points
from petrov3.pdesystem import lccne_generate
from petrov3.tensorcalc import (ChartMetric, christoffel, metric_inverse, riemann,
                                weyl, zero_matrix)
from tests_lemma_helper import (TwoFormField, pairs_to_matrix, twoform_from_flat,
                                twoform_inner, weyl_plus_minus)

DIM = 4


def diag_metric(*vals):
    g = zero_matrix()
    for i, v in enumerate(vals):
        g[i][i] = RatFn.const(v)
    return ChartMetric(g)


@pytest.fixture(scope="module")
def lccne_setup():
    sol = lccne_generate(1, 1)
    ds = derived_scalars(sol)
    m = assemble_metric(sol, orientation=-1)
    ginv = metric_inverse(m)
    curv = riemann(christoffel(m, ginv), m)
    W4 = weyl(curv, m, Fraction(1))
    h = hodge_star(m, ginv)
    return sol, ds, m, ginv, curv, W4, h


# -- inner product ---------------------------------------------------------------------


def test_normal_pairings_of_built_triple(lccne_setup):
    sol, ds, m, ginv, _, _, _ = lccne_setup
    zeta = TwoFormField(zeta_matrix())
    eta_c, theta_c = eta_theta_extension(ds, f_operator(sol, ds))
    eta, theta = TwoFormField(eta_c), TwoFormField(theta_c)
    assert (twoform_inner(zeta, theta, ginv) - 2).is_zero()
    assert (twoform_inner(eta, eta, ginv) + 2).is_zero()
    for a, b in ((zeta, zeta), (zeta, eta), (eta, theta), (theta, theta)):
        assert twoform_inner(a, b, ginv).is_zero()


def test_inner_product_diag_example():
    m = diag_metric(-1, -1, 1, 1)
    dy1dy2 = twoform_from_flat([RatFn.const(1)] + [RatFn.const(0)] * 5)
    dx1dx2 = twoform_from_flat([RatFn.const(0)] * 5 + [RatFn.const(1)])
    ginv = metric_inverse(m)
    # <dy1^dy2, dy1^dy2> = g^{11} g^{22} = 1, cross pairing zero
    assert (twoform_inner(dy1dy2, dy1dy2, ginv) - 1).is_zero()
    assert twoform_inner(dy1dy2, dx1dx2, ginv).is_zero()


def test_zuv_pairing_identity(lccne_setup):
    """<zeta, g(u,.) ^ g(v,.)> = zeta(u, v) at sampled points."""
    sol, _, m, ginv, _, _, _ = lccne_setup
    zeta = TwoFormField(zeta_matrix())
    rng = random.Random(2)
    for pt in sample_points(5, seed=9):
        u = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        v = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        gu = [sum(m.g[a][b].eval(pt.coords) * u[a] for a in range(4)) for b in range(4)]
        gv = [sum(m.g[a][b].eval(pt.coords) * v[a] for a in range(4)) for b in range(4)]
        wedge = [[gu[a] * gv[b] - gu[b] * gv[a] for b in range(4)] for a in range(4)]
        g2 = frac_eval_matrix(inverse_gram_pairs(ginv), pt.coords)
        zf = [zeta[0] if False else zeta.comp[a][b].eval(pt.coords) for (a, b) in PAIRS]
        wf = [wedge[a][b] for (a, b) in PAIRS]
        inner = sum(zf[i] * g2[i][j] * wf[j] for i in range(6) for j in range(6))
        direct = sum(u[a] * zeta.comp[a][b].eval(pt.coords) * v[b]
                     for a in range(4) for b in range(4))
        assert inner == direct


# -- hodge star ---------------------------------------------------------------------------


def test_star_squared_identity(lccne_setup):
    _, _, _, _, _, _, h = lccne_setup
    S2 = mat_mul(h.star, h.star)
    for i in range(6):
        for j in range(6):
            assert (S2[i][j] - (1 if i == j else 0)).is_zero()


def test_volume_density_is_phi(lccne_setup):
    _, _, _, _, _, _, h = lccne_setup
    assert (h.volume_density - builder.phi_ratfn()).is_zero()


def test_non_rational_volume_density_rejected():
    from petrov3.duality import NonRationalVolumeDensity

    g = zero_matrix()
    vals = (RatFn.const(1), RatFn.const(1), RatFn.const(1), RatFn.var(2))
    for i, v in enumerate(vals):
        g[i][i] = v                      # det = x1, no rational square root
    m = ChartMetric(g)
    with pytest.raises(NonRationalVolumeDensity):
        hodge_star(m, metric_inverse(m))


def test_orientation_flip_negates_star_and_swaps_projectors(lccne_setup):
    _, _, m, ginv, _, _, h = lccne_setup
    h2 = hodge_star(m.with_orientation(1), ginv)
    for i in range(6):
        for j in range(6):
            assert (h.star[i][j] + h2.star[i][j]).is_zero()
    Pp1, Pm1 = sd_projectors(h)
    Pp2, Pm2 = sd_projectors(h2)
    for i in range(6):
        for j in range(6):
            assert (Pp1[i][j] - Pm2[i][j]).is_zero()
            assert (Pm1[i][j] - Pp2[i][j]).is_zero()


def test_projector_images_are_orthogonal(lccne_setup):
    """<P+ w, P- w'> = 0 for the coordinate basis 2-forms."""
    _, _, m, ginv, _, _, h = lccne_setup
    Pp, Pm = sd_projectors(h)
    g2 = inverse_gram_pairs(ginv)
    cross = mat_mul([[Pp[j][i] for j in range(6)] for i in range(6)],
                    mat_mul(g2, Pm))
    assert matrix_is_zero(cross)


def test_anticommutation_property(lccne_setup):
    """zeta eta + eta zeta = -<zeta,eta> Id for sections of the same eigenbundle."""
    _, _, m, ginv, _, _, h = lccne_setup
    Pp, _ = sd_projectors(h)
    for pt in sample_points(3, seed=4):
        P0 = frac_eval_matrix(Pp, pt.coords)
        g0 = frac_eval_matrix(m.g, pt.coords)
        ginv0 = frac_eval_matrix(ginv, pt.coords)
        g20 = frac_eval_matrix(inverse_gram_pairs(ginv), pt.coords)
        cols = [0, 1]
        for ca in cols:
            for cb in cols:
                za = [P0[i][ca] for i in range(6)]
                zb = [P0[i][cb] for i in range(6)]
                Za, Zb = pairs_to_matrix(za, Fraction(0)), pairs_to_matrix(zb, Fraction(0))
                # endomorphisms via (bue.i)
                Ca = [[sum(Za[u][w] * ginv0[w][mm] for w in range(4)) for mm in range(4)]
                      for u in range(4)]
                Cb = [[sum(Zb[u][w] * ginv0[w][mm] for w in range(4)) for mm in range(4)]
                      for u in range(4)]
                comp = [[sum(Ca[u][w] * Cb[w][mm] + Cb[u][w] * Ca[w][mm] for w in range(4))
                         for mm in range(4)] for u in range(4)]
                # note composite as morphisms acts u -> (u Z g^-1); rows are inputs
                inner = sum(za[i] * g20[i][j] * zb[j] for i in range(6) for j in range(6))
                for u in range(4):
                    for mm in range(4):
                        want = -inner if u == mm else 0
                        assert comp[u][mm] == want


# -- W+/W- ----------------------------------------------------------------------------------


def test_wminus_zero_for_exactly_one_orientation(lccne_setup):
    _, _, m, ginv, _, W4, h = lccne_setup
    Wp, Wm = weyl_plus_minus(W4, h, ginv)
    assert matrix_is_zero(Wm)
    assert not matrix_is_zero(Wp)
    h2 = hodge_star(m.with_orientation(1), ginv)
    Wp2, Wm2 = weyl_plus_minus(W4, h2, ginv)
    assert not matrix_is_zero(Wm2)
    assert matrix_is_zero(Wp2)


def test_w_traces_vanish(lccne_setup):
    _, _, m, ginv, _, W4, h = lccne_setup
    Wp, Wm = weyl_plus_minus(W4, h, ginv)
    assert sum((Wp[i][i] for i in range(6)), RatFn.const(0)).is_zero()
    assert sum((Wm[i][i] for i in range(6)), RatFn.const(0)).is_zero()


def test_w_splits_into_plus_and_minus(lccne_setup):
    _, _, m, ginv, _, W4, h = lccne_setup
    Wp, Wm = weyl_plus_minus(W4, h, ginv)
    W2 = curvature_on_forms(W4, ginv)
    for i in range(6):
        for j in range(6):
            assert (Wp[i][j] + Wm[i][j] - W2[i][j]).is_zero()


def test_flat_metric_both_parts_zero():
    from tests_flat_helper import flat_reference_metric

    m = flat_reference_metric()
    ginv = metric_inverse(m)
    curv = riemann(christoffel(m, ginv), m)
    W4 = weyl(curv, m, Fraction(0))
    h = hodge_star(m, ginv)
    Wp, Wm = weyl_plus_minus(W4, h, ginv)
    assert matrix_is_zero(Wp) and matrix_is_zero(Wm)


# -- classification --------------------------------------------------------------------------


def _simple_endo(matrix, gram):
    return WeylEndo(matrix=[[Fraction(x) for x in row] for row in matrix],
                    gram=[[Fraction(x) for x in row] for row in gram],
                    basis=[[Fraction(0)] * 6 for _ in range(3)], point=(0, 0, 0, 0))


def test_classify_zero():
    e = _simple_endo([[0] * 3] * 3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert petrov_classify(e).tag == "Zero"


def test_classify_hand_built_nilpotent_index3():
    # chain basis (zeta, eta, theta): M zeta = 0, M eta = -zeta, M theta = eta;
    # Gram from the pairing table <z,t> = 2, <e,e> = -2, rest 0: self-adjoint.
    M = [[0, -1, 0], [0, 0, 1], [0, 0, 0]]
    G = [[0, 0, 2], [0, -2, 0], [2, 0, 0]]
    v = petrov_classify(_simple_endo(M, G))
    assert v.tag == "TypeIII"
    assert v.rank == 2 and v.nil_index == 3
    assert v.image_degenerate and not v.image_null


def test_classify_type2_rank1_null_image():
    # M x = 0, M y = 0, M z = x with x null: type II
    M = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    G = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    v = petrov_classify(_simple_endo(M, G))
    assert v.tag == "TypeII"
    assert v.rank == 1 and v.nil_index == 2 and v.image_null


def test_classify_other_for_diagonalizable():
    M = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    G = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert petrov_classify(_simple_endo(M, G)).tag == "Other"


def test_classify_precondition_errors():
    G = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(NotTraceFree):
        petrov_classify(_simple_endo([[1, 0, 0], [0, 1, 0], [0, 0, 1]], G))
    with pytest.raises(NotSelfAdjoint):
        petrov_classify(_simple_endo([[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                                     [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_lccne_pointwise_type3_both_routes(lccne_setup):
    _, _, m, ginv, _, W4, h = lccne_setup
    W2 = curvature_on_forms(W4, ginv)
    Pp, _ = sd_projectors(h)
    Wp = mat_mul(Pp, mat_mul(W2, Pp))
    g2 = inverse_gram_pairs(ginv)
    for pt in sample_points(5, seed=1):
        endo = weyl_endo_at_point(Wp, Pp, g2, pt.coords)
        v = petrov_classify(endo)
        assert v.tag == "TypeIII"
        assert v.rank == 2 and v.nil_index == 3
        assert v.image_degenerate and not v.image_null


# -- normal triple and canonical frame ---------------------------------------------------------


def test_normal_triple_relations_and_proportionality(lccne_setup):
    sol, _, m, ginv, _, W4, h = lccne_setup
    W2 = curvature_on_forms(W4, ginv)
    Pp, _ = sd_projectors(h)
    Wp = mat_mul(Pp, mat_mul(W2, Pp))
    g2 = inverse_gram_pairs(ginv)
    zeta_built = zeta_matrix()
    for pt in sample_points(4, seed=6):
        endo = weyl_endo_at_point(Wp, Pp, g2, pt.coords)
        zf, ef, tf = normal_triple(endo)
        W0 = frac_eval_matrix(Wp, pt.coords)
        G20 = frac_eval_matrix(g2, pt.coords)

        def act(vec):
            return [sum(W0[i][j] * vec[j] for j in range(6)) for i in range(6)]

        def inner(a, b):
            return sum(a[i] * G20[i][j] * b[j] for i in range(6) for j in range(6))

        assert act(zf) == [0] * 6
        assert act(ef) == [-x for x in zf]
        assert act(tf) == ef
        assert inner(zf, tf) == 2 and inner(ef, ef) == -2
        assert inner(zf, zf) == inner(zf, ef) == inner(ef, tf) == inner(tf, tf) == 0
        # proportional to the built 2 phi^-1 xi^tau
        zb = [zeta_built[a][b].eval(pt.coords) for (a, b) in PAIRS]
        ratios = {Fraction(a, b) for a, b in zip(zf, zb) if b != 0}
        assert len(ratios) == 1
        assert all(a == 0 for a, b in zip(zf, zb) if b == 0)
        # sign determinism: first nonzero component positive
        first = next(x for x in zf if x != 0)
        assert first > 0


def test_normal_triple_equals_built_forms(lccne_setup):
    """The pointwise triple coincides with the construction's own forms.

    Uniqueness up to a global sign plus the positive-first-component rule
    pins the extracted triple to the built one exactly.
    """
    sol, ds, m, ginv, _, W4, h = lccne_setup
    W2 = curvature_on_forms(W4, ginv)
    Pp, _ = sd_projectors(h)
    Wp = mat_mul(Pp, mat_mul(W2, Pp))
    g2 = inverse_gram_pairs(ginv)
    zeta_b = zeta_matrix()
    eta_b, theta_b = eta_theta_extension(ds, f_operator(sol, ds))
    for pt in sample_points(3, seed=13):
        endo = weyl_endo_at_point(Wp, Pp, g2, pt.coords)
        zf, ef, tf = normal_triple(endo)
        for vec, built in ((zf, zeta_b), (ef, eta_b), (tf, theta_b)):
            for I, (a, b) in enumerate(PAIRS):
                assert vec[I] == built[a][b].eval(pt.coords)
        # the negated triple satisfies the same chain relations
        W0 = frac_eval_matrix(Wp, pt.coords)

        def act(v):
            return [sum(W0[i][j] * v[j] for j in range(6)) for i in range(6)]

        assert act([-x for x in zf]) == [0] * 6
        assert act([-x for x in ef]) == [x for x in zf]
        assert act([-x for x in tf]) == [-x for x in ef]


def test_pointwise_curvature_homogeneity(lccne_setup):
    """Frames extracted independently at 10 points give one component table."""
    sol, ds, m, ginv, curv, W4, h = lccne_setup
    W2 = curvature_on_forms(W4, ginv)
    Pp, _ = sd_projectors(h)
    Wp = mat_mul(Pp, mat_mul(W2, Pp))
    g2 = inverse_gram_pairs(ginv)
    tables = set()
    for pt in sample_points(10, seed=21):
        endo = weyl_endo_at_point(Wp, Pp, g2, pt.coords)
        zf, ef, tf = normal_triple(endo)
        g0 = frac_eval_matrix(m.g, pt.coords)
        frame = canonical_frame(g0, pairs_to_matrix(zf, Fraction(0)),
                                pairs_to_matrix(ef, Fraction(0)), pairs_to_matrix(tf, Fraction(0)))
        R0 = [[[[curv.riemann[a][b][c][d].eval(pt.coords) for d in range(4)]
                for c in range(4)] for b in range(4)] for a in range(4)]

        def val2(T, x, y):
            return sum(x[i] * T[i][j] * y[j] for i in range(4) for j in range(4))

        def val4(a, b, c, d):
            s = Fraction(0)
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        for l in range(4):
                            s += frame[a][i] * frame[b][j] * frame[c][k] \
                                * frame[d][l] * R0[i][j][k][l]
            return s

        gtab = tuple(val2(g0, frame[a], frame[b]) for a in range(4) for b in range(4))
        rtab = tuple(val4(a, b, c, d)
                     for a in range(4) for b in range(4) for c in range(4) for d in range(4))
        tables.add((gtab, rtab))
    assert len(tables) == 1


def test_normal_triple_rejects_non_type3():
    e = _simple_endo([[0] * 3] * 3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    with pytest.raises(NotTypeIII):
        normal_triple(e)


def test_canonical_frame_component_table(lccne_setup):
    sol, ds, m, _, _, _, _ = lccne_setup
    eta_c, theta_c = eta_theta_extension(ds, f_operator(sol, ds))
    zeta_c = zeta_matrix()
    pt = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    g0 = frac_eval_matrix(m.g, pt)
    z0 = frac_eval_matrix(zeta_c, pt)
    e0 = frac_eval_matrix(eta_c, pt)
    t0 = frac_eval_matrix(theta_c, pt)
    frame = canonical_frame(g0, z0, e0, t0)
    w, wp, v, vp = frame

    def val(T, x, y):
        return sum(x[i] * T[i][j] * y[j] for i in range(4) for j in range(4))

    assert val(g0, v, w) == 1 and val(g0, vp, wp) == 1
    assert val(z0, w, wp) == 1
    assert val(e0, v, w) == 1 and val(e0, vp, wp) == 1
    assert val(t0, v, vp) == 2
    # frame is a basis
    import numpy as np
    M = np.array([[float(x) for x in vec] for vec in frame])
    assert abs(np.linalg.det(M)) > 1e-12


def test_canonical_frame_degenerate_rejected():
    g0 = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
    zero = [[Fraction(0)] * 4 for _ in range(4)]
    with pytest.raises(DegenerateFrame):
        canonical_frame(g0, zero, zero, zero)
