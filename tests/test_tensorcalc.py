import random
from fractions import Fraction

import numpy as np
import pytest

from petrov3.builder import SolutionData, assemble_metric, phi_ratfn
from petrov3.exactfield import Poly, RatFn, sample_points
from petrov3.pdesolve import lccne_generate
from petrov3.tensorcalc import (ChartMetric, CurvatureSet, NotEinstein, SingularMetric,
                                christoffel, curvature_symmetry_residuals,
                                first_bianchi_residuals, kulkarni_gg, metric_det,
                                metric_inverse, nabla_g_residual, numeric_christoffel,
                                numeric_riemann, numeric_ricci_scalar, riemann, weyl,
                                zero_matrix, _fd_partial)

DIM = 4


def diag_metric(*vals):
    g = zero_matrix()
    for i, v in enumerate(vals):
        g[i][i] = RatFn.const(v)
    return ChartMetric(g)


def flat_reference():
    zero = Poly({}, 4)
    return SolutionData(K=Fraction(0), lambda_cc=zero, lambda_ca=zero, lambda_aa=zero,
                        mu_cc=zero, mu_ca=zero, mu_aa=zero, omega_cq=zero,
                        omega_aq=zero, r_override=Fraction(0))


@pytest.fixture(scope="module")
def lccne_bits():
    sol = lccne_generate(1, 1)
    m = assemble_metric(sol)
    ginv = metric_inverse(m)
    gam = christoffel(m, ginv)
    curv = riemann(gam, m)
    return sol, m, ginv, gam, curv


# -- inverse and determinant --------------------------------------------------------


def test_constant_diagonal_self_inverse():
    m = diag_metric(-1, -1, 1, 1)
    inv = metric_inverse(m)
    for a in range(DIM):
        for b in range(DIM):
            assert (inv[a][b] - m.g[a][b]).is_zero()


def test_inverse_is_exact_inverse(lccne_bits):
    _, m, ginv, _, _ = lccne_bits
    for a in range(DIM):
        for b in range(DIM):
            s = RatFn.const(0)
            for c in range(DIM):
                s = s + m.g[a][c] * ginv[c][b]
            assert (s - (1 if a == b else 0)).is_zero()


def test_det_is_pairing_block_squared(lccne_bits):
    """Cofactor expansion agrees with the block-determinant oracle.

    With vanishing vertical-vertical block the determinant is the square of
    the determinant of the 2x2 vertical-horizontal pairing block, which here
    is -phi; hence det g = phi^2 exactly.
    """
    _, m, _, _, _ = lccne_bits
    det = metric_det(m)
    block_det = m.g[2][0] * m.g[3][1] - m.g[3][0] * m.g[2][1]
    assert (det - block_det * block_det).is_zero()
    phi = phi_ratfn()
    assert (det - phi * phi).is_zero()


def test_flat_reference_inverse_denominators_are_phi_powers():
    m = assemble_metric(flat_reference())
    inv = metric_inverse(m)
    rng = random.Random(0)
    for a in range(DIM):
        for b in range(DIM):
            den = inv[a][b].den
            # every denominator monomial in powers of x2 only
            for expo in den.terms:
                assert expo[0] == expo[1] == expo[2] == 0
            # spot-check against a pointwise linear solve
            pt = [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2)]
            num = np.linalg.inv(m.eval(pt))
            assert abs(num[a][b] - float(inv[a][b].eval(pt))) < 1e-10


def test_singular_metric_rejected():
    g = zero_matrix()
    with pytest.raises(SingularMetric):
        metric_inverse(ChartMetric(g))


# -- christoffel ------------------------------------------------------------------------


def test_constant_metric_has_zero_christoffel():
    m = diag_metric(-1, -1, 1, 1)
    gam = christoffel(m)
    assert all(gam.gamma[a][b][c].is_zero()
               for a in range(DIM) for b in range(DIM) for c in range(DIM))


def test_flat_reference_nonzero_christoffel_zero_curvature():
    m = assemble_metric(flat_reference())
    gam = christoffel(m)
    assert any(not gam.gamma[a][b][c].is_zero()
               for a in range(DIM) for b in range(DIM) for c in range(DIM))
    curv = riemann(gam, m)
    assert all(curv.riemann[j][k][l][p].is_zero()
               for j in range(DIM) for k in range(DIM) for l in range(DIM) for p in range(DIM))


def test_metric_compatibility_exact(lccne_bits):
    _, m, _, gam, _ = lccne_bits
    res = nabla_g_residual(m, gam)
    assert all(res[a][b][c].is_zero()
               for a in range(DIM) for b in range(DIM) for c in range(DIM))


# -- curvature --------------------------------------------------------------------------


def test_riemann_symmetries_exact(lccne_bits):
    _, _, _, _, curv = lccne_bits
    assert all(r.is_zero() for r in curvature_symmetry_residuals(curv.riemann))


def test_first_bianchi_exact(lccne_bits):
    _, _, _, _, curv = lccne_bits
    assert all(r.is_zero() for r in first_bianchi_residuals(curv.riemann))


def test_einstein_and_scalar(lccne_bits):
    _, m, _, _, curv = lccne_bits
    for a in range(DIM):
        for b in range(DIM):
            assert (curv.ricci[a][b] - 3 * m.g[a][b]).is_zero()
    assert (curv.scalar - 12).is_zero()


def test_ricci_flat_for_k0():
    sol = lccne_generate(0, 1)
    m = assemble_metric(sol)
    curv = riemann(christoffel(m), m)
    assert all(curv.ricci[a][b].is_zero() for a in range(DIM) for b in range(DIM))
    assert curv.scalar.is_zero()


def test_second_bianchi_numeric(lccne_bits):
    _, m, _, gam, curv = lccne_bits
    rng = random.Random(11)
    R = curv.riemann
    dR = [[[[[R[j][k][l][p].diff(e) for e in range(DIM)] for p in range(DIM)]
            for l in range(DIM)] for k in range(DIM)] for j in range(DIM)]
    for _ in range(5):
        pt = [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.8, 1.6)]
        G = [[[float(gam.gamma[a][b][c].eval(pt)) for c in range(DIM)]
              for b in range(DIM)] for a in range(DIM)]
        Rv = [[[[float(R[j][k][l][p].eval(pt)) for p in range(DIM)] for l in range(DIM)]
               for k in range(DIM)] for j in range(DIM)]

        def covR(e, j, k, l, p):
            val = float(dR[j][k][l][p][e].eval(pt))
            for d in range(DIM):
                val -= G[d][e][j] * Rv[d][k][l][p]
                val -= G[d][e][k] * Rv[j][d][l][p]
                val -= G[d][e][l] * Rv[j][k][d][p]
                val -= G[d][e][p] * Rv[j][k][l][d]
            return val

        worst = 0.0
        for (e, j, k) in ((0, 1, 2), (0, 2, 3), (1, 2, 3)):
            for l in range(DIM):
                for p in range(DIM):
                    s = covR(e, j, k, l, p) + covR(j, k, e, l, p) + covR(k, e, j, l, p)
                    worst = max(worst, abs(s))
        assert worst <= 1e-8


def test_exact_matches_finite_difference_riemann(lccne_bits):
    _, m, _, _, curv = lccne_bits
    rng = random.Random(3)
    mf = m.eval
    for _ in range(5):
        pt = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(-1, 1), rng.uniform(0.8, 1.8)])
        Rn = numeric_riemann(mf, pt, h=5e-3)
        scale = max(1.0, np.abs(Rn).max())
        for j in range(DIM):
            for k in range(DIM):
                for l in range(DIM):
                    for p in range(DIM):
                        ex = float(curv.riemann[j][k][l][p].eval(pt))
                        assert abs(ex - Rn[j, k, l, p]) / scale < 1e-6


def loop_numeric_riemann(metric_fn, x, h):
    """Reference: the index loops that the einsum contractions replaced (same stencil)."""
    def gamma_fn(pt):
        ginv = np.linalg.inv(metric_fn(pt))
        dg = np.stack([_fd_partial(metric_fn, pt, i, h) for i in range(DIM)])
        gamma = np.zeros((DIM, DIM, DIM))
        for a in range(DIM):
            for b in range(DIM):
                for c in range(DIM):
                    s = 0.0
                    for d in range(DIM):
                        s += ginv[a, d] * (dg[b][d][c] + dg[c][d][b] - dg[d][b][c])
                    gamma[a, b, c] = 0.5 * s
        return gamma

    g = metric_fn(x)
    gamma = gamma_fn(x)
    dgamma = np.stack([_fd_partial(gamma_fn, x, i, h) for i in range(DIM)])
    R = np.zeros((DIM, DIM, DIM, DIM))
    for j in range(DIM):
        for k in range(DIM):
            for l in range(DIM):
                rop = dgamma[k][:, j, l] - dgamma[j][:, k, l]
                for n in range(DIM):
                    rop = rop + gamma[n, j, l] * gamma[:, k, n] - gamma[n, k, l] * gamma[:, j, n]
                for p in range(DIM):
                    R[j, k, l, p] = rop @ g[:, p]
    return R, gamma


def test_einsum_mirror_matches_index_loops(lccne_bits):
    _, m, _, _, _ = lccne_bits
    rng = random.Random(11)
    for _ in range(3):
        pt = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(-1, 1), rng.uniform(0.8, 1.8)])
        R_ref, gamma_ref = loop_numeric_riemann(m.eval, pt, 5e-3)
        gamma = numeric_christoffel(m.eval, pt, 5e-3)
        assert np.abs(gamma - gamma_ref).max() <= 1e-14 * np.abs(gamma_ref).max()
        R = numeric_riemann(m.eval, pt, h=5e-3)
        assert np.abs(R - R_ref).max() <= 1e-12 * np.abs(R_ref).max()


# -- weyl and kulkarni-nomizu -------------------------------------------------------------


def test_kulkarni_diag_example():
    m = diag_metric(-1, -1, 1, 1)
    gg = kulkarni_gg(m)
    # (g^g)_{1212} in 1-based labels: g_11 g_22 = (-1)(-1) = 1
    assert (gg[0][1][0][1] - 1).is_zero()


def test_kulkarni_symmetries(lccne_bits):
    _, m, _, _, _ = lccne_bits
    gg = kulkarni_gg(m)
    assert all(r.is_zero() for r in curvature_symmetry_residuals(gg))
    assert all(r.is_zero() for r in first_bianchi_residuals(gg))


def test_weyl_trace_free(lccne_bits):
    _, m, ginv, _, curv = lccne_bits
    W = weyl(curv, m, Fraction(1))
    for k in range(DIM):
        for p in range(DIM):
            s = RatFn.const(0)
            for j in range(DIM):
                for l in range(DIM):
                    s = s + ginv[j][l] * W[j][k][l][p]
            assert s.is_zero()


def test_weyl_flat_zero():
    m = assemble_metric(flat_reference())
    curv = riemann(christoffel(m), m)
    W = weyl(curv, m, Fraction(0))
    assert all(W[j][k][l][p].is_zero()
               for j in range(DIM) for k in range(DIM) for l in range(DIM) for p in range(DIM))


def test_weyl_scaling_under_constant_conformal_factor(lccne_bits):
    sol, m, _, _, _ = lccne_bits
    W1 = weyl(riemann(christoffel(m), m), m, Fraction(1))
    scaled = ChartMetric([[4 * m.g[a][b] for b in range(DIM)] for a in range(DIM)])
    curv4 = riemann(christoffel(scaled), scaled)
    W4 = weyl(curv4, scaled, None, einstein_shortcut=False)
    for j in range(DIM):
        for k in range(DIM):
            for l in range(DIM):
                for p in range(DIM):
                    assert (W4[j][k][l][p] - 4 * W1[j][k][l][p]).is_zero()


def perturbed(m):
    g = [[m.g[a][b] for b in range(DIM)] for a in range(DIM)]
    g[0][0] = g[0][0] + RatFn.var(0)          # perturb one horizontal component
    return ChartMetric(g)


def test_not_einstein_detected(lccne_bits):
    sol, m, _, _, _ = lccne_bits
    bad = perturbed(m)
    curv = riemann(christoffel(bad), bad)
    with pytest.raises(NotEinstein):
        weyl(curv, bad, Fraction(1))
    # general decomposition still trace-free
    W = weyl(curv, bad, None, einstein_shortcut=False)
    ginv = metric_inverse(bad)
    for k in range(DIM):
        for p in range(DIM):
            s = RatFn.const(0)
            for j in range(DIM):
                for l in range(DIM):
                    s = s + ginv[j][l] * W[j][k][l][p]
            assert s.is_zero()


def test_numeric_and_exact_scalar_agree(lccne_bits):
    _, m, _, _, curv = lccne_bits
    pt = np.array([0.2, -0.1, 0.4, 1.1])
    _, _, scal = numeric_ricci_scalar(m.eval, pt, h=5e-3)
    assert abs(scal - float(curv.scalar.eval(pt))) < 1e-6


def weyl_all_slots(curv, m):
    """The full Ricci decomposition formed on all 256 slots: the reference for `weyl`."""
    R, ric, scal, g = curv.riemann, curv.ricci, curv.scalar, m.g
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    return [[[[R[j][k][l][p]
               - half * (g[j][l] * ric[k][p] - g[k][l] * ric[j][p]
                         + ric[j][l] * g[k][p] - ric[k][l] * g[j][p])
               + sixth * scal * (g[j][l] * g[k][p] - g[k][l] * g[j][p])
               for p in range(DIM)] for l in range(DIM)] for k in range(DIM)] for j in range(DIM)]


@pytest.mark.parametrize("perturb", [False, True], ids=["lccne_K1", "not_einstein"])
def test_weyl_pair_slots_match_all_slots_reference(lccne_bits, perturb):
    """The 21 pair slots extended by symmetry equal the formula on every slot, and
    the same call on Fraction point values gives the point values of W."""
    _, m, _, _, curv = lccne_bits
    if perturb:
        m = perturbed(m)
        curv = riemann(christoffel(m), m)
    W = weyl(curv, m, None, einstein_shortcut=False)
    ref = weyl_all_slots(curv, m)
    slots = [(j, k, l, p) for j in range(DIM) for k in range(DIM)
             for l in range(DIM) for p in range(DIM)]
    assert all((W[j][k][l][p] - ref[j][k][l][p]).is_zero() for j, k, l, p in slots)
    for pt in sample_points(3, seed=11):
        c = pt.coords
        R0 = [[[[curv.riemann[j][k][l][p].eval(c) for p in range(DIM)] for l in range(DIM)]
               for k in range(DIM)] for j in range(DIM)]
        ric0, g0 = ([[A[a][b].eval(c) for b in range(DIM)] for a in range(DIM)]
                    for A in (curv.ricci, m.g))
        W0 = weyl(CurvatureSet(R0, ric0, curv.scalar.eval(c)), ChartMetric(g0), None,
                  einstein_shortcut=False)
        assert all(W0[j][k][l][p] == W[j][k][l][p].eval(c) for j, k, l, p in slots)
