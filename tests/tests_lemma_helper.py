"""Paper-lemma identities and small constructors that only the tests use.

Each function states an identity of the construction (a residual that must
vanish, a closed form to compare against) in terms of the package's public
objects; the package itself never needs them.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

import numpy as np

from petrov3.builder import (NV, DerivedScalars, FOperator, FrameField, SolutionData,
                             apply_morphism, form_pair, gamma_via_connection, phi_ratfn,
                             raise_second_index, zeta_matrix)
from petrov3.duality import (NPAIRS, HodgeOperator, curvature_on_forms, inverse_gram_pairs,
                             project, sd_projectors)
from petrov3.exactfield import RatFn, X1, X2
from petrov3.pdesolve import CharacteristicFan
from petrov3.pdesystem import PlaneConnection, SectionPair, omega_pair
from petrov3.tensorcalc import DIM, PAIRS, ChartMetric, ChristoffelField


# -- the plane-bundle system ------------------------------------------------------------


def residual_brd(conn: PlaneConnection, sp: SectionPair, K: Fraction):
    """Endomorphism-valued and scalar residuals of the curvature/derivative system.

    first:  R(d1,d2) - [K Omega(c,.) q + K Omega(q,.) c]   (2x2 matrix)
    second: Omega(c, cov1 cov1 c - 2 cov2 q) - 1
    """
    R = conn.curvature()
    Kf = RatFn.const(K, NV)
    c, q = sp.c, sp.q
    # columns: image of basis vectors e_c = (1,0), e_a = (0,1)
    basis = ((RatFn.const(1, NV), RatFn.const(0, NV)),
             (RatFn.const(0, NV), RatFn.const(1, NV)))
    rhs = [[None, None], [None, None]]
    for col, e in enumerate(basis):
        om_ce = omega_pair(c, e)
        om_qe = omega_pair(q, e)
        rhs[0][col] = Kf * (om_ce * q[0] + om_qe * c[0])
        rhs[1][col] = Kf * (om_ce * q[1] + om_qe * c[1])
    first = [[R[i][j] - rhs[i][j] for j in range(2)] for i in range(2)]

    cc = conn.cov(1, conn.cov(1, c))
    dq = conn.cov(2, q)
    arg = (cc[0] - 2 * dq[0], cc[1] - 2 * dq[1])
    second = omega_pair(c, arg) - 1
    return first, second


def brd_eigen_diagnostics(conn: PlaneConnection, sp: SectionPair, K: Fraction, coords) -> dict:
    """Pointwise eigenstructure of the curvature against the section pair."""
    R = conn.curvature()
    R0 = [[float(R[i][j].eval(coords)) for j in range(2)] for i in range(2)]
    c0 = [float(x.eval(coords)) for x in sp.c]
    q0 = [float(x.eval(coords)) for x in sp.q]
    om_qc = q0[1] * c0[0] - q0[0] * c0[1]
    Rc = [R0[0][0] * c0[0] + R0[0][1] * c0[1], R0[1][0] * c0[0] + R0[1][1] * c0[1]]
    Rq = [R0[0][0] * q0[0] + R0[0][1] * q0[1], R0[1][0] * q0[0] + R0[1][1] * q0[1]]
    return {
        "R": R0,
        "eigenvalue_on_c": float(K) * om_qc,
        "Rc_minus_eig_c": [Rc[0] - float(K) * om_qc * c0[0], Rc[1] - float(K) * om_qc * c0[1]],
        "Rq_plus_eig_q": [Rq[0] + float(K) * om_qc * q0[0], Rq[1] + float(K) * om_qc * q0[1]],
    }


def fan_max_error(fan: CharacteristicFan, exact: Callable) -> float:
    """max |z - exact(y1, y2)| over the fan; ``exact`` receives the node arrays."""
    return float(np.max(np.abs(fan.z - exact(fan.y1, fan.y2))))


# -- the deformation operator and the 1-forms gamma~, alpha ------------------------------


def gamma_closed_form(sol: SolutionData, ds: DerivedScalars) -> Dict[str, RatFn]:
    """4 gamma~(v) = (E + K phi^2/2) Omega(X, v) - (L + 4 r phi^2) Omega(v, c), v in {c, a}."""
    phi = ds.phi
    K = RatFn.const(sol.K, NV)
    x1 = RatFn.var(X1, NV)
    coefE = ds.E + K * phi * phi / 2
    coefL = ds.L + 4 * ds.r * phi * phi
    # Omega(X, c) = phi, Omega(c, c) = 0; Omega(X, a) = -x1, Omega(a, c) = 1
    g_c = coefE * phi / 4
    g_a = (coefE * (-x1) - coefL) / 4
    return {"c": g_c, "a": g_a}


def gamma_extended(m: ChartMetric, gam: ChristoffelField, frame: FrameField) -> List[RatFn]:
    """The full 1-form gamma~ in coordinate components.

    On verticals it is the value extracted from covariant derivatives of the
    deformed frame; on the frame directions gamma~(w~_j) comes from the same
    defining relation, and the coordinate components follow from
    d_j = w~_j - F d_j, F d_j being the vertical part of w~_j.
    """
    zeta_12 = 2 / phi_ratfn()
    vert = gamma_via_connection(m, gam, frame)

    def gamma_of(vec: List[RatFn]) -> RatFn:
        nabla = _covariant_derivative_along(vec, frame.w1, gam)
        return -form_pair(m.g, nabla, frame.w2) / zeta_12

    out = [RatFn.const(0, NV)] * DIM
    out[2], out[3] = vert["c"], vert["a"]
    for j, w in ((0, frame.w1), (1, frame.w2)):
        gamma_w = gamma_of(w)
        Fc, Fa = w[2], w[3]
        out[j] = gamma_w - Fc * out[2] - Fa * out[3]
    return out


def sum_form(form: List[RatFn], vec: List[RatFn]) -> RatFn:
    s = RatFn.const(0, NV)
    for i in range(DIM):
        if not vec[i].is_zero():
            s = s + form[i] * vec[i]
    return s


def _covariant_derivative_along(direction: List[RatFn], vec: List[RatFn],
                                gam: ChristoffelField) -> List[RatFn]:
    out = []
    for mcomp in range(DIM):
        s = RatFn.const(0, NV)
        for a in range(DIM):
            if direction[a].is_zero():
                continue
            term = vec[mcomp].diff(a)
            for b in range(DIM):
                term = term + gam.gamma[mcomp][a][b] * vec[b]
            s = s + direction[a] * term
        out.append(s)
    return out


def alpha_extended(m: ChartMetric, ginv, gam: ChristoffelField,
                   frame: FrameField) -> List[RatFn]:
    """The 1-form alpha extended off the verticals by alpha(w~) = 2 gamma~(zeta w~)."""
    gamma1 = gamma_extended(m, gam, frame)
    zsharp = raise_second_index(zeta_matrix(), ginv)
    out = [RatFn.const(0, NV)] * DIM
    out[3] = -1 / phi_ratfn()                # alpha(a) = -d_a log phi
    for j, w in ((0, frame.w1), (1, frame.w2)):
        zw = apply_morphism(zsharp, w)       # vertical
        alpha_w = 2 * sum_form(gamma1, zw)
        Fc, Fa = w[2], w[3]
        out[j] = alpha_w - (Fc * out[2] + Fa * out[3])
    return out


def h_pairing_vertical(v: List[RatFn], w_index: int) -> RatFn:
    """h(v, d_{y_j}) = Omega(Y_{d_j}, v) for a vertical vector v = (v_c, v_a)."""
    x1 = RatFn.var(X1, NV)
    x2 = RatFn.var(X2, NV)
    v_c, v_a = v
    if w_index == 0:     # Y = X: Omega(X, v) = x1 v_a Omega(c, a) + x2 v_c Omega(a, c)
        return x2 * v_c - x1 * v_a
    # Y = c: Omega(c, v) = v_a Omega(c, a) = -v_a
    return -v_a


def f_on_wbar(op: FOperator, parts: bool = False):
    """F applied to wbar = phi^-1 d_y2 (and per-part values if requested)."""
    phi = phi_ratfn()
    total = [op.total[1][0] / phi, op.total[1][1] / phi]
    if not parts:
        return total
    return total, {name: [vals[1][0] / phi, vals[1][1] / phi] for name, vals in op.parts.items()}


# -- tensor identities ------------------------------------------------------------------


def nabla_g_residual(m: ChartMetric, gam: ChristoffelField) -> List:
    """Components of nabla g; identically zero for every Levi-Civita field."""
    res = []
    for a in range(DIM):
        plane = []
        for b in range(DIM):
            row = []
            for c in range(DIM):
                r = m.g[b][c].diff(a)
                for d in range(DIM):
                    r = r - gam.gamma[d][a][b] * m.g[d][c] - gam.gamma[d][a][c] * m.g[b][d]
                row.append(r)
            plane.append(row)
        res.append(plane)
    return res


def covariant_derivative_2form(omega: List, gam: ChristoffelField) -> List:
    """(nabla_a omega)_{bc} with the two lower indices corrected by Gamma."""
    out = []
    for a in range(DIM):
        plane = []
        for b in range(DIM):
            row = []
            for c in range(DIM):
                val = omega[b][c].diff(a)
                for d in range(DIM):
                    val = val - gam.gamma[d][a][b] * omega[d][c] \
                        - gam.gamma[d][a][c] * omega[b][d]
                row.append(val)
            plane.append(row)
        out.append(plane)
    return out


def exterior_derivative_1form(form: List) -> List:
    """(d beta)_{ab} = d_a beta_b - d_b beta_a."""
    return [[form[b].diff(a) - form[a].diff(b) for b in range(DIM)] for a in range(DIM)]


def wedge_1forms(beta: List, alpha: List) -> List:
    """(beta ^ alpha)_{ab} = beta_a alpha_b - beta_b alpha_a."""
    return [[beta[a] * alpha[b] - beta[b] * alpha[a] for b in range(DIM)]
            for a in range(DIM)]


def curvature_symmetry_residuals(R: List) -> list:
    """The pair antisymmetries and the pair exchange symmetry; all should be exactly zero."""
    out = []
    for j in range(DIM):
        for k in range(DIM):
            for l in range(DIM):
                for p in range(DIM):
                    out.append(R[j][k][l][p] + R[k][j][l][p])
                    out.append(R[j][k][l][p] + R[j][k][p][l])
                    out.append(R[j][k][l][p] - R[l][p][j][k])
    return out


def first_bianchi_residuals(R: List) -> list:
    out = []
    for j in range(DIM):
        for k in range(DIM):
            for l in range(DIM):
                for p in range(DIM):
                    out.append(R[j][k][l][p] + R[k][l][j][p] + R[l][j][k][p])
    return out


# -- 2-forms and the Weyl split ---------------------------------------------------------


def pairs_to_matrix(vec, zero) -> List[List]:
    """The antisymmetric 4x4 matrix with entries ``vec`` on the coordinate pairs."""
    out = [[zero] * DIM for _ in range(DIM)]
    for I, (a, b) in enumerate(PAIRS):
        out[a][b] = vec[I]
        out[b][a] = -vec[I]
    return out


@dataclass
class TwoFormField:
    """Antisymmetric 4x4 matrix of rational functions."""

    comp: List[List[RatFn]]

    def __post_init__(self):
        for a in range(DIM):
            for b in range(DIM):
                if not (self.comp[a][b] + self.comp[b][a]).is_zero():
                    raise ValueError("two-form not antisymmetric")

    def flat(self) -> List[RatFn]:
        return [self.comp[a][b] for (a, b) in PAIRS]

    def eval(self, coords) -> List[List[Fraction]]:
        return [[self.comp[a][b].eval(coords) for b in range(DIM)] for a in range(DIM)]


def twoform_from_flat(vec) -> TwoFormField:
    return TwoFormField(pairs_to_matrix(vec, RatFn.const(0)))


def twoform_inner(zeta: TwoFormField, eta: TwoFormField, ginv) -> RatFn:
    """<zeta, eta> = (1/2) zeta_{jk} eta^{jk}."""
    g2 = inverse_gram_pairs(ginv)
    zf, ef = zeta.flat(), eta.flat()
    s = RatFn.const(0, zf[0].nvars)
    for I in range(NPAIRS):
        for J in range(NPAIRS):
            s = s + zf[I] * g2[I][J] * ef[J]
    return s


def weyl_plus_minus(W4, h: HodgeOperator, ginv):
    """(W+, W-) as exact 6x6 matrices on the 2-form bundle."""
    W2 = curvature_on_forms(W4, ginv)
    Pp, Pm = sd_projectors(h)
    return project(Pp, W2), project(Pm, W2)
