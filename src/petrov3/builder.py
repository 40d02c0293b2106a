"""The metric construction over the canonical two-plane system.

Chart: coordinates (y1, y2, x1, x2) on Sigma x Pi_+, with xi = dy1, tau = dy2,
vertical basis c = d/dx1, a = d/dx2, area form Omega(a, c) = 1, radial field
X = x1 c + x2 a, and the fibre height phi = Omega(X, c) = x2 (positive on
Pi_+ = {x2 > 0}).

Solution data are the eight base-plane component functions of (q, lambda, mu)
together with the scalar-curvature constant K.  Everything derived here
(scalars s, r, f, the deformation operator, the metric, the auxiliary forms,
the local invariant) is an exact rational function of the chart coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .exactfield import Poly, RatFn, X1, X2, Y1, Y2
from .tensorcalc import ChartMetric, ChristoffelField, DIM, zero_matrix

NV = 4

COMPONENT_NAMES = ("lambda_cc", "lambda_ca", "lambda_aa",
                   "mu_cc", "mu_ca", "mu_aa", "omega_cq", "omega_aq")


class EqnResidualNonzero(ValueError):
    """Input fails the base-plane consistency equation; r cannot be derived."""


def _rf(p: Poly) -> RatFn:
    return RatFn(p)


def phi_ratfn() -> RatFn:
    return RatFn.var(X2, NV)


@dataclass
class SolutionData:
    """K plus the eight polynomial components on the base plane.

    Component polynomials depend on (y1, y2) only; they are stored as
    four-variable polynomials with zero x-exponents so that all downstream
    arithmetic happens in one ring.
    """

    K: Fraction
    lambda_cc: Poly
    lambda_ca: Poly
    lambda_aa: Poly
    mu_cc: Poly
    mu_ca: Poly
    mu_aa: Poly
    omega_cq: Poly
    omega_aq: Poly
    r_override: Optional[Fraction | Poly] = None

    def __post_init__(self):
        self.K = Fraction(self.K)
        for name in COMPONENT_NAMES:
            p = getattr(self, name)
            if any(e[2] or e[3] for e in p.terms):
                raise ValueError(f"{name} must not depend on the fibre variables")

    def components(self) -> Dict[str, Poly]:
        return {name: getattr(self, name) for name in COMPONENT_NAMES}

    def to_json(self) -> dict:
        data = {"K": str(self.K),
                "components": {name: getattr(self, name).to_json() for name in COMPONENT_NAMES}}
        if self.r_override is not None:
            r = self.r_override
            data["rOverride"] = str(r) if isinstance(r, Fraction) else r.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SolutionData":
        comps = {name: Poly.from_json(data["components"][name], NV) for name in COMPONENT_NAMES}
        r = data.get("rOverride")
        if r is not None:
            r = Fraction(str(r)) if isinstance(r, str) else Poly.from_json(r, NV)
        return cls(K=Fraction(str(data["K"])), r_override=r, **comps)

    def with_r_override(self, r) -> "SolutionData":
        if isinstance(r, int):
            r = Fraction(r)
        return SolutionData(self.K, self.lambda_cc, self.lambda_ca, self.lambda_aa,
                            self.mu_cc, self.mu_ca, self.mu_aa,
                            self.omega_cq, self.omega_aq, r_override=r)


# -- fibrewise symmetric forms as rational functions ---------------------------------


@dataclass
class FibreForms:
    """lambda, mu, q contracted with X and c, as chart rational functions."""

    lam_cc: RatFn
    lam_cX: RatFn
    lam_XX: RatFn
    mu_cc: RatFn
    mu_cX: RatFn
    mu_XX: RatFn
    om_Xq: RatFn       # Omega(X, q)
    om_qc: RatFn       # Omega(q, c) = d_q phi
    q_c: RatFn         # component of q along c
    q_a: RatFn         # component of q along a


def fibre_forms(sol: SolutionData) -> FibreForms:
    x1 = RatFn.var(X1, NV)
    x2 = RatFn.var(X2, NV)
    lcc, lca, laa = _rf(sol.lambda_cc), _rf(sol.lambda_ca), _rf(sol.lambda_aa)
    mcc, mca, maa = _rf(sol.mu_cc), _rf(sol.mu_ca), _rf(sol.mu_aa)
    om_cq, om_aq = _rf(sol.omega_cq), _rf(sol.omega_aq)
    # q = q_c c + q_a a with Omega(c, q) = -q_a... Omega(a, c) = 1:
    #   Omega(c, q) = q_a Omega(c, a) = -q_a  =>  q_a = -Omega(c, q)
    #   Omega(a, q) = q_c Omega(a, c) = q_c
    q_c = om_aq
    q_a = -om_cq
    return FibreForms(
        lam_cc=lcc,
        lam_cX=x1 * lcc + x2 * lca,
        lam_XX=x1 * x1 * lcc + 2 * x1 * x2 * lca + x2 * x2 * laa,
        mu_cc=mcc,
        mu_cX=x1 * mcc + x2 * mca,
        mu_XX=x1 * x1 * mcc + 2 * x1 * x2 * mca + x2 * x2 * maa,
        om_Xq=x1 * om_cq + x2 * om_aq,
        om_qc=-om_cq,
        q_c=q_c,
        q_a=q_a,
    )


@dataclass
class DerivedScalars:
    phi: RatFn
    s: RatFn
    r: RatFn
    f: RatFn
    A: RatFn
    Q: RatFn
    E: RatFn
    L: RatFn
    Lp: RatFn
    Lm: RatFn


def second_eqn_residual(sol: SolutionData) -> Poly:
    """lambda_1(c,c) + 2 Omega(c, q_2) - 4 mu(q, c) + 1, a base-plane polynomial."""
    q_c = sol.omega_aq
    q_a = -1 * sol.omega_cq
    mu_q_c = q_c * sol.mu_cc + q_a * sol.mu_ca
    return (sol.lambda_cc.diff(Y1) + 2 * sol.omega_cq.diff(Y2)
            - 4 * mu_q_c + Poly.const(1, NV))


def det_omega_lambda(sol: SolutionData) -> Poly:
    """det lambda / det Omega in the basis (c, a)."""
    return sol.lambda_cc * sol.lambda_aa - sol.lambda_ca * sol.lambda_ca


def derived_scalars(sol: SolutionData) -> DerivedScalars:
    """s, r, f and the closed-form combinations Q, E, L, L+-, A.

    s comes from the x2-coefficient of the second fibrewise identity; its
    x1-coefficient is the base-plane consistency equation, used as a guard.
    r then follows by one more derivative identity, unless overridden.
    """
    guard = second_eqn_residual(sol)
    if sol.r_override is None and not guard.is_zero():
        raise EqnResidualNonzero(
            "second equation residual is nonzero; provide rOverride to build anyway")

    ff = fibre_forms(sol)
    phi = phi_ratfn()
    K = RatFn.const(sol.K, NV)

    # x2-coefficient extraction of the second fibrewise identity
    om_a_q2 = _rf(sol.omega_aq.diff(Y2))
    mu_q_a = _rf(sol.omega_aq) * _rf(sol.mu_ca) + _rf(-1 * sol.omega_cq) * _rf(sol.mu_aa)
    s = -(_rf(sol.lambda_ca.diff(Y1)) + 2 * om_a_q2 - 4 * mu_q_a + _rf(det_omega_lambda(sol)))

    if sol.r_override is not None:
        r_poly = sol.r_override
        r = RatFn.const(r_poly, NV) if isinstance(r_poly, Fraction) else _rf(r_poly)
    else:
        # K Omega(q_1, c) + s_2 = 2 K lambda(c, q) + 8 r
        om_q1_c = _rf(-1 * sol.omega_cq.diff(Y1))
        lam_c_q = _rf(sol.omega_aq) * _rf(sol.lambda_cc) + _rf(-1 * sol.omega_cq) * _rf(sol.lambda_ca)
        r = (K * om_q1_c + s.diff(Y2) - 2 * K * lam_c_q) / 8

    f = r * phi ** 3 + (ff.lam_cX - ff.mu_XX - ff.om_qc) * phi / 4

    Q = ff.lam_XX + 2 * ff.om_Xq
    E = ff.lam_cc - 2 * ff.mu_cX + K * phi * phi / 2
    L = ff.mu_XX - ff.om_qc
    Lp = L + 2 * f / phi
    Lm = L - 2 * f / phi
    A = f / (phi * phi) - 2 * r * phi
    return DerivedScalars(phi=phi, s=s, r=r, f=f, A=A, Q=Q, E=E, L=L, Lp=Lp, Lm=Lm)


# -- the deformation operator F -------------------------------------------------------


@dataclass
class FOperator:
    """Vertical parts of the deformed frame: F w for w = d_y1, d_y2.

    Components are pairs (along c, along a).  ``parts`` keeps the K / q /
    lambda / mu / f-zeta summands separate for the closed-form cross-checks.
    """

    total: List[List[RatFn]]            # total[j] = (c-comp, a-comp) of F d_j
    parts: Dict[str, List[List[RatFn]]]


def _vertical_from_X_c(coef_X: RatFn, coef_c: RatFn) -> List[RatFn]:
    """Vertical vector coef_X * X + coef_c * c in the (c, a) component basis."""
    x1 = RatFn.var(X1, NV)
    x2 = RatFn.var(X2, NV)
    return [coef_X * x1 + coef_c, coef_X * x2]


def f_operator(sol: SolutionData, ds: DerivedScalars) -> FOperator:
    """All five summands of F applied to the coordinate base fields.

    For w with (xi(w), tau(w)) = (xw, tw):
      F^K w      = K phi tau(w) X / 2
      F^q w      = 2 xi(w) q - (d_q phi) phi^-1 Y_w
      F^lambda w = phi^-1 [ xi(w) lambda(X,X) c + tau(w) lambda(c,c) X ]
      F^mu w     = phi^-1 [ mu(X,X) Y_w - 2 mu(Y_w, X) X ]
      f zeta w   = -2 f phi^-2 Y_w
    with Y_w = xi(w) X + tau(w) c.
    """
    ff = fibre_forms(sol)
    phi = ds.phi
    K = RatFn.const(sol.K, NV)
    x1 = RatFn.var(X1, NV)
    x2 = RatFn.var(X2, NV)
    zero = RatFn.const(0, NV)
    one = RatFn.const(1, NV)

    parts: Dict[str, List[List[RatFn]]] = {name: [] for name in ("K", "q", "lambda", "mu", "fzeta")}
    total: List[List[RatFn]] = []
    for (xw, tw) in ((one, zero), (zero, one)):
        # Y_w components in (c, a)
        Yc = xw * x1 + tw
        Ya = xw * x2
        fk = _vertical_from_X_c(K * phi * tw / 2, zero)
        fq = [2 * xw * ff.q_c - ff.om_qc / phi * Yc,
              2 * xw * ff.q_a - ff.om_qc / phi * Ya]
        fl = [ (xw * ff.lam_XX + tw * ff.lam_cc * x1) / phi,
               (tw * ff.lam_cc * x2) / phi ]
        # mu(Y_w, X) = xi(w) mu(X,X) + tau(w) mu(c,X)
        mu_YX = xw * ff.mu_XX + tw * ff.mu_cX
        fm = [ (ff.mu_XX * Yc - 2 * mu_YX * x1) / phi,
               (ff.mu_XX * Ya - 2 * mu_YX * x2) / phi ]
        fz = [-2 * ds.f / (phi * phi) * Yc, -2 * ds.f / (phi * phi) * Ya]
        parts["K"].append(fk)
        parts["q"].append(fq)
        parts["lambda"].append(fl)
        parts["mu"].append(fm)
        parts["fzeta"].append(fz)
        total.append([fk[0] + fq[0] + fl[0] + fm[0] + fz[0],
                      fk[1] + fq[1] + fl[1] + fm[1] + fz[1]])
    return FOperator(total=total, parts=parts)


def assemble_metric(sol: SolutionData, orientation: int = 1) -> ChartMetric:
    """The metric of the construction, in coordinates (y1, y2, x1, x2).

    Vertical-vertical block vanishes; the cross block is the fixed pairing of
    the two-plane system; the horizontal block is minus the symmetrized
    h-pairing with F, which the f zeta summand drops out of.
    """
    ff = fibre_forms(sol)
    phi = phi_ratfn()
    K = RatFn.const(sol.K, NV)
    x1 = RatFn.var(X1, NV)
    zero = RatFn.const(0, NV)

    g = zero_matrix(NV)
    # horizontal block: [[-2Q, -2L], [-2L, 2E]]
    Q = ff.lam_XX + 2 * ff.om_Xq
    L = ff.mu_XX - ff.om_qc
    E = ff.lam_cc - 2 * ff.mu_cX + K * phi * phi / 2
    g[0][0] = -2 * Q
    g[0][1] = g[1][0] = -2 * L
    g[1][1] = 2 * E
    # cross block: g(c, d1) = phi, g(c, d2) = 0, g(a, d1) = -x1, g(a, d2) = -1
    g[0][2] = g[2][0] = phi
    g[0][3] = g[3][0] = -x1
    g[1][2] = g[2][1] = zero
    g[1][3] = g[3][1] = RatFn.const(-1, NV)
    return ChartMetric(g, orientation)


# -- auxiliary forms and frames -------------------------------------------------------


@dataclass
class OctupleForms:
    """The canonical forms of the underlying octuple, extended to the chart."""

    alpha: List[RatFn]        # 1-form components (y1, y2, x1, x2); -d log phi
    beta: List[RatFn]         # phi^-2 xi
    zeta: List[List[RatFn]]   # 2 phi^-1 xi ^ tau, as an antisymmetric matrix
    theta_vert: RatFn         # theta(c, a) = phi^2 Omega(c, a)
    wbar: List[RatFn]         # horizontal section with xi(wbar)=0, tau(wbar)=phi^-1
    ubar: List[RatFn]         # vertical section with h(ubar, .) = beta; phi^-3 c


def octuple_fields() -> OctupleForms:
    phi = phi_ratfn()
    zero = RatFn.const(0, NV)
    one = RatFn.const(1, NV)
    alpha = [zero, zero, zero, -1 / phi]
    beta = [1 / (phi * phi), zero, zero, zero]
    zeta = [[zero for _ in range(DIM)] for _ in range(DIM)]
    zeta[0][1] = 2 / phi
    zeta[1][0] = -2 / phi
    theta_vert = -phi * phi          # theta(c, a) = phi^2 Omega(c, a) = -phi^2
    wbar = [zero, 1 / phi, zero, zero]
    ubar = [zero, zero, 1 / (phi ** 3), zero]
    return OctupleForms(alpha=alpha, beta=beta, zeta=zeta, theta_vert=theta_vert,
                        wbar=wbar, ubar=ubar)


@dataclass
class FrameField:
    """Deformed horizontal frame w~_j = d_j + F d_j plus the vertical basis."""

    w1: List[RatFn]
    w2: List[RatFn]
    c: List[RatFn]
    a: List[RatFn]

    def vectors(self) -> List[List[RatFn]]:
        return [self.w1, self.w2, self.c, self.a]


def htilde_frame(op: FOperator) -> FrameField:
    zero = RatFn.const(0, NV)
    one = RatFn.const(1, NV)
    w1 = [one, zero, op.total[0][0], op.total[0][1]]
    w2 = [zero, one, op.total[1][0], op.total[1][1]]
    c = [zero, zero, one, zero]
    a = [zero, zero, zero, one]
    return FrameField(w1=w1, w2=w2, c=c, a=a)


def form_pair(omega: List[List[RatFn]], u: List[RatFn], v: List[RatFn]) -> RatFn:
    s = RatFn.const(0, NV)
    for i in range(DIM):
        if u[i].is_zero():
            continue
        for j in range(DIM):
            if v[j].is_zero():
                continue
            s = s + u[i] * omega[i][j] * v[j]
    return s


def eta_theta_extension(ds: DerivedScalars, op: FOperator):
    """Full chart matrices of eta and theta adapted to the deformed frame.

    eta: +1 eigenspace the verticals, -1 eigenspace the deformed horizontals,
    pairing eta(v, w) = h(v, w); picks up the f zeta asymmetry on the
    horizontal-horizontal slot, which is how r enters downstream identities.
    theta: phi^2 Omega on verticals, extended by zero on the deformed frame.
    """
    phi = ds.phi
    x1 = RatFn.var(X1, NV)
    zero = RatFn.const(0, NV)

    eta = [[zero for _ in range(DIM)] for _ in range(DIM)]
    # eta(v, d_j) = h(v, d_j): rows/cols ordered (y1, y2, x1, x2)
    h_c = [phi, zero]
    h_a = [-x1, RatFn.const(-1, NV)]
    for j, (hc, ha) in enumerate(zip(h_c, h_a)):
        eta[2][j] = hc
        eta[j][2] = -hc
        eta[3][j] = ha
        eta[j][3] = -ha
    # eta(d_i, d_j) = -2 f zeta(d_i, d_j)
    eta[0][1] = -4 * ds.f / phi
    eta[1][0] = -eta[0][1]

    theta = [[zero for _ in range(DIM)] for _ in range(DIM)]
    theta[2][3] = -phi * phi
    theta[3][2] = phi * phi
    # theta(d_j, v) = -theta(F d_j, v) = -phi^2 Omega(F d_j, v)
    for j in range(2):
        Fc, Fa = op.total[j]
        # Omega(F d_j, c) = Fa Omega(a, c) = Fa ; Omega(F d_j, a) = -Fc
        theta[j][2] = -phi * phi * Fa
        theta[2][j] = -theta[j][2]
        theta[j][3] = phi * phi * Fc
        theta[3][j] = -theta[j][3]
    # theta(d_i, d_j) = theta(F d_i, F d_j) = phi^2 Omega(F d_i, F d_j)
    F1c, F1a = op.total[0]
    F2c, F2a = op.total[1]
    om_F1_F2 = F1a * F2c - F1c * F2a      # Omega(F d_1, F d_2) with Omega(a, c) = 1
    theta[0][1] = phi * phi * om_F1_F2
    theta[1][0] = -theta[0][1]
    return eta, theta


def zeta_matrix() -> List[List[RatFn]]:
    return octuple_fields().zeta


def raise_second_index(omega: List[List[RatFn]], ginv) -> List[List[RatFn]]:
    """Morphism C with g(C u, .) = omega(u, .): C^m_u = omega_{u w} g^{w m}."""
    out = [[RatFn.const(0, NV) for _ in range(DIM)] for _ in range(DIM)]
    for u in range(DIM):
        for m in range(DIM):
            s = RatFn.const(0, NV)
            for w in range(DIM):
                s = s + omega[u][w] * ginv[w][m]
            out[u][m] = s
    return out


def apply_morphism(C: List[List[RatFn]], vec: List[RatFn]) -> List[RatFn]:
    """Apply the (bue.i) morphism to a vector: (C vec)^m = sum_u vec^u C^u_m... rows=input."""
    out = []
    for m in range(DIM):
        s = RatFn.const(0, NV)
        for u in range(DIM):
            s = s + vec[u] * C[u][m]
        out.append(s)
    return out


def invariant_gamma_u(sol: SolutionData) -> RatFn:
    """The local invariant K + [lambda(c,c) - 2 mu(c,X)] phi^-2."""
    ff = fibre_forms(sol)
    phi = phi_ratfn()
    return RatFn.const(sol.K, NV) + (ff.lam_cc - 2 * ff.mu_cX) / (phi * phi)


def gamma_via_connection(m: ChartMetric, gam: ChristoffelField,
                         frame: FrameField) -> Dict[str, RatFn]:
    """gamma~ on the verticals, extracted from covariant derivatives of the frame.

    gamma~(v) = -g(nabla_v w~_1, w~_2) / zeta(w~_1, w~_2), with
    zeta(w~_1, w~_2) = zeta(d_1, d_2) = 2/phi.
    """
    zeta_12 = 2 / phi_ratfn()
    out = {}
    for name, vidx in (("c", 2), ("a", 3)):
        nabla = _covariant_derivative_along_coordinate(frame.w1, vidx, gam)
        val = form_pair(m.g, nabla, frame.w2)
        out[name] = -val / zeta_12
    return out


def gamma_u_via_connection(m: ChartMetric, gam: ChristoffelField, frame: FrameField) -> RatFn:
    """gamma~(ubar) from the Christoffel route; ubar = phi^-3 c."""
    g = gamma_via_connection(m, gam, frame)
    phi = phi_ratfn()
    return g["c"] / phi ** 3


def _covariant_derivative_along_coordinate(vec: List[RatFn], direction: int,
                                           gam: ChristoffelField) -> List[RatFn]:
    out = []
    for mcomp in range(DIM):
        s = vec[mcomp].diff(direction)
        for b in range(DIM):
            s = s + gam.gamma[mcomp][direction][b] * vec[b]
        out.append(s)
    return out


def canonical_frame_field(ginv, frame: FrameField):
    """Global frame (w, w', v, v') realizing the constant component tables.

    w = w~_1, w' = (phi/2) w~_2 gives zeta(w, w') = 1; then v = -zeta w' and
    v' = zeta w via the index-raised morphism of the metric.
    """
    zsharp = raise_second_index(zeta_matrix(), ginv)
    phi = phi_ratfn()
    w = frame.w1
    wp = [phi / 2 * comp for comp in frame.w2]
    v = [-comp for comp in apply_morphism(zsharp, wp)]
    vp = apply_morphism(zsharp, w)
    return [w, wp, v, vp]
