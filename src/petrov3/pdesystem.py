"""The construction's quasi-linear PDE system, exactly.

Covers the exact residuals of the system and its four-equation component
form, the reformulation as an area-preserving plane-bundle connection plus a
section pair, and the solution branches built from it: K = 0 and the explicit
polynomial family.  The numeric mirror (normal forms, characteristics, gauge
fixing) lives in `pdesolve`.

Base-plane objects live in the same four-variable ring as everything else,
with the fibre exponents unused; bundle components are taken in the frame
(c, a) with Omega(a, c) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .exactfield import Poly, RatFn, X2, Y1, Y2
from .builder import NV, SolutionData, second_eqn_residual, fibre_forms

Vec2 = Tuple[RatFn, RatFn]


# -- residuals of the system -----------------------------------------------------------


def residual_eqn(sol: SolutionData) -> Tuple[RatFn, RatFn]:
    """The two residuals of the governing system; both vanish iff sol solves it.

    first  = [2 mu_1(X,X) - lam_2(X,X)] phi - 4 lam(c,X) mu(X,X)
             + 4 mu(c,X) lam(X,X) + 2 K phi^2 Omega(X,q)
    second = lam_1(c,c) + 2 Omega(c,q_2) - 4 mu(q,c) + 1
    """
    ff = fibre_forms(sol)
    phi = RatFn.var(X2, NV)
    K = RatFn.const(sol.K, NV)
    first = ((2 * ff.mu_XX.diff(Y1) - ff.lam_XX.diff(Y2)) * phi
             - 4 * ff.lam_cX * ff.mu_XX + 4 * ff.mu_cX * ff.lam_XX
             + 2 * K * phi * phi * ff.om_Xq)
    second = RatFn(second_eqn_residual(sol))
    return first, second


def residual_loc(sol: SolutionData) -> List[Poly]:
    """The four component equations' residuals, base-plane polynomials.

    Zero iff `residual_eqn` vanishes: the first three are the quadratic-form
    coefficients (in the fibre variable) of the first fibrewise identity, the
    fourth is the second identity.  The mixed-coefficient equation is the
    coefficient extraction itself,
        2 mu_1(a,c) - lam_2(a,c) = 2 lam(c,c) mu(a,a) - 2 mu(c,c) lam(a,a)
                                   - K Omega(c,q),
    which on exact solutions is the identity the curvature pipeline certifies.
    """
    lcc, lca, laa = sol.lambda_cc, sol.lambda_ca, sol.lambda_aa
    mcc, mca, maa = sol.mu_cc, sol.mu_ca, sol.mu_aa
    om_cq, om_aq = sol.omega_cq, sol.omega_aq
    r1 = 2 * mcc.diff(Y1) - lcc.diff(Y2) - 4 * lcc * mca + 4 * mcc * lca
    r2 = (2 * maa.diff(Y1) - laa.diff(Y2) - 4 * lca * maa + 4 * mca * laa
          + 2 * sol.K * om_aq)
    r3 = (2 * mca.diff(Y1) - lca.diff(Y2) - 2 * lcc * maa + 2 * mcc * laa
          + sol.K * om_cq)
    r4 = second_eqn_residual(sol)
    return [r1, r2, r3, r4]


# -- connection-pair reformulation ------------------------------------------------------


@dataclass
class PlaneConnection:
    """SL(2,R)-connection on the trivial plane bundle over the base.

    ``a1`` and ``a2`` are the connection matrices in the frame (c, a):
    covariant derivative along d_j of a section v is v_j + A_j v.  Both must
    be trace-free for the area form to be parallel.
    """

    a1: List[List[RatFn]]
    a2: List[List[RatFn]]

    def __post_init__(self):
        for A in (self.a1, self.a2):
            if not (A[0][0] + A[1][1]).is_zero():
                raise ValueError("connection matrix not trace-free (area form not parallel)")

    def gamma(self, j: int, k: int, l: int) -> RatFn:
        """Component Gamma^l_{jk} with j in {1, 2} labelling the base direction."""
        A = self.a1 if j == 1 else self.a2
        return A[l][k]

    def curvature(self) -> List[List[RatFn]]:
        """R(d1, d2) = A1,2 - A2,1 + [A2, A1] as a 2x2 matrix field."""
        A1, A2 = self.a1, self.a2
        dA1 = [[A1[i][j].diff(Y2) for j in range(2)] for i in range(2)]
        dA2 = [[A2[i][j].diff(Y1) for j in range(2)] for i in range(2)]
        comm = _mat2_sub(_mat2_mul(A2, A1), _mat2_mul(A1, A2))
        return _mat2_add(_mat2_sub(dA1, dA2), comm)

    def cov(self, j: int, v: Vec2) -> Vec2:
        A = self.a1 if j == 1 else self.a2
        d = Y1 if j == 1 else Y2
        return (v[0].diff(d) + A[0][0] * v[0] + A[0][1] * v[1],
                v[1].diff(d) + A[1][0] * v[0] + A[1][1] * v[1])

    def to_json(self) -> dict:
        return {"Gamma": [[[self.gamma(j, k, l).to_json() for l in range(2)]
                           for k in range(2)] for j in (1, 2)]}

    @classmethod
    def from_json(cls, data: dict) -> "PlaneConnection":
        G = data["Gamma"]
        a1 = [[RatFn.from_json(G[0][k][l], NV) for k in range(2)] for l in range(2)]
        a2 = [[RatFn.from_json(G[1][k][l], NV) for k in range(2)] for l in range(2)]
        return cls(a1, a2)


def _mat2_mul(A, B):
    return [[A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]],
            [A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]]]


def _mat2_add(A, B):
    return [[A[i][j] + B[i][j] for j in range(2)] for i in range(2)]


def _mat2_sub(A, B):
    return [[A[i][j] - B[i][j] for j in range(2)] for i in range(2)]


@dataclass
class SectionPair:
    """Sections c and q of the plane bundle, components in the frame (c, a)."""

    c: Vec2
    q: Vec2


def omega_pair(u: Vec2, v: Vec2) -> RatFn:
    """Omega(u, v) = u_a v_c - u_c v_a in the frame with Omega(a, c) = 1."""
    return u[1] * v[0] - u[0] * v[1]


def to_connection_pair(sol: SolutionData) -> Tuple[PlaneConnection, SectionPair]:
    """delta = Omega^-1 lambda, epsilon = Omega^-1 mu; A1 = delta, A2 = 2 epsilon."""
    def omega_raise(f_cc: Poly, f_ca: Poly, f_aa: Poly):
        return [[RatFn(-1 * f_ca), RatFn(-1 * f_aa)],
                [RatFn(f_cc), RatFn(f_ca)]]

    delta = omega_raise(sol.lambda_cc, sol.lambda_ca, sol.lambda_aa)
    eps = omega_raise(sol.mu_cc, sol.mu_ca, sol.mu_aa)
    a2 = [[2 * eps[i][j] for j in range(2)] for i in range(2)]
    conn = PlaneConnection(delta, a2)
    one = RatFn.const(1, NV)
    zero = RatFn.const(0, NV)
    q = (RatFn(sol.omega_aq), RatFn(-1 * sol.omega_cq))
    return conn, SectionPair(c=(one, zero), q=q)


def from_connection_pair(conn: PlaneConnection, sp: SectionPair, K: Fraction) -> SolutionData:
    """Inverse of `to_connection_pair`; requires polynomial data and c = (1, 0)."""
    if not ((sp.c[0] - 1).is_zero() and sp.c[1].is_zero()):
        raise ValueError("inverse correspondence requires the constant section c")

    def lower(A, half=False):
        scale = Fraction(1, 2) if half else Fraction(1)
        f_ca = -scale * A[0][0]
        f_aa = -scale * A[0][1]
        f_cc = scale * A[1][0]
        f_ca2 = scale * A[1][1]
        if not (f_ca - f_ca2).is_zero():
            raise ValueError("connection matrix not trace-free")
        return f_cc, f_ca, f_aa

    l_cc, l_ca, l_aa = lower(conn.a1)
    m_cc, m_ca, m_aa = lower(conn.a2, half=True)
    om_cq = -sp.q[1]
    om_aq = sp.q[0]

    def as_poly(f: RatFn) -> Poly:
        if not f.den.is_constant():
            raise ValueError("component is not polynomial")
        return f.num * (1 / f.den.constant_value())

    return SolutionData(K=K,
                        lambda_cc=as_poly(l_cc), lambda_ca=as_poly(l_ca), lambda_aa=as_poly(l_aa),
                        mu_cc=as_poly(m_cc), mu_ca=as_poly(m_ca), mu_aa=as_poly(m_aa),
                        omega_cq=as_poly(om_cq), omega_aq=as_poly(om_aq))


# -- special solution branches --------------------------------------------------------------


def k0_solve(flat_conn: PlaneConnection, a: Vec2, chi: Poly,
             q0_c: Poly | None = None, q0_a: Poly | None = None) -> Tuple[SectionPair, SolutionData]:
    """K = 0 branch: integrate 2 cov2 q = a + chi c + cov1 cov1 c exactly.

    Requires a flat polynomial connection whose y2-matrix vanishes (so the
    covariant y2-derivative is a plain derivative and the quadrature stays
    polynomial); c is the constant section, a must satisfy Omega(a, c) = 1,
    and q0 gives the y2-independent integration constant.
    """
    if not all(flat_conn.a2[i][j].is_zero() for i in range(2) for j in range(2)):
        raise ValueError("exact K=0 integration needs a connection with vanishing y2 matrix")
    Rm = flat_conn.curvature()
    if not all(Rm[i][j].is_zero() for i in range(2) for j in range(2)):
        raise ValueError("connection is not flat")
    if not (omega_pair(a, (RatFn.const(1, NV), RatFn.const(0, NV))) - 1).is_zero():
        raise ValueError("Omega(a, c) must be 1")

    c = (RatFn.const(1, NV), RatFn.const(0, NV))
    d11c = flat_conn.cov(1, flat_conn.cov(1, c))
    rhs = (a[0] + RatFn(chi) * c[0] + d11c[0], a[1] + RatFn(chi) * c[1] + d11c[1])

    def integrate_y2(f: RatFn) -> Poly:
        if not f.den.is_constant():
            raise ValueError("integrand not polynomial")
        return (f.num * (1 / f.den.constant_value())).integrate(Y2)

    q0_c = q0_c if q0_c is not None else Poly({}, NV)
    q0_a = q0_a if q0_a is not None else Poly({}, NV)
    q = (RatFn(integrate_y2(rhs[0] / 2) + q0_c), RatFn(integrate_y2(rhs[1] / 2) + q0_a))
    sp = SectionPair(c=c, q=q)
    sol = from_connection_pair(flat_conn, sp, Fraction(0))
    return sp, sol


def lccne_generate(K, const0, paa: Poly | None = None, pac: Poly | None = None) -> SolutionData:
    """The explicit polynomial solution family.

    q = 0, mu = 0, lambda(c,c) = const0 - y1, lambda(a,a) and lambda(a,c)
    arbitrary polynomials in y1.
    """
    zero = Poly({}, NV)
    lam_cc = Poly.const(const0, NV) - Poly.var(Y1, NV)
    return SolutionData(K=Fraction(K), lambda_cc=lam_cc, lambda_ca=lift_base(pac),
                        lambda_aa=lift_base(paa), mu_cc=zero, mu_ca=zero, mu_aa=zero,
                        omega_cq=zero, omega_aq=zero)


def lift_base(p: Poly | None) -> Poly:
    """A polynomial in the leading base variables as one in all NV; None is zero."""
    if p is None:
        return Poly({}, NV)
    if p.nvars == NV:
        return p
    return Poly({e + (0,) * (NV - p.nvars): c for e, c in p.terms.items()}, NV)
