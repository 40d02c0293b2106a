"""Solution theory for the construction's quasi-linear PDE system.

Covers the exact residuals of the system and its four-equation component
form, the reformulation as an area-preserving plane-bundle connection plus a
section pair, connection normal forms and their curvature trichotomy, the
method-of-characteristics integrator with gauge fixing, and the two special
solution branches (flat connection, K = 0).

Base-plane objects live in the same four-variable ring as everything else,
with the fibre exponents unused; bundle components are taken in the frame
(c, a) with Omega(a, c) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .exactfield import Poly, RatFn, X2, Y1, Y2
from .builder import NV, SolutionData, second_eqn_residual, fibre_forms
from .tensorcalc import fd4

Vec2 = Tuple[RatFn, RatFn]


class TangentInitialCurve(ValueError):
    """The characteristic field is tangent to the initial curve somewhere."""


class CharacteristicCrossing(RuntimeError):
    """Fold-over detected in the characteristic fan."""


class NonFiniteFan(CharacteristicCrossing):
    """The characteristic fan reached a non-finite value (blow-up within the extent)."""


class InvalidFanGrid(ValueError):
    """Fan step or extent not finite and positive, or more than MAX_FAN_NODES fan nodes."""


MAX_FAN_NODES = 1_000_000       # time steps x curve samples characteristics_solve allocates


class ZeroCrossing(ArithmeticError):
    """Gauge function crossed zero."""


class UnknownCase(ValueError):
    pass


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
    first = _mat2_sub(R, rhs)

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


# -- connection normal forms and classification ------------------------------------------


@dataclass
class CallableConnection:
    """Connection with numeric component callables (y1, y2) -> value.

    Used for normal forms involving exponentials; mirrors the exact
    `PlaneConnection` interface pointwise.  The component callables receive
    floats or numpy arrays of coordinates and may return scalars (constant
    components), which broadcast.
    """

    a1: List[List[Callable]]
    a2: List[List[Callable]]

    def matrices(self, y1: float, y2: float):
        A1 = np.array([[self.a1[i][j](y1, y2) for j in range(2)] for i in range(2)])
        A2 = np.array([[self.a2[i][j](y1, y2) for j in range(2)] for i in range(2)])
        return A1, A2

    def curvature_at(self, y1: float, y2: float, h: float = 1e-4) -> np.ndarray:
        dA1 = fd4(lambda k: self.matrices(y1, y2 + k * h)[0], h)
        dA2 = fd4(lambda k: self.matrices(y1 + k * h, y2)[1], h)
        A1, A2 = self.matrices(y1, y2)
        return dA1 - dA2 + A2 @ A1 - A1 @ A2


def connection_normal_form(case: str, psi=None, chi=None, p=None):
    """The tabulated normal forms.

    ``psi``/``chi`` are base-plane polynomials, ``p`` a polynomial in y1.
    Cases III and II (and case I with chi = 0, where the exponential slot is
    the constant 1) come back exact; anything with a genuine exponential
    comes back as a CallableConnection.
    """
    zero = Poly({}, NV)

    def lift(poly):
        if poly is None:
            return zero
        if poly.nvars == NV:
            return poly
        return Poly({e + (0,) * (NV - poly.nvars): c for e, c in poly.terms.items()}, NV)

    psi, chi, p = lift(psi), lift(chi), lift(p)
    case = case.strip()

    if case == "III":
        z = RatFn.const(0, NV)
        return PlaneConnection([[z, z], [z, z]], [[z, z], [z, z]])
    if case == "II":
        # Gamma^1_11 = -Gamma^2_12 = psi, Gamma^2_22 = -Gamma^1_21 = chi, rest zero
        u, v = RatFn(psi), RatFn(chi)
        z = RatFn.const(0, NV)
        a1 = [[u, z], [z, -u]]
        a2 = [[-v, z], [z, v]]
        return PlaneConnection(a1, a2)
    if case not in ("Ia", "Ib", "Ic"):
        raise UnknownCase(case)

    exact = chi.is_zero() and (case != "Ia" or psi.is_zero())
    if exact:
        one = RatFn.const(1, NV)
        z = RatFn.const(0, NV)
        chi2 = RatFn(chi.diff(Y2))          # zero here, kept for shape
        if case == "Ia":
            psi1 = RatFn(psi.diff(Y1))
            a1 = [[psi1, one], [z, -psi1]]
            a2 = [[z, z], [one, z]]
        elif case == "Ib":
            u = RatFn(psi)
            a1 = [[u, one], [RatFn(p), -u]]
            a2 = [[z, z], [z, z]]
        else:  # Ic
            u = RatFn(p)                    # Gamma^1_11 = p - chi_1 = p
            a1 = [[u, one], [RatFn(psi), -u]]
            a2 = [[z, z], [z, z]]
        return PlaneConnection(a1, a2)

    # numeric with genuine exponentials
    def ev(poly: Poly):
        f = poly.float_fn()
        return lambda y1, y2: f(y1, y2, 0.0, 0.0)

    def ev1(poly: Poly):
        f = poly.float_fn()
        return lambda y1: f(y1, 0.0, 0.0, 0.0)

    chi_f, psi_f, p_f = ev(chi), ev(psi), ev1(p)
    chi1 = ev(chi.diff(Y1))
    chi2 = ev(chi.diff(Y2))
    psi1 = ev(psi.diff(Y1))
    zero_f = lambda y1, y2: 0.0
    e2chi = lambda y1, y2: np.exp(2 * chi_f(y1, y2))
    # common first line
    g1_12 = e2chi
    g2_22 = chi2
    g1_21 = lambda y1, y2: -chi2(y1, y2)
    g1_22 = zero_f
    if case == "Ia":
        g1_11 = psi1
        g2_12 = lambda y1, y2: -psi1(y1, y2)
        g2_11 = zero_f
        g2_21 = lambda y1, y2: np.exp(2 * psi_f(y1, y2))
    elif case == "Ib":
        g1_11 = psi_f
        g2_12 = lambda y1, y2: -psi_f(y1, y2)
        g2_11 = lambda y1, y2: p_f(y1) * np.exp(-2 * chi_f(y1, y2))
        g2_21 = zero_f
    else:  # Ic
        g1_11 = lambda y1, y2: p_f(y1) - chi1(y1, y2)
        g2_12 = lambda y1, y2: -(p_f(y1) - chi1(y1, y2))
        g2_11 = psi_f
        g2_21 = zero_f
    a1 = [[g1_11, g1_12], [g2_11, g2_12]]
    a2 = [[g1_21, g1_22], [g2_21, g2_22]]
    return CallableConnection(a1, a2)


def classify_connection(conn, points: Sequence, zero_tol: float = 1e-12) -> List[dict]:
    """(nao) trichotomy per sample point, with line-bundle diagnostics.

    Exact connections use exact zero tests; callable ones the zero threshold.
    Transition points (numeric sign ambiguous) report Indeterminate.
    """
    out = []
    exact = isinstance(conn, PlaneConnection)
    R = conn.curvature() if exact else None
    for pt in points:
        y1, y2 = pt[0], pt[1]
        if exact:
            coords = (y1, y2, Fraction(0), Fraction(0))
            R0 = [[R[i][j].eval(coords) for j in range(2)] for i in range(2)]
            tr2 = sum(R0[i][j] * R0[j][i] for i in range(2) for j in range(2))
            is_zero = all(R0[i][j] == 0 for i in range(2) for j in range(2))
            tr_null = tr2 == 0
            sign = 0 if tr2 == 0 else (1 if tr2 > 0 else -1)
        else:
            R0 = conn.curvature_at(float(y1), float(y2))
            tr2 = float(np.trace(R0 @ R0))
            is_zero = bool(np.abs(R0).max() < zero_tol)
            tr_null = abs(tr2) < zero_tol
            sign = 0 if tr_null else (1 if tr2 > 0 else -1)
        if is_zero:
            tag = "Flat"
        elif tr_null:
            tag = "NullNonzero"
        elif sign > 0:
            tag = "Positive"
        else:
            tag = "Indeterminate"      # tr^2 < 0 is outside the trichotomy used here
        rec = {"point": [float(y1), float(y2)], "tag": tag, "trR2": float(tr2),
               "traceR": float(R0[0][0] + R0[1][1]) if not exact else float(R0[0][0] + R0[1][1])}
        if tag == "NullNonzero":
            rec["fundamental_tensor_nonzero"] = _fdt_nonzero(conn, R0, y1, y2)
        out.append(rec)
    return out


def _fdt_nonzero(conn, R0, y1, y2, tol: float = 1e-10) -> bool:
    """Whether the kernel-image line of R fails to be parallel at the point.

    The obstruction is Omega(v, cov_j v) for a (smoothly normalized) local
    spanning section v of the line; derivatives of v are taken by central
    differences of the SVD kernel with a consistent sign.
    """
    Rf = np.array([[float(R0[i][j]) for j in range(2)] for i in range(2)])
    _, _, vt = np.linalg.svd(Rf)
    v = vt[-1]

    exact = isinstance(conn, PlaneConnection)
    if exact:
        Rfield = conn.curvature()
        coords = (y1, y2, Fraction(0), Fraction(0))
        A1 = np.array([[float(conn.a1[i][j].eval(coords)) for j in range(2)] for i in range(2)])
        A2 = np.array([[float(conn.a2[i][j].eval(coords)) for j in range(2)] for i in range(2)])
    else:
        A1, A2 = conn.matrices(float(y1), float(y2))

    def kernel_at(u1, u2):
        if exact:
            Rl = np.array([[float(Rfield[i][j].eval((u1, u2, 0.0, 0.0)))
                            for j in range(2)] for i in range(2)])
        else:
            Rl = conn.curvature_at(u1, u2)
        _, _, vt2 = np.linalg.svd(Rl)
        w = vt2[-1]
        return w if w @ v >= 0 else -w

    h = 1e-4
    dv1 = (kernel_at(float(y1) + h, float(y2)) - kernel_at(float(y1) - h, float(y2))) / (2 * h)
    dv2 = (kernel_at(float(y1), float(y2) + h) - kernel_at(float(y1), float(y2) - h)) / (2 * h)
    cov1 = dv1 + A1 @ v
    cov2 = dv2 + A2 @ v

    def om(u, w):
        return u[1] * w[0] - u[0] * w[1]

    return bool(max(abs(om(v, cov1)), abs(om(v, cov2))) > tol)


# -- method of characteristics ------------------------------------------------------------


@dataclass
class QuasiLinearPDE:
    """rho z_1 + sigma z_2 = chi with coefficients functions of (y1, y2, z).

    The coefficient callables receive numpy arrays (all curve samples at once)
    as well as floats, and may return scalars, which broadcast.
    """

    rho: Callable
    sigma: Callable
    chi: Callable

    @classmethod
    def from_polys(cls, rho: Poly, sigma: Poly, chi: Poly) -> "QuasiLinearPDE":
        return cls(rho.float_fn(), sigma.float_fn(), chi.float_fn())

    @classmethod
    def from_json(cls, data: dict) -> "QuasiLinearPDE":
        polys = [Poly.from_json(data[k], nvars=3) for k in ("rho", "sigma", "chi")]
        return cls.from_polys(*polys)


@dataclass
class InitialCurve:
    """Axis-aligned initial curve {axis = offset} with data z along it.

    ``axis`` names the frozen coordinate ("y1" or "y2"); the other coordinate
    parametrizes the curve.  ``values`` is a callable s -> z(s); the solver
    calls it once per curve sample with a float, so it may branch on s.
    """

    axis: str
    offset: float
    values: Callable

    @classmethod
    def from_json(cls, data: dict, extent: float, nsamples: int | None = None) -> "InitialCurve":
        if "poly" in data:
            p = Poly.from_json(data["poly"], nvars=1)
            fn = lambda s: float(p.eval((s,)))
        else:
            vals = np.asarray([float(v) for v in data["values"]], dtype=float)
            ss = np.linspace(-extent, extent, len(vals))
            fn = lambda s: float(np.interp(s, ss, vals))
        return cls(axis=data["axis"], offset=float(data.get("offset", 0.0)), values=fn)

    def __post_init__(self):
        if self.axis not in ("y1", "y2"):
            raise ValueError(f"unknown axis {self.axis!r}")

    def point(self, s: float) -> Tuple[float, float]:
        return (self.offset, s) if self.axis == "y1" else (s, self.offset)


@dataclass
class CharacteristicFan:
    """RK4-integrated characteristics: arrays indexed (time step, curve sample)."""

    y1: np.ndarray
    y2: np.ndarray
    z: np.ndarray
    t: np.ndarray
    s: np.ndarray
    pde: QuasiLinearPDE

    def max_residual(self) -> float:
        """max |rho z_1 + sigma z_2 - chi| on interior nodes, via chain-rule FD; NaN propagates."""
        y1, y2, z, z1, z2 = _interior_chain_rule(self)
        r = self.pde.rho(y1, y2, z) * z1 + self.pde.sigma(y1, y2, z) * z2 - self.pde.chi(y1, y2, z)
        return float(np.max(np.abs(r), initial=0.0))

    def max_error(self, exact: Callable) -> float:
        """max |z - exact(y1, y2)| over the fan; ``exact`` receives the node arrays."""
        return float(np.max(np.abs(self.z - exact(self.y1, self.y2))))

    def to_json(self) -> dict:
        return {"t": self.t.tolist(), "s": self.s.tolist(),
                "y1": self.y1.tolist(), "y2": self.y2.tolist(), "z": self.z.tolist()}


def _interior_chain_rule(fan: CharacteristicFan):
    """(y1, y2, z, z_1, z_2) on the interior fan nodes, as flat arrays.

    z_1, z_2 come from fourth-order (t, s) gradients through the chain rule.
    Nodes whose Jacobian determinant is below 1e-12 in size are left out; NaN
    nodes are kept, so that a residual taken over them is NaN.
    """
    n, m = fan.z.shape
    if min(n, m) < 5:
        return (np.empty(0),) * 5
    dt, ds = fan.t[1] - fan.t[0], fan.s[1] - fan.s[0]

    def grad(F):
        return (fd4(lambda k: F[2 + k:n - 2 + k, 2:-2], dt),
                fd4(lambda k: F[2:-2, 2 + k:m - 2 + k], ds))

    y1t, y1s = grad(fan.y1)
    y2t, y2s = grad(fan.y2)
    zt, zs = grad(fan.z)
    det = y1t * y2s - y1s * y2t
    keep = ~(np.abs(det) < 1e-12)
    y1t, y1s, y2t, y2s, zt, zs, det = (a[keep] for a in (y1t, y1s, y2t, y2s, zt, zs, det))
    z1 = (zt * y2s - zs * y2t) / det
    z2 = (-zt * y1s + zs * y1t) / det
    return (fan.y1[2:-2, 2:-2][keep], fan.y2[2:-2, 2:-2][keep], fan.z[2:-2, 2:-2][keep],
            z1, z2)


def characteristics_solve(pde: QuasiLinearPDE, ic: InitialCurve, step: float = 1e-3,
                          extent: float = 0.5, nsamples: int = 41) -> CharacteristicFan:
    """Integrate the characteristic field (rho, sigma, chi) from the initial curve.

    Classical fixed-step RK4 in both time directions, all curve samples
    stepped together as one array state; transversality checked at the
    curve, fold-over detected by loss of monotonicity of the along-curve
    coordinate across samples, blow-up by a non-finite node (NonFiniteFan).
    A step or extent that is not finite and positive, or a fan of more than
    MAX_FAN_NODES nodes, raises InvalidFanGrid before anything is allocated.
    """
    if not (0 < step < np.inf and 0 < extent < np.inf):
        raise InvalidFanGrid(f"step={step} and extent={extent} must be finite and positive")
    steps = extent / step                     # inf when step underflows against extent
    nt = max(2, int(round(steps))) if steps < MAX_FAN_NODES else MAX_FAN_NODES
    if (2 * nt + 1) * nsamples > MAX_FAN_NODES:
        raise InvalidFanGrid(f"step={step}, extent={extent} and {nsamples} samples give "
                             f"a fan of more than {MAX_FAN_NODES} nodes")
    ss = np.linspace(-extent, extent, nsamples)
    ts = np.concatenate([np.arange(-nt, 0), np.arange(0, nt + 1)]) * step

    def field(state):
        y1, y2, z = state
        return np.array([np.broadcast_to(f(y1, y2, z), z.shape)
                         for f in (pde.rho, pde.sigma, pde.chi)])

    i0 = nt
    grid = np.zeros((3, len(ts), nsamples))        # (y1, y2, z) x time step x sample
    grid[:, i0] = np.array([(*ic.point(s), ic.values(s)) for s in ss], dtype=float).T
    trans = field(grid[:, i0])[0 if ic.axis == "y1" else 1]
    tangent = np.flatnonzero(np.abs(trans) < 1e-12)
    if tangent.size:
        raise TangentInitialCurve(
            f"characteristic field tangent to the initial curve at s={ss[tangent[0]]}")

    with np.errstate(all="ignore"):             # a blow-up is reported below
        for direction in (+1, -1):
            rng = range(i0 + 1, len(ts)) if direction > 0 else range(i0 - 1, -1, -1)
            for i in rng:
                prev = i - direction
                h = (ts[i] - ts[prev])
                state = grid[:, prev]
                k1 = field(state)
                k2 = field(state + 0.5 * h * k1)
                k3 = field(state + 0.5 * h * k2)
                k4 = field(state + h * k3)
                grid[:, i] = state + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    bad = np.count_nonzero(~np.isfinite(grid).all(axis=0))
    if bad:
        raise NonFiniteFan(f"characteristic fan has {bad} non-finite nodes "
                           "(the solution blows up within the extent)")

    y1g, y2g, zg = grid
    along = y2g if ic.axis == "y1" else y1g
    diffs = np.diff(along, axis=1)
    sgn0 = np.sign(diffs[i0, :])
    if np.any(diffs * sgn0[None, :] <= 0):
        raise CharacteristicCrossing("characteristic fan folds over")
    return CharacteristicFan(y1=y1g, y2=y2g, z=zg, t=ts, s=ss, pde=pde)


# -- gauge fixing --------------------------------------------------------------------------


def _gauge_coeffs(conn, sp: SectionPair):
    """Omega(c, cov1 c), Omega(c, cov1 cov1 c), Omega(c, cov2 q), Omega(c, q) as callables.

    Each takes float or array coordinates (y1, y2).  For a `PlaneConnection`
    the four rational functions are formed exactly and compiled once; for a
    `CallableConnection` the sections ``sp.c``/``sp.q`` are callables
    (y1, y2) -> 2-vector and covariant derivatives use central differences.
    """
    c, q = sp.c, sp.q
    if isinstance(conn, PlaneConnection):
        d1c = conn.cov(1, c)
        fns = [omega_pair(c, v).float_fn() for v in (d1c, conn.cov(1, d1c), conn.cov(2, q), q)]
        return [lambda y1, y2, f=f: f(y1, y2, 0.0, 0.0) for f in fns]
    d1c = _callable_cov(conn, 1, c)
    vs = (d1c, _callable_cov(conn, 1, d1c), _callable_cov(conn, 2, q), q)
    return [lambda y1, y2, v=v: omega_pair(c(y1, y2), v(y1, y2)) for v in vs]


def _callable_cov(conn: CallableConnection, j: int, vfn: Callable, h: float = 1e-4) -> Callable:
    """(y1, y2) -> cov_j v for a callable section, 2x2 products written out to broadcast."""
    A = conn.a1 if j == 1 else conn.a2

    def cov(y1, y2):
        if j == 1:
            up, dn = vfn(y1 + h, y2), vfn(y1 - h, y2)
        else:
            up, dn = vfn(y1, y2 + h), vfn(y1, y2 - h)
        v = vfn(y1, y2)
        return tuple((up[i] - dn[i]) / (2 * h) + A[i][0](y1, y2) * v[0] + A[i][1](y1, y2) * v[1]
                     for i in range(2))
    return cov


def gauge_pde(conn, sp: SectionPair) -> QuasiLinearPDE:
    """The quasi-linear equation selecting the gauge z with (zc, z^-1 q) normalized.

    Derived by substituting the rescaled pair into the scalar condition:
        Omega(c, cov1 c) z^2 z_1 + Omega(c, q) z_2
          = [1 + 2 Omega(c, cov2 q) - Omega(c, cov1 cov1 c) z^2] z / 2.
    """
    a_f, b_f, d_f, s_f = _gauge_coeffs(conn, sp)
    rho = lambda y1, y2, z: a_f(y1, y2) * z * z
    sigma = lambda y1, y2, z: s_f(y1, y2)
    chi = lambda y1, y2, z: (1 + 2 * d_f(y1, y2) - b_f(y1, y2) * z * z) * z / 2
    return QuasiLinearPDE(rho=rho, sigma=sigma, chi=chi)


@dataclass
class GaugedPair:
    """Sampled gauge-fixed sections on the characteristic fan."""

    fan: CharacteristicFan
    c_of: Callable      # (y1, y2) -> 2-vector before gauge
    q_of: Callable
    brd2_max_residual: float


def gauge_fix(conn, sp: SectionPair, ic: InitialCurve, step: float = 1e-3,
              extent: float = 0.4, nsamples: int = 25) -> GaugedPair:
    """Solve the gauge equation and certify the scalar normalization on the fan."""
    pde = gauge_pde(conn, sp)
    fan = characteristics_solve(pde, ic, step=step, extent=extent, nsamples=nsamples)
    if np.any(fan.z == 0) or (fan.z.max() > 0 > fan.z.min()):
        raise ZeroCrossing("gauge function crossed zero on the fan")

    if isinstance(conn, PlaneConnection):
        def c_of(y1, y2):
            return np.array([float(x.eval((y1, y2, 0.0, 0.0))) for x in sp.c])

        def q_of(y1, y2):
            return np.array([float(x.eval((y1, y2, 0.0, 0.0))) for x in sp.q])
    else:
        c_of, q_of = sp.c, sp.q

    res = _gauged_brd2_residual(conn, sp, fan)
    return GaugedPair(fan=fan, c_of=c_of, q_of=q_of, brd2_max_residual=res)


def _gauged_brd2_residual(conn, sp: SectionPair, fan: CharacteristicFan) -> float:
    """max |Omega(zc, cov1 cov1 (zc) - 2 cov2 (q/z)) - 1| on interior fan nodes.

    Only first derivatives of z enter (the z_11 term is killed by Omega(c, c)),
    so the fan's chain-rule gradients suffice.  NaN propagates.
    """
    y1, y2, z, z1, z2 = _interior_chain_rule(fan)
    a, b, d, s = (f(y1, y2) for f in _gauge_coeffs(conn, sp))
    lhs = 2 * z * z1 * a + z * z * b + 2 * z2 * s / z - 2 * d
    return float(np.max(np.abs(lhs - 1.0), initial=0.0))


# -- special solution branches --------------------------------------------------------------


@dataclass
class FlatCaseSolution:
    """c = rho (cos sigma, sin sigma) in a parallel frame, q = 0."""

    rho: Callable
    sigma: Callable
    max_residual: float


def flat_case_solve(rho_profile: Poly | None = None, extent: float = 1.0,
                    n: int = 201) -> FlatCaseSolution:
    """Solve (rho^2 sigma_1)_1 = 1 by repeated integration in y1, with q = 0.

    ``rho_profile`` is a positive one-variable polynomial in y1 (default 1).
    The residual Omega(c, c_11) - 1 = (rho^2 sigma_1)_1 - 1 is checked by
    fourth-order finite differences on a y1 grid.
    """
    if rho_profile is None:
        rho_profile = Poly.const(1, 1)

    ys = np.linspace(-extent, extent, n)
    rho_v = np.array([float(rho_profile.eval((y,))) for y in ys])
    if np.any(rho_v <= 0):
        raise ValueError("rho profile must be positive on the domain")
    integrand = ys / rho_v ** 2
    # cumulative Simpson-type integration from 0
    sigma1 = integrand
    sigma_v = _cumulative_integral(ys, sigma1)

    def rho_fn(y1, y2=0.0):
        return float(rho_profile.eval((y1,)))

    def sigma_fn(y1, y2=0.0):
        return float(np.interp(y1, ys, sigma_v))

    # residual via the closed form (rho^2 sigma_1)_1 with sigma_1 known exactly
    f = rho_v ** 2 * sigma1
    h = ys[1] - ys[0]
    df = fd4(lambda k: f[2 + k:n - 2 + k], h)
    res = float(np.abs(df - 1.0).max())
    return FlatCaseSolution(rho=rho_fn, sigma=sigma_fn, max_residual=res)


def _cumulative_integral(xs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    out = np.zeros_like(fs)
    for i in range(1, len(xs)):
        out[i] = out[i - 1] + 0.5 * (fs[i] + fs[i - 1]) * (xs[i] - xs[i - 1])
    i0 = len(xs) // 2
    return out - out[i0]


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

    def lift(p: Poly | None) -> Poly:
        if p is None:
            return zero
        if p.nvars == NV:
            return p
        return Poly({e + (0,) * (NV - p.nvars): c for e, c in p.terms.items()}, NV)

    return SolutionData(K=Fraction(K), lambda_cc=lam_cc, lambda_ca=lift(pac),
                        lambda_aa=lift(paa), mu_cc=zero, mu_ca=zero, mu_aa=zero,
                        omega_cq=zero, omega_aq=zero)
