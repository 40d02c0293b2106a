"""Numeric mirror of the construction's quasi-linear PDE system.

Covers connection normal forms and their curvature trichotomy, the
method-of-characteristics integrator and gauge fixing.  The exact system,
its connection-pair reformulation and its solution branches live in
`pdesystem`; `lccne_generate` and `SectionPair` are also importable from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .exactfield import Poly, RatFn, Y1, Y2
from .builder import NV
from .pdesystem import PlaneConnection, SectionPair, lift_base, omega_pair
from .pdesystem import lccne_generate  # noqa: F401  (re-exported for importers of pdesolve)
from .tensorcalc import fd4, fd4_with_error


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

    def curvature_at(self, y1: float, y2: float, h: float = 1e-4):
        """(R, err): the curvature at the point and an entrywise bound on its rounding error.

        `tensorcalc.fd4_with_error` bounds the derivatives; the products add
        _SAMPLE_ERR (|A2| |A1| + |A1| |A2|).
        """
        dA1, e1 = fd4_with_error(lambda k: self.matrices(y1, y2 + k * h)[0], y2, h, _SAMPLE_ERR)
        dA2, e2 = fd4_with_error(lambda k: self.matrices(y1 + k * h, y2)[1], y1, h, _SAMPLE_ERR)
        A1, A2 = self.matrices(y1, y2)
        err = e1 + e2 + _SAMPLE_ERR * (abs(A2) @ abs(A1) + abs(A1) @ abs(A2))
        return dA1 - dA2 + A2 @ A1 - A1 @ A2, err


# relative error allowed for one sample of a component callable: on case-Ic
# normal forms the observed noise stays within 1.6 eps per sample, so this
# keeps a tenfold margin
_SAMPLE_ERR = 16 * float(np.finfo(float).eps)


def connection_normal_form(case: str, psi=None, chi=None, p=None):
    """The tabulated normal forms.

    ``psi``/``chi`` are base-plane polynomials, ``p`` a polynomial in y1.
    Cases III and II (and case I with chi = 0, where the exponential slot is
    the constant 1) come back exact; anything with a genuine exponential
    comes back as a CallableConnection.
    """
    psi, chi, p = lift_base(psi), lift_base(chi), lift_base(p)
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


def classify_connection(conn, points: Sequence, zero_tol: float | None = None) -> List[dict]:
    """(nao) trichotomy per sample point, with line-bundle diagnostics.

    Exact connections use exact zero tests.  Callable ones count a curvature
    entry, or tr R^2, as zero when it is at most its rounding bound at the point
    (`CallableConnection.curvature_at`), or at most ``zero_tol`` when
    that is given.  Transition points (numeric sign ambiguous) report
    Indeterminate.
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
            R0, err = conn.curvature_at(float(y1), float(y2))
            tr2 = float(np.trace(R0 @ R0))
            if zero_tol is None:
                tr_err = float(np.sum(2 * np.abs(R0.T) * err + err * err.T))
            else:
                err, tr_err = zero_tol, zero_tol
            is_zero = bool(np.all(np.abs(R0) <= err))
            tr_null = abs(tr2) <= tr_err
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
               "traceR": float(R0[0][0] + R0[1][1])}
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
            Rl = conn.curvature_at(u1, u2)[0]
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
            if not vals.size:
                raise ValueError("initial curve has no values")
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
        pde, worst = self.pde, 0.0
        for y1, y2, z, z1, z2 in _interior_chain_rule(self):
            r = pde.rho(y1, y2, z) * z1 + pde.sigma(y1, y2, z) * z2 - pde.chi(y1, y2, z)
            worst = np.max(np.abs(r), initial=worst)
        return float(worst)

    def to_json(self) -> dict:
        return {"t": self.t.tolist(), "s": self.s.tolist(),
                "y1": self.y1.tolist(), "y2": self.y2.tolist(), "z": self.z.tolist()}


# interior nodes per block of time-step rows in the fan residuals.  It bounds
# their temporaries (about 160 bytes a node) whatever the fan size; blocks of
# 64k nodes stayed in the malloc heap once freed and added about 9 MB to the
# peak RSS of a 24001 x 41 solve, blocks of 8k add under 1 MB
_BLOCK_NODES = 1 << 13


def _row_blocks(start: int, stop: int, width: int) -> list:
    """Slices cutting rows start <= i < stop of `width` nodes each into blocks of
    about _BLOCK_NODES nodes."""
    rows = max(1, _BLOCK_NODES // width)
    return [slice(r, min(r + rows, stop)) for r in range(start, stop, rows)]


def _interior_chain_rule(fan: CharacteristicFan):
    """Yield `_chain_rule_rows` on blocks of time steps of about _BLOCK_NODES interior nodes."""
    n, m = fan.z.shape
    if min(n, m) < 5:
        return
    for b in _row_blocks(2, n - 2, m - 4):
        yield _chain_rule_rows(fan, b.start, b.stop)


def _chain_rule_rows(fan: CharacteristicFan, r0: int, r1: int):
    """(y1, y2, z, z_1, z_2) on the interior nodes of time steps r0 <= i < r1, as flat arrays.

    z_1, z_2 come from fourth-order (t, s) gradients through the chain rule.
    Nodes whose Jacobian determinant is below 1e-12 in size are left out; NaN
    nodes are kept, so that a residual taken over them is NaN.  The gradients
    are freed on return, before the caller forms its residual.
    """
    m = fan.z.shape[1]
    dt, ds = fan.t[1] - fan.t[0], fan.s[1] - fan.s[0]

    def grad(F):
        return (fd4(lambda k: F[r0 + k:r1 + k, 2:-2], dt),
                fd4(lambda k: F[r0:r1, 2 + k:m - 2 + k], ds))

    y1t, y1s = grad(fan.y1)
    y2t, y2s = grad(fan.y2)
    zt, zs = grad(fan.z)
    det = y1t * y2s - y1s * y2t
    keep = ~(np.abs(det) < 1e-12)
    y1t, y1s, y2t, y2s, zt, zs, det = (a[keep] for a in (y1t, y1s, y2t, y2s, zt, zs, det))
    z1 = (zt * y2s - zs * y2t) / det
    z2 = (-zt * y1s + zs * y1t) / det
    return (fan.y1[r0:r1, 2:-2][keep], fan.y2[r0:r1, 2:-2][keep], fan.z[r0:r1, 2:-2][keep],
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
        out = np.empty_like(state)
        out[0], out[1], out[2] = pde.rho(y1, y2, z), pde.sigma(y1, y2, z), pde.chi(y1, y2, z)
        return out

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
    blocks = _row_blocks(0, len(ts), nsamples)
    bad = sum(np.count_nonzero(~np.isfinite(grid[:, b]).all(axis=0)) for b in blocks)
    if bad:
        raise NonFiniteFan(f"characteristic fan has {bad} non-finite nodes "
                           "(the solution blows up within the extent)")

    y1g, y2g, zg = grid
    along = y2g if ic.axis == "y1" else y1g
    sgn0 = np.sign(np.diff(along[i0]))
    if any(np.any(np.diff(along[b], axis=1) * sgn0 <= 0) for b in blocks):
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
    coeffs = _gauge_coeffs(conn, sp)
    worst = 0.0
    for y1, y2, z, z1, z2 in _interior_chain_rule(fan):
        a, b, d, s = (f(y1, y2) for f in coeffs)
        lhs = 2 * z * z1 * a + z * z * b + 2 * z2 * s / z - 2 * d
        worst = np.max(np.abs(lhs - 1.0), initial=worst)
    return float(worst)
