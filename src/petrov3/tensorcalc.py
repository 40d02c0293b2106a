"""Chart tensor calculus over exact rational-function scalars.

Conventions, frozen after cross-checking the constructed Einstein examples
against finite differences:

* curvature operator  R(u,v)w = nabla_v nabla_u w - nabla_u nabla_v w
  (coordinate frame, brackets vanish), lowered on the last slot:
  R_{jklp} = g(R(d_j,d_k) d_l, d_p);  the first index pair is the 2-form slot;
* Ricci is the contraction Ric_{kp} = g^{jl} R_{jklp}, which makes the
  constructed metrics satisfy Ric = 3K g with scalar curvature 12K;
* the Kulkarni-Nomizu term is (g^g)_{jklp} = g_{jl} g_{kp} - g_{kl} g_{jp},
  so Einstein metrics satisfy R = W + K g^g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Sequence

import numpy as np

from .exactfield import RatFn

DIM = 4


class SingularMetric(ArithmeticError):
    """Metric determinant is identically zero."""


class NotEinstein(ValueError):
    """Einstein shortcut requested for a metric whose Einstein residual is nonzero."""


Matrix = List[List[RatFn]]


@dataclass
class ChartMetric:
    """Symmetric 4x4 array of rational functions plus an orientation sign."""

    g: Matrix
    orientation: int = 1
    _float: List | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in range(DIM):
            for b in range(a):
                if not (self.g[a][b] == self.g[b][a]):
                    raise ValueError(f"metric not symmetric at ({a},{b})")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    def entry(self, a: int, b: int) -> RatFn:
        return self.g[a][b]

    def eval(self, coords: Sequence) -> np.ndarray:
        """The metric at a float point, as `RatFn.eval` gives it (entries compiled once)."""
        if self._float is None:
            self._float = [[self.g[a][b].float_fn() for b in range(DIM)] for a in range(DIM)]
        return np.array([[float(f(*coords)) for f in row] for row in self._float])

    def with_orientation(self, orientation: int) -> "ChartMetric":
        return ChartMetric(self.g, orientation)

    def to_json(self) -> dict:
        return {
            "coords": ["y1", "y2", "x1", "x2"],
            "orientation": self.orientation,
            "g": [[self.g[a][b].to_json() for b in range(DIM)] for a in range(DIM)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChartMetric":
        g = [[RatFn.from_json(data["g"][a][b]) for b in range(DIM)] for a in range(DIM)]
        return cls(g, data.get("orientation", 1))


@dataclass
class ChristoffelField:
    """Gamma[a][b][c] = Gamma^a_{bc}, symmetric in (b, c), with the inverse metric it used."""

    gamma: List[List[List[RatFn]]]
    ginv: Matrix


@dataclass
class CurvatureSet:
    """Riemann (all indices down), Ricci and scalar."""

    riemann: List  # R[j][k][l][p]
    ricci: Matrix
    scalar: RatFn


def zero_matrix(nvars: int = 4) -> Matrix:
    return [[RatFn.const(0, nvars) for _ in range(DIM)] for _ in range(DIM)]


def metric_det(m: ChartMetric) -> RatFn:
    return _det4([[m.g[a][b] for b in range(DIM)] for a in range(DIM)])


def _det2(M, r0, r1, c0, c1):
    return M[r0][c0] * M[r1][c1] - M[r0][c1] * M[r1][c0]


def _det3(M, rows, cols):
    r0, r1, r2 = rows
    c0, c1, c2 = cols
    return (M[r0][c0] * _det2(M, r1, r2, c1, c2)
            - M[r0][c1] * _det2(M, r1, r2, c0, c2)
            + M[r0][c2] * _det2(M, r1, r2, c0, c1))


def _det4(M):
    rows = (1, 2, 3)
    total = RatFn.const(0, M[0][0].nvars)
    sign = 1
    for c in range(4):
        cols = tuple(x for x in range(4) if x != c)
        total = total + sign * M[0][c] * _det3(M, rows, cols)
        sign = -sign
    return total


def metric_inverse(m: ChartMetric) -> Matrix:
    """Exact inverse via the adjugate; raises SingularMetric if det == 0."""
    det = metric_det(m)
    if det.is_zero():
        raise SingularMetric("metric determinant is identically zero")
    inv = zero_matrix(m.g[0][0].nvars)
    for a in range(DIM):
        for b in range(DIM):
            rows = tuple(r for r in range(DIM) if r != a)
            cols = tuple(c for c in range(DIM) if c != b)
            cof = _det3(m.g, rows, cols)
            if (a + b) % 2:
                cof = -cof
            inv[b][a] = cof / det
    return inv


def christoffel(m: ChartMetric, inv: Matrix | None = None) -> ChristoffelField:
    """Levi-Civita connection coefficients from the Koszul formula."""
    if inv is None:
        inv = metric_inverse(m)
    nv = m.g[0][0].nvars
    dg = [[[m.g[a][b].diff(c) for c in range(DIM)] for b in range(DIM)] for a in range(DIM)]
    half = Fraction(1, 2)
    gamma = [[[RatFn.const(0, nv) for _ in range(DIM)] for _ in range(DIM)] for _ in range(DIM)]
    for b in range(DIM):
        for c in range(b, DIM):
            # lower symbol: (1/2)(d_b g_{dc} + d_c g_{db} - d_d g_{bc})
            lower = [half * (dg[d][c][b] + dg[d][b][c] - dg[b][c][d]) for d in range(DIM)]
            for a in range(DIM):
                s = RatFn.const(0, nv)
                for d in range(DIM):
                    s = s + inv[a][d] * lower[d]
                gamma[a][b][c] = s
                gamma[a][c][b] = s
    return ChristoffelField(gamma, inv)


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


def riemann(gam: ChristoffelField, m: ChartMetric) -> CurvatureSet:
    """All-indices-down curvature; Ricci and scalar via the frozen contraction.

    The contraction uses the inverse metric stored on ``gam``.
    """
    g = gam.gamma
    nv = m.g[0][0].nvars
    dgam = [[[[g[a][b][c].diff(d) for d in range(DIM)] for c in range(DIM)]
             for b in range(DIM)] for a in range(DIM)]

    # operator components R(d_j, d_k) d_l = Rop^m_{jkl} d_m, per the (cur) sign
    rop = [[[[None] * DIM for _ in range(DIM)] for _ in range(DIM)] for _ in range(DIM)]
    for j in range(DIM):
        for k in range(j + 1, DIM):
            for l in range(DIM):
                for mm in range(DIM):
                    val = dgam[mm][j][l][k] - dgam[mm][k][l][j]
                    for n in range(DIM):
                        val = val + g[n][j][l] * g[mm][k][n] - g[n][k][l] * g[mm][j][n]
                    rop[mm][j][k][l] = val

    zero = RatFn.const(0, nv)
    R = [[[[zero for _ in range(DIM)] for _ in range(DIM)] for _ in range(DIM)] for _ in range(DIM)]
    for j in range(DIM):
        for k in range(j + 1, DIM):
            for l in range(DIM):
                for p in range(DIM):
                    val = zero
                    for mm in range(DIM):
                        val = val + rop[mm][j][k][l] * m.g[mm][p]
                    R[j][k][l][p] = val
                    R[k][j][l][p] = -val
    ric, scal = ricci_scalar_from_riemann(R, gam.ginv)
    return CurvatureSet(riemann=R, ricci=ric, scalar=scal)


def ricci_scalar_from_riemann(R: List, inv: Matrix):
    nv = inv[0][0].nvars
    ric = zero_matrix(nv)
    for k in range(DIM):
        for p in range(k, DIM):
            s = RatFn.const(0, nv)
            for j in range(DIM):
                for l in range(DIM):
                    s = s + inv[j][l] * R[j][k][l][p]
            ric[k][p] = s
            ric[p][k] = s
    scal = RatFn.const(0, nv)
    for k in range(DIM):
        for p in range(DIM):
            scal = scal + inv[k][p] * ric[k][p]
    return ric, scal


def kulkarni_gg(m: ChartMetric) -> List:
    """(g^g)_{jklp} = g_{jl} g_{kp} - g_{kl} g_{jp}."""
    g = m.g
    return [[[[g[j][l] * g[k][p] - g[k][l] * g[j][p]
               for p in range(DIM)] for l in range(DIM)]
             for k in range(DIM)] for j in range(DIM)]


def weyl(curv: CurvatureSet, m: ChartMetric, K: Fraction | None = None,
         einstein_shortcut: bool = True) -> List:
    """Weyl tensor, all indices down.

    With ``einstein_shortcut`` and a given K, uses W = R - K g^g after checking
    the Einstein residual (NotEinstein if it fails).  Without the shortcut, the
    full four-dimensional Ricci decomposition is used, valid for any metric.
    """
    nv = m.g[0][0].nvars
    R, ric, scal = curv.riemann, curv.ricci, curv.scalar
    g = m.g
    if einstein_shortcut:
        if K is None:
            raise ValueError("einstein shortcut requires K")
        Kf = RatFn.const(K, nv)
        for a in range(DIM):
            for b in range(a, DIM):
                if not (ric[a][b] - 3 * Kf * g[a][b]).is_zero():
                    raise NotEinstein(f"Ric - 3K g nonzero at component ({a},{b})")
        gg = kulkarni_gg(m)
        return [[[[R[j][k][l][p] - Kf * gg[j][k][l][p] for p in range(DIM)]
                  for l in range(DIM)] for k in range(DIM)] for j in range(DIM)]

    half = Fraction(1, 2)
    sixth = Fraction(1, 6)
    W = [[[[None] * DIM for _ in range(DIM)] for _ in range(DIM)] for _ in range(DIM)]
    for j in range(DIM):
        for k in range(DIM):
            for l in range(DIM):
                for p in range(DIM):
                    W[j][k][l][p] = (R[j][k][l][p]
                                     - half * (g[j][l] * ric[k][p] - g[k][l] * ric[j][p]
                                               + ric[j][l] * g[k][p] - ric[k][l] * g[j][p])
                                     + sixth * scal * (g[j][l] * g[k][p] - g[k][l] * g[j][p]))
    return W


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
    """Max description of the symmetry violations (all should be exactly zero)."""
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


# -- numeric mirror ------------------------------------------------------------------


def fd4(at: Callable[[int], np.ndarray], h: float):
    """Fourth-order central first derivative from samples ``at(k)`` = f(x + k h), k = +-1, +-2.

    The one stencil of the numeric mirror: ``at`` may return scalars, arrays of
    values at one point, or shifted slices of a sampled grid.
    """
    return (2.0 / 3 * (at(1) - at(-1)) - 1.0 / 12 * (at(2) - at(-2))) / h


def _fd_partial(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, i: int, h: float):
    """Fourth-order central difference of a matrix-valued function along coordinate i."""
    def at(k):
        xp = x.copy()
        xp[i] += k * h
        return fn(xp)
    return fd4(at, h)


def numeric_christoffel(metric_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float = 1e-2):
    ginv = np.linalg.inv(metric_fn(x))
    dg = np.stack([_fd_partial(metric_fn, x, i, h) for i in range(DIM)])  # dg[c][a][b]
    # lower[d, b, c] = d_b g_dc + d_c g_db - d_d g_bc
    lower = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("ad,dbc->abc", ginv, lower)


def numeric_riemann(metric_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float = 1e-2):
    """Finite-difference Riemann (all indices down), same conventions as `riemann`."""

    def gamma_fn(pt):
        return numeric_christoffel(metric_fn, pt, h)

    g = metric_fn(x)
    gamma = gamma_fn(x)
    dgamma = np.stack([_fd_partial(gamma_fn, x, i, h) for i in range(DIM)])  # d[k][a][b][c]
    # Rop^m_{jkl} = S^m_{jkl} - S^m_{kjl} with S^m_{jkl} = d_k Gamma^m_{jl} + Gamma^n_{jl} Gamma^m_{kn}
    S = np.einsum("kmjl->mjkl", dgamma) + np.einsum("njl,mkn->mjkl", gamma, gamma)
    rop = S - S.transpose(0, 2, 1, 3)
    return np.einsum("mjkl,mp->jklp", rop, g)


def numeric_ricci_scalar(metric_fn, x, h: float = 1e-2):
    R = numeric_riemann(metric_fn, x, h)
    ginv = np.linalg.inv(metric_fn(x))
    ric = np.einsum("jl,jklp->kp", ginv, R)
    scal = np.einsum("kp,kp->", ginv, ric)
    return R, ric, scal
