"""Two-form machinery: Hodge star, self-dual split, Petrov classification.

Two-forms are stored as antisymmetric 4x4 component matrices (RatFn for field
objects, Fraction for pointwise ones), and also flattened over the fixed
coordinate 2-form basis

    dy1^dy2, dy1^dx1, dy1^dx2, dy2^dx1, dy2^dx2, dx1^dx2

in that order.  The star uses the volume form or * sqrt(det g) dy1^dy2^dx1^dx2;
for constructed metrics det g = (x2)^2, so the density x2 is itself a rational
function and the whole split stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from .exactfield import RatFn, _rational_sqrt
from .tensorcalc import ChartMetric, DIM, metric_det, metric_inverse

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
NPAIRS = 6


class NonRationalVolumeDensity(ValueError):
    """|det g| has no exact rational-function square root."""


class NotSelfAdjoint(ValueError):
    pass


class NotTraceFree(ValueError):
    pass


class NotTypeIII(ValueError):
    pass


class DegenerateFrame(ArithmeticError):
    pass


def _eps_sign(a, b, c, d) -> int:
    perm = (a, b, c, d)
    if len(set(perm)) != 4:
        return 0
    s = 1
    p = list(perm)
    for i in range(4):
        for j in range(i + 1, 4):
            if p[i] > p[j]:
                s = -s
    return s


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

    @classmethod
    def from_flat(cls, vec: Sequence, nvars: int = 4) -> "TwoFormField":
        zero = RatFn.const(0, nvars)
        comp = [[zero for _ in range(DIM)] for _ in range(DIM)]
        for I, (a, b) in enumerate(PAIRS):
            comp[a][b] = vec[I]
            comp[b][a] = -vec[I]
        return cls(comp)

    def eval(self, coords) -> List[List[Fraction]]:
        return [[self.comp[a][b].eval(coords) for b in range(DIM)] for a in range(DIM)]


def inverse_gram_pairs(ginv) -> List[List[RatFn]]:
    """G2[I][J] = g^{ac} g^{bd} - g^{ad} g^{bc}; also the <,> Gram matrix."""
    out = []
    for (a, b) in PAIRS:
        row = []
        for (c, d) in PAIRS:
            row.append(ginv[a][c] * ginv[b][d] - ginv[a][d] * ginv[b][c])
        out.append(row)
    return out


def twoform_inner(m: ChartMetric, zeta: TwoFormField, eta: TwoFormField,
                  ginv=None) -> RatFn:
    """<zeta, eta> = (1/2) zeta_{jk} eta^{jk}."""
    if ginv is None:
        ginv = metric_inverse(m)
    g2 = inverse_gram_pairs(ginv)
    zf, ef = zeta.flat(), eta.flat()
    s = RatFn.const(0, zf[0].nvars)
    for I in range(NPAIRS):
        for J in range(NPAIRS):
            s = s + zf[I] * g2[I][J] * ef[J]
    return s


@dataclass
class HodgeOperator:
    """6x6 star matrix on the coordinate 2-form basis, plus the volume density."""

    star: List[List[RatFn]]
    volume_density: RatFn
    orientation: int


def hodge_star(m: ChartMetric, ginv=None) -> HodgeOperator:
    """Exact star; NonRationalVolumeDensity when sqrt(|det g|) is not rational."""
    if ginv is None:
        ginv = metric_inverse(m)
    det = metric_det(m)
    try:
        vol = det.sqrt() if not det.is_zero() else RatFn.const(0, m.g[0][0].nvars)
    except ValueError:
        try:
            vol = (-det).sqrt()
        except ValueError as exc:
            raise NonRationalVolumeDensity(str(exc)) from exc
    g2 = inverse_gram_pairs(ginv)
    nv = m.g[0][0].nvars
    orient = m.orientation
    star = []
    for (a, b) in PAIRS:
        row = []
        for J in range(NPAIRS):
            s = RatFn.const(0, nv)
            for Kidx, (c, d) in enumerate(PAIRS):
                sign = _eps_sign(a, b, c, d)
                if sign:
                    s = s + sign * g2[Kidx][J]
            row.append(orient * vol * s)
        star.append(row)
    return HodgeOperator(star=star, volume_density=vol, orientation=orient)


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = None
            for l in range(k):
                t = A[i][l] * B[l][j]
                s = t if s is None else s + t
            row.append(s)
        out.append(row)
    return out


def sd_projectors(h: HodgeOperator):
    """(P+, P-) = ((Id +- star)/2) as 6x6 rational-function matrices."""
    nv = h.star[0][0].nvars
    half = Fraction(1, 2)
    eye = [[RatFn.const(1 if i == j else 0, nv) for j in range(NPAIRS)] for i in range(NPAIRS)]
    Pp = [[half * (eye[i][j] + h.star[i][j]) for j in range(NPAIRS)] for i in range(NPAIRS)]
    Pm = [[half * (eye[i][j] - h.star[i][j]) for j in range(NPAIRS)] for i in range(NPAIRS)]
    return Pp, Pm


def curvature_on_forms(T4, ginv) -> List[List[RatFn]]:
    """Endomorphism matrix of a curvature-type tensor acting on 2-forms.

    (T z)_{(ab)} = sum_{c<d} T_{abcd} z^{cd}; returns T2 = T_down * G2.
    """
    g2 = inverse_gram_pairs(ginv)
    down = [[T4[a][b][c][d] for (c, d) in PAIRS] for (a, b) in PAIRS]
    return mat_mul(down, g2)


def weyl_plus_minus(W4, m: ChartMetric, h: HodgeOperator, ginv=None):
    """(W+, W-) as exact 6x6 matrices on the 2-form bundle."""
    if ginv is None:
        ginv = metric_inverse(m)
    W2 = curvature_on_forms(W4, ginv)
    Pp, Pm = sd_projectors(h)
    Wp = mat_mul(Pp, mat_mul(W2, Pp))
    Wm = mat_mul(Pm, mat_mul(W2, Pm))
    return Wp, Wm


def matrix_is_zero(A) -> bool:
    return all(A[i][j].is_zero() for i in range(len(A)) for j in range(len(A[0])))


def matrix_trace(A):
    t = A[0][0]
    for i in range(1, len(A)):
        t = t + A[i][i]
    return t


# -- pointwise exact linear algebra over Fraction --------------------------------------


def frac_eval_matrix(A, coords):
    return [[A[i][j].eval(coords) for j in range(len(A[0]))] for i in range(len(A))]


def _rref(rows, ncols):
    """Row echelon over Fraction, in place; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def frac_rank(A) -> int:
    rows = [list(map(Fraction, row)) for row in A]
    return len(_rref(rows, len(A[0])))


def frac_solve_consistent(B, rhs):
    """Solve B x = rhs exactly (B tall, full column rank, consistent)."""
    n, k = len(B), len(B[0])
    rows = [[Fraction(B[i][j]) for j in range(k)] + [Fraction(rhs[i])] for i in range(n)]
    pivots = _rref(rows, k)
    if len(pivots) != k:
        raise ValueError("matrix does not have full column rank")
    x = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        x[c] = rows[r][k]
    for r in range(len(pivots), n):
        if rows[r][k] != 0:
            raise ValueError("inconsistent system")
    return x


def frac_nullspace(A):
    """Basis of the kernel of A (rows x cols) over Fraction."""
    nrows, ncols = len(A), len(A[0])
    rows = [list(map(Fraction, row)) for row in A]
    pivots = _rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def independent_columns(A, want: int):
    """Indices of the first ``want`` linearly independent columns."""
    ncols = len(A[0])
    chosen = []
    rows = []
    for c in range(ncols):
        cand = rows + [[Fraction(A[i][c]) for i in range(len(A))]]
        test = [list(r) for r in cand]
        if len(_rref(test, len(A))) == len(cand):
            chosen.append(c)
            rows = cand
            if len(chosen) == want:
                return chosen
    raise ValueError(f"matrix has fewer than {want} independent columns")


# -- the Weyl endomorphism at a point and its Petrov type ------------------------------


@dataclass
class WeylEndo:
    """3x3 matrix of W+ (or W-) on a basis of its eigenbundle, plus the Gram matrix."""

    matrix: List[List[Fraction]]
    gram: List[List[Fraction]]
    basis: List[List[Fraction]]          # three 6-vectors over the coordinate 2-form basis
    point: tuple


@dataclass
class PetrovVerdict:
    tag: str                             # Zero / TypeII / TypeIII / Other
    rank: int
    nil_index: int | None
    image_degenerate: bool | None
    image_null: bool | None

    def to_json(self, point=None) -> dict:
        data = {"tag": self.tag, "rank": self.rank, "nilIndex": self.nil_index,
                "imageDegenerate": self.image_degenerate, "imageNull": self.image_null}
        if point is not None:
            data["point"] = [str(c) for c in point]
        return data


def weyl_endo_at_point(W2, projector, g2, coords) -> WeylEndo:
    """Restrict the (projected) curvature action to the +-eigenspace at a point."""
    P0 = frac_eval_matrix(projector, coords)
    W0 = frac_eval_matrix(W2, coords)
    G0 = frac_eval_matrix(g2, coords)
    cols = independent_columns(P0, 3)
    B = [[P0[i][c] for c in cols] for i in range(NPAIRS)]      # 6x3 basis
    WB = [[sum(W0[i][l] * B[l][j] for l in range(NPAIRS)) for j in range(3)] for i in range(NPAIRS)]
    M = [[Fraction(0)] * 3 for _ in range(3)]
    for j in range(3):
        x = frac_solve_consistent(B, [WB[i][j] for i in range(NPAIRS)])
        for i in range(3):
            M[i][j] = x[i]
    gram = [[sum(B[i][a] * G0[i][j] * B[j][b] for i in range(NPAIRS) for j in range(NPAIRS))
             for b in range(3)] for a in range(3)]
    return WeylEndo(matrix=M, gram=gram, basis=[[B[i][j] for i in range(NPAIRS)] for j in range(3)],
                    point=tuple(coords))


def _mat3_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _mat3_is_zero(A):
    return all(A[i][j] == 0 for i in range(3) for j in range(3))


def petrov_classify(endo: WeylEndo, check_preconditions: bool = True) -> PetrovVerdict:
    """Classify by nilpotency, cross-checked against the rank/degeneracy route.

    TypeIII: N != 0, N^2 != 0, N^3 = 0 (equivalently rank 2 with degenerate
    non-null image); TypeII: N != 0, N^2 = 0 (rank-1, null image line);
    Zero: N = 0; anything else reports Other.
    """
    M, G = endo.matrix, endo.gram
    if check_preconditions:
        tr = sum(M[i][i] for i in range(3))
        if tr != 0:
            raise NotTraceFree(f"trace {tr} != 0")
        GM = _mat3_mul(G, M)
        for i in range(3):
            for j in range(3):
                if GM[i][j] != GM[j][i]:
                    raise NotSelfAdjoint("G M is not symmetric")
    if _mat3_is_zero(M):
        return PetrovVerdict("Zero", 0, None, None, None)
    M2 = _mat3_mul(M, M)
    M3 = _mat3_mul(M2, M)
    rank = frac_rank(M)
    # image basis: independent columns of M
    cols = independent_columns(M, rank)
    img = [[M[i][c] for c in cols] for i in range(3)]
    img_gram = [[sum(img[i][a] * G[i][j] * img[j][b] for i in range(3) for j in range(3))
                 for b in range(rank)] for a in range(rank)]
    if rank == 1:
        degenerate = img_gram[0][0] == 0
        null = degenerate
    else:
        det_ig = img_gram[0][0] * img_gram[1][1] - img_gram[0][1] * img_gram[1][0]
        degenerate = det_ig == 0
        null = all(img_gram[a][b] == 0 for a in range(rank) for b in range(rank))

    if _mat3_is_zero(M2):
        nil = 2
        tag = "TypeII" if (rank == 1 and null) else "Other"
        return PetrovVerdict(tag, rank, nil, degenerate, null)
    if _mat3_is_zero(M3):
        nil = 3
        tag = "TypeIII" if (rank == 2 and degenerate and not null) else "Other"
        return PetrovVerdict(tag, rank, nil, degenerate, null)
    return PetrovVerdict("Other", rank, None, degenerate, null)


def _pair3(G, x, y):
    return sum(x[i] * G[i][j] * y[j] for i in range(3) for j in range(3))


def normal_triple(endo: WeylEndo):
    """The basis (zeta, eta, theta) with W zeta = 0, W eta = -zeta, W theta = eta,
    <zeta, theta> = 2 = -<eta, eta>, all other pairings zero.

    Exact over the rationals whenever the normalizing square root is rational
    (always the case for points of the constructed metrics); the returned
    forms are 6-vectors over the coordinate 2-form basis.  Sign fixed by
    making the first nonzero coordinate component of zeta positive.
    """
    M, G = endo.matrix, endo.gram
    verdict = petrov_classify(endo, check_preconditions=False)
    if verdict.tag != "TypeIII":
        raise NotTypeIII(f"endomorphism is {verdict.tag}, not TypeIII")
    M2 = _mat3_mul(M, M)
    zcol = next(j for j in range(3) if any(M2[i][j] != 0 for i in range(3)))
    z = [Fraction(1 if i == zcol else 0) for i in range(3)]
    zeta1 = [M2[i][zcol] for i in range(3)]
    eta1 = [-M[i][zcol] for i in range(3)]
    theta1 = [-zi for zi in z]

    ee = _pair3(G, eta1, eta1)
    if ee >= 0:
        raise NotTypeIII("chain vector eta has non-negative norm; not normalizable")
    s2 = Fraction(-2) / ee
    s = _rational_sqrt(s2)                       # ValueError if irrational
    u = s * _pair3(G, eta1, theta1) / (2 * ee)
    v = (s2 * _pair3(G, theta1, theta1) - 2 * s * u * _pair3(G, eta1, theta1) + u * u * ee) / (2 * s * ee)
    zeta = [s * x for x in zeta1]
    eta = [s * e + u * zc for e, zc in zip(eta1, zeta1)]
    theta = [s * t - u * e + v * zc for t, e, zc in zip(theta1, eta1, zeta1)]

    # to coordinate 2-form components, then fix the overall sign
    B = endo.basis
    def to_flat(coeffs):
        return [sum(coeffs[j] * B[j][i] for j in range(3)) for i in range(NPAIRS)]
    zf, ef, tf = to_flat(zeta), to_flat(eta), to_flat(theta)
    first = next((x for x in zf if x != 0), None)
    if first is not None and first < 0:
        zf, ef, tf = [-x for x in zf], [-x for x in ef], [-x for x in tf]
    return zf, ef, tf


def flat_to_matrix(vec) -> List[List[Fraction]]:
    out = [[Fraction(0)] * DIM for _ in range(DIM)]
    for I, (a, b) in enumerate(PAIRS):
        out[a][b] = Fraction(vec[I])
        out[b][a] = -Fraction(vec[I])
    return out


def canonical_frame(g0, zeta_m, eta_m, theta_m):
    """Pointwise frame (w, w', v, v') with the constant component table.

    g0, zeta_m, eta_m, theta_m: 4x4 Fraction matrices at one point.  Chooses
    w, w' spanning Ker theta with zeta(w, w') = 1, then v = -zeta w',
    v' = zeta w via the index-raised morphism.
    """
    basis = frac_nullspace(theta_m)
    if len(basis) != 2:
        raise DegenerateFrame(f"Ker theta has dimension {len(basis)}, need 2")
    w, wp = basis
    zww = _form_val(zeta_m, w, wp)
    if zww == 0:
        raise DegenerateFrame("zeta vanishes on Ker theta")
    wp = [x / zww for x in wp]
    ginv = _frac_inv4(g0)
    v = [-x for x in _raise_apply(zeta_m, ginv, wp)]
    vp = _raise_apply(zeta_m, ginv, w)
    return [w, wp, v, vp]


def _form_val(omega, u, v):
    return sum(u[i] * omega[i][j] * v[j] for i in range(DIM) for j in range(DIM))


def _raise_apply(omega, ginv, u):
    """(bue.i) morphism: vector with g(Cu, .) = omega(u, .)."""
    return [sum(u[a] * omega[a][w] * ginv[w][m] for a in range(DIM) for w in range(DIM))
            for m in range(DIM)]


def _frac_inv4(A):
    n = len(A)
    rows = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)]
            for i in range(n)]
    piv = _rref(rows, n)
    if len(piv) != n:
        raise DegenerateFrame("metric singular at point")
    return [[rows[i][n + j] for j in range(n)] for i in range(n)]


def frame_component_table(g0, tensors: dict, frame) -> dict:
    """Components of bilinear/4-linear objects in the given frame."""
    out = {}
    for name, T in tensors.items():
        if isinstance(T[0][0], list):
            out[name] = [[[[_multi4(T, frame[a], frame[b], frame[c], frame[d])
                            for d in range(4)] for c in range(4)]
                          for b in range(4)] for a in range(4)]
        else:
            out[name] = [[_form_val(T, frame[a], frame[b]) for b in range(4)] for a in range(4)]
    return out


def _multi4(T, u, v, w, x):
    s = Fraction(0)
    for a in range(DIM):
        if u[a] == 0:
            continue
        for b in range(DIM):
            if v[b] == 0:
                continue
            for c in range(DIM):
                if w[c] == 0:
                    continue
                for d in range(DIM):
                    if x[d] == 0:
                        continue
                    s += u[a] * v[b] * w[c] * x[d] * T[a][b][c][d]
    return s
