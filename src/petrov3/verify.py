"""End-to-end verification of constructed metrics.

Each check returns a CheckReport; in exact mode a pass means the residual
rational functions canonicalize to zero.  The self-duality check searches the
two orientations and reports the one realizing W- = 0.  The homogeneity
verdict is asymmetric on purpose: a nonconstant invariant certifies
non-homogeneity, a constant one certifies nothing and is reported as
indeterminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional

from . import builder, duality, tensorcalc
from .builder import SolutionData
from .exactfield import PoleAtPoint, RatFn, sample_points
from .tensorcalc import DIM, ChartMetric


class BothOrientationsFail(ValueError):
    """Neither orientation kills the anti-self-dual Weyl part."""


@dataclass
class CheckReport:
    name: str
    mode: str                    # exact | numeric
    status: str                  # pass | fail | indeterminate
    residual_max: str            # "0 (exact)" or a float rendered as string
    points_sampled: int = 0
    orientation_used: Optional[int] = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        data = {"name": self.name, "mode": self.mode, "status": self.status,
                "residualMax": self.residual_max, "pointsSampled": self.points_sampled}
        if self.orientation_used is not None:
            data["orientationUsed"] = self.orientation_used
        if self.details:
            data["details"] = self.details
        return data


class VerificationBundle:
    """The geometry of one metric, shared by the checks; each object is computed
    once, at first use.

    `build` starts from solution data.  A bundle of a bare metric has sol and ds
    None, so only its metric-side objects exist.  An inverse or a curvature
    computed elsewhere may be handed in and is used as the cached value.
    """

    def __init__(self, sol: SolutionData | None, metric: ChartMetric, ginv=None,
                 curvature: tensorcalc.CurvatureSet | None = None,
                 ds: builder.DerivedScalars | None = None):
        self.sol, self.metric, self.ds = sol, metric, ds
        for name, value in (("ginv", ginv), ("curvature", curvature)):
            if value is not None:
                self.__dict__[name] = value        # where cached_property keeps its value

    @classmethod
    def build(cls, sol: SolutionData, orientation: int = 1) -> "VerificationBundle":
        """Raises EqnResidualNonzero at once for data that is not a solution."""
        return cls(sol, builder.assemble_metric(sol, orientation), ds=builder.derived_scalars(sol))

    @cached_property
    def ginv(self):
        return tensorcalc.metric_inverse(self.metric)

    @cached_property
    def gamma(self) -> tensorcalc.ChristoffelField:
        return tensorcalc.christoffel(self.metric, self.ginv)

    @cached_property
    def curvature(self) -> tensorcalc.CurvatureSet:
        return tensorcalc.riemann(self.gamma, self.metric)

    @cached_property
    def f_op(self) -> builder.FOperator:
        return builder.f_operator(self.sol, self.ds)

    @cached_property
    def htilde_frame(self) -> builder.FrameField:
        return builder.htilde_frame(self.f_op)

    @cached_property
    def canonical_frame(self):
        return builder.canonical_frame_field(self.ginv, self.htilde_frame)

    @cached_property
    def zeta(self):
        return builder.zeta_matrix()

    @cached_property
    def eta_theta(self):
        return builder.eta_theta_extension(self.ds, self.f_op)

    @cached_property
    def invariant(self) -> RatFn:
        return builder.invariant_gamma_u(self.sol)

    @cached_property
    def weyl_on_forms(self):
        """W on 2-forms; W = R - K g^g when solution data is Einstein, else the
        full Ricci decomposition (perturbed data, bare metrics)."""
        curv, m = self.curvature, self.metric
        if self.sol is not None:
            try:
                return duality.curvature_on_forms(tensorcalc.weyl(curv, m, self.sol.K), self.ginv)
            except tensorcalc.NotEinstein:
                pass
        W4 = tensorcalc.weyl(curv, m, None, einstein_shortcut=False)
        return duality.curvature_on_forms(W4, self.ginv)

    @cached_property
    def g2(self):
        return duality.inverse_gram_pairs(self.ginv)

    @cached_property
    def volume_density(self) -> RatFn:
        return duality.volume_density(self.metric)

    def forms_at(self, coords):
        """(W, S, G2) at one chart point, as 6x6 Fraction matrices on 2-forms.

        W is the Weyl action, S = vol eps G2 the star of orientation +1 (so P+
        of orientation s is `duality.projector(S, s)`) and G2 the Gram matrix.
        Only R (its 21 independent pair components), Ric, the scalar, g, g^-1
        and the volume density are evaluated; W is the full Ricci decomposition
        of those values.  Evaluation is a ring homomorphism away from poles, so
        these are the values of the symbolic objects; PoleAtPoint where one of
        the evaluated functions has a pole.
        """
        # the density first: a non-rational density is reported ahead of any pole
        vol = self.volume_density.eval(coords)
        curv = self.curvature
        R = tensorcalc.pair_tensor(
            lambda j, k, l, p: curv.riemann[j][k][l][p].eval(coords), Fraction(0))
        ric, g, ginv = (_symmetric_at(A, coords) for A in (curv.ricci, self.metric.g, self.ginv))
        W4 = tensorcalc.weyl(tensorcalc.CurvatureSet(R, ric, curv.scalar.eval(coords)),
                             ChartMetric(g), einstein_shortcut=False)
        g2 = duality.inverse_gram_pairs(ginv)
        star = duality.star_matrix(g2, vol, 1)
        return duality.curvature_on_forms(W4, ginv), star, g2

    @cached_property
    def sd_projectors(self):
        """(P+, P-) of the one Hodge star, for the metric's own orientation."""
        return duality.sd_projectors(duality.hodge_star(self.metric, self.ginv))

    def projectors(self, orientation: int):
        """(P+, P-) for `orientation`: the star changes sign with it, so they swap."""
        Pp, Pm = self.sd_projectors
        return (Pp, Pm) if orientation == self.metric.orientation else (Pm, Pp)

    def weyl_part(self, orientation: int):
        """(P+ W P+, P+) for `orientation`; W- of one orientation is W+ of the other."""
        Pp, _ = self.projectors(orientation)
        return duality.project(Pp, self.weyl_on_forms), Pp


def _symmetric_at(A, coords):
    """A symmetric 4x4 matrix at a point, each entry on and above the diagonal evaluated once."""
    out = [[None] * DIM for _ in range(DIM)]
    for a in range(DIM):
        for b in range(a, DIM):
            out[a][b] = out[b][a] = A[a][b].eval(coords)
    return out


def _exact_report(name: str, residuals, **kw) -> CheckReport:
    bad = [r for r in residuals if not r.is_zero()]
    return CheckReport(name=name, mode="exact",
                       status="pass" if not bad else "fail",
                       residual_max="0 (exact)" if not bad else f"{len(bad)} nonzero components",
                       **kw)


def _einstein_residuals(bundle: VerificationBundle, K: Fraction) -> list:
    """Ric - 3K g on and above the diagonal, then scalar - 12K last."""
    m, curv = bundle.metric, bundle.curvature
    Kf = RatFn.const(K, 4)
    residuals = [curv.ricci[a][b] - 3 * Kf * m.g[a][b] for a in range(DIM) for b in range(a, DIM)]
    residuals.append(curv.scalar - 12 * Kf)
    return residuals


def verify_einstein(bundle: VerificationBundle) -> CheckReport:
    """Ric - 3K g == 0 and scalar - 12K == 0, component by component."""
    residuals = _einstein_residuals(bundle, bundle.sol.K)
    rep = _exact_report("einstein", residuals)
    rep.details = {"scalarResidualZero": residuals[-1].is_zero(), "K": str(bundle.sol.K)}
    return rep


def verify_einstein_metric(m: ChartMetric, K: Fraction) -> CheckReport:
    """Einstein check for a standalone metric (no solution data needed)."""
    return _exact_report("einstein", _einstein_residuals(VerificationBundle(None, m), K))


def selfdual_orientation(bundle: VerificationBundle):
    """The orientation making W- vanish, with the W+ matrix for that choice.

    Returns (orientation, Wplus 6x6, W2, projector, gram); raises
    BothOrientationsFail when W != 0 but neither orientation works, and
    returns orientation None when W == 0 identically.
    """
    W2 = bundle.weyl_on_forms
    if duality.matrix_is_zero(W2):
        return None, None, W2, None, None
    parts = {orient: bundle.weyl_part(orient) for orient in (1, -1)}
    for orient in (1, -1):
        if duality.matrix_is_zero(parts[-orient][0]):
            Wp, Pp = parts[orient]
            return orient, Wp, W2, Pp, bundle.g2
    raise BothOrientationsFail("anti-self-dual Weyl part nonzero for both orientations")


def verify_selfdual_typeIII(bundle: VerificationBundle, n_points: int = 10,
                            seed: int = 0) -> CheckReport:
    """W- == 0 for exactly one orientation; W+ nilpotent of index 3 at samples.

    Both classifier routes (nilpotency chain; rank 2 with degenerate non-null
    image) must agree on TypeIII at every sampled point.
    """
    try:
        orient, _, W2, Pp, g2 = selfdual_orientation(bundle)
    except BothOrientationsFail:
        return CheckReport(name="selfdual_type3", mode="exact", status="fail",
                           residual_max="W- nonzero for both orientations")
    if orient is None:
        return CheckReport(name="selfdual_type3", mode="exact", status="indeterminate",
                           residual_max="W == 0 (verdict Zero, not type III)")
    pts = sample_points(n_points, seed=seed)
    verdicts = []
    ok = True
    for p in pts:
        endo = duality.weyl_endo_at_point(W2, Pp, g2, p.coords)
        verdict = duality.petrov_classify(endo)
        verdicts.append(verdict.to_json(p.coords))
        ok = ok and verdict.tag == "TypeIII"
    return CheckReport(name="selfdual_type3", mode="exact",
                       status="pass" if ok else "fail",
                       residual_max="0 (exact)" if ok else "classification failed",
                       points_sampled=len(pts), orientation_used=orient,
                       details={"verdicts": verdicts})


def verify_curvature_identity(bundle: VerificationBundle, zeta=None, eta=None) -> CheckReport:
    """2R - zeta x eta - eta x zeta - 2K g^g == 0, all 256 components exact.

    By default zeta and eta are the construction's own forms (eta carries the
    derived f and r); explicit overrides allow the degenerate zero-form case.
    """
    m = bundle.metric
    R = bundle.curvature.riemann
    K = RatFn.const(bundle.sol.K, 4)
    if zeta is None:
        zeta = bundle.zeta
    if eta is None:
        eta, _ = bundle.eta_theta
    gg = tensorcalc.kulkarni_gg(m)
    residuals = []
    for j in range(DIM):
        for k in range(DIM):
            for l in range(DIM):
                for p in range(DIM):
                    residuals.append(2 * R[j][k][l][p] - zeta[j][k] * eta[l][p]
                                     - eta[j][k] * zeta[l][p] - 2 * K * gg[j][k][l][p])
    return _exact_report("curvature_identity", residuals)


EXPECTED_FRAME_TABLE = {
    "g": {(0, 2): Fraction(1), (2, 0): Fraction(1), (1, 3): Fraction(1), (3, 1): Fraction(1)},
    "zeta": {(0, 1): Fraction(1), (1, 0): Fraction(-1)},
    "eta": {(2, 0): Fraction(1), (0, 2): Fraction(-1), (3, 1): Fraction(1), (1, 3): Fraction(-1)},
    "theta": {(2, 3): Fraction(2), (3, 2): Fraction(-2)},
}


def frame_tables(bundle: VerificationBundle):
    """Exact frame-component tables of g, zeta, eta, theta and the curvature.

    The frame is (w, w', v, v') built globally from the deformed horizontal
    distribution; for a metric of the construction every entry is a constant
    rational function, which is the curvature-homogeneity statement.
    """
    m, fr, zeta = bundle.metric, bundle.canonical_frame, bundle.zeta
    eta, theta = bundle.eta_theta
    tables = {
        "g": [[builder.form_pair(m.g, fr[a], fr[b]) for b in range(4)] for a in range(4)],
        "zeta": [[builder.form_pair(zeta, fr[a], fr[b]) for b in range(4)] for a in range(4)],
        "eta": [[builder.form_pair(eta, fr[a], fr[b]) for b in range(4)] for a in range(4)],
        "theta": [[builder.form_pair(theta, fr[a], fr[b]) for b in range(4)] for a in range(4)],
    }
    return tables, frame_components(bundle.curvature.riemann, fr)


def frame_components(T, fr):
    """Frame components T(e_a, e_b, e_c, e_d) of a 4-slot chart tensor.

    Contracts one slot per pass, T[i][j][k][l] -> T[j][k][l][a] with
    T[j][k][l][a] = sum_i fr[a][i] T[i][j][k][l], so after four passes the
    slots read [a][b][c][d].  That is 4 x 256 x 4 products instead of the
    256 x 4^4 of contracting all four slots at once; zero frame entries and
    zero tensor entries are skipped.
    """
    for _ in range(4):
        T = [[[[_contract_slot(fr[a], [T[i][j][k][l] for i in range(DIM)])
                for a in range(4)] for l in range(DIM)] for k in range(DIM)]
             for j in range(DIM)]
    return T


def _contract_slot(e, column):
    s = RatFn.const(0, 4)
    for ei, ti in zip(e, column):
        if not ei.is_zero() and not ti.is_zero():
            s = s + ei * ti
    return s


def verify_curvature_homogeneity(bundle: VerificationBundle, n_points: int = 10,
                                 seed: int = 0) -> CheckReport:
    """Frame component tables constant, matching the canonical nonzero pattern.

    The check is exact and evaluates no point, so the report says 0 points
    sampled; `n_points` and `seed` are accepted for call compatibility with
    the sampling checks and are ignored.
    """
    tables, curv_table = frame_tables(bundle)
    problems = []
    for name, tab in tables.items():
        expected = EXPECTED_FRAME_TABLE[name]
        for a in range(4):
            for b in range(4):
                entry = tab[a][b]
                if not entry.is_constant():
                    problems.append(f"{name}[{a}][{b}] not constant")
                    continue
                want = expected.get((a, b), Fraction(0))
                if entry.constant_value() != want:
                    problems.append(f"{name}[{a}][{b}] = {entry.constant_value()} != {want}")
    const_curv = {}
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    entry = curv_table[a][b][c][d]
                    if not entry.is_constant():
                        problems.append(f"R[{a}{b}{c}{d}] not constant")
                    elif not entry.is_zero():
                        const_curv[f"{a}{b}{c}{d}"] = str(entry.constant_value())
    return CheckReport(name="curvature_homogeneity", mode="exact",
                       status="pass" if not problems else "fail",
                       residual_max="0 (exact)" if not problems else "; ".join(problems[:4]),
                       details={"curvatureComponents": const_curv})


def curvature_model(bundle: VerificationBundle) -> dict:
    """The constant frame tables as plain rationals, for cross-instance comparison."""
    tables, curv_table = frame_tables(bundle)
    out = {}
    for name, tab in tables.items():
        out[name] = [[str(tab[a][b].constant_value()) for b in range(4)] for a in range(4)]
    out["riemann"] = [[[[str(curv_table[a][b][c][d].constant_value()) for d in range(4)]
                        for c in range(4)] for b in range(4)] for a in range(4)]
    return out


def verify_nonwalker(bundle: VerificationBundle, n_points: int = 5, seed: int = 0) -> CheckReport:
    """beta = phi^-2 xi is certified nonvanishing on the half-space phi > 0.

    Symbolic certificate: beta(d_1) * phi^2 == 1 identically, and the other
    three components vanish; numeric sampling confirms |beta(d_1)| > 0.
    """
    oct_forms = builder.octuple_fields()
    phi = builder.phi_ratfn()
    beta = oct_forms.beta
    cert = (beta[0] * phi * phi - 1).is_zero() and all(beta[i].is_zero() for i in (1, 2, 3))
    pts = sample_points(n_points, seed=seed)
    min_abs = min(abs(beta[0].eval(p.coords)) for p in pts)
    return CheckReport(name="nonwalker", mode="exact",
                       status="pass" if cert and min_abs > 0 else "fail",
                       residual_max="0 (exact)" if cert else "beta certificate failed",
                       points_sampled=len(pts),
                       details={"domain": "phi = x2 > 0", "minSampledAbsBeta": str(min_abs)})


def nonhomogeneity_witness(bundle: VerificationBundle, n_points: int = 5,
                           seed: int = 0) -> CheckReport:
    """Emit two fibre points where the local invariant takes distinct values.

    The invariant is gamma~(ubar) in the normalization that equals
    K + [lambda(c,c) - 2 mu(c,X)] phi^-2; it is cross-validated exactly
    against the Christoffel-based extraction.  A constant invariant proves
    nothing and yields an indeterminate report.
    """
    inv = bundle.invariant
    chr_inv = 4 * builder.gamma_u_via_connection(bundle.metric, bundle.gamma, bundle.htilde_frame)
    agree = (inv - chr_inv).is_zero()
    pts = sample_points(n_points, seed=seed)
    agree_pts = all(inv.eval(p.coords) == chr_inv.eval(p.coords) for p in pts)

    fibre_constant = inv.diff(2).is_zero() and inv.diff(3).is_zero()
    details = {"closedFormMatchesChristoffel": agree}
    if not agree:
        return CheckReport(name="nonhomogeneity_witness", mode="exact", status="fail",
                           residual_max="invariant cross-check failed",
                           points_sampled=len(pts), details=details)
    if fibre_constant:
        details["reason"] = "invariant fibrewise constant; homogeneity undecided"
        return CheckReport(name="nonhomogeneity_witness", mode="exact",
                           status="indeterminate", residual_max="0 (exact)",
                           points_sampled=len(pts), details=details)

    witness = _find_witness(inv)
    if witness is None:
        details["reason"] = "no rational witness found in the search box"
        return CheckReport(name="nonhomogeneity_witness", mode="exact",
                           status="indeterminate", residual_max="0 (exact)",
                           points_sampled=len(pts), details=details)
    (base, p1, v1, p2, v2) = witness
    details.update({
        "basePoint": [str(c) for c in base],
        "fibrePoints": [[str(c) for c in p1], [str(c) for c in p2]],
        "values": [str(v1), str(v2)],
    })
    sound = v1 != v2 and agree_pts
    return CheckReport(name="nonhomogeneity_witness", mode="exact",
                       status="pass" if sound else "fail",
                       residual_max="0 (exact)" if sound else "witness values coincide",
                       points_sampled=len(pts), details=details)


def _find_witness(inv: RatFn):
    """Deterministic search: base points with small coordinates, fibre x in a grid."""
    candidates_y = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                    (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)),
                    (Fraction(1, 2), Fraction(-1, 2))]
    fibre = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(2)),
             (Fraction(0), Fraction(1)), (Fraction(2), Fraction(1)),
             (Fraction(1), Fraction(1, 2))]
    for y in candidates_y:
        vals = []
        for x in fibre:
            pt = (y[0], y[1], x[0], x[1])
            try:
                vals.append((pt, inv.eval(pt)))
            except PoleAtPoint:
                continue
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[i][1] != vals[j][1]:
                    return (y, vals[i][0], vals[i][1], vals[j][0], vals[j][1])
    return None


ALL_CHECKS = ("nonwalker", "einstein", "selfdual", "type3", "identity",
              "homogeneous", "witness")


def run_suite(sol: SolutionData, checks=ALL_CHECKS, seed: int = 0,
              orientation: int | None = None) -> List[CheckReport]:
    """Run the requested checks over one shared bundle.

    `selfdual` and `type3` are one combined report (the type III sampling only
    makes sense for the orientation that kills W-).
    """
    bundle = VerificationBundle.build(sol, orientation or 1)
    reports = []
    wanted = set(checks)
    if "nonwalker" in wanted:
        reports.append(verify_nonwalker(bundle, seed=seed))
    if "einstein" in wanted:
        reports.append(verify_einstein(bundle))
    if "selfdual" in wanted or "type3" in wanted:
        rep = verify_selfdual_typeIII(bundle, seed=seed)
        if orientation is not None and rep.orientation_used not in (None, orientation):
            rep.status = "fail"
            rep.residual_max = (f"W- vanishes for orientation {rep.orientation_used}, "
                                f"not the requested {orientation}")
        reports.append(rep)
    if "identity" in wanted:
        reports.append(verify_curvature_identity(bundle))
    if "homogeneous" in wanted:
        reports.append(verify_curvature_homogeneity(bundle))
    if "witness" in wanted:
        reports.append(nonhomogeneity_witness(bundle, seed=seed))
    return reports
