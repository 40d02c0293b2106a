"""Batch command-line interface: JSON in, JSON out, deterministic bytes.

Commands
--------
build      solution.json -> metric.json (+ derived-scalar summary)
verify     solution.json -> report.json; exit 0 iff no requested check fails
solve      generate solution families or run the characteristics solver
classify   Petrov verdicts per point (metric input), or the curvature
           trichotomy for a connection input
invariant  the local invariant and its non-homogeneity witness

Exit codes: 0 ok, 1 verification failure, 2 malformed input / pole points,
3 solution-consistency failure, 4 solver geometry failure (tangent initial
curve, gauge zero crossing, fan fold-over, non-finite fan).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import builder, duality, pdesolve, tensorcalc, verify as verify_mod
from .builder import EqnResidualNonzero, SolutionData
from .exactfield import PoleAtPoint, Point, Poly, RatFn, sample_points
from .pdesolve import (CharacteristicCrossing, InitialCurve, InvalidFanGrid, QuasiLinearPDE,
                       TangentInitialCurve, ZeroCrossing)


def _dump(path: str | None, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def cmd_build(args) -> int:
    try:
        sol = SolutionData.from_json(_load_json(args.input))
        if args.r_override is not None:
            sol = sol.with_r_override(_parse_fraction(args.r_override))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    try:
        ds = builder.derived_scalars(sol)
    except EqnResidualNonzero as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    m = builder.assemble_metric(sol, args.orientation or 1)
    det = tensorcalc.metric_det(m)
    payload = {
        "metric": m.to_json(),
        "determinant": det.to_json(),
        "determinantIsPhiSquared": bool((det - builder.phi_ratfn() ** 2).is_zero()),
        "derived": {"s": ds.s.to_json(), "r": ds.r.to_json(), "f": ds.f.to_json()},
    }
    _dump(args.out, payload)
    return 0


def cmd_verify(args) -> int:
    try:
        data = _load_json(args.input)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    checks = tuple(args.checks.split(",")) if args.checks else verify_mod.ALL_CHECKS
    if "components" in data:
        try:
            sol = SolutionData.from_json(data)
        except (KeyError, ValueError) as exc:
            print(f"error: malformed input: {exc}", file=sys.stderr)
            return 2
        reports = verify_mod.run_suite(sol, checks=checks, seed=args.seed,
                                       orientation=args.orientation)
    else:
        # bare metric input: only the Einstein check is available
        try:
            m = tensorcalc.ChartMetric.from_json(data.get("metric", data))
        except (KeyError, ValueError) as exc:
            print(f"error: malformed input: {exc}", file=sys.stderr)
            return 2
        K = _parse_fraction(args.K) if args.K else Fraction(0)
        reports = []
        for name in checks:
            if name == "einstein":
                reports.append(verify_mod.verify_einstein_metric(m, K))
            else:
                reports.append(verify_mod.CheckReport(
                    name=name, mode="exact", status="indeterminate",
                    residual_max="skipped: check requires solution-data input"))
    payload = [r.to_json() for r in reports]
    _dump(args.out, payload)
    failed = [r for r in reports if r.status == "fail"]
    if failed:
        print(f"{len(failed)} check(s) failed: " + ", ".join(r.name for r in failed),
              file=sys.stderr)
        return 1
    return 0


def _term_list_arg(text: str | None, nvars: int) -> Poly | None:
    return Poly.from_json(json.loads(text), nvars=nvars) if text else None


# what malformed JSON term lists and numbers raise while they are parsed
_MALFORMED = (KeyError, TypeError, ValueError, ZeroDivisionError)


def cmd_solve(args) -> int:
    if args.family == "lccne":
        try:
            paa, pac = _term_list_arg(args.paa, 1), _term_list_arg(args.pac, 1)
            K, const0 = _parse_fraction(args.K or "1"), _parse_fraction(args.const0 or "1")
        except _MALFORMED as exc:
            print(f"error: malformed input: {exc!r}", file=sys.stderr)
            return 2
        _dump(args.out, pdesolve.lccne_generate(K, const0, paa, pac).to_json())
        return 0
    if args.family == "k0":
        conn = pdesolve.connection_normal_form("III")
        a = (RatFn.const(0, 4), RatFn.const(1, 4))
        try:
            chi = _term_list_arg(args.chi, 4) or Poly({}, 4)
            _, sol = pdesolve.k0_solve(conn, a, chi)    # ValueError if chi depends on the fibre
        except _MALFORMED as exc:
            print(f"error: malformed input: {exc!r}", file=sys.stderr)
            return 2
        r1, r2 = pdesolve.residual_eqn(sol)
        if not (r1.is_zero() and r2.is_zero()):
            print("error: k0 solution fails the residual equations", file=sys.stderr)
            return 3
        _dump(args.out, sol.to_json())
        return 0
    if args.method == "characteristics":
        try:
            data = _load_json(args.pde)
            pde = QuasiLinearPDE.from_json(data)
            step = float(data.get("step", args.step))
            extent = float(data.get("extent", args.extent))
            ic = InitialCurve.from_json(data["initialCurve"], extent=extent)
        except (OSError, *_MALFORMED) as exc:
            print(f"error: malformed input: {exc}", file=sys.stderr)
            return 2
        try:
            fan = pdesolve.characteristics_solve(pde, ic, step=step, extent=extent)
        except InvalidFanGrid as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (TangentInitialCurve, ZeroCrossing, CharacteristicCrossing) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        payload = fan.to_json()
        payload["maxPdeResidual"] = fan.max_residual()
        _dump(args.out, payload)
        return 0
    print("error: need --family lccne|k0 or --method characteristics", file=sys.stderr)
    return 2


def cmd_classify(args) -> int:
    try:
        data = _load_json(args.input)
        is_connection = "Gamma" in data or "case" in data
        pts = _base_points(args) if is_connection else _chart_points(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    if is_connection:
        if "case" in data:
            conn = pdesolve.connection_normal_form(
                data["case"],
                Poly.from_json(data["psi"], 4) if data.get("psi") else None,
                Poly.from_json(data["chi"], 4) if data.get("chi") else None,
                Poly.from_json(data["p"], 1) if data.get("p") else None)
        else:
            conn = pdesolve.PlaneConnection.from_json(data)
        if args.mode == "exact" and not isinstance(conn, pdesolve.PlaneConnection):
            print("error: connection requires transcendental data; rerun with "
                  "--mode numeric", file=sys.stderr)
            return 2
        _dump(args.out, pdesolve.classify_connection(conn, pts, zero_tol=args.zero_tol))
        return 0

    try:
        m = tensorcalc.ChartMetric.from_json(data.get("metric", data))
    except (KeyError, ValueError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    ctx = verify_mod.VerificationBundle(None, m)
    verdicts = []
    try:
        for orient in (1, -1):
            Wp, Pp = ctx.weyl_part(orient)
            label = "Wplus" if orient == 1 else "Wminus"
            for p in pts:
                endo = duality.weyl_endo_at_point(Wp, Pp, ctx.g2, p.coords)
                v = duality.petrov_classify(endo)
                verdicts.append({"part": label, **v.to_json(p.coords)})
    except PoleAtPoint as exc:
        print(f"error: pole at sample point: {exc}", file=sys.stderr)
        return 2
    _dump(args.out, verdicts)
    return 0


def cmd_invariant(args) -> int:
    try:
        sol = SolutionData.from_json(_load_json(args.input))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    ctx = verify_mod.VerificationBundle.build(sol)
    rep = verify_mod.nonhomogeneity_witness(ctx, seed=args.seed)
    payload = {"invariant": ctx.invariant.to_json(), "report": rep.to_json()}
    _dump(args.out, payload)
    return 0 if rep.status != "fail" else 1


def _chart_points(args):
    if args.points:
        data = _load_json(args.points)
        return [Point(tuple(Fraction(str(c)) for c in row)) for row in data]
    return sample_points(args.n_points, seed=args.seed)


def _base_points(args):
    if args.points:
        data = _load_json(args.points)
        return [tuple(Fraction(str(c)) for c in row) for row in data]
    pts = sample_points(args.n_points, seed=args.seed)
    return [(p.coords[0], p.coords[1]) for p in pts]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="petrov3", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("build", help="assemble the metric from solution data")
    p.add_argument("--input", required=True)
    p.add_argument("--r-override", default=None)
    p.add_argument("--orientation", type=int, choices=(1, -1), default=None)
    common(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="run verification checks")
    p.add_argument("--input", required=True)
    p.add_argument("--checks", default=None,
                   help="comma list from: " + ",".join(verify_mod.ALL_CHECKS))
    p.add_argument("--K", default=None, help="scalar-curvature constant for metric inputs")
    p.add_argument("--orientation", type=int, choices=(1, -1), default=None)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("solve", help="solution families and the characteristics solver")
    p.add_argument("--family", choices=("lccne", "k0"), default=None)
    p.add_argument("--method", choices=("characteristics",), default=None)
    p.add_argument("--pde", default=None, help="pde.json input")
    p.add_argument("--K", default=None)
    p.add_argument("--const0", default=None)
    p.add_argument("--paa", default=None, help="JSON term list, polynomial in y1")
    p.add_argument("--pac", default=None, help="JSON term list, polynomial in y1")
    p.add_argument("--chi", default=None, help="JSON term list for the K=0 branch")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--extent", type=float, default=0.4)
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("classify", help="Petrov verdicts or connection trichotomy")
    p.add_argument("--input", required=True, help="metric.json or connection.json")
    p.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    p.add_argument("--zero-tol", type=float, default=1e-12,
                   help="numeric-mode zero-detection threshold")
    p.add_argument("--points", default=None, help="JSON file with point rows")
    p.add_argument("--n-points", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("invariant", help="local invariant and witness")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_invariant)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
