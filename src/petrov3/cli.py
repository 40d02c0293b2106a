"""Batch command-line interface: JSON in, JSON out, deterministic bytes.

Commands
--------
build      solution.json -> metric.json (+ derived-scalar summary)
verify     solution.json -> report.json; exit 0 iff no requested check fails
solve      generate solution families or run the characteristics solver
classify   Petrov verdicts per point (metric input), or the curvature
           trichotomy for a connection input
invariant  the local invariant and its non-homogeneity witness

Exit codes: 0 ok, 1 verification failure, 2 malformed input / pole points /
unwritable --out, 3 solution-consistency failure, 4 solver geometry failure
(tangent initial curve, gauge zero crossing, fan fold-over, non-finite fan).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import builder, duality, pdesolve, pdesystem, tensorcalc, verify as verify_mod
from .builder import EqnResidualNonzero, SolutionData
from .exactfield import PoleAtPoint, Poly, RatFn, sample_points
from .pdesolve import (CharacteristicCrossing, InitialCurve, InvalidFanGrid, QuasiLinearPDE,
                       TangentInitialCurve, ZeroCrossing)


class OutputError(Exception):
    """``--out`` could not be written."""


def _chunks(obj, depth: int = 0):
    """The text of ``json.dump(obj, indent=2, sort_keys=True)``, in pieces.

    numpy arrays are written as their ``tolist()``, without building it for a
    float64 array of two or more dimensions: that is written row by row.  A
    row of Python floats is one piece, the floats' reprs with json's spellings
    of NaN and infinity; anything else is written as json writes it.
    """
    if isinstance(obj, np.ndarray) and (obj.dtype != np.float64 or obj.ndim < 2):
        obj = obj.tolist()
    if not isinstance(obj, (dict, list, tuple, np.ndarray)):
        yield json.dumps(obj)
        return
    if len(obj) == 0:
        yield "{}" if isinstance(obj, dict) else "[]"
        return
    pad = "\n" + "  " * (depth + 1)
    end = pad[:-2] + ("}" if isinstance(obj, dict) else "]")
    if type(obj) is list and all(type(x) is float for x in obj):
        text = repr(obj)[1:-1]
        if "n" in text:                     # nan, inf or -inf among the reprs
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        yield "[" + pad + text.replace(", ", "," + pad) + end
        return
    if isinstance(obj, dict):
        for i, (key, value) in enumerate(sorted(obj.items())):
            key = key if isinstance(key, str) else json.dumps(key)
            yield ("{" if i == 0 else ",") + pad + json.dumps(key) + ": "
            yield from _chunks(value, depth + 1)
    else:
        for i, value in enumerate(obj):
            yield ("[" if i == 0 else ",") + pad
            yield from _chunks(value, depth + 1)
    yield end


def _write(fh, payload) -> None:
    fh.writelines(_chunks(payload))
    fh.write("\n")


def _dump(path: str | None, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON and a newline to ``path`` or stdout.

    The encoder's chunks are written as they are made, so the whole text is
    never held in memory.  A file whose write fails is removed, so no partial
    output is left behind; a failed write raises ``OutputError``.
    """
    if path in (None, "-"):
        try:
            _write(sys.stdout, payload)
            sys.stdout.flush()
        except OSError as exc:
            raise OutputError(exc) from exc
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise OutputError(exc) from exc
    try:
        with fh:
            _write(fh, payload)
    except BaseException as exc:
        if os.path.isfile(path):
            os.remove(path)
        if isinstance(exc, OSError):
            raise OutputError(exc) from exc
        raise


class MalformedInput(Exception):
    """Outside input (a file, a JSON option or a number) could not be parsed."""


# what parsing outside input raises: unreadable files, bad JSON, bad Fraction
# and float literals, missing keys, wrong shapes and types, zero denominators,
# floats out of range and nesting too deep for the JSON decoder
_MALFORMED = (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError,
              ZeroDivisionError, OverflowError, RecursionError)


@contextlib.contextmanager
def _parsing():
    """Re-raise anything raised while outside input is parsed as MalformedInput."""
    try:
        yield
    except _MALFORMED as exc:
        raise MalformedInput(f"{type(exc).__name__}: {exc}") from exc


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _term_list_arg(text: str | None, nvars: int) -> Poly | None:
    return Poly.from_json(json.loads(text), nvars=nvars) if text else None


def _points(args, connection: bool) -> list:
    """``--points`` rows, else ``--n-points`` seeded samples, as Fraction tuples.

    A metric takes chart rows (y1, y2, x1, x2); a connection takes (y1, y2)
    from rows of 2 or 4 entries.
    """
    if args.n_points < 1:
        raise MalformedInput(f"--n-points {args.n_points} is below 1")
    rows = (_load_json(args.points) if args.points
            else [p.coords for p in sample_points(args.n_points, seed=args.seed)])
    sizes = (2, 4) if connection else (4,)
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) not in sizes:
            raise MalformedInput(f"point row {row!r} is not a list of "
                                 + " or ".join(map(str, sizes)) + " entries")
    return [tuple(Fraction(str(c)) for c in row[:sizes[0]]) for row in rows]


def cmd_build(args) -> int:
    with _parsing():
        sol = SolutionData.from_json(_load_json(args.input))
        if args.r_override is not None:
            sol = sol.with_r_override(Fraction(args.r_override))
    ds = builder.derived_scalars(sol)
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
    checks = tuple(args.checks.split(",")) if args.checks else verify_mod.ALL_CHECKS
    with _parsing():
        unknown = sorted(set(checks) - set(verify_mod.ALL_CHECKS))
        if unknown:
            raise MalformedInput("unknown checks: " + ",".join(unknown))
        K = Fraction(args.K or 0)
        data = _load_json(args.input)
        if "components" in data:
            sol = SolutionData.from_json(data)
        else:
            sol, m = None, tensorcalc.ChartMetric.from_json(data.get("metric", data))
    if sol is not None:
        reports = verify_mod.run_suite(sol, checks=checks, seed=args.seed,
                                       orientation=args.orientation)
    else:
        # bare metric input: only the Einstein check is available
        reports = [verify_mod.verify_einstein_metric(m, K) if name == "einstein" else
                   verify_mod.CheckReport(name=name, mode="exact", status="indeterminate",
                                          residual_max="skipped: check requires solution-data input")
                   for name in checks]
    _dump(args.out, [r.to_json() for r in reports])
    failed = [r for r in reports if r.status == "fail"]
    if failed:
        print(f"{len(failed)} check(s) failed: " + ", ".join(r.name for r in failed),
              file=sys.stderr)
        return 1
    return 0


def cmd_solve(args) -> int:
    if args.family == "lccne":
        with _parsing():
            paa, pac = _term_list_arg(args.paa, 1), _term_list_arg(args.pac, 1)
            K, const0 = Fraction(args.K or "1"), Fraction(args.const0 or "1")
        _dump(args.out, pdesystem.lccne_generate(K, const0, paa, pac).to_json())
        return 0
    if args.family == "k0":
        conn = pdesolve.connection_normal_form("III")
        a = (RatFn.const(0, 4), RatFn.const(1, 4))
        with _parsing():
            chi = _term_list_arg(args.chi, 4) or Poly({}, 4)
            _, sol = pdesystem.k0_solve(conn, a, chi)    # ValueError if chi depends on the fibre
        if not all(r.is_zero() for r in pdesystem.residual_eqn(sol)):
            raise EqnResidualNonzero("k0 solution fails the residual equations")
        _dump(args.out, sol.to_json())
        return 0
    if args.method != "characteristics":
        raise MalformedInput("need --family lccne|k0 or --method characteristics")
    with _parsing():
        data = _load_json(args.pde)
        pde = QuasiLinearPDE.from_json(data)
        step = float(data.get("step", args.step))
        extent = float(data.get("extent", args.extent))
        ic = InitialCurve.from_json(data["initialCurve"], extent=extent)
    fan = pdesolve.characteristics_solve(pde, ic, step=step, extent=extent)
    payload = {"t": fan.t, "s": fan.s, "y1": fan.y1, "y2": fan.y2, "z": fan.z,
               "maxPdeResidual": fan.max_residual()}
    _dump(args.out, payload)
    return 0


def cmd_classify(args) -> int:
    with _parsing():
        if args.zero_tol is not None and not 0 <= args.zero_tol < np.inf:
            raise MalformedInput(f"--zero-tol {args.zero_tol} is not finite and non-negative")
        data = _load_json(args.input)
        conn = None
        if "case" in data:
            conn = pdesolve.connection_normal_form(
                data["case"],
                Poly.from_json(data["psi"], 4) if data.get("psi") else None,
                Poly.from_json(data["chi"], 4) if data.get("chi") else None,
                Poly.from_json(data["p"], 1) if data.get("p") else None)
        elif "Gamma" in data:
            conn = pdesystem.PlaneConnection.from_json(data)
        else:
            m = tensorcalc.ChartMetric.from_json(data.get("metric", data))
        if args.mode == "exact" and isinstance(conn, pdesolve.CallableConnection):
            raise MalformedInput("connection requires transcendental data; rerun with "
                                 "--mode numeric")
        pts = _points(args, connection=conn is not None)
    if conn is not None:
        _dump(args.out, pdesolve.classify_connection(conn, pts, zero_tol=args.zero_tol))
        return 0
    # the inverse, Γ, R/Ric/scalar and the volume density are symbolic; W, the
    # star, P+- and P W P are formed from their values at each point
    ctx = verify_mod.VerificationBundle(None, m)
    forms = [ctx.forms_at(p) for p in pts]
    verdicts = []
    for orient, label in ((1, "Wplus"), (-1, "Wminus")):
        for p, (W2, star, g2) in zip(pts, forms):
            endo = duality.weyl_endo(W2, duality.projector(star, orient), g2, p)
            verdicts.append({"part": label, **duality.petrov_classify(endo).to_json(p)})
    _dump(args.out, verdicts)
    return 0


def cmd_invariant(args) -> int:
    with _parsing():
        sol = SolutionData.from_json(_load_json(args.input))
    ctx = verify_mod.VerificationBundle.build(sol)
    rep = verify_mod.nonhomogeneity_witness(ctx, seed=args.seed)
    payload = {"invariant": ctx.invariant.to_json(), "report": rep.to_json()}
    _dump(args.out, payload)
    return 0 if rep.status != "fail" else 1


# exit code and stderr prefix of each failure a command raises; any other
# exception is a fault of the program and ends in a traceback
_FAILURES = {OutputError: (2, "cannot write output: "), MalformedInput: (2, "malformed input: "),
             PoleAtPoint: (2, "pole at sample point: "), InvalidFanGrid: (2, ""),
             EqnResidualNonzero: (3, ""),
             TangentInitialCurve: (4, ""), ZeroCrossing: (4, ""), CharacteristicCrossing: (4, "")}


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
    p.add_argument("--zero-tol", type=float, default=None,
                   help="numeric-mode zero threshold (default: the finite-difference "
                        "rounding bound at each point)")
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
    try:
        return args.fn(args)
    except tuple(_FAILURES) as exc:
        code, prefix = next(_FAILURES[cls] for cls in type(exc).__mro__ if cls in _FAILURES)
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
