"""The benchmark's workloads: seeded inputs, the program call, its traced replay
and the per-item output check.

Every function takes ``P``, a namespace holding the petrov3 modules, so that
set-up can import the package afresh.  A pass is a list of ``Item``s; each item
kind provides
  call(P, item)            -> (start, end, cpu, output) the untraced program call
  check(item, output)      -> bool                      the output check
  replay(P, item, tracer)  -> (output, counts)          the same public calls, one span each

The replay mirrors the command's own sequence of public calls, so its output
must equal the untraced output byte for byte; the traced run checks that.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TOL = 1e-6
SIGNS = (-1, 1)
LCCNE_K = (1, 0, -2)
FAN_STEP = 1e-3
FD_STEP = 5e-3


@dataclass
class Item:
    id: str
    kind: str
    args: dict


def _timed(fn):
    """(start, end, cpu, output): perf_counter bounds and process CPU seconds of the call."""
    start, cpu = time.perf_counter(), time.process_time()
    out = fn()
    end = time.perf_counter()
    return start, end, time.process_time() - cpu, out


def _cli(P, argv) -> int:
    try:
        return P.cli.main(argv)
    except SystemExit as exc:          # argparse rejects
        return exc.code if isinstance(exc.code, int) else 2


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_json(path, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _dump(payload, path) -> bytes:
    """Write the payload as the CLI does (petrov3.cli._dump); return the bytes written."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text.encode()


# -- expression sizes, read from the documented JSON form ---------------------------

# aggregated over a pass by max; every other count is summed
MAX_COUNTS = ("exactfield.riemann_max_degree", "exactfield.riemann_coeff_bits",
              "exactfield.riemann_den_terms_max")


def _sizes(f):
    """(numerator terms, denominator terms, max total degree, max coefficient bits)."""
    js = f.to_json()
    deg = bits = 0
    for term in js["num"] + js["den"]:
        deg = max(deg, sum(term["e"]))
        for part in term["c"].lstrip("-").split("/"):
            bits = max(bits, int(part).bit_length())
    return len(js["num"]), len(js["den"]), deg, bits


def _flat(T, depth):
    return [T] if depth == 0 else [x for row in T for x in _flat(row, depth - 1)]


def metric_counts(m) -> dict:
    return {"exactfield.metric_terms": sum(n + d for n, d, _, _ in map(_sizes, _flat(m.g, 2)))}


def riemann_counts(R) -> dict:
    sizes = [_sizes(f) for f in _flat(R, 4)]
    return {"exactfield.riemann_terms": sum(n + d for n, d, _, _ in sizes),
            "exactfield.riemann_max_degree": max(s[2] for s in sizes),
            "exactfield.riemann_coeff_bits": max(s[3] for s in sizes),
            "exactfield.riemann_den_terms_max": max(s[1] for s in sizes)}


def add_counts(total: dict, counts: dict) -> None:
    for name, v in counts.items():
        total[name] = max(total.get(name, 0), v) if name in MAX_COUNTS else total.get(name, 0) + v


# -- seeded solution data --------------------------------------------------------------


def _lccne(P, rng, K, tiny):
    """lccne member with seeded const0, paa = a y1^2 and pac = b y1.

    Magnitudes 1..3 with seeded signs keep the cost of one item nearly
    independent of the seed.
    """
    Poly = P.exactfield.Poly
    if tiny:
        return P.pdesolve.lccne_generate(Fraction(K), Fraction(rng.randint(1, 10**6), 10**6))
    const0, a, b = (Fraction(rng.choice(SIGNS) * rng.randint(1, 3)) for _ in range(3))
    return P.pdesolve.lccne_generate(Fraction(K), const0, Poly({(2,): a}, 1), Poly({(1,): b}, 1))


def _kq(P, rng):
    """The K != 0, q != 0 solution of tests/test_verify.py with seeded K and alpha."""
    Poly = P.exactfield.Poly
    K = Fraction(rng.choice(SIGNS) * rng.randint(1, 3))
    alpha = Fraction(rng.choice(SIGNS) * rng.randint(1, 3))
    y1, y2, zero = Poly.var(0, 4), Poly.var(1, 4), Poly({}, 4)
    return P.builder.SolutionData(
        K=K, lambda_cc=Poly.const(1, 4) - y1, lambda_ca=Poly.const(-K * alpha, 4) * y2 + y1 * y1,
        lambda_aa=y1, mu_cc=zero, mu_ca=zero, mu_aa=zero,
        omega_cq=Poly.const(-alpha, 4), omega_aq=zero)


def _fresh(draw, key, seen: set):
    """Draw until the input is one this run has not processed yet."""
    for _ in range(1000):
        x = draw()
        k = key(x)
        if k not in seen:
            seen.add(k)
            return x
    raise RuntimeError("seeded input space exhausted")


def _sol_key(sol) -> str:
    return json.dumps(sol.to_json(), sort_keys=True)


# -- verify-suite --------------------------------------------------------------------------


class Verify:
    """`petrov3 verify --input sol.json` with every check on."""

    @staticmethod
    def call(P, item):
        start, end, cpu, rc = _timed(lambda: _cli(P, ["verify", "--input", item.args["input"],
                                                     "--out", item.args["out"]]))
        return start, end, cpu, (rc, _read(item.args["out"]))

    @staticmethod
    def check(item, output) -> bool:
        rc, text = output
        return rc == 0 and all(r["status"] == "pass" for r in json.loads(text))

    @staticmethod
    def replay(P, item, tr):
        """cmd_verify -> run_suite(sol) on solution input, all checks, seed 0."""
        B, T, V = P.builder, P.tensorcalc, P.verify
        with tr.span("cli.verify"):
            sol = B.SolutionData.from_json(_load_json(item.args["input"]))
            with tr.span("builder.assemble_metric"):
                m = B.assemble_metric(sol, 1)
            with tr.span("tensorcalc.metric_inverse"):
                ginv = T.metric_inverse(m)
            with tr.span("tensorcalc.christoffel"):
                gam = T.christoffel(m, ginv)
            with tr.span("tensorcalc.riemann"):
                curv = T.riemann(gam, m)
            with tr.span("builder.derived_scalars"):
                ds = B.derived_scalars(sol)
            bundle = V.VerificationBundle(sol=sol, metric=m, ginv=ginv, curvature=curv, ds=ds)
            reports = []
            with tr.span("verify.nonwalker"):
                reports.append(V.verify_nonwalker(bundle, seed=0))
            with tr.span("verify.einstein"):
                reports.append(V.verify_einstein(bundle))
            with tr.span("verify.selfdual_type3"):
                reports.append(V.verify_selfdual_typeIII(bundle, seed=0))
            with tr.span("verify.curvature_identity"):
                reports.append(V.verify_curvature_identity(bundle))
            with tr.span("verify.curvature_homogeneity"):
                reports.append(V.verify_curvature_homogeneity(bundle, seed=0))
            with tr.span("verify.witness"):
                reports.append(V.nonhomogeneity_witness(bundle, seed=0))
            with tr.span("cli.json"):
                text = _dump([r.to_json() for r in reports], item.args["out"] + ".traced")
        counts = metric_counts(m)
        counts.update(riemann_counts(curv.riemann))
        return (0, text), counts


def verify_suite_items(P, rng, k, workdir, seen, tiny):
    """lccne at K = 1, 0, -2 plus one K != 0, q != 0 member (tiny: lccne K = 1 alone)."""
    sols = [_fresh(lambda K=K: _lccne(P, rng, K, tiny), _sol_key, seen)
            for K in (LCCNE_K[:1] if tiny else LCCNE_K)]
    if not tiny:
        sols.append(_fresh(lambda: _kq(P, rng), _sol_key, seen))
    items = []
    for i, sol in enumerate(sols):
        path = _write_json(workdir / f"p{k}-{i}-sol.json", sol.to_json())
        items.append(Item(f"p{k}.{i}", "verify",
                          {"input": path, "out": str(workdir / f"p{k}-{i}-report.json")}))
    return items


# -- classify-chart ------------------------------------------------------------------------


def shear(P, m, k: Fraction):
    """Pull a metric back along (y1, y2, x1, x2) -> (y1, y2, x1, x2 - k y1^2).

    Denominators become powers of x2 - k y1^2, which are not monomials.
    """
    Poly, RatFn = P.exactfield.Poly, P.exactfield.RatFn
    s = Poly.var(3) - Poly.var(0) ** 2 * k
    powers = [Poly.const(1)]

    def sub(terms):
        out = Poly({})
        for t in terms:
            e = t["e"]
            while len(powers) <= e[3]:
                powers.append(powers[-1] * s)
            out = out + Poly({(e[0], e[1], e[2], 0): Fraction(t["c"])}) * powers[e[3]]
        return out

    G = [[RatFn(sub(js["num"]), sub(js["den"])) for js in (f.to_json() for f in row)]
         for row in m.g]
    # g' = J^T G J with J the identity plus J[3][0] = d(x2 - k y1^2)/dy1 = -2k y1
    j = RatFn(Poly.var(0) * (-2 * k))
    g = [row[:] for row in G]
    for b in range(1, 4):
        g[0][b] = g[b][0] = G[0][b] + j * G[3][b]
    g[0][0] = G[0][0] + 2 * j * G[3][0] + j * j * G[3][3]
    return P.tensorcalc.ChartMetric(g, m.orientation)


def _classify_points(rng, k: Fraction, n: int):
    """n rational chart points with phi = x2 - k y1^2 in [1/2, 2]."""
    rows = []
    for _ in range(n):
        y1, y2, x1 = (Fraction(rng.randint(-2 * d, 2 * d), d)
                      for d in (rng.randint(1, 4) for _ in range(3)))
        x2 = k * y1 * y1 + Fraction(rng.randint(2, 8), 4)
        rows.append([str(v) for v in (y1, y2, x1, x2)])
    return rows


class Classify:
    """`petrov3 classify --input metric.json --points pts.json` on a bare metric."""

    @staticmethod
    def call(P, item):
        start, end, cpu, rc = _timed(lambda: _cli(P, ["classify", "--input", item.args["input"],
                                                     "--points", item.args["points"],
                                                     "--out", item.args["out"]]))
        return start, end, cpu, (rc, _read(item.args["out"]))

    @staticmethod
    def check(item, output) -> bool:
        """At every requested point one part is TypeIII and the other Zero."""
        rc, text = output
        if rc != 0:
            return False
        tags: dict = {}
        for v in json.loads(text):
            tags.setdefault(tuple(v["point"]), {})[v["part"]] = v["tag"]
        want = {tuple(p) for p in item.args["pointRows"]}
        return set(tags) == want and all(
            set(t) == {"Wplus", "Wminus"} and sorted(t.values()) == ["TypeIII", "Zero"]
            for t in tags.values())

    @staticmethod
    def replay(P, item, tr):
        """cmd_classify on metric input."""
        T, D, E = P.tensorcalc, P.duality, P.exactfield
        with tr.span("cli.classify"):
            m = T.ChartMetric.from_json(_load_json(item.args["input"]))
            pts = [E.Point(tuple(Fraction(str(c)) for c in row))
                   for row in _load_json(item.args["points"])]
            with tr.span("tensorcalc.metric_inverse"):
                ginv = T.metric_inverse(m)
            with tr.span("tensorcalc.christoffel"):
                gam = T.christoffel(m, ginv)
            with tr.span("tensorcalc.riemann"):
                curv = T.riemann(gam, m)
            with tr.span("tensorcalc.weyl"):
                W4 = T.weyl(curv, m, None, einstein_shortcut=False)
            with tr.span("duality.curvature_on_forms"):
                W2 = D.curvature_on_forms(W4, ginv)
            with tr.span("duality.inverse_gram_pairs"):
                g2 = D.inverse_gram_pairs(ginv)
            verdicts = []
            for orient in (1, -1):
                with tr.span("duality.hodge_star"):
                    h = D.hodge_star(m.with_orientation(orient), ginv)
                with tr.span("duality.sd_projectors"):
                    Pp, _ = D.sd_projectors(h)
                with tr.span("duality.mat_mul"):
                    Wp = D.mat_mul(Pp, D.mat_mul(W2, Pp))
                label = "Wplus" if orient == 1 else "Wminus"
                for p in pts:
                    with tr.span("duality.weyl_endo_at_point"):
                        endo = D.weyl_endo_at_point(Wp, Pp, g2, p.coords)
                    with tr.span("duality.petrov_classify"):
                        v = D.petrov_classify(endo)
                    verdicts.append({"part": label, **v.to_json(p.coords)})
            with tr.span("cli.json"):
                text = _dump(verdicts, item.args["out"] + ".traced")
        counts = metric_counts(m)
        counts.update(riemann_counts(curv.riemann))
        counts["exactfield.w2_terms"] = sum(n + d for n, d, _, _ in map(_sizes, _flat(W2, 2)))
        return (0, text), counts


def classify_chart_items(P, rng, k, workdir, seen, tiny):
    """A sheared lccne metric and a sheared K != 0, q != 0 metric, 25 points each.

    The lccne member has K = 1 or -2: at K = 0 its classification costs less
    than half as much, which would make pass times depend on the seed.
    """
    draws = [lambda: _lccne(P, rng, rng.choice((1, -2)), tiny)]
    if not tiny:
        draws.append(lambda: _kq(P, rng))
    items = []
    for i, draw in enumerate(draws):
        sol = _fresh(draw, _sol_key, seen)
        s = Fraction(rng.choice(SIGNS) * rng.randint(1, 4), 2)
        m = shear(P, P.builder.assemble_metric(sol), s)
        rows = _classify_points(rng, s, 3 if tiny else 25)
        items.append(Item(f"p{k}.{i}", "classify", {
            "input": _write_json(workdir / f"p{k}-{i}-metric.json", m.to_json()),
            "points": _write_json(workdir / f"p{k}-{i}-points.json", rows),
            "pointRows": rows, "out": str(workdir / f"p{k}-{i}-verdicts.json")}))
    return items


# -- numeric-mirror ------------------------------------------------------------------------


def _fan_error(y2, z, z0) -> float:
    """Distance to the exact solution z0 exp(-y2/2) of z^2 z_1 - z_2 = z/2."""
    return float(np.abs(np.asarray(z) - z0 * np.exp(-np.asarray(y2) / 2)).max())


def gauge_pde_json(z0: Fraction, extent: float) -> dict:
    """The case-Ia gauge equation z^2 z_1 - z_2 = z/2 with z = z0 on y2 = 0."""
    return {"rho": [{"e": [0, 0, 2], "c": "1"}], "sigma": [{"e": [0, 0, 0], "c": "-1"}],
            "chi": [{"e": [0, 0, 1], "c": "1/2"}],
            "initialCurve": {"axis": "y2", "offset": 0, "poly": [{"e": [0], "c": str(z0)}]},
            "step": FAN_STEP, "extent": extent}


class Solve:
    """`petrov3 solve --method characteristics --pde pde.json`."""

    @staticmethod
    def call(P, item):
        start, end, cpu, rc = _timed(lambda: _cli(P, ["solve", "--method", "characteristics",
                                                     "--pde", item.args["input"],
                                                     "--out", item.args["out"]]))
        return start, end, cpu, (rc, _read(item.args["out"]))

    @staticmethod
    def check(item, output) -> bool:
        rc, text = output
        if rc != 0:
            return False
        fan = json.loads(text)
        return (fan["maxPdeResidual"] <= TOL
                and _fan_error(fan["y2"], fan["z"], float(item.args["z0"])) <= TOL)

    @staticmethod
    def replay(P, item, tr):
        """cmd_solve --method characteristics."""
        S = P.pdesolve
        with tr.span("cli.solve"):
            data = _load_json(item.args["input"])
            pde = S.QuasiLinearPDE.from_json(data)
            ic = S.InitialCurve.from_json(data["initialCurve"], extent=float(data["extent"]))
            with tr.span("pdesolve.characteristics_solve"):
                fan = S.characteristics_solve(pde, ic, step=float(data["step"]),
                                              extent=float(data["extent"]))
            with tr.span("cli.json"):
                payload = fan.to_json()
            with tr.span("pdesolve.max_residual"):
                payload["maxPdeResidual"] = fan.max_residual()
            with tr.span("cli.json"):
                text = _dump(payload, item.args["out"] + ".traced")
        return (0, text), {"pdesolve.fan_nodes": int(fan.z.size)}


class Gauge:
    """pdesolve.gauge_fix on case Ia with c = (0, 1), q = (-1, 0); no CLI command exists."""

    @staticmethod
    def _args(P, item):
        S, RatFn = P.pdesolve, P.exactfield.RatFn
        zero, one = RatFn.const(0, 4), RatFn.const(1, 4)
        z0 = float(item.args["z0"])
        return (S.connection_normal_form("Ia"), S.SectionPair(c=(zero, one), q=(-one, zero)),
                S.InitialCurve(axis="y2", offset=0.0, values=lambda s: z0))

    @staticmethod
    def _output(gp):
        f = gp.fan
        return gp.brd2_max_residual, f.y1.tobytes(), f.y2.tobytes(), f.z.tobytes()

    @staticmethod
    def call(P, item):
        conn, sp, ic = Gauge._args(P, item)
        start, end, cpu, gp = _timed(lambda: P.pdesolve.gauge_fix(
            conn, sp, ic, step=FAN_STEP, extent=item.args["extent"], nsamples=21))
        return start, end, cpu, (Gauge._output(gp), _fan_error(gp.fan.y2, gp.fan.z, float(item.args["z0"])))

    @staticmethod
    def check(item, output) -> bool:
        (brd2, *_), err = output
        return brd2 <= TOL and err <= TOL

    @staticmethod
    def replay(P, item, tr):
        conn, sp, ic = Gauge._args(P, item)
        with tr.span("pdesolve.gauge_fix"):
            gp = P.pdesolve.gauge_fix(conn, sp, ic, step=FAN_STEP,
                                      extent=item.args["extent"], nsamples=21)
        out = (Gauge._output(gp), _fan_error(gp.fan.y2, gp.fan.z, float(item.args["z0"])))
        return out, {"pdesolve.fan_nodes": int(gp.fan.z.size)}


class FiniteDifference:
    """tensorcalc.numeric_ricci_scalar (h = 5e-3) on an exact lccne metric at one point."""

    @staticmethod
    def call(P, item):
        m, pt = item.args["metric"], item.args["point"]
        start, end, cpu, res = _timed(lambda: P.tensorcalc.numeric_ricci_scalar(m.eval, pt, h=FD_STEP))
        return start, end, cpu, (res, m.eval(pt))

    @staticmethod
    def check(item, output) -> bool:
        """Ric - 3K g and scal - 12K vanish to relative 1e-6."""
        (_, ric, scal), g = output
        K = float(item.args["K"])
        ric_err = np.abs(ric - 3 * K * g).max() / max(1.0, np.abs(ric).max())
        scal_err = abs(scal - 12 * K) / max(1.0, abs(12 * K))
        return ric_err <= TOL and scal_err <= TOL

    @staticmethod
    def replay(P, item, tr):
        m, pt = item.args["metric"], item.args["point"]
        with tr.span("tensorcalc.numeric_ricci_scalar"):
            res = P.tensorcalc.numeric_ricci_scalar(m.eval, pt, h=FD_STEP)
        return (res, m.eval(pt)), {}


def same_output(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(same_output(x, y) for x, y in zip(a, b)))
    return a == b


def numeric_mirror_items(P, rng, k, workdir, seen, tiny):
    """CLI fan from seeded z0, gauge_fix from seeded z0, FD Ricci at 16 seeded points."""
    extent = 0.05 if tiny else 0.3

    def z0():
        return _fresh(lambda: Fraction(rng.randint(750, 1250), 1000), str, seen)

    zs = z0()
    items = [Item(f"p{k}.solve", "solve", {
        "input": _write_json(workdir / f"p{k}-pde.json", gauge_pde_json(zs, extent)),
        "z0": zs, "out": str(workdir / f"p{k}-fan.json")})]
    items.append(Item(f"p{k}.gauge", "gauge", {"z0": z0(), "extent": extent}))
    K = rng.choice(LCCNE_K)
    sol = _fresh(lambda: _lccne(P, rng, K, tiny), _sol_key, seen)
    m = P.builder.assemble_metric(sol)
    for i in range(2 if tiny else 16):
        pt = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(0.8, 1.8)])
        items.append(Item(f"p{k}.fd{i}", "fd", {"metric": m, "K": K, "point": pt}))
    return items


KINDS = {"verify": Verify, "classify": Classify, "solve": Solve, "gauge": Gauge,
         "fd": FiniteDifference}

WORKLOADS = {
    "verify-suite": verify_suite_items,
    "classify-chart": classify_chart_items,
    "numeric-mirror": numeric_mirror_items,
}


def make_items(P, workload, seed, k, workdir, seen, tiny=False):
    """Inputs of pass k; the same (workload, seed, k) always gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}/{k}")
    return WORKLOADS[workload](P, rng, k, workdir, seen, tiny)
