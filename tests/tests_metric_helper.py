from fractions import Fraction

from petrov3.builder import SolutionData
from petrov3.exactfield import Poly, RatFn
from petrov3.tensorcalc import DIM, ChartMetric

ZERO = Poly({}, 4)


def nonzero_K_and_q_solution():
    """A solution with K != 0, q != 0 and a y-dependent derived r."""
    K, alpha = Fraction(2), Fraction(3)
    y1, y2 = Poly.var(0, 4), Poly.var(1, 4)
    return SolutionData(K=K,
                        lambda_cc=Poly.const(1, 4) - y1,
                        lambda_ca=Poly.const(-K * alpha, 4) * y2 + y1 * y1,
                        lambda_aa=y1,
                        mu_cc=ZERO, mu_ca=ZERO, mu_aa=ZERO,
                        omega_cq=Poly.const(-alpha, 4), omega_aq=ZERO)


def sheared(m: ChartMetric, k) -> ChartMetric:
    """m pulled back along (y1, y2, x1, x2) -> (y1, y2, x1, x2 - k y1^2).

    The denominators become powers of x2 - k y1^2, which are not monomials.
    """
    s = Poly.var(3) - Poly.var(0) ** 2 * Fraction(k)

    def sub(p: Poly) -> Poly:
        out = ZERO
        for e, c in p.terms.items():
            out = out + Poly({e[:3] + (0,): c}) * s ** e[3]
        return out

    G = [[RatFn(sub(f.num), sub(f.den)) for f in row] for row in m.g]
    # g' = J^T G J, J the identity plus J[3][0] = d(x2 - k y1^2)/dy1
    j = RatFn(Poly.var(0) * (-2 * Fraction(k)))
    g = [row[:] for row in G]
    for b in range(1, DIM):
        g[0][b] = g[b][0] = G[0][b] + j * G[3][b]
    g[0][0] = G[0][0] + 2 * j * G[3][0] + j * j * G[3][3]
    return ChartMetric(g, m.orientation)
