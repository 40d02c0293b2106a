from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from petrov3.builder import SolutionData, assemble_metric
from petrov3.exactfield import Poly
from petrov3.tensorcalc import fd4


def flat_reference_data() -> SolutionData:
    zero = Poly({}, 4)
    return SolutionData(K=Fraction(0), lambda_cc=zero, lambda_ca=zero, lambda_aa=zero,
                        mu_cc=zero, mu_ca=zero, mu_aa=zero, omega_cq=zero,
                        omega_aq=zero, r_override=Fraction(0))


def flat_reference_metric():
    return assemble_metric(flat_reference_data())


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
