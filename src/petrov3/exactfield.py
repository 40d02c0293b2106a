"""Exact sparse multivariate polynomials and rational functions.

Everything downstream (metrics, curvature, residuals) is built from the two
classes here.  Coefficients are `fractions.Fraction`, so identity checks are
exact: a residual vanishes iff its numerator canonicalizes to the empty term
map.  Polynomials are sparse dicts mapping exponent tuples to coefficients.

The default chart has four variables, ordered (y1, y2, x1, x2); smaller
variable counts (base-plane data, one-variable profiles, PDE coefficients in
(y1, y2, z)) reuse the same classes with a different ``nvars``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

#: Chart coordinate names, in index order.
COORDS = ("y1", "y2", "x1", "x2")
Y1, Y2, X1, X2 = 0, 1, 2, 3


class DivisionByZeroFunction(ZeroDivisionError):
    """Raised when dividing by a rational function that is identically zero."""


class PoleAtPoint(ArithmeticError):
    """Raised when evaluating a rational function where its denominator vanishes."""


def _as_fraction(c: Scalar) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def _grlex_key(expo: tuple) -> tuple:
    return (sum(expo), expo)


class Poly:
    """Sparse multivariate polynomial with Fraction coefficients.

    ``terms`` maps exponent tuples (one entry per variable) to nonzero
    coefficients.  The zero polynomial has an empty term map.
    """

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None, nvars: int = 4):
        self.nvars = nvars
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != nvars:
                    raise ValueError(f"exponent tuple {expo} has wrong length for nvars={nvars}")
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                coeff = _as_fraction(coeff)
                if coeff != 0:
                    clean[expo] = clean.get(expo, Fraction(0)) + coeff
                    if clean[expo] == 0:
                        del clean[expo]
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c: Scalar, nvars: int = 4) -> "Poly":
        c = _as_fraction(c)
        if c == 0:
            return cls({}, nvars)
        return cls({(0,) * nvars: c}, nvars)

    @classmethod
    def var(cls, i: int, nvars: int = 4) -> "Poly":
        expo = [0] * nvars
        expo[i] = 1
        return cls({tuple(expo): Fraction(1)}, nvars)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def leading_term(self) -> tuple:
        """(exponent, coefficient) of the graded-lex leading term."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        expo = max(self.terms, key=_grlex_key)
        return expo, self.terms[expo]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.nvars)
        self._check(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            s = out.get(expo, Fraction(0)) + c
            if s == 0:
                out.pop(expo, None)
            else:
                out[expo] = s
        p = Poly.__new__(Poly)
        p.terms, p.nvars = out, self.nvars
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.terms = {e: -c for e, c in self.terms.items()}
        p.nvars = self.nvars
        return p

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return Poly({}, self.nvars)
            p = Poly.__new__(Poly)
            p.terms = {e: k * c for e, k in self.terms.items()}
            p.nvars = self.nvars
            return p
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(expo, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(expo, None)
                else:
                    out[expo] = s
        p = Poly.__new__(Poly)
        p.terms, p.nvars = out, self.nvars
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.nvars)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------------

    def diff(self, i: int) -> "Poly":
        out = {}
        for expo, c in self.terms.items():
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            out[tuple(new)] = c * expo[i]
        p = Poly.__new__(Poly)
        p.terms, p.nvars = out, self.nvars
        return p

    def integrate(self, i: int) -> "Poly":
        """Antiderivative in variable i with zero constant of integration."""
        out = {}
        for expo, c in self.terms.items():
            new = list(expo)
            new[i] += 1
            out[tuple(new)] = c / new[i]
        p = Poly.__new__(Poly)
        p.terms, p.nvars = out, self.nvars
        return p

    def eval(self, coords: Sequence) -> Union[Fraction, float]:
        """Evaluate at a point; exact for Fraction/int inputs, float otherwise."""
        if len(coords) != self.nvars:
            raise ValueError("point has wrong dimension")
        exact = all(isinstance(c, (int, Fraction)) for c in coords)
        total = Fraction(0) if exact else 0.0
        for expo, c in self.terms.items():
            term = c if exact else float(c)
            for v, e in zip(coords, expo):
                if e:
                    term *= v ** e
            total += term
        return total

    def float_fn(self):
        """Compile the float path of `eval` once: returns ``f(*coords)``.

        The coordinates may be floats or numpy arrays (which broadcast); ``f``
        repeats `eval`'s float arithmetic op for op -- ``float(c)``, then
        ``*= v ** e`` in variable order, summed in term order -- so at float
        points it returns the same bits.  A constant polynomial returns a scalar.
        """
        nvars = self.nvars
        terms = [(float(c), tuple((i, e) for i, e in enumerate(expo) if e))
                 for expo, c in self.terms.items()]

        def fn(*coords):
            if len(coords) != nvars:
                raise ValueError("point has wrong dimension")
            total = 0.0
            for c, mono in terms:
                term = c
                for i, e in mono:
                    term *= coords[i] ** e
                total += term
            return total
        return fn

    # -- normalization helpers -----------------------------------------------

    def monomial_gcd(self) -> tuple:
        """Componentwise minimum exponent over all terms (zero vector if empty)."""
        if not self.terms:
            return (0,) * self.nvars
        mins = None
        for expo in self.terms:
            mins = expo if mins is None else tuple(map(min, mins, expo))
        return mins

    def shift_down(self, m: tuple) -> "Poly":
        """Divide by the monomial with exponent vector ``m`` (must divide every term)."""
        out = {}
        for expo, c in self.terms.items():
            out[tuple(a - b for a, b in zip(expo, m))] = c
        return Poly(out, self.nvars)

    def content(self) -> Fraction:
        """Positive rational c with self = c * (primitive integer polynomial)."""
        if not self.terms:
            return Fraction(1)
        from math import gcd

        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm // gcd(den_lcm, c.denominator) * c.denominator
        return Fraction(num_gcd, den_lcm)

    def sqrt(self) -> "Poly":
        """Exact square root, or ValueError if self is not a perfect square.

        Greedy graded-lex division: subtract 2*r*t + t^2 as leading terms of the
        remainder are cleared.  Terminates because leading terms strictly drop.
        """
        if self.is_zero():
            return Poly({}, self.nvars)
        lead_e, lead_c = self.leading_term()
        if any(e % 2 for e in lead_e):
            raise ValueError("not a perfect square (odd leading exponent)")
        c = _rational_sqrt(lead_c)
        root = Poly({tuple(e // 2 for e in lead_e): c}, self.nvars)
        remainder = self - root * root
        guard = 0
        while not remainder.is_zero():
            guard += 1
            if guard > 10000:
                raise ValueError("square-root extraction did not terminate")
            re, rc = remainder.leading_term()
            le = tuple(e // 2 for e in lead_e)
            te = tuple(a - b for a, b in zip(re, le))
            if any(e < 0 for e in te):
                raise ValueError("not a perfect square")
            t = Poly({te: rc / (2 * c)}, self.nvars)
            remainder = remainder - 2 * root * t - t * t
            root = root + t
        return root

    # -- i/o -------------------------------------------------------------------

    def to_json(self) -> list:
        items = sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
        return [{"e": list(e), "c": str(c)} for e, c in items]

    @classmethod
    def from_json(cls, data: Iterable, nvars: int = 4) -> "Poly":
        terms = {}
        for item in data:
            e = list(item["e"])
            if len(e) < nvars:
                e = e + [0] * (nvars - len(e))
            terms[tuple(e)] = Fraction(str(item["c"]))
        return cls(terms, nvars)

    def __repr__(self):
        if self.is_zero():
            return "0"
        names = COORDS if self.nvars == 4 else tuple(f"t{i}" for i in range(self.nvars))
        parts = []
        for expo, c in sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True):
            mono = "*".join(name if e == 1 else f"{name}^{e}"
                            for name, e in zip(names, expo) if e)
            if not mono:
                parts.append(str(c))
            elif abs(c) == 1:
                parts.append(mono if c == 1 else f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text


def _rational_sqrt(c: Fraction) -> Fraction:
    if c < 0:
        raise ValueError("negative rational has no real square root")
    n, d = c.numerator, c.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise ValueError(f"{c} is not a perfect rational square")
    return Fraction(rn, rd)


class RatFn:
    """Rational function num/den in canonical form.

    Canonical form: common monomial factors and scalar content removed, the
    denominator a primitive integer polynomial with positive graded-lex
    leading coefficient.  Full multivariate GCD is deliberately not attempted;
    every denominator generated by the chart construction is a power of
    phi = x2 times content, so monomial reduction keeps things small, and
    correctness of the zero test never depends on cancellation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, _canonical: bool = False):
        if den is None:
            den = Poly.const(1, num.nvars)
        if den.is_zero():
            raise DivisionByZeroFunction("denominator is identically zero")
        if not _canonical:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den

    # -- constructors ----------------------------------------------------------

    @classmethod
    def const(cls, c: Scalar, nvars: int = 4) -> "RatFn":
        return cls(Poly.const(c, nvars))

    @classmethod
    def var(cls, i: int, nvars: int = 4) -> "RatFn":
        return cls(Poly.var(i, nvars))

    # -- queries ---------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    # -- arithmetic --------------------------------------------------------------

    @staticmethod
    def _coerce(x, nvars: int) -> "RatFn":
        if isinstance(x, RatFn):
            return x
        if isinstance(x, Poly):
            return RatFn(x)
        if isinstance(x, (int, Fraction)):
            return RatFn.const(x, nvars)
        return NotImplemented

    def __add__(self, other):
        other = RatFn._coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RatFn(self.num + other.num, self.den)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFn.__new__(RatFn)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        other = RatFn._coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RatFn._coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFn._coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise DivisionByZeroFunction("division by the zero function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = RatFn._coerce(other, self.nvars)
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise DivisionByZeroFunction("inverse of the zero function")
            return RatFn(self.den ** (-n), self.num ** (-n))
        return RatFn(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = RatFn._coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        raise TypeError("RatFn is unhashable; compare with ==")

    # -- calculus -----------------------------------------------------------------

    def diff(self, i: int) -> "RatFn":
        return RatFn(self.num.diff(i) * self.den - self.num * self.den.diff(i),
                     self.den * self.den)

    def eval(self, coords: Sequence) -> Union[Fraction, float]:
        d = self.den.eval(coords)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at {tuple(coords)}")
        return self.num.eval(coords) / d

    def float_fn(self):
        """Compile the float path of `eval` once: returns ``f(*coords)``.

        Takes float or numpy-array coordinates, like `Poly.float_fn`, and
        raises PoleAtPoint if the denominator vanishes at any requested point.
        """
        num = self.num.float_fn()
        if self.den.is_constant():          # nonzero: no pole to look for
            d = float(self.den.constant_value())
            return lambda *coords: num(*coords) / d
        den = self.den.float_fn()

        def fn(*coords):
            d = den(*coords)
            pole = d == 0
            if pole.any() if isinstance(pole, np.ndarray) else pole:
                raise PoleAtPoint(f"denominator vanishes at {coords}")
            return num(*coords) / d
        return fn

    def sqrt(self) -> "RatFn":
        """Exact square root; ValueError if num or den is not a perfect square."""
        return RatFn(self.num.sqrt(), self.den.sqrt())

    # -- i/o -------------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: dict, nvars: int = 4) -> "RatFn":
        return cls(Poly.from_json(data["num"], nvars), Poly.from_json(data["den"], nvars))

    def __repr__(self):
        if self.den == Poly.const(1, self.nvars):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _canonicalize(num: Poly, den: Poly) -> tuple:
    if num.is_zero():
        return num, Poly.const(1, num.nvars)
    m = tuple(map(min, num.monomial_gcd(), den.monomial_gcd()))
    if any(m):
        num, den = num.shift_down(m), den.shift_down(m)
    scale = den.content()
    _, lead = den.leading_term()
    if lead < 0:
        scale = -scale
    if scale != 1:
        den = den * (1 / scale)
        num = num * (1 / scale)
    return num, den


# -- module-level operation wrappers (spec surface) ---------------------------------


def ratfn_arith(op: str, f: RatFn, g: RatFn) -> RatFn:
    """Exact field arithmetic; op in {'add','sub','mul','div'}."""
    if op == "add":
        return f + g
    if op == "sub":
        return f - g
    if op == "mul":
        return f * g
    if op == "div":
        return f / g
    raise ValueError(f"unknown op {op!r}")


def ratfn_eval(f: RatFn, point: "Point") -> Union[Fraction, float]:
    return f.eval(point.coords)


def ratfn_is_zero(f: RatFn) -> bool:
    return f.is_zero()


class Point:
    """A chart point, ordered (y1, y2, x1, x2); exact or float coordinates."""

    __slots__ = ("coords",)

    def __init__(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        self.coords = tuple(coords)

    @property
    def exact(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self):
        return f"Point{self.coords}"


def sample_points(n: int, seed: int = 0, nvars: int = 4, x2_range=(Fraction(1, 2), Fraction(2))) -> list:
    """Deterministic rational sample points with small denominators, x2 in [1/2, 2].

    Used by the verification suite; avoiding x2 near 0 keeps clear of the
    phi = 0 pole wall.
    """
    import random

    rng = random.Random(seed)
    lo, hi = x2_range
    pts = []
    for _ in range(n):
        coords = []
        for i in range(nvars):
            den = rng.randint(1, 4)
            if i == 3:
                num = rng.randint(int(lo * den), int(hi * den))
                num = max(num, 1)
                val = Fraction(num, den)
                if val < lo:
                    val = lo
            else:
                num = rng.randint(-2 * den, 2 * den)
                val = Fraction(num, den)
            coords.append(val)
        pts.append(Point(coords))
    return pts
