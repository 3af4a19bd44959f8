"""Scalars, multivariate polynomials, and truncated Taylor (jet) arithmetic.

Exact mode works over ``fractions.Fraction``; float mode over plain ``float``.
The jet type realizes the differential operator rho(d/dz_1, ..., d/dz_d)
generically: evaluating a function on jets of order k at a point yields its
Taylor coefficients up to total degree k, from which any mixed partial of
total order <= k can be read off. The pipeline applies the operator in
closed form (``moments._vertex_contractions``); jets are the tests'
reference for it. All values here are immutable and all operations pure.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import factorial, lcm

from .errors import InputError

EXACT = "exact"
FLOAT = "float"


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' into a Fraction in lowest terms."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {text!r}: {exc}") from None


def scalar_from_json(value, mode=EXACT):
    """Decode a JSON scalar ('p/q' string, int, or float) for the given mode.

    In exact mode a JSON float is read as its decimal literal (0.5 -> 1/2),
    never as the underlying binary double, to avoid float contamination.
    Float mode rejects what is not a finite double (JSON reads 1e400 as inf).
    """
    if mode == FLOAT:
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            x = parse_rational(value) if isinstance(value, str) else value
            if not abs(x) <= sys.float_info.max:  # False for inf and NaN
                raise InputError(f"scalar {value!r} is not a finite double")
            return float(x)
    else:
        if isinstance(value, str):
            return parse_rational(value)
        if isinstance(value, bool):
            raise InputError(f"bad scalar {value!r}")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return parse_rational(str(value))
    raise InputError(f"bad scalar {value!r} for mode {mode}")


def index_from_json(value, what):
    """Decode a JSON integer field; int() alone would truncate 2.7 to 2."""
    if isinstance(value, float) and not value.is_integer():
        raise InputError(f"{what} must be an integer, not {value!r}")
    return int(value)


def scalar_to_json(value):
    """Encode a scalar for JSON: Fractions as 'p/q' strings, floats as-is."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return value
    return float(value)


def mfactorial(exponent) -> int:
    """Product of factorials of the entries of an exponent vector."""
    out = 1
    for e in exponent:
        out *= factorial(e)
    return out


def falling(n: int, k: int) -> int:
    """Falling factorial n (n-1) ... (n-k+1); equals 0 when k > n >= 0."""
    out = 1
    for i in range(k):
        out *= n - i
    return out


def falling_column(lead: int, count: int) -> list:
    """falling(j + lead, lead) for j = 0 .. count-1, each one step from the
    last: it grows by (j + lead) / j, an exact integer division."""
    out = [falling(lead, lead)][:count]
    for j in range(1, count):
        out.append(out[-1] * (j + lead) // j)
    return out


def integerize(values):
    """(n, q) with values = n / q for the lcm q of their denominators, by
    integer operations. Unless every value is an int or a Fraction (say a
    float), the values pass through with q = 1."""
    if not all(isinstance(x, (int, Fraction)) for x in values):
        return values, 1
    q = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (q // x.denominator) for x in values), q


def exact_div(value, divisor: int):
    """value / divisor without int-division float contamination.

    Python's int / int yields a float; exact values (including the int 0 a
    vanished term produces) must stay rational."""
    if isinstance(value, float):
        return value / divisor
    if isinstance(value, int):
        return Fraction(value, divisor)
    return value * Fraction(1, divisor)


_ZERO_EXP_CACHE = {}


def _zero_exp(dim):
    exp = _ZERO_EXP_CACHE.get(dim)
    if exp is None:
        exp = _ZERO_EXP_CACHE[dim] = (0,) * dim
    return exp


class MultiPoly:
    """Multivariate polynomial stored as exponent vector -> coefficient.

    Zero coefficients are never stored; the zero polynomial has an empty
    term map and degree 0 by convention.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        if dim < 1:
            raise InputError("polynomial dimension must be positive")
        self.dim = dim
        clean = {}
        if terms:
            for exp, coef in terms.items():
                exp = tuple(exp)
                if len(exp) != dim or any(e < 0 for e in exp):
                    raise InputError(f"bad exponent vector {exp} for dim {dim}")
                if coef != 0:
                    clean[exp] = clean.get(exp, 0) + coef
                    if clean[exp] == 0:
                        del clean[exp]
        self.terms = clean

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {_zero_exp(dim): value})

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get(_zero_exp(self.dim), 0)

    def evaluate(self, point):
        """Evaluate at a point; exact when coefficients and point are exact."""
        total = 0
        for exp, coef in self.terms.items():
            val = coef
            for x, e in zip(point, exp):
                if e:
                    val = val * x**e
            total = total + val
        return total

    def homogeneous_parts(self):
        """Split into {degree s: homogeneous piece of degree s}."""
        parts = {}
        for exp, coef in self.terms.items():
            parts.setdefault(sum(exp), {})[exp] = coef
        return {s: MultiPoly(self.dim, t) for s, t in sorted(parts.items())}

    def to_float(self) -> "MultiPoly":
        return MultiPoly(self.dim, {e: float(c) for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            terms[exp] = terms.get(exp, 0) + coef
        return MultiPoly(self.dim, terms)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            # scalar multiple
            return MultiPoly(self.dim, {e: c * other for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return MultiPoly(self.dim, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative polynomial power")
        # one factor at a time, so float coefficients round as in x * x * ... * x;
        # the int 1 keeps integer coefficients ints
        result = MultiPoly.constant(self.dim, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exp, coef in sorted(self.terms.items()):
            mono = " ".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            bits.append(f"{coef} {mono}".strip())
        return "MultiPoly(" + " + ".join(bits) + ")"


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<sign>[+-])"
    r"|(?P<var>x(?P<idx>\d+)(?:\^(?P<exp>-?\d+))?)"
    r"|(?P<rat>\d+(?:/\d+)?)"
)


def poly_parse(text: str, dim: int) -> MultiPoly:
    """Parse a density expression into a MultiPoly.

    Grammar: expr := term ((+|-) term)*; term := [rational] (var)*;
    var := 'x' INT ['^' INT]; rational := INT ['/' INT]. Factors are
    whitespace-separated; a leading sign is allowed. Errors report the
    byte offset of the offending token.
    """
    terms = {}
    pos = 0
    n = len(text)
    sign = 1
    coef = None  # rational literal of the current term, if any
    exps = None  # exponent list of the current term, or None before content
    term_start = 0

    def flush():
        nonlocal coef, exps, sign
        if exps is None and coef is None:
            raise InputError(f"empty term at offset {term_start}")
        c = Fraction(1) if coef is None else coef
        exp = tuple(exps) if exps is not None else _zero_exp(dim)
        key = exp
        terms[key] = terms.get(key, Fraction(0)) + sign * c
        coef = None
        exps = None

    seen_any = False
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise InputError(f"syntax error at offset {pos}: {text[pos:pos + 10]!r}")
        if m.lastgroup == "ws" or m.group("ws"):
            pos = m.end()
            continue
        if m.group("sign"):
            if seen_any and (coef is not None or exps is not None):
                flush()
                sign = 1 if m.group("sign") == "+" else -1
            elif not seen_any:
                sign = 1 if m.group("sign") == "+" else -1
            else:
                raise InputError(f"unexpected sign at offset {pos}")
            term_start = pos
            seen_any = True
            pos = m.end()
            continue
        if m.group("var"):
            idx = int(m.group("idx"))
            if not 1 <= idx <= dim:
                raise InputError(
                    f"variable index x{idx} exceeds dimension {dim} at offset {pos}"
                )
            e = 1
            if m.group("exp") is not None:
                e = int(m.group("exp"))
                if e < 0:
                    raise InputError(f"negative exponent at offset {pos}")
            if exps is None:
                exps = [0] * dim
            exps[idx - 1] += e
            seen_any = True
            pos = m.end()
            continue
        # rational literal: only legal as the first factor of a term
        if exps is not None or coef is not None:
            raise InputError(f"unexpected rational literal at offset {pos}")
        coef = parse_rational(m.group("rat"))
        seen_any = True
        pos = m.end()

    if not seen_any:
        raise InputError("empty density expression")
    if coef is None and exps is None:
        raise InputError(f"dangling sign at offset {term_start}")
    flush()
    poly = MultiPoly(dim, terms)
    if not poly.terms:
        raise InputError(f"density {text!r} is the zero polynomial: it has no moments")
    return poly


class Jet:
    """Truncated multivariate Taylor expansion (jet) at a point.

    ``coeffs`` maps exponent vectors of total degree <= ``order`` to the
    corresponding Taylor coefficients; the exponent (0,...,0) carries the
    value at the point. Ring operations agree with polynomial arithmetic
    truncated at ``order``.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim, order, coeffs=None):
        self.dim = dim
        self.order = order
        clean = {}
        if coeffs:
            for exp, c in coeffs.items():
                if c != 0 and sum(exp) <= order:
                    clean[exp] = c
        self.coeffs = clean

    @classmethod
    def constant(cls, value, dim, order):
        return cls(dim, order, {_zero_exp(dim): value})

    @classmethod
    def variable(cls, index, value, dim, order):
        """Jet of the coordinate function z_<index> (0-based) at ``value``."""
        coeffs = {_zero_exp(dim): value}
        if order >= 1:
            exp = [0] * dim
            exp[index] = 1
            coeffs[tuple(exp)] = 1
        return cls(dim, order, coeffs)

    def coefficient(self, exponent):
        return self.coeffs.get(tuple(exponent), 0)

    def value(self):
        return self.coeffs.get(_zero_exp(self.dim), 0)

    def _wrap(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.dim, self.order)

    def __add__(self, other):
        other = self._wrap(other)
        coeffs = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            coeffs[exp] = coeffs.get(exp, 0) + c
        return Jet(self.dim, self.order, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.dim, self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(
                self.dim, self.order, {e: c * other for e, c in self.coeffs.items()}
            )
        order = self.order
        coeffs = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) > order:
                    continue
                exp = tuple(a + b for a, b in zip(e1, e2))
                coeffs[exp] = coeffs.get(exp, 0) + c1 * c2
        return Jet(self.dim, order, coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        result = Jet.constant(1, self.dim, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def reciprocal(self):
        """Multiplicative inverse; the constant term must be nonzero."""
        c = self.value()
        if c == 0:
            raise ZeroDivisionError("jet with zero constant term has no reciprocal")
        if isinstance(c, Fraction) or isinstance(c, int):
            inv_c = Fraction(1) / c
        else:
            inv_c = 1.0 / c
        # 1/f = (1/c) sum_k (-(f-c)/c)^k, truncated
        g = Jet(self.dim, self.order, {e: v for e, v in self.coeffs.items()
                                       if sum(e) > 0})
        result = Jet.constant(inv_c, self.dim, self.order)
        power = Jet.constant(inv_c, self.dim, self.order)
        for _ in range(self.order):
            power = power * g * (-inv_c)
            if not power.coeffs:
                break
            result = result + power
        return result

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        if isinstance(other, Fraction) or isinstance(other, int):
            return self * (Fraction(1) / other)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other



def jet_variables(point, order):
    """Jets of the coordinate functions at ``point``."""
    dim = len(point)
    return [Jet.variable(i, x, dim, order) for i, x in enumerate(point)]


def extract_diff(rho: MultiPoly, jet: Jet):
    """Read [rho(d/dz) f](z) off the jet of f at z.

    Uses d^m f = m! T_m where T_m is the Taylor coefficient; the jet order
    must be at least deg(rho).
    """
    total = 0
    for exp, coef in rho.terms.items():
        t = jet.coefficient(exp)
        if t != 0:
            total = total + coef * mfactorial(exp) * t
    return total


def apply_diff_operator(rho: MultiPoly, func, point):
    """Evaluate [rho(d/dz_1, ..., d/dz_d) func](point).

    ``func`` must accept a list of jets (one per coordinate) and return a
    jet built from them with ring operations; any evaluation failure (for
    example a pole at ``point``) propagates.
    """
    jets = jet_variables(tuple(point), rho.degree)
    value = func(jets)
    if not isinstance(value, Jet):
        # constant function: only the degree-0 part of rho survives
        return rho.constant_value() * value
    return extract_diff(rho, value)
