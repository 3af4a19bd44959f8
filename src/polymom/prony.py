"""Hankel-kernel (Prony) recovery of vertex projections from scaled moments.

Steps 1-3 of the reconstruction algorithm: build the square Hankel matrix
from the scaled moment vector, find its rank and the minimal kernel vector,
and read the projections off the roots of the resulting monic polynomial.
With a polynomial density of degree D, every projection appears as a root
of multiplicity D+1 and the rank is (D+1) N.

Exact mode reads the rank and the kernel polynomial off one
Berlekamp-Massey pass over the scaled moments (no elimination): from
Hankel size m = 10 on, a pass modulo a power of 2^61 - 1 whose rational
reconstruction an exact check certifies; the fraction-free pass runs below
that size and as its fallback, and decides every full-rank case. Its
rational roots r = u/s are the integer roots u of the monic integer
polynomial s^n p(u/s) (Gauss's lemma): integer Newton on g/g' (Schroeder's
iteration), else on g, lifts float seeds to them and an exact evaluation
certifies each one. Each root is divided out as often as it divides; a
repeated root left behind is a simple root of a derivative, so the search
walks the derivative chain of the remainder. Float mode rescales the nodes
to about unit size and uses SVD rank detection with the relative threshold
DEFAULT_RANK_TOL and companion-matrix eigenvalues with root clustering: the
Hankel is indexed once into an array, the rank at m and at m-1 comes from
values-only SVDs of it and of its leading block, and one reduced SVD of the
square Hankel gives the kernel. A combined direction
of the reconstruction pipeline must show a known rank; a trial whose rank
at m differs stops after that first SVD.
"""

from __future__ import annotations

import warnings
from itertools import zip_longest
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

import numpy as np

from . import linalg
from .errors import (
    FullRankHankel,
    InputError,
    InsufficientMoments,
    IrrationalRoot,
    MultiplicityMismatch,
    RankInstability,
    RankNotDivisible,
)
from .moments import MomentSequence, _check_noise, scaled_moment_vector
from .numeric import EXACT

DEFAULT_RANK_TOL = 1e-8
DEFAULT_REAL_TOL = 1e-7
DEFAULT_CLUSTER_TOL = 1e-6
# float-mode guard: projections closer than this fraction of the spread are
# treated as a collision (the direction is resampled); see _separation_width
DEFAULT_SEPARATION_TOL = 5e-2
# extra Hankel rows in float mode; noise averages out over the larger
# system while exact mode stays at the frugal minimum m = N + 1
FLOAT_OVERSAMPLE = 10
# exact Berlekamp-Massey passes with m at least this run ``_modular_bm``
# first; below it the fraction-free pass's integers stay small enough to win
# (exact-ladder's passes: the modular route is slower at m = 9, faster at 11)
_MODULAR_BM_MIN = 10
# the modular pass works mod a power of this Mersenne prime
_MERSENNE_PRIME = 2**61 - 1


def _separation_width(noise: float) -> float:
    """The float separation guard's width at the relative noise level: the
    guard bounds noise amplification (~ noise / gap^2), so its width scales
    with the noise; DEFAULT_SEPARATION_TOL is calibrated at 1e-9."""
    sep = DEFAULT_SEPARATION_TOL * (max(noise, 1e-15) / 1e-9) ** 0.5
    return min(sep, DEFAULT_SEPARATION_TOL)


@dataclass(frozen=True)
class HankelSystem:
    """The m x m Hankel matrix H[i][j] = c_{i+j+1} over exact rationals."""

    m: int
    rows: tuple


def build_hankel(c, m: int) -> HankelSystem:
    """H[i][j] = c_{i+j+1} (c given as the list c_1, c_2, ...); a float
    entry raises InputError."""
    if len(c) < 2 * m - 1:
        raise InsufficientMoments(f"need {2 * m - 1} scaled entries, have {len(c)}")
    if any(isinstance(x, float) for x in c[: 2 * m - 1]):
        raise InputError("a Hankel matrix takes exact entries")
    return HankelSystem(m=m, rows=tuple(tuple(c[i + j] for j in range(m)) for i in range(m)))


def _svd_rank(a):
    """Numerical rank of the float array a from its singular values alone."""
    sigma = np.linalg.svd(a, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > DEFAULT_RANK_TOL * sigma[0]))


def rank_and_kernel(h: HankelSystem):
    """Rank and a kernel basis of an exact Hankel matrix, by one
    fraction-free Gaussian elimination: the basis vectors satisfy H v = 0
    exactly and the rank is m minus their number.

    The pipeline does not call this. It is the independent Bareiss oracle
    that the tests check the Berlekamp-Massey solve against.
    """
    basis = linalg.kernel_basis([list(r) for r in h.rows])
    return h.m - len(basis), basis


@dataclass(frozen=True)
class PronyPolynomial:
    """Monic polynomial t^M + a_{M-1} t^{M-1} + ... + a_0 from the minimal
    kernel vector.

    ``scale`` records the float-mode node rescaling: the stored coefficients
    are those of the polynomial in t/scale, so ``eval`` and ``roots_float``
    transparently work in original coordinates.
    """

    coeffs: tuple
    multiplicity: int = 1
    scale: object = 1

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def full_coeffs(self):
        """Lowest-first coefficient list including the leading 1."""
        return list(self.coeffs) + [1]

    def eval(self, t):
        x = t / self.scale if self.scale != 1 else t
        total = 1
        for a in reversed(self.coeffs):
            total = total * x + a
        return total


def _berlekamp_massey(s, m: int):
    """Shortest linear recurrence of s_0, s_1, ... over the rationals.

    Returns (L, C) with C_0 = 1 and sum_i C_i s_{n-i} = 0 for L <= n <
    len(s). The pass stops as soon as L reaches m: the length never
    decreases, so the profile L_1, L_2, ... contains m exactly when that
    first length is m (Massey 1969; Jonckheere & Ma 1989).

    Fraction-free: s is multiplied by the lcm lam of its denominators; C and
    B, integer multiples of the rational connection polynomials, are updated
    by C <- d_B C - d x^shift B (d_B = lam for the initial B = 1) and divided
    by their content. Each discrepancy is a nonzero multiple of the rational
    one, so every decision is that of the pass over Q; C / C_0 is returned.

    From m = _MODULAR_BM_MIN on, the certified ``_modular_bm`` runs first
    and the fraction-free pass only when it gives no answer.
    """
    lam = lcm(*(x.denominator for x in s))
    s = [x.numerator * (lam // x.denominator) for x in s]
    if m >= _MODULAR_BM_MIN:
        found = _modular_bm(s, m)
        if found is not None:
            return found
    conn, prev = [1], [1]
    length, shift, prev_disc = 0, 1, lam
    for n, sn in enumerate(s):
        disc = sn * conn[0]
        for i in range(1, length + 1):
            disc += conn[i] * s[n - i]
        if disc == 0:
            shift += 1
            continue
        update = [prev_disc * x for x in conn] + [0] * (len(prev) + shift - len(conn))
        for i, x in enumerate(prev):
            update[i + shift] -= disc * x
        content = gcd(*update)
        update = [x // content for x in update]
        if 2 * length <= n:
            prev, prev_disc = conn, disc
            length, shift = n + 1 - length, 1
            conn = update
            if length >= m:
                break
        else:
            conn = update
            shift += 1
    return length, [Fraction(x, conn[0]) for x in conn]


def _rational(t, big, bound):
    """a / b with a = b t mod big and |a|, b <= bound = isqrt(big // 2), by
    the half extended Euclid on (big, t); None when b exceeds the bound."""
    r0, r1, b0, b1 = big, t % big, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, b0, b1 = r1, r0 - q * r1, b1, b0 - q * b1
    if abs(b1) > bound:
        return None
    return (r1, b1) if b1 > 0 else (-r1, -b1)


def _modular_bm(s, m: int):
    """``_berlekamp_massey``'s (L, C) for the integer sequence s, from one
    fraction-free pass mod P = p^e, p = _MERSENNE_PRIME (61 e >= the bits of
    the largest entry + 32), or None, which only means the caller's
    fraction-free pass has to decide.

    The pass gives up when a nonzero discrepancy mod P is divisible by p,
    when L reaches m, or when 2L > len(s). C / C_0 mod P is read back as
    rationals over one running common denominator (most coefficients are
    then small integers; the others take a rational reconstruction). The
    answer stands only if the integer polynomial annihilates every window
    s_n, n = L .. len(s)-1, over Z. Then it is the rational pass's answer:
    - the check shows that the linear complexity L_Q over Q is at most L;
    - every nonzero discrepancy is a unit mod p, so the pass reduced mod p
      is Berlekamp-Massey over F_p with the same decisions, and L lies in
      its length profile: the leading L x L Hankel is nonsingular mod p,
      hence over Q, so L_Q >= L;
    - as 2L <= len(s), the connection polynomial of length L is unique.
    The fraction-free pass still decides every L >= m (FullRankHankel,
    RankInstability).
    """
    p = _MERSENNE_PRIME
    big = p ** -(-(max(map(abs, s), default=0).bit_length() + 32) // 61)
    r = [x % big for x in s]
    conn, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    for n in range(len(r)):
        disc = sum(map(mul, conn, r[n::-1])) % big
        if disc == 0:
            shift += 1
            continue
        if disc % p == 0:
            return None
        update = [(prev_disc * a - disc * b) % big
                  for a, b in zip_longest(conn, [0] * shift + prev, fillvalue=0)]
        if 2 * length <= n:
            prev, prev_disc = conn, disc
            length, shift = n + 1 - length, 1
            if length >= m:
                return None
        else:
            shift += 1
        conn = update
    if 2 * length > len(s):
        return None
    inv, bound = pow(conn[0], -1, big), isqrt(big // 2)
    den, nums = 1, []
    for c in conn:
        t = c * inv * den % big
        if t > big // 2:
            t -= big
        if abs(t) > bound:
            frac = _rational(t, big, bound)
            if frac is None:
                return None
            t, b = frac
            den *= b
            nums = [x * b for x in nums]
        nums.append(t)
    for n in range(length, len(s)):
        if sum(map(mul, nums, s[n::-1])):
            return None
    return length, [Fraction(x, den) for x in nums]


def _exact_kernel(c, m: int) -> tuple:
    """Exact minimal kernel vector of the m x m Hankel H[i][j] = c_{i+j+1}
    by one Berlekamp-Massey pass over c_1..c_{2m-1}: the coefficients
    (a_0, ..., a_{L-1}) of the kernel vector (a_0, ..., a_{L-1}, 1, 0, ...).

    With L the linear complexity and C the connection polynomial, H is
    nonsingular exactly when m appears in the length profile
    (FullRankHankel); otherwise L >= m means the rank differs between the
    sizes m-1 and m (RankInstability); otherwise L is the rank and
    a_j = C_{L-j}.
    """
    length, conn = _berlekamp_massey(c[: 2 * m - 1], m)
    if length == m:
        raise FullRankHankel(
            f"Hankel matrix of size {m} has full rank; request more moments"
        )
    if length > m:
        raise RankInstability(
            f"linear complexity {length} passes m={m} without reaching it; "
            "direction suspect or nmax too small"
        )
    conn = conn + [Fraction(0)] * (length + 1 - len(conn))
    return tuple(conn[length - j] for j in range(length))


def minimal_kernel_vector(h: HankelSystem) -> PronyPolynomial:
    """The unique kernel vector (a_0, ..., a_{M-1}, 1, 0, ..., 0) with
    minimal M; M equals the rank for moment data from a polytope.

    Runs the Berlekamp-Massey solve on the sequence read off the Hankel
    (first row, then last column) and raises FullRankHankel or
    RankInstability as the pipeline's ``prony_polynomial_from_sequence`` does.
    """
    last = h.m - 1
    seq = [h.rows[max(0, k - last)][min(k, last)] for k in range(2 * h.m - 1)]
    return PronyPolynomial(coeffs=_exact_kernel(seq, h.m))


def _float_kernel(a, rank: int, mult: int, scale) -> PronyPolynomial:
    """The minimal kernel vector of the float Hankel array a at the given
    rank, from the trailing right singular vectors of one SVD."""
    _, _, vh = np.linalg.svd(a, full_matrices=False)  # a is square: the same vh
    null_basis = vh[rank:].T  # columns span the numerical kernel
    # combine kernel vectors into the shape (a_0..a_{rank-1}, 1, 0, ..., 0):
    # constrain entries rank..m-1 to the pattern (1, 0, ..., 0)
    pattern = np.zeros(len(a) - rank)
    pattern[0] = 1.0
    sol, *_ = np.linalg.lstsq(null_basis[rank:, :], pattern, rcond=None)
    v = null_basis @ sol
    if abs(v[rank]) < 1e-10:
        raise RankInstability(
            "float kernel vector has a vanishing monic coefficient"
        )
    v = v / v[rank]
    return PronyPolynomial(
        coeffs=tuple(v[:rank].tolist()), multiplicity=mult, scale=scale
    )


# ---------------------------------------------------------------------------
# univariate polynomial helpers (lowest-first rational coefficient lists)


def poly_eval(coeffs, x):
    total = 0
    for a in reversed(coeffs):
        total = total * x + a
    return total


def poly_derivative(coeffs):
    return [k * coeffs[k] for k in range(1, len(coeffs))]


def _monic_integer(coeffs):
    """(g, s) with g(u) = s^n p(u/s) monic over the integers for the monic
    rational p of degree n: s grows until each c_{n-j} s^j is an integer."""
    coeffs = [Fraction(c) for c in coeffs]
    n, s = len(coeffs) - 1, 1
    for j in range(1, n + 1):
        s *= (coeffs[n - j] * s**j).denominator
    return [c.numerator * s ** (n - i) // c.denominator for i, c in enumerate(coeffs)], s


def _integer_nth_root(g, n: int):
    """The monic integer q with q^n = g for the monic integer g, or None.
    The reversed series of g determines the reversed q term by term through
    A' B = n A B'. A monic rational root of g is integral (Gauss's lemma),
    so a remainder means there is none; re-powering certifies the rest."""
    deg = len(g) - 1
    if deg % n:
        return None
    half = deg // n
    a = g[::-1]
    b = [1] + [0] * half
    for k in range(1, half + 1):
        s = k * a[k]
        for i in range(1, k):
            s += i * a[i] * b[k - i] - n * i * b[i] * a[k - i]
        b[k], rem = divmod(s, n * k)
        if rem:
            return None
    root = b[::-1]
    power = [1]
    for _ in range(n):
        power = _poly_mul(power, root)
    return root if power == g else None


def poly_nth_root(coeffs, n: int):
    """Exact n-th root of a monic rational polynomial, or None: the integer
    root of g(u) = s^n p(u/s) (``_integer_nth_root``), read back in t = u/s."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    if not c or c[-1] != 1:
        return None
    g, s = _monic_integer(c)
    root = _integer_nth_root(g, n)
    return root and [Fraction(x, s ** (len(root) - 1 - i)) for i, x in enumerate(root)]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _integer_seeds(g):
    """Rounded float roots of the monic integer g, found on g(2^e t)/2^(e n)
    with 2^e above Fujiwara's bound 2 max |g_i|^(1/(n-i)) on its roots: each
    scaled g_i, i < n, is below 2^-(n-i) and the roots t lie in the unit disc,
    however large the roots of g. Seeds far off the real axis are dropped."""
    n = len(g) - 1
    e = 1 + max(-(-abs(c).bit_length() // (n - i)) for i, c in enumerate(g[:-1]))
    roots = np.roots([g[i] / 2 ** (e * (n - i)) for i in range(n, -1, -1)])
    return {round(Fraction(r.real) * 2**e) for r in roots
            if abs(r.imag) <= 0.5 * (1 + abs(r.real))}


def _newton(g, dg, ddg, u):
    """Integer Newton from the seed u for at most 64 steps: on g/g' when
    ddg is given (Schroeder's iteration, quadratic at a multiple root as
    well), else on g. A rounded step of 0 ends it after u - 1 and u + 1
    are tried. The root reached, certified by g(u) = 0, or None."""
    for _ in range(64):
        gu = poly_eval(g, u)
        if gu == 0:
            return u
        du = poly_eval(dg, u)
        num, den = (gu * du, du * du - gu * poly_eval(ddg, u)) if ddg else (gu, du)
        if du == 0 or den == 0:  # a close pair's seed can land on the midpoint
            u += 1
            continue
        step = (2 * num + den) // (2 * den)
        if step == 0:
            return next((v for v in (u - 1, u + 1) if poly_eval(g, v) == 0), None)
        u -= step
    return None


def _lift(g, dg, ddg, u):
    """The integer root Newton reaches from u on g/g', else on g, or None."""
    root = _newton(g, dg, ddg, u)
    return _newton(g, dg, None, u) if root is None else root


def _divide_root(g, u):
    """Quotient and remainder of g by (x - u), by synthetic division."""
    acc, quotient = 0, []
    for c in reversed(g):
        acc = acc * u + c
        quotient.append(acc)
    remainder = quotient.pop()
    return quotient[::-1], remainder


def roots_exact(p: PronyPolynomial) -> dict:
    """Rational roots with multiplicities; raises IrrationalRoot unless the
    multiplicities sum to the degree.

    The roots are searched on the multiplicity hint's n-th root of the
    polynomial when it exists, else on the polynomial itself. One loop
    seeds and lifts once on the polynomial it searches, divides each root
    found out of the remainder as often as it divides, which is its
    multiplicity (times the hint's power), and searches the remainder next.
    While a search finds nothing it walks down the remainder's derivative
    chain: a root of multiplicity k is simple in the (k-1)-th derivative.

    A float-scaled polynomial (``scale != 1``) is float-mode output and is
    rejected with InputError.
    """
    if p.scale != 1:
        raise InputError("exact root extraction on a float-scaled polynomial")
    degree = p.degree
    result = {}
    if degree:
        # the integer roots u of g(u) = s^n p(u/s) give the roots r = u/s
        g, s = _monic_integer(p.full_coeffs())
        k = p.multiplicity
        g = (_integer_nth_root(g, k) if k > 1 else None) or g
        power = degree // (len(g) - 1)
        rest = chain = g
        while len(rest) > 1:
            dg = poly_derivative(chain)
            ddg = poly_derivative(dg)
            grown = False
            for u in {_lift(chain, dg, ddg, u) for u in _integer_seeds(chain)} - {None}:
                mult = 0
                quotient, remainder = _divide_root(rest, u)
                while remainder == 0:
                    rest, mult = quotient, mult + 1
                    quotient, remainder = _divide_root(rest, u)
                if mult:
                    result[Fraction(u, s)] = power * mult
                    grown = True
            if grown:
                chain = rest
            elif len(chain) > 2:
                chain = poly_derivative(chain)
            else:
                break
    total = sum(result.values())
    if total != degree:
        raise IrrationalRoot(
            f"found rational roots of total multiplicity {total} < degree {degree}"
        )
    return result


def roots_float(p: PronyPolynomial):
    """Real roots with multiplicities via companion-matrix eigenvalues.

    Roots with |imag| <= DEFAULT_REAL_TOL are kept; roots within
    max(DEFAULT_CLUSTER_TOL, 10^(-12/k)) of each other (relative; k the
    multiplicity, as triple and higher roots splay under noise) merge into
    one cluster whose multiplicity is the cluster size. Large residuals
    attach a warning, not an error.
    """
    if p.degree == 0:
        return []
    arr = np.array([1.0] + [float(a) for a in reversed(p.coeffs)], dtype=float)
    raw = np.roots(arr)
    real = sorted(r.real for r in raw if abs(r.imag) <= DEFAULT_REAL_TOL)
    if not real:
        return []
    cluster_tol = max(DEFAULT_CLUSTER_TOL, 10 ** (-12 / p.multiplicity))
    span = cluster_tol * (1.0 + max(abs(r) for r in real))
    clusters = []
    for r in real:
        if clusters and r - clusters[-1][-1] <= span:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    scale = float(p.scale)
    full = [float(a) for a in p.coeffs] + [1.0]
    dfull = poly_derivative(full)
    out = []
    for group in clusters:
        center = sum(group) / len(group)
        if len(group) == 1:
            # simple roots take a cheap Newton polish
            for _ in range(2):
                dp = poly_eval(dfull, center)
                if dp == 0.0:
                    break
                center -= poly_eval(full, center) / dp
        out.append((float(center * scale), len(group)))
    residual = max(abs(p.eval(root)) for root, _ in out)
    if residual > 1e-5:
        warnings.warn(
            f"large root residual {residual:.3e} in float root extraction",
            stacklevel=2,
        )
    return out


@dataclass(frozen=True)
class ProjectionSet:
    """Recovered projections <v, z> for one direction."""

    direction: tuple
    values: tuple
    n: int
    poly: PronyPolynomial = field(compare=False)
    rank: int = field(compare=False, default=0)


def _refine_nodes_float(c, nodes, iterations=6):
    """Gauss-Newton refinement of Prony nodes against the scaled moments.

    Fits c_k ~ sum_v w_v x_v^k jointly in (w, x) under relative weighting
    (the measurement noise is multiplicative); a few iterations push the
    node error down to the noise floor. Uniform-density model only.
    """
    x = np.array(nodes, dtype=float)
    cvec = np.array([float(v) for v in c], dtype=float)
    k = np.arange(len(cvec))
    n = len(x)
    floor = 1e-6 * max(1.0, np.max(np.abs(cvec)))
    weights = 1.0 / np.maximum(np.abs(cvec), floor)

    def residual_norm(xs):
        powers = xs[None, :] ** k[:, None]
        w, *_ = np.linalg.lstsq(weights[:, None] * powers, weights * cvec,
                                rcond=None)
        return w, np.linalg.norm(weights * (powers @ w - cvec))

    w, best = residual_norm(x)
    for _ in range(iterations):
        powers = x[None, :] ** k[:, None]  # (K+1, n)
        resid = powers @ w - cvec
        dpow = np.zeros_like(powers)
        dpow[1:, :] = k[1:, None] * x[None, :] ** (k[1:, None] - 1)
        jac = np.hstack([powers, dpow * w[None, :]])
        try:
            step, *_ = np.linalg.lstsq(weights[:, None] * jac,
                                       -weights * resid, rcond=None)
        except np.linalg.LinAlgError:
            break
        x_new = x + step[n:]
        if not np.all(np.isfinite(x_new)):
            break
        w_new, norm_new = residual_norm(x_new)
        if norm_new <= best:
            x, w, best = x_new, w_new, norm_new
        else:
            break
        if np.linalg.norm(step[n:]) < 1e-15:
            break
    return [float(v) for v in x]


def _estimate_scale(c):
    """Node-magnitude estimate from consecutive scaled-moment ratios, used
    to balance the float Hankel matrix before SVD."""
    ratios = []
    for a, b in zip(c, c[1:]):
        if a != 0 and b != 0:
            ratios.append(abs(float(b) / float(a)))
    if not ratios:
        return 1.0
    s = max(ratios[len(ratios) // 2 :])
    if 0.95 <= s <= 1.05:
        return 1.0
    return min(max(s, 1e-9), 1e9)


def _rescale(c, scale):
    """c_k <- c_k / scale^k in place: the moments of the nodes / scale."""
    if scale == 1:
        return
    acc = 1.0
    for k in range(1, len(c)):
        acc *= scale
        c[k] = c[k] / acc


def hankel_size(nmax: int, density_degree: int, mode: str = EXACT) -> int:
    """Hankel size of one solve: (D+1) nmax + 1, plus FLOAT_OVERSAMPLE off exact data."""
    return (density_degree + 1) * nmax + 1 + (0 if mode == EXACT else FLOAT_OVERSAMPLE)


def moments_needed(dim: int, nmax: int, density_degree: int, mode: str = EXACT) -> int:
    """Moment count one Hankel solve consumes (the leading d + deg scaled
    entries are structural zeros, not measurements)."""
    m = hankel_size(nmax, density_degree, mode)
    return 2 * m - 1 - (dim + density_degree)


def prony_polynomial_from_sequence(
    ms: MomentSequence,
    nmax: int,
    *,
    _rank: int | None = None,
) -> PronyPolynomial:
    """Hankel rank detection plus the minimal kernel vector, without root
    extraction (enough for cross-direction matching).

    The Hankel size m is ``hankel_size`` at the sequence's mode. Raises
    InputError when nmax is below 1, FullRankHankel when nmax is too small,
    RankInstability when the rank differs between sizes m-1 and m,
    RankNotDivisible when the rank is incompatible with the density degree.
    Exact mode decides the last three with one Berlekamp-Massey pass over
    the 2m-1 scaled entries.

    The reconstruction pipeline alone passes ``_rank``, the rank a combined
    direction must show: any other raises RankInstability, in float mode as
    soon as the rank at m is known, before the rank at m-1, the kernel SVD
    and its least squares.
    """
    if nmax < 1:
        raise InputError("nmax must be at least 1")
    mult = ms.density_degree + 1
    m = hankel_size(nmax, ms.density_degree, ms.mode)
    need = moments_needed(ms.dim, nmax, ms.density_degree, ms.mode)
    if len(ms.moments) < need:
        raise InsufficientMoments(
            f"need {need} moments for nmax={nmax} (m={m}), have {len(ms.moments)}"
        )
    c = list(scaled_moment_vector(ms, 2 * m - 2))
    if ms.mode == EXACT:
        coeffs = _exact_kernel(c, m)
        if len(coeffs) % mult:
            raise RankNotDivisible(
                f"rank {len(coeffs)} not divisible by multiplicity {mult}"
            )
        _check_rank(len(coeffs), _rank)
        return PronyPolynomial(coeffs=coeffs, multiplicity=mult)
    scale = _estimate_scale(c)
    _rescale(c, scale)
    a = np.array(c, dtype=float)[np.add.outer(np.arange(m), np.arange(m))]
    rank_m = _svd_rank(a)
    _check_rank(rank_m, _rank)
    rank_prev = _svd_rank(a[:-1, :-1])
    if rank_m == m:
        raise FullRankHankel(
            f"Hankel rank {rank_m} is full at m={m}; nmax={nmax} too small"
        )
    if rank_m != rank_prev:
        raise RankInstability(
            f"rank {rank_prev} at m={m - 1} but {rank_m} at m={m}; "
            "direction suspect or nmax too small"
        )
    if rank_m % mult:
        raise RankNotDivisible(
            f"rank {rank_m} not divisible by multiplicity {mult}"
        )
    return _float_kernel(a, rank_m, mult, scale)


def _check_rank(found, rank):
    if rank is not None and found != rank:
        raise RankInstability(f"combined direction rank {found} != {rank}")


def projections_from_moments(
    ms: MomentSequence,
    nmax: int,
    noise: float = 0.0,
) -> ProjectionSet:
    """Projections of the vertex set onto ms.direction.

    The number of vertices is recovered as rank/(density_degree + 1); every
    root of the minimal kernel polynomial must carry multiplicity exactly
    density_degree + 1. In float mode, projections separated by less than
    ``_separation_width(noise)`` of the spread, at the moments' relative noise
    level ``noise``, are intrinsically ill-conditioned and reported as a
    collision so the caller can resample. A noise level that is not finite
    and nonnegative raises InputError.
    """
    _check_noise(noise)
    mult = ms.density_degree + 1
    poly = prony_polynomial_from_sequence(ms, nmax)
    rank = poly.degree
    if ms.mode == EXACT:
        root_map = roots_exact(poly)
        bad = {r: k for r, k in root_map.items() if k != mult}
        if bad:
            raise MultiplicityMismatch(
                f"roots with multiplicity != {mult}: {bad}; direction not generic"
            )
        values = tuple(sorted(root_map))
    else:
        clusters = roots_float(poly)
        bad = [(r, k) for r, k in clusters if k != mult]
        if bad:
            raise MultiplicityMismatch(
                f"root clusters with size != {mult}: {bad}; direction not generic"
            )
        values = tuple(sorted(r for r, _ in clusters))
        if mult == 1 and len(values) == rank:
            # polish the nodes against the data (normalized coordinates)
            m = hankel_size(nmax, 0, ms.mode)
            c = list(scaled_moment_vector(ms, 2 * m - 2))
            s = float(poly.scale)
            _rescale(c, s)
            refined = _refine_nodes_float(c, [v / s for v in values])
            values = tuple(sorted(float(r * s) for r in refined))
        if len(values) >= 2:
            spread = 1.0 + values[-1] - values[0]
            gap = min(b - a for a, b in zip(values, values[1:]))
            if gap < _separation_width(noise) * spread:
                raise MultiplicityMismatch(
                    f"projections nearly collide (gap {gap:.3e}); resample"
                )
    n = rank // mult
    if len(values) != n:
        raise MultiplicityMismatch(
            f"{len(values)} distinct projections but rank/{mult} = {n}"
        )
    return ProjectionSet(
        direction=ms.direction, values=values, n=n, poly=poly, rank=rank
    )
