"""Univariate representations of the vertex set.

Every coordinate of every vertex is expressed as a rational function of a
single root theta of the base-direction polynomial p_a: interpolating
f(s, t) = p_{a + s b}(t) in s and differentiating at s = 0 yields g_{a,b}
with <w, b> = -g_{a,b}(theta) / p_a'(theta) at theta = <w, a>. The minus
sign is forced by the product-rule expansion of f and is verified by the
test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .config import RunConfig
from .errors import (
    DenominatorVanishes,
    InputError,
    NonGenericDirection,
    RankInstability,
)
from .numeric import EXACT, FLOAT
from .prony import PronyPolynomial, poly_derivative, poly_eval, poly_nth_root
from .reconstruct import VertexSet, _Pipeline


def lagrange_coefficients(nodes, values):
    """Coefficients (lowest-first) of the interpolating polynomial through
    (nodes[i], values[i]); exact over rationals."""
    n = len(nodes)
    if len(values) != n:
        raise InputError("node/value length mismatch")
    is_float = any(isinstance(x, float) for x in list(nodes) + list(values))
    zero = 0.0 if is_float else Fraction(0)
    one = 1.0 if is_float else Fraction(1)
    out = [zero] * n
    for i in range(n):
        # basis polynomial prod_{j != i} (s - s_j) / (s_i - s_j)
        basis = [one]
        denom = one
        for j in range(n):
            if j == i:
                continue
            basis = [zero] + basis[:]
            for k in range(len(basis) - 1):
                basis[k] = basis[k] - nodes[j] * basis[k + 1]
            denom = denom * (nodes[i] - nodes[j])
        scale = values[i] / denom
        for k in range(len(basis)):
            out[k] = out[k] + scale * basis[k]
    return out


def _squarefree_projection_poly(poly: PronyPolynomial, multiplicity: int):
    """Coefficients (lowest-first, monic) of prod(t - <v,z>) from the
    kernel polynomial, stripping the density multiplicity."""
    full = poly.full_coeffs()
    if poly.scale != 1:
        # undo the float-mode node rescaling
        s = float(poly.scale)
        deg = len(full) - 1
        full = [c * s ** (deg - i) for i, c in enumerate(full)]
    if multiplicity == 1:
        return full
    if isinstance(full[0], float):
        raise InputError("float-mode density deflation is not supported here")
    root = poly_nth_root(full, multiplicity)
    if root is None:
        raise RankInstability(
            f"kernel polynomial is not a perfect {multiplicity}-th power"
        )
    return root


def _node_pool(n, mode, limit=512):
    """Deterministic interpolation nodes: the integers 0..n, then
    half-integer and deeper rational offsets for non-generic samples."""
    for k in range(n + 1):
        yield Fraction(k) if mode == EXACT else float(k)
    denom = 2
    while denom < limit:
        for num in range(1, 2 * denom * (n + 1), 2):
            yield Fraction(num, denom) if mode == EXACT else num / denom
        denom *= 2


def interpolate_fab(oracle, a, b, n, pipeline=None, config=None, known_pa=None):
    """Coefficients of f_ab(s,t) = p_{a+s b}(t) as polynomials in s.

    Returns a list indexed by the t-degree i = 0..n; entry i is the
    lowest-first coefficient list of a degree <= n polynomial in s.
    Non-generic sample values of s are detected by the Prony solve and
    replaced from a rational fallback pool.
    """
    pipe = pipeline if pipeline is not None else _Pipeline(oracle, n, config, None)
    mult = oracle.density_degree + 1
    nodes = []
    polys = []
    failures = 0
    max_failures = n + 1

    def try_node(s):
        nonlocal failures
        if s == 0 and known_pa is not None:
            nodes.append(s)
            polys.append(known_pa)
            return
        coords = tuple(x + s * y for x, y in zip(a, b))
        try:
            pz = pipe.poly_at(coords, n)
            polys.append(_squarefree_projection_poly(pz, mult))
            nodes.append(s)
        except (NonGenericDirection, DenominatorVanishes):
            failures += 1
            pipe.prov.retries += 1
            if failures > max_failures:
                raise NonGenericDirection(
                    f"persistent non-generic interpolation samples after "
                    f"{failures} retries"
                )

    for s in _node_pool(n, pipe.config.mode):
        if len(nodes) > n:
            break
        try_node(s)
    if len(nodes) <= n:
        raise NonGenericDirection("interpolation node pool exhausted")

    # interpolate each t-coefficient across the s samples
    fab = []
    for i in range(n + 1):
        column = [p[i] for p in polys]
        fab.append(lagrange_coefficients(nodes, column))
    return fab


def g_from_f(fab):
    """g(t) = d f(s,t)/ds at s = 0: the s-linear coefficient, per t-degree."""
    out = []
    for s_poly in fab:
        out.append(s_poly[1] if len(s_poly) > 1 else 0)
    while out and out[-1] == 0:
        out.pop()
    return out


def vertices_univar(
    oracle,
    nmax: int,
    config: RunConfig | None = None,
    rng=None,
    base_direction=None,
) -> VertexSet:
    """Reconstruct the vertex set through univariate representations.

    One vertex per root theta of p_a; coordinate j is
    -g_{a,e_j}(theta) / p_a'(theta). Repeated roots of p_a trigger a
    resample of the base direction (handled upstream by the Prony
    multiplicity check).
    """
    pipe = _Pipeline(oracle, nmax, config, rng)
    d = oracle.dim
    mode = pipe.config.mode
    mult = oracle.density_degree + 1

    if base_direction is not None:
        a = tuple(base_direction)
        proj = pipe.projections_at(a, nmax)
    else:
        a, proj = pipe.acquire_first()
    n = proj.n
    pa = _squarefree_projection_poly(proj.poly, mult)
    pa_derivative = poly_derivative(pa)

    one = 1.0 if mode == FLOAT else Fraction(1)
    g = []
    for j in range(d):
        e_j = tuple(one if t == j else (0.0 if mode == FLOAT else Fraction(0))
                    for t in range(d))
        fab = interpolate_fab(oracle, a, e_j, n, pipeline=pipe, known_pa=pa)
        g.append(g_from_f(fab))

    vertices = []
    for theta in proj.values:
        dp = poly_eval(pa_derivative, theta)
        if dp == 0:
            raise RankInstability("repeated root of p_a; resample the direction")
        vertices.append(tuple(-poly_eval(g[j], theta) / dp for j in range(d)))
    pipe.prov.directions = [a]
    pipe.prov.ranks = [proj.rank]
    return pipe.finish(vertices)
