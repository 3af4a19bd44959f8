"""Univariate representations of the vertex set.

Every coordinate of every vertex is expressed as a rational function of a
single root theta of the base-direction polynomial p_a: g_{a,b} = df/ds at
s = 0 of f(s, t) = p_{a + s b}(t) gives <w, b> = -g_{a,b}(theta) / p_a'(theta)
at theta = <w, a>. The minus sign is forced by the product-rule expansion
of f and is verified by the test suite. f has degree <= n in s, so g is a
linear functional of n+1 samples, sum_k L_k'(0) p_{a + s_k b}(t) over the
Lagrange basis L_k of the nodes s_k; no interpolant is built.

The route runs on exact data only: float data raises InputError before a
moment is drawn, and goes through ``reconstruct`` instead.
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
from .numeric import EXACT
from .prony import PronyPolynomial, poly_derivative, poly_eval, poly_nth_root
from .reconstruct import VertexSet, _Pipeline


def _interpolate(nodes, columns):
    """Interpolant coefficients (lowest-first) through (nodes[i],
    column[i]) for each column, all over one Lagrange basis."""
    one, zero = Fraction(1), Fraction(0)
    n = len(nodes)
    outs = [[zero] * n for _ in columns]
    for i in range(n):
        # basis polynomial prod_{j != i} (s - s_j) / (s_i - s_j)
        basis = [one]
        denom = one
        for j in range(n):
            if j == i:
                continue
            basis = [zero] + basis
            for k in range(len(basis) - 1):
                basis[k] = basis[k] - nodes[j] * basis[k + 1]
            denom = denom * (nodes[i] - nodes[j])
        for out, column in zip(outs, columns):
            scale = column[i] / denom
            for k in range(n):
                out[k] = out[k] + scale * basis[k]
    return outs


def lagrange_coefficients(nodes, values):
    """Coefficients (lowest-first) of the interpolating polynomial through
    (nodes[i], values[i]); exact over rationals."""
    if len(values) != len(nodes):
        raise InputError("node/value length mismatch")
    return _interpolate(nodes, [values])[0]


def _squarefree_projection_poly(poly: PronyPolynomial, multiplicity: int):
    """Coefficients (lowest-first, monic) of prod(t - <v,z>) from the
    kernel polynomial, stripping the density multiplicity."""
    full = poly.full_coeffs()
    if multiplicity == 1:
        return full
    root = poly_nth_root(full, multiplicity)
    if root is None:
        raise RankInstability(
            f"kernel polynomial is not a perfect {multiplicity}-th power"
        )
    return root


def _node_pool(n, limit=512):
    """Deterministic interpolation nodes: the integers 0..n (ints, so
    integer directions stay integer), then half-integer and deeper rational
    offsets for non-generic samples."""
    yield from range(n + 1)
    denom = 2
    while denom < limit:
        for num in range(1, 2 * denom * (n + 1), 2):
            yield Fraction(num, denom)
        denom *= 2


def _exact(pipe: _Pipeline) -> _Pipeline:
    """The pipeline, unless it runs on float data (InputError)."""
    if pipe.config.mode != EXACT:
        raise InputError("the univariate route takes exact data; use reconstruct for float data")
    return pipe


def _sample(pipe, a, b, n, known_pa):
    """n+1 nodes s from ``_node_pool`` and the squarefree projection
    polynomials p_{a+s b}, lowest-first. Non-generic samples, detected by
    the Prony solve, are skipped; ``known_pa`` stands in for s = 0."""
    mult = pipe.oracle.density_degree + 1
    nodes, polys = [], []
    failures = 0
    for s in _node_pool(n):
        if s == 0 and known_pa is not None:
            poly = known_pa
        else:
            try:
                coords = tuple(x + s * y for x, y in zip(a, b))
                poly = _squarefree_projection_poly(pipe.poly_at(coords, n), mult)
            except (NonGenericDirection, DenominatorVanishes):
                failures += 1
                pipe.prov.retries += 1
                if failures > n + 1:
                    raise NonGenericDirection(f"persistent non-generic interpolation "
                                              f"samples after {failures} retries")
                continue
        nodes.append(s)
        polys.append(poly)
        if len(nodes) > n:
            return nodes, polys
    raise NonGenericDirection("interpolation node pool exhausted")


def interpolate_fab(oracle, a, b, n, pipeline=None, config=None, known_pa=None):
    """Coefficients of f_ab(s,t) = p_{a+s b}(t) as polynomials in s.

    Returns a list indexed by the t-degree i = 0..n; entry i is the
    lowest-first coefficient list of a degree <= n polynomial in s.
    Non-generic sample values of s are detected by the Prony solve and
    replaced from a rational fallback pool.
    """
    pipe = _exact(pipeline if pipeline is not None else _Pipeline(oracle, n, config, None))
    nodes, polys = _sample(pipe, a, b, n, known_pa)
    return _interpolate(nodes, [[p[i] for p in polys] for i in range(n + 1)])


def _derivative_weights(nodes):
    """w_k = L_k'(0) for nodes with nodes[0] = 0: the s-derivative at 0 of
    the interpolant through (nodes[k], y_k) is sum_k w_k y_k. For k > 0 the
    factor s - s_0 = s of L_k vanishes at 0, so w_k = (1/s_k) prod over
    j not in {0, k} of s_j / (s_j - s_k); on the nodes 0..n, w_0 = -H_n and
    w_k = (-1)^(k-1) C(n,k) / k."""
    one = Fraction(1)  # exact for int nodes
    weights = [-sum(one / s for s in nodes[1:])]
    for k in range(1, len(nodes)):
        w = one / nodes[k]
        for s in nodes[1:k] + nodes[k + 1:]:
            w = w * s / (s - nodes[k])
        weights.append(w)
    return weights


def g_from_f(fab):
    """g(t) = d f(s,t)/ds at s = 0: the s-linear coefficient, per t-degree."""
    out = [s_poly[1] if len(s_poly) > 1 else 0 for s_poly in fab]
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
    -g_{a,b_j}(theta) / (u p_a'(theta)) with b_j = u e_j scaled like a
    sampled a = u z (``_Pipeline.unit``), so that samples see u (z + s e_j).
    Repeated roots of p_a trigger a resample of the base direction (handled
    upstream by the Prony multiplicity check).
    """
    pipe = _exact(_Pipeline(oracle, nmax, config, rng))
    d = oracle.dim
    mult = oracle.density_degree + 1

    if base_direction is not None:
        a, unit = tuple(base_direction), 1
        proj = pipe.projections_at(a, nmax)
    else:
        (a, proj), unit = pipe.acquire(), pipe.unit
    n = proj.n
    pa = _squarefree_projection_poly(proj.poly, mult)
    pa_derivative = poly_derivative(pa)

    # g_{a,e_j}(t) = df/ds at s = 0 is one linear functional of the samples;
    # p is monic, so only the t-coefficients below n are needed
    g = []
    for j in range(d):
        b_j = tuple(unit * (t == j) for t in range(d))
        nodes, polys = _sample(pipe, a, b_j, n, pa)
        weights = _derivative_weights(nodes)
        g.append([sum(w * p[i] for w, p in zip(weights, polys)) for i in range(n)])

    vertices = []
    for theta in proj.values:
        dp = poly_eval(pa_derivative, theta)
        if dp == 0:
            raise RankInstability("repeated root of p_a; resample the direction")
        vertices.append(tuple(-poly_eval(g[j], theta) / (unit * dp) for j in range(d)))
    pipe.prov.directions = [a]
    pipe.prov.ranks = [proj.rank]
    return pipe.finish(vertices)
