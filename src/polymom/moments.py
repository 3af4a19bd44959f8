"""Axial moments of polytopes: vertex-cone formulas and an independent
barycentric-integration oracle.

Two routes compute mu_j(z) = integral over P of <x,z>^j rho(x) dx, both in
closed form:

* ``brion``: the vertex sum mu_j = j! (-1)^d / (j+d)! * sum_v <v,z>^{j+d}
  D_v(z) with D_v(z) = |det K_v| / prod_k <w_k(v), z>, extended to
  polynomial densities by applying rho(d/dz) per homogeneous piece, and to
  non-simple polytopes by accumulating D-tilde over a triangulation. For a
  piece of degree s the jet of <v,z+h> is <v,z> + L_v(h), so the order-s
  jet of its k-th power has s+1 binomial terms; the contractions
  [rho_s(d/dz) D_v L_v^i](z), i <= s, are taken once per vertex in closed
  form (the Taylor parts of a cone weight are complete homogeneous
  polynomials in <w_k,h>/<w_k,z>), on integers for exact data, and every
  moment index is then one integer sum over one divisor (Baldoni, Berline,
  De Loera, Koeppe & Vergne, Math. Comp. 2011). Float data runs on numpy
  arrays: the cone table's (``Polytope.cone_arrays``) for the uniform sum,
  one vertex x piece x moment array for the running powers of a density's
  moment loop, each with the operations of the scalar loop in its order
  (the density's vertex sums by ``sum``, as that loop takes them), so the
  floats are those of that loop bit for bit.
* ``direct``: simplex-by-simplex integration through barycentric
  coordinates. With the density written as sum_a r_a lambda^a and
  c_i = <v_i,z>, Dirichlet's formula gives
  integral of lambda^a <x,z>^j = vol a! j!/(d+|a|+j)! H_j^(a)(c), where
  sum_j H_j^(a) t^j = prod_i (1 - c_i t)^-(a_i+1) (for a = 0 the complete
  homogeneous symmetric polynomials; Lasserre & Avrachenkov, Amer. Math.
  Monthly 2001). Exact data runs on integers: the vertices, the density
  and the direction are cleared once per polytope to one denominator,
  every simplex adds to integer sums, and each moment takes one division.
  It uses no vertex cone, weight or formula of the ``brion`` route, so the
  two stay independent checks of each other.

All computations are mode-agnostic: exact inputs stay exact, float inputs
produce floats, and mixed inputs run on floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from math import comb, factorial, inf, isfinite, lcm, perm, prod
from random import Random

import numpy as np

from .errors import (
    DenominatorVanishes,
    InputError,
    InsufficientMoments,
    OracleDisagreement,
)
from .geometry import (
    Direction,
    Polytope,
    dot,
    polytope_to_float,
    sample_generic_direction,
    triangulation_of,
)
from .numeric import (
    EXACT,
    FLOAT,
    MultiPoly,
    exact_div,
    falling,
    falling_column,
    index_from_json,
    integerize,
    mfactorial,
    scalar_from_json,
    scalar_to_json,
)
from . import linalg


def _direction_coords(z):
    return z.coords if isinstance(z, Direction) else tuple(z)


def _edge_values(cone, edges, z):
    """<edges_k, z> for one cone of the table; raises, naming the cone's
    own edge, when one vanishes."""
    values = [dot(e, z) for e in edges]
    for w, s in zip(cone.edges, values):
        if s == 0:
            raise DenominatorVanishes(cone.vertex, tuple(w))
    return values


def _brion_direction(p: Polytope, z):
    """(coords, q) with z = coords / q: integers over their common
    denominator, except on a float polytope, where the direction runs on
    floats (float powers of q-scaled projections overflow). A direction of
    another length than the dimension raises InputError."""
    coords = _direction_coords(z)
    _check_direction(p, coords)
    if p.cone_table[0] is None:
        return tuple(map(float, coords)), 1
    return integerize(coords)


def _data_mode(p: Polytope, coords, rho: MultiPoly | None) -> str:
    """FLOAT when the vertices, the direction or the density hold a float."""
    values = chain(*p.vertices, coords, () if rho is None else rho.terms.values())
    return FLOAT if any(isinstance(x, float) for x in values) else EXACT


def _exact_data(p: Polytope, coords):
    return p.cone_table[0] is not None and all(isinstance(x, int) for x in coords)


def _dots(rows, z):
    """<row, z> over the last axis, one coordinate at a time, in the order
    ``dot`` adds them (from the int 0: 0 + x turns -0.0 into 0.0)."""
    total = rows[..., 0] * z[0] + 0.0
    for t in range(1, len(z)):
        total += rows[..., t] * z[t]
    return total


def _left_sum(rows):
    """rows[0] + rows[1] + ... over axis 0, one row at a time, as a scalar
    loop from the int 0 adds them: the running sums accumulate in order,
    and + 0.0 turns a sum of -0.0 into 0.0 as 0 + (-0.0) does."""
    return np.add.accumulate(rows, axis=0)[-1] + 0.0


def axial_moments_brion(p: Polytope, z, count: int):
    """Moments mu_0 .. mu_{count-1} for uniform density via the vertex sum:
    exact data runs the density sum ``_brion_sum`` with the one piece 1 on
    the integers of ``p.cone_table``. Float data runs on its arrays
    (``Polytope.cone_arrays``): the edge products and weights of all cones
    at once, then the running powers of ``_running_values``, their vertex
    rows added one at a time, each in the order of the scalar loop they
    replace."""
    d = p.dim
    coords, q = _brion_direction(p, z)
    if _exact_data(p, coords):
        return _brion_sum(p, coords, q, count, [MultiPoly.constant(d, 1)])
    scale, _, cones = p.cone_table
    points, edges, dets, index = p.cone_arrays
    try:
        with np.errstate(over="raise"):
            values = _dots(edges, coords)
            products = np.multiply.accumulate(values, axis=1)[:, -1]
    except FloatingPointError:
        raise InputError("float mode: a cone denominator is beyond the double range") from None
    zero = values == 0
    if zero.any():  # the first cone in table order, and its first such edge
        c, k = np.argwhere(zero)[0]
        raise DenominatorVanishes(cones[c][0].vertex, tuple(cones[c][0].edges[k]))
    weights = dets / products
    if index is not None:  # summed per vertex in cone order; -0.0 + w is w
        weights, cone_weights = np.full(len(points), -0.0), weights
        np.add.at(weights, index, cone_weights)
    if scale not in (None, 1):  # <v, z> = <V v, z / V>
        coords = [x / scale for x in coords]
    try:
        with np.errstate(over="raise"):
            projs = _dots(points, coords)
        run = np.array([n**d for n in projs.tolist()]) * weights
    except (FloatingPointError, OverflowError):
        raise InputError(f"float mode: a power <v, z>^{d} is beyond the double range") from None
    sums = _left_sum(_running_values(projs, [run], count)[:, 0])
    falls = [float(f) for f in falling_column(d, count)]
    return ((-1) ** d * sums / falls).tolist()


def axial_moment_brion(p: Polytope, z, j: int):
    """mu_j(z) for uniform density; equals the direct oracle exactly."""
    return axial_moments_brion(p, z, j + 1)[j]


def _edge_series(a, edges, top):
    """P_t = (prod a)^t h_t(l_1/a_1, ..., l_d/a_d) for t = 0..top, with
    l_k(h) = <edges_k, h> and h_t the complete homogeneous symmetric
    polynomial, as polynomials in h whose coefficient of h^m is times m!,
    so that sigma(d/dh) P_t = sum_m sigma_m P_t[m] for sigma of degree t.
    Integer a and edges give integers, by the recursion over k
    P_{k,t} = a_k^t P_{k-1,t} + (a_1 ... a_{k-1}) l_k P_{k,t-1}."""
    series = [{(0,) * len(a): 1}] + [{} for _ in range(top)]
    lead = 1
    for ak, w in zip(a, edges):
        grown = series[:1]
        for t in range(1, top + 1):
            poly = {m: ak**t * c for m, c in series[t].items()}
            for m, c in grown[t - 1].items():
                for j, x in enumerate(w):
                    if x:
                        key = m[:j] + (m[j] + 1,) + m[j + 1:]
                        poly[key] = poly.get(key, 0) + lead * x * c
            grown.append(poly)
        series = grown
        lead *= ak
    return series[:1] + [{m: c * mfactorial(m) for m, c in poly.items()} for poly in series[1:]]


def _derivatives(piece: dict, direction, count):
    """D^i piece for i < count, D the derivative along ``direction``."""
    out = [piece]
    while len(out) < count:
        grown = {}
        for m, c in piece.items():
            for j, (e, x) in enumerate(zip(m, direction)):
                if e and x:
                    key = m[:j] + (e - 1,) + m[j + 1:]
                    grown[key] = grown.get(key, 0) + c * e * x
        piece = grown
        out.append(piece)
    return out


def _vertex_contractions(p: Polytope, coords, pieces):
    """The per-vertex data of [piece(d/dz) sum_v <v,z>^k W_v(z)](z) for
    homogeneous pieces, for every k at once.

    With <v,z+h> = <v,z> + L_v(h), a piece of degree s gives
    sum_i C(k,i) <v,z>^(k-i) e_{v,i}, e_{v,i} = [piece(d/dz) W_v L_v^i](z).
    Per cone with edges w_k, a_k = <w_k,z> and |det| delta, the degree-t
    Taylor part of W_v(z+h) = delta / prod (a_k + <w_k,h>) is
    delta (-1)^t P_t / (prod a)^(t+1) (``_edge_series``), and the piece
    applied to P_t L_v^i is D^i piece applied to P_t (D along v), so
    e_{v,i} = delta (-1)^(s-i) [D^i piece(d/dh) P_(s-i)] / (prod a)^(s+1-i).

    Returns (projs, scale, tables): <v,z> = projs[v] / scale and per piece
    (den, rows), e_{v,i} = rows[v][i] / (den scale^i). Exact data and an
    integer z stay on integers, one den per piece; float data keeps den 1.
    """
    scale, vertices, cones = p.cone_table
    exact = _exact_data(p, coords)
    degrees = [piece.degree for piece in pieces]
    top = max(degrees, default=0)
    cone_data = []
    for c, edges, det in cones:
        a = _edge_values(c, edges, coords)
        cone_data.append((c.vertex, det, prod(a), _edge_series(a, edges, top)))
    order = list(dict.fromkeys(v for v, *_ in cone_data))
    weights = {}  # per degree s: den and each cone's delta / (prod a)^(s+1) times den
    for s in set(degrees):
        if exact:
            dens = [det.denominator * pa ** (s + 1) for _, det, pa, _ in cone_data]
            den = lcm(*dens)
            weights[s] = den, [det.numerator * (den // b) for b, (_, det, *_) in zip(dens, cone_data)]
        else:
            weights[s] = 1, [det / pa ** (s + 1) for _, det, pa, _ in cone_data]
    tables = []
    for piece, s in zip(pieces, degrees):
        coefs, piece_den = integerize(list(piece.terms.values()))
        sigma = dict(zip(piece.terms, coefs))
        derived = {v: _derivatives(sigma, vertices[v], s + 1) for v in order}
        den, cone_weights = weights[s]
        rows = {v: [0] * (s + 1) for v in order}
        for (v, _, pa, series), weight in zip(cone_data, cone_weights):
            row = rows[v]
            for i, deriv in enumerate(derived[v]):
                poly = series[s - i]
                pair = sum([x * poly[m] for m, x in deriv.items() if m in poly])
                if pair:
                    row[i] = row[i] + (-1) ** (s - i) * weight * pair * pa**i
        tables.append((den * piece_den, [rows[v] for v in order]))
    projs = [dot(vertices[v], coords) for v in order]
    return projs, 1 if scale is None else scale, tables


def _contract(projs, scale, table, k: int):
    """[piece(d/dz) sum_v <v,z>^k W_v(z)](z) from one table of
    ``_vertex_contractions``."""
    den, rows = table
    total = 0
    for value, terms in zip(projs, rows):
        for i in range(min(k, len(terms) - 1) + 1):
            total = total + comb(k, i) * value ** (k - i) * terms[i]
    return exact_div(total, den * scale**k)


def _brion_sum(p: Polytope, coords, q: int, count: int, pieces):
    """mu_0 .. mu_{count-1} along z = coords / q for the density with the
    homogeneous pieces ``pieces``: rho_s adds j! (-1)^d / (j+d+s)! times
    [rho_s(d/dz) sum_v <v,z>^(j+d+s) D_v(z)](z), a sum of running powers
    n_v^(j+d+s-i) f_{v,i} (``_vertex_contractions``). With T the top degree
    and j!/(j+d+s)! = falling(j+d+T, T-s) / falling(j+d+T, d+T), all pieces
    share the divisor falling(j+d+T, d+T) den scale^(j+d+T) q^j."""
    d = p.dim
    projs, scale, tables = _vertex_contractions(p, coords, pieces)
    top = max(piece.degree for piece in pieces)
    den = lcm(*(t[0] for t in tables))
    groups = []  # (s, i, factor, running values)
    for piece, (piece_den, rows) in zip(pieces, tables):
        s = piece.degree
        factor = den // piece_den * scale ** (top - s)
        for i in range(s + 1):
            groups.append((s, i, factor, [n ** (d + s - i) * f[i] for n, f in zip(projs, rows)]))
    # per group and moment, falling(j+d+T, T-s) times the group's factor and C(j+d+s, i)
    weights = [[perm(j + d + top, top - s) * factor * comb(j + d + s, i) for j in range(count)]
               for s, i, factor, _ in groups]
    divisors = []
    unit = den * scale ** (d + top)
    for fall in falling_column(d + top, count):
        divisors.append(fall * unit)
        unit *= scale * q
    sign = (-1) ** d
    runs = [run for *_, run in groups]
    if not _exact_data(p, coords):
        # each vertex sum by ``sum``, as the loop below takes it (compensated
        # on floats from Python 3.12 on); the groups added in order, each
        # times its integer weight rounded once
        values = _running_values(projs, runs, count).transpose(1, 2, 0).tolist()
        sums = np.array([[sum(run) for run in group] for group in values])
        weights = np.array([[float(w) for w in column] for column in weights])
        return (sign * _left_sum(weights * sums) / [float(x) for x in divisors]).tolist()
    out = []
    for j, divisor in enumerate(divisors):
        total = 0
        for column, run in zip(weights, runs):
            total = total + column[j] * sum(run)
        out.append(exact_div(sign * total, divisor))
        if j + 1 < count:
            runs = [[t * n for t, n in zip(run, projs)] for run in runs]
    return out


def _running_values(projs, runs, count):
    """The running values of ``_brion_sum``'s moment loop on floats, as one
    vertex x group x moment array: at vertex v each group's first value,
    then times n_v once per moment (a cumulative product, in the scalar
    loop's order)."""
    powers = np.empty((len(projs), len(runs), count))
    powers[:, :, :1] = np.array(runs, dtype=float).T[:, :, None]
    powers[:, :, 1:] = np.array(projs)[:, None, None]
    return np.cumprod(powers, axis=2)


def axial_moments_brion_density(p: Polytope, z, count: int, rho: MultiPoly | None):
    """Moments for polynomial density rho via the differentiated vertex sum.

    Each homogeneous piece rho_s contributes
    j! (-1)^d / (j+d+s)! * [rho_s(d/dz) sum_v <v,z>^{j+d+s} D_v(z)](z);
    the operator is applied in closed form, once per vertex and piece
    (``_vertex_contractions``), and all pieces are summed over one divisor
    per moment (``_brion_sum``).
    """
    _check_density(p, rho)
    if rho is None:
        return axial_moments_brion(p, z, count)
    if rho.is_constant():
        return [rho.constant_value() * m for m in axial_moments_brion(p, z, count)]
    coords, q = _brion_direction(p, z)
    return _brion_sum(p, coords, q, count, list(rho.homogeneous_parts().values()))


def axial_moment_brion_density(p: Polytope, z, j: int, rho: MultiPoly | None):
    return axial_moments_brion_density(p, z, j + 1, rho)[j]


def _geometric_pass(h, c):
    """Multiply the truncated series h by 1/(1 - c t), in place."""
    for j in range(1, len(h)):
        h[j] = h[j] + c * h[j - 1]


def axial_moments_direct(p: Polytope, z, count: int, rho: MultiPoly | None = None):
    """Ground-truth moments by barycentric integration over a triangulation.

    For a simplex with vertex projections c_i = <v_i, z> and the density in
    barycentric coordinates, R(lambda) = sum_a r_a lambda^a, Dirichlet's
    formula gives the closed form
    mu_j += vol * sum_a r_a a! j!/(d+|a|+j)! H_j^(a)(c),
    where sum_j H_j^(a)(c) t^j = prod_i (1 - c_i t)^-(a_i+1). With X = V x,
    z = coords / q and rho = sum_m R_m x^m / rden on integers, rden V^top rho
    = sum_m R_m V^(top-|m|) X^m, c_i = <X_i, coords> / (V q) and the X edges
    have |det| V^d vol: all simplices add to integer sums, divided once per
    moment by rden V^(d+top) (j+d+top)!/j! (V q)^j. Float data has V = q =
    rden = 1.
    """
    d = p.dim
    coords = _direction_coords(z)
    _check_direction(p, coords)
    _check_density(p, rho)
    rho = MultiPoly.constant(d, 1) if rho is None else rho
    flat = [x for v in p.vertices for x in v]
    coefs = list(rho.terms.values())
    exact = _data_mode(p, coords, rho) == EXACT
    if not exact:  # then all floats: scales such as q^j would outgrow the float range
        flat, coords, coefs = ([float(x) for x in xs] for xs in (flat, coords, coefs))
    flat, scale = integerize(flat)
    coords, q = integerize(coords)
    coefs, rden = integerize(coefs)
    top = rho.degree
    folded = [(m, r * scale ** (top - sum(m))) for m, r in zip(rho.terms, coefs)]
    vertices = [flat[i:i + d] for i in range(0, len(flat), d)]
    units = [tuple(int(i == k) for k in range(d + 1)) for i in range(d + 1)]
    sums = [[0] * count for _ in range(top + 1)]  # vol a! r_a H_j^(a) per |a|
    for simplex in triangulation_of(p):
        pts = [vertices[i] for i in simplex]
        vol = abs(linalg.det_exact([[a - b for a, b in zip(v, pts[0])] for v in pts[1:]]))
        if vol == 0:
            raise InputError(f"degenerate simplex {simplex}")
        vol = vol.numerator if vol.denominator == 1 else float(vol)  # an int on exact data
        # rden V^top rho in barycentric coordinates: X_t = sum_i pts[i][t] lambda_i
        xs = [MultiPoly(d + 1, {u: v[t] for u, v in zip(units, pts)}) for t in range(d)]
        density = sum((prod((x**e for x, e in zip(xs, m) if e), start=MultiPoly.constant(d + 1, r))
                       for m, r in folded), MultiPoly(d + 1, {}))
        projs = [dot(v, coords) for v in pts]
        # H^(0): the complete homogeneous symmetric polynomials h_j
        base = [1] + [0] * (count - 1)
        for c in projs:
            _geometric_pass(base, c)
        for exp, coef in density.terms.items():
            h = list(base)
            for c, e in zip(projs, exp):
                for _ in range(e):
                    _geometric_pass(h, c)
            weight = vol * coef * mfactorial(exp)
            row = sums[sum(exp)]
            for j in range(count):
                row[j] = row[j] + weight * h[j]
    # j!/(j+d+s)! = falling(j+d+top, top-s) / falling(j+d+top, d+top)
    out = []
    unit = rden * scale ** (d + top)
    for j, fall in enumerate(falling_column(d + top, count)):
        total = sum(falling(j + d + top, top - s) * row[j] for s, row in enumerate(sums))
        out.append(exact_div(total, unit * fall))
        unit *= scale * q
    return out if exact else [float(x) for x in out]


def axial_moment_direct(p: Polytope, z, j: int, rho: MultiPoly | None = None):
    return axial_moments_direct(p, z, j + 1, rho)[j]


def vertex_side_scaled_entry(p: Polytope, z, k: int, rho: MultiPoly | None = None):
    """Entry c_{k+1} of the scaled moment vector computed from the vertex
    side of the matrix identity: sum_s falling(k, deg-s) *
    [rho_s(d/dz) sum_v <v,z>^{k-deg+s} D_v(z)](z)."""
    _check_density(p, rho)
    coords, q = _brion_direction(p, z)
    deg = 0 if rho is None else rho.degree
    # every term is homogeneous of degree k - d - deg in z
    hom = k - p.dim - deg
    unscale = Fraction(1, q**hom) if hom >= 0 else Fraction(q ** (-hom))
    parts = {0: MultiPoly.constant(p.dim, 1)} if rho is None else rho.homogeneous_parts()
    # a piece with k - deg + s < 0 has a vanishing falling factorial
    live = {s: piece for s, piece in parts.items() if k - deg + s >= 0 and falling(k, deg - s)}
    projs, scale, tables = _vertex_contractions(p, coords, list(live.values()))
    total = 0
    for s, table in zip(live, tables):
        total = total + falling(k, deg - s) * _contract(projs, scale, table, k - deg + s)
    return total * unscale


def companion_identity_residual(p: Polytope, z, j: int, rho: MultiPoly | None = None):
    """The low-order vanishing sums; exactly zero for 0 <= j < d + deg(rho)."""
    deg = 0 if rho is None else rho.degree
    if not 0 <= j <= p.dim + deg - 1:
        raise InputError(f"companion identity index {j} outside 0..{p.dim + deg - 1}")
    return vertex_side_scaled_entry(p, z, j, rho)


@dataclass(frozen=True)
class MomentSequence:
    """mu_0..mu_K along one direction, with the metadata the inverse
    pipeline needs."""

    dim: int
    direction: tuple
    density_degree: int
    mode: str
    moments: tuple


def scaled_moment_vector(ms: MomentSequence, k: int) -> tuple:
    """c_1 .. c_{k+1} from a moment sequence: d + deg leading zeros, then
    the scaled moments c_{j+d+deg+1} = (-1)^d (j+d+deg)!/j! mu_j."""
    lead = ms.dim + ms.density_degree
    needed = k + 1 - lead
    if needed > len(ms.moments):
        raise InsufficientMoments(
            f"need {needed} moments for k={k}, have {len(ms.moments)}"
        )
    sign = (-1) ** ms.dim
    c = [0] * min(lead, k + 1)
    for factor, m in zip(falling_column(lead, max(0, needed)), ms.moments):
        c.append(sign * factor * m)
    return tuple(c)


def moment_sequence(
    p: Polytope,
    z,
    count: int,
    rho: MultiPoly | None = None,
    route: str = "brion",
) -> MomentSequence:
    """mu_0 .. mu_{count-1} along z: float when the polytope, the direction
    or the density holds a float (the routes then run on floats), else exact."""
    if count < 0:
        raise InputError(f"moment count must be nonnegative, got {count}")
    coords = _direction_coords(z)
    mode = _data_mode(p, coords, rho)
    if route == "brion":
        moments = axial_moments_brion_density(p, coords, count, rho)
    elif route == "direct":
        moments = axial_moments_direct(p, coords, count, rho)
    elif route == "both":
        brion = axial_moments_brion_density(p, coords, count, rho)
        direct = axial_moments_direct(p, coords, count, rho)
        for j, (a, b) in enumerate(zip(brion, direct)):
            if not _moments_close(a, b, mode):
                raise OracleDisagreement(f"brion and direct disagree at j={j}: {a} vs {b}")
        moments = direct
    else:
        raise InputError(f"unknown route {route!r}")
    if mode == FLOAT:
        _check_finite(moments)
    return MomentSequence(
        dim=p.dim,
        direction=coords,
        density_degree=0 if rho is None else rho.degree,
        mode=mode,
        moments=tuple(moments),
    )


def _check_finite(moments):
    """Float moments past the double range read inf or nan: InputError."""
    if not all(map(isfinite, moments)):
        raise InputError("float mode: a moment is beyond the double range")


def _check_direction(p: Polytope, coords):
    if len(coords) != p.dim:
        raise InputError(f"direction {coords} has {len(coords)} coordinates, need {p.dim}")


def _check_density(p: Polytope, rho: MultiPoly | None):
    if rho is not None and rho.dim != p.dim:
        raise InputError(f"density in {rho.dim} variables on a polytope of dimension {p.dim}")


def _moments_close(a, b, mode):
    if mode == EXACT:
        return a == b
    scale = max(1.0, abs(float(a)), abs(float(b)))
    return abs(float(a) - float(b)) <= 1e-9 * scale


def _check_mode(mode):
    if mode not in (EXACT, FLOAT):
        raise InputError(f"unknown mode {mode!r}")


def _check_noise(noise):
    """Raise InputError unless the relative noise level is finite and >= 0."""
    if not 0 <= noise < inf:
        raise InputError(f"noise must be finite and nonnegative, got {noise}")


def add_noise(ms: MomentSequence, eps_rel: float, rng) -> MomentSequence:
    """Multiply each moment by (1 + delta), delta uniform in [-eps, eps]."""
    if ms.mode != FLOAT:
        raise InputError("noise injection requires float mode")
    _check_noise(eps_rel)
    if rng is None:  # drawn from once per moment, at any level
        raise InputError("noise requires an explicit rng to draw from")
    return replace(ms, moments=tuple(m * (1.0 + rng.uniform(-eps_rel, eps_rel)) for m in ms.moments))


def moments_to_json(ms: MomentSequence) -> dict:
    return {
        "dim": ms.dim,
        "direction": [scalar_to_json(x) for x in ms.direction],
        "density_degree": ms.density_degree,
        "mode": ms.mode,
        "moments": [scalar_to_json(m) for m in ms.moments],
    }


def moments_from_json(doc) -> MomentSequence:
    try:
        mode = doc.get("mode", EXACT)
        _check_mode(mode)
        ms = MomentSequence(
            dim=index_from_json(doc["dim"], "dim"),
            direction=tuple(scalar_from_json(x, mode) for x in doc["direction"]),
            density_degree=index_from_json(doc.get("density_degree", 0), "density_degree"),
            mode=mode,
            moments=tuple(scalar_from_json(m, mode) for m in doc["moments"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"bad moment document: {exc}") from None
    if ms.density_degree < 0:
        raise InputError("density_degree must be nonnegative")
    _check_sequence_direction(ms)
    return ms


def _check_sequence_direction(ms: MomentSequence):
    if len(ms.direction) != ms.dim:
        raise InputError(f"a direction has {len(ms.direction)} coordinates in dimension {ms.dim}")


def save_moments(ms: MomentSequence, path):
    with open(path, "w") as fh:
        json.dump(moments_to_json(ms), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_moments(path) -> MomentSequence:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read moment file {path}: {exc}") from None
    return moments_from_json(doc)


def moments_to_csv(ms: MomentSequence, path):
    with open(path, "w") as fh:
        fh.write("index,value\n")
        for j, m in enumerate(ms.moments):
            fh.write(f"{j},{scalar_to_json(m)}\n")


_MONOMIAL_SAMPLE_PRIME = 4999


def _monomial_moments_at(p: Polytope, coords, parts, exps):
    """mu_m for every m in ``exps`` as the j = 0 moment of density Brion
    with density x^m rho: each piece x^m rho_s, of degree e = |m|+s, adds
    (-1)^d [x^m rho_s(d/dz) sum_v <v,z>^(e+d) D_v(z)](z) / (e+d)!."""
    d = p.dim
    shifted = [
        (m, MultiPoly(d, {tuple(a + b for a, b in zip(m, e)): c for e, c in piece.terms.items()}))
        for piece in parts.values() for m in exps
    ]
    projs, scale, tables = _vertex_contractions(p, coords, [x for _, x in shifted])
    out = dict.fromkeys(exps, Fraction(0))
    for (m, piece), table in zip(shifted, tables):
        k = piece.degree + d
        out[m] = out[m] + exact_div((-1) ** d * _contract(projs, scale, table, k), factorial(k))
    return out


def monomial_moments_of_degree(
    p: Polytope, q: int, rho: MultiPoly | None = None, z=None, rng=None
):
    """All monomial moments mu_m = integral of x^m rho dx with |m| = q.

    The relation |m|! mu_m = d^m/dz^m mu_{|m|}(z) is the density operator
    of the vertex sum: mu_m is the j = 0 moment for the density x^m rho,
    summed piece by piece of rho at an internally sampled generic z. The
    jets of one piece degree are shared by every m of total degree q.
    """
    _check_density(p, rho)
    if rng is None:
        rng = Random(20240615 + q)
    parts = {0: MultiPoly.constant(p.dim, 1)} if rho is None else rho.homogeneous_parts()
    exps = list(_exponents_of_degree(p.dim, q))
    attempts = 0
    while True:
        if z is not None:
            coords = _direction_coords(z)
        else:
            coords = sample_generic_direction(
                p.dim, r=_MONOMIAL_SAMPLE_PRIME, rng=rng
            ).coords
        try:
            # mu_m does not depend on z, so z may be scaled to integers
            return _monomial_moments_at(p, _brion_direction(p, coords)[0], parts, exps)
        except DenominatorVanishes:
            if z is not None:
                raise
            attempts += 1
            if attempts > 32:
                raise


def _exponents_of_degree(dim, q):
    if dim == 1:
        yield (q,)
        return
    for first in range(q + 1):
        for rest in _exponents_of_degree(dim - 1, q - first):
            yield (first,) + rest


def monomial_moment(p: Polytope, m, rho: MultiPoly | None = None, z=None, rng=None):
    """integral over P of x^m rho(x) dx, via the derivative relation
    |m|! mu_m = d^m mu_{|m|}(z)."""
    m = tuple(m)
    if len(m) != p.dim or not all(isinstance(e, int) and e >= 0 for e in m):
        raise InputError(f"exponent {m} is no multi-index of dimension {p.dim}")
    q = sum(m)
    return monomial_moments_of_degree(p, q, rho, z=z, rng=rng)[m]


class PolytopeMomentOracle:
    """On-demand axial moments of a known polytope.

    Every request is a prefix mu_0 .. mu_{k-1} along one direction, stored
    whole, so the stored measurements (z, j) are the requested ones and
    their number audits the inverse pipeline's moment budget. Noise, when
    enabled (float mode only), is drawn once per stored measurement, so
    repeated queries are consistent.
    """

    def __init__(
        self,
        polytope: Polytope,
        density: MultiPoly | None = None,
        mode: str = EXACT,
        route: str = "brion",
        noise: float = 0.0,
        rng=None,
    ):
        _check_mode(mode)
        if route not in ("brion", "direct"):
            raise InputError(f"unknown route {route!r}")
        if mode == FLOAT:
            _check_noise(noise)
            if noise and rng is None:
                raise InputError("noise requires an explicit rng to draw from")
            polytope = polytope_to_float(polytope)
            density = density.to_float() if density is not None else None
        elif noise:
            raise InputError("noise requires float mode")
        _check_density(polytope, density)
        self.polytope = polytope
        self.density = density
        self.mode = mode
        self.route = route
        self.noise = noise
        self.rng = rng
        self._values = {}  # (coords, j) -> mu_j, for a prefix of j per direction

    @property
    def dim(self):
        return self.polytope.dim

    @property
    def density_degree(self):
        return 0 if self.density is None else self.density.degree

    @property
    def unique_count(self):
        """Number of distinct measurements (z, j) drawn."""
        return len(self._values)

    def _ensure(self, coords, count):
        """The stored values at (coords, j) for j < count, computed as one
        batch first unless (coords, count - 1) is stored. A batch is stored
        whole or, when it raises, not at all."""
        values = self._values
        if (coords, count - 1) not in values:
            if self.mode == EXACT and any(isinstance(x, float) for x in coords):
                raise InputError(f"exact oracle handed the float direction {coords}")
            if self.route == "direct":
                batch = axial_moments_direct(self.polytope, coords, count, self.density)
            else:
                batch = axial_moments_brion_density(
                    self.polytope, coords, count, self.density
                )
            if self.mode == FLOAT:
                _check_finite(batch)
            if not self.noise:
                return tuple([values.setdefault((coords, j), value) for j, value in enumerate(batch)])
            for j, value in enumerate(batch):
                key = (coords, j)
                if key not in values:  # keep the noise drawn the first time
                    values[key] = value * (1.0 + self.rng.uniform(-self.noise, self.noise))
        return tuple([values[coords, j] for j in range(count)])

    def moment(self, z, j: int):
        """mu_j(z); draws, and counts, the prefix mu_0 .. mu_j."""
        _check_index(j)
        return self.sequence(z, j + 1).moments[j]

    def sequence(self, z, count: int) -> MomentSequence:
        coords = _direction_coords(z)
        _check_index(count)
        moments = self._ensure(coords, count)
        return MomentSequence(
            dim=self.dim,
            direction=coords,
            density_degree=self.density_degree,
            mode=self.mode,
            moments=moments,
        )


def _check_index(j):
    if j < 0:
        raise InputError(f"moment index or count must be nonnegative, got {j}")


class SequenceMomentOracle:
    """Oracle over pre-baked moment sequences, one per stated direction;
    counts the longest prefix read along each."""

    def __init__(self, sequences):
        if not sequences:
            raise InputError("no moment sequences supplied")
        first = sequences[0]
        self.sequences = {}
        for ms in sequences:
            for name in ("dim", "mode", "density_degree"):
                if getattr(ms, name) != getattr(first, name):
                    raise InputError(
                        f"moment sequences disagree on {name}: "
                        f"{getattr(first, name)!r} and {getattr(ms, name)!r}"
                    )
            _check_sequence_direction(ms)
            coords = tuple(ms.direction)
            if self.sequences.setdefault(coords, ms).moments != ms.moments:
                raise InputError(f"two moment sequences along direction {coords} disagree")
        self.dim = first.dim
        self.density_degree = first.density_degree
        self.mode = first.mode
        self._read = dict.fromkeys(self.sequences, 0)  # coords -> the longest prefix read

    @property
    def directions(self):
        return list(self.sequences)

    @property
    def unique_count(self):
        return sum(self._read.values())

    def moment(self, z, j: int):
        _check_index(j)
        return self.sequence(z, j + 1).moments[j]

    def sequence(self, z, count: int) -> MomentSequence:
        coords = _direction_coords(z)
        _check_index(count)
        ms = self.sequences.get(coords)
        if ms is None:
            raise InputError(f"no moments supplied for direction {coords}")
        if count > len(ms.moments):
            raise InsufficientMoments(
                f"direction {coords}: need {count} moments, {len(ms.moments)} supplied"
            )
        self._read[coords] = max(self._read[coords], count)
        return replace(ms, moments=ms.moments[:count])
