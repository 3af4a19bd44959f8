"""Full vertex reconstruction from axial moments.

The pipeline recovers projections of the vertex set in d independent
directions, matches projections across directions, and solves a d x d
linear system per vertex. Every variant matches the same way: for mixing
coefficients alpha it accepts the index tuples whose candidate sums
sum_i alpha_i x_i[k_i] are roots of the Prony polynomial of the combined
direction sum_i alpha_i z_i (``match_projections``; on exact data one root
search replaces the per-candidate evaluations; on float data with more than
N candidates the N smallest |p_z| count when the next stands
``FLOAT_SEPARATION`` times above them), and tries the caller's coefficients
in turn until one matching is unambiguous (``choose_beta``).
The main pipeline matches each z_i with z_1 through z_1 + beta z_i; a
frugal variant matches all d at once from d+1 directions, at the price of
enumerating all candidate index tuples.

Moment consumption is audited through the oracle: with no retries the main
pipeline draws exactly (2d-1)(2N+1-d) distinct measurements for uniform
density (the per-direction count scales with the density degree).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from math import comb, lcm
from random import Random

import numpy as np

from . import linalg, prony
from .config import RunConfig
from .errors import (
    AmbiguousMatching,
    DenominatorVanishes,
    FullRankHankel,
    InputError,
    IrrationalRoot,
    MatchingFailure,
    NonGenericDirection,
    OracleDisagreement,
    RankInstability,
)
from .geometry import DEFAULT_DENOMINATOR, Polytope, sample_generic_direction
from .moments import MomentSequence, axial_moments_direct, triangulation_of
from .numeric import EXACT
from .prony import (
    ProjectionSet,
    PronyPolynomial,
    moments_needed,
    projections_from_moments,
    prony_polynomial_from_sequence,
)

# a direction whose Prony solve raises one of these is resampled (a cone pole
# can leave irrational roots even for a rational polytope)
_BAD_DIRECTION = (NonGenericDirection, DenominatorVanishes, IrrationalRoot)

# fresh directions drawn per acquisition, matching retry or self-check
DIRECTION_RETRIES = 30
# float acceptance threshold: the largest |p_z| a matching candidate may show,
# and the least bound of a result's residual (``_Pipeline.residual_bound``)
FLOAT_TOL = 1e-6
# when more than N float candidates pass FLOAT_TOL, the N smallest |p_z| still
# match if the next smallest stands more than this factor above them
FLOAT_SEPARATION = 1e3


@dataclass
class Provenance:
    """Bookkeeping for one reconstruction run."""

    directions: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    ranks: list = field(default_factory=list)
    moment_count: int = 0
    retries: int = 0
    self_check_moments: int = 0
    self_check_residual: float | None = None


@dataclass(frozen=True)
class VertexSet:
    """The reconstructed vertices (sorted lexicographically)."""

    dim: int
    vertices: tuple
    provenance: Provenance = field(compare=False, default_factory=Provenance)


def match_projections(values, alphas, pz: PronyPolynomial):
    """The index tuples (k_1, ..., k_d), in product order, whose candidate
    sums sum_i alpha_i values_i[k_i] are roots of p_z (float projections:
    |p_z| < FLOAT_TOL there; when more than n pass, the n smallest |p_z| if
    the next is more than FLOAT_SEPARATION times larger). Raises
    AmbiguousMatching unless there are exactly n of them and every column is
    a permutation of 0..n-1 (for two directions: the pairing is a
    bijection), and on exact data when p_z has an irrational root."""
    n = len(values[0])
    if any(len(v) != n for v in values):
        raise InputError("projection sets of unequal size")
    hits = _tuple_hits(pz, alphas, values)
    if hits is None:
        raise AmbiguousMatching(
            f"combined polynomial has an irrational root with alphas {alphas}"
        )
    if len(hits) > n and _is_float(values):
        x = [sum(a * v[k] for a, v, k in zip(alphas, values, h)) for h in hits]
        size = np.abs(pz.eval(np.array(x)))
        order = np.argsort(size)
        if FLOAT_SEPARATION * size[order[n - 1]] < size[order[n]]:
            hits = sorted(hits[i] for i in order[:n])
    if len(hits) != n or any(sorted(col) != list(range(n)) for col in zip(*hits)):
        raise AmbiguousMatching(
            f"{len(hits)} candidate tuples are no matching with alphas {alphas}"
        )
    return hits


def _is_float(rows):
    """Float projection data; the pipeline never mixes float and exact values."""
    return any(isinstance(x, float) for row in rows for x in row)


def _tuple_hits(pz: PronyPolynomial, alphas, values, match_tol=FLOAT_TOL):
    """Index tuples (k_1, ..., k_d), in product order, whose candidate
    sum_i alpha_i values_i[k_i] is a root of pz (float projections: |pz| <
    match_tol), or None when pz has an irrational root. Exact data searches
    the roots once: their multiplicities add up to the degree, so a
    candidate is a root exactly when it is a key. The scaled projections
    share one denominator q, so the candidate sums are ints over q, and only
    the roots r whose denominator divides q can be one: the keys are those
    r q. Float data builds every candidate sum by broadcasting and runs
    ``pz.eval`` on them all at once."""
    scaled = [[a * x for x in vals] for a, vals in zip(alphas, values)]
    if _is_float(values):
        d = len(scaled)
        x = sum(np.reshape(row, (-1,) + (1,) * (d - 1 - k)) for k, row in enumerate(scaled))
        with np.errstate(all="ignore"):  # overflow to inf, as on Python floats
            total = np.broadcast_to(pz.eval(x), x.shape)  # degree 0: the scalar 1
        return [tuple(k) for k in np.argwhere(abs(total) < match_tol).tolist()]
    try:
        roots = prony.roots_exact(pz)
    except IrrationalRoot:
        return None
    q = lcm(*(x.denominator for row in scaled for x in row))
    rows = [[x.numerator * (q // x.denominator) for x in row] for row in scaled]
    hit = {r.numerator * (q // r.denominator) for r in roots
           if q % r.denominator == 0}.__contains__
    return [
        combo for combo in itertools.product(*(range(len(v)) for v in values))
        if hit(sum(row[k] for row, k in zip(rows, combo)))
    ]


def _alpha_sequence(dim, mode, rng):
    """Mixing coefficients (1, q, q^2, ...): q = 1, 2, 3, ... in exact mode,
    random rationals in float mode."""
    if mode == EXACT:
        q = 0
        while True:
            q += 1
            yield tuple(q**k for k in range(dim))
    else:
        while True:
            yield tuple(
                1.0 if k == 0 else rng.randint(1, 499) / rng.randint(1, 31)
                for k in range(dim)
            )


def choose_beta(values, poly_for, coefficients, max_trials):
    """The first mixing coefficients from ``coefficients``, at most
    ``max_trials`` of them, whose combined polynomial ``poly_for(alphas)``
    matches the projection sets ``values`` unambiguously. Combined
    directions that fail rank detection count as failed trials. Returns
    (alphas, matched tuples, failed trials); an exhausted budget raises
    MatchingFailure naming the last trial's error."""
    trials = 0
    last_error = None
    # an endless sequence draws one coefficient past the budget before it stops
    for alphas in coefficients:
        if trials >= max_trials:
            break
        trials += 1
        try:
            return alphas, match_projections(values, alphas, poly_for(alphas)), trials - 1
        except (NonGenericDirection, DenominatorVanishes, AmbiguousMatching) as exc:
            last_error = exc
    raise MatchingFailure(
        f"no unambiguous matching in {trials} trials"
        + (f"; last error: {last_error}" if last_error else "")
    )


def assemble_vertices(direction_rows, matched_tuples):
    """Solve Z v = (x(z_1), ..., x(z_d)) for each matched projection tuple."""
    if not _is_float(matched_tuples):
        return [
            tuple(linalg.solve_exact([list(r) for r in direction_rows], list(t)))
            for t in matched_tuples
        ]
    z = np.array(direction_rows, dtype=float)
    if abs(np.linalg.det(z)) < 1e-12 * max(1.0, np.max(np.abs(z)) ** len(z)):
        raise InputError("singular direction matrix")
    return [tuple(float(x) for x in np.linalg.solve(z, np.array(t, dtype=float)))
            for t in matched_tuples]


def _independent(rows, mode):
    if mode == EXACT:
        return linalg.rank_exact([list(r) for r in rows]) == len(rows)
    # float assembly solves against this matrix, so demand good conditioning
    a = np.array(rows, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    return s.size and s[-1] > 1e-1 * s[0]


class _Pipeline:
    """Shared state for one reconstruction run against one oracle."""

    def __init__(self, oracle, nmax, config: RunConfig | None, rng):
        self.oracle = oracle
        self.nmax = nmax
        self.config = (config or RunConfig(mode=oracle.mode)).validate(nmax)
        if self.config.mode != oracle.mode:
            raise InputError(
                f"config mode {self.config.mode} != oracle mode {oracle.mode}"
            )
        self.rng = rng if rng is not None else Random(self.config.seed)
        self.prov = Provenance()
        # the factor sample_direction scales its draws by
        self.unit = self.config.denominator if self.config.mode == EXACT else 1
        # the largest relative residual a float result's checks accept: good
        # reconstructions sit many orders below bad ones, the bound splits the gap
        self.residual_bound = max(FLOAT_TOL, 1e3 * self.config.noise)

    def sample_direction(self, r=None):
        """A draw z of ``sample_generic_direction`` at the prime r, the run's
        denominator by default; exact mode returns its integer numerators
        r z: projections and Prony roots times r."""
        r = r or self.config.denominator
        z = sample_generic_direction(self.oracle.dim, r, self.rng, self.config.mode).coords
        return tuple(int(x * r) for x in z) if self.config.mode == EXACT else z

    def sequence_at(self, coords, n) -> MomentSequence:
        """The moments along coords that one Prony solve for n vertices consumes."""
        oracle = self.oracle
        need = moments_needed(oracle.dim, n, oracle.density_degree, oracle.mode)
        return oracle.sequence(coords, need)

    def projections_at(self, coords, n) -> ProjectionSet:
        return projections_from_moments(self.sequence_at(coords, n), n, self.config.noise)

    def poly_at(self, coords, n) -> PronyPolynomial:
        """Kernel polynomial of a combined direction, on which all n
        vertices must show; any other rank raises RankInstability."""
        return prony_polynomial_from_sequence(
            self.sequence_at(coords, n), n, _rank=(self.oracle.density_degree + 1) * n
        )

    def acquire(self, existing=(), n=None):
        """A fresh direction, linearly independent of ``existing``, and its
        projections. With ``n`` None the direction is probed at nmax; exact
        Hankel rank is at most (D+1)N along every direction (collisions only
        lower it), so in exact mode a full rank means nmax < N and is raised;
        so is a linear complexity past the Hankel size (RankInstability).

        With ``n`` set the Prony solve must report n vertices. A full-rank
        Hankel at size n means an earlier direction undercounted (silent
        projection collision); the same direction is re-probed at nmax and,
        if it reveals more vertices, returned so the caller can restart
        from it.
        """
        last_error = None
        for _ in range(DIRECTION_RETRIES):
            coords = self.sample_direction()
            if existing and not _independent([*existing, coords], self.config.mode):
                self.prov.retries += 1
                continue
            try:
                proj = self.projections_at(coords, self.nmax if n is None else n)
            except _BAD_DIRECTION as exc:
                full = isinstance(exc, FullRankHankel)
                if n is None and self.config.mode == EXACT:
                    if full:
                        raise
                    if isinstance(exc, RankInstability):
                        raise RankInstability(
                            f"nmax={self.nmax} is below the vertex count: {exc}"
                        ) from exc
                last_error = exc
                self.prov.retries += 1
                if full and n is not None and n < self.nmax:
                    try:
                        proj = self.projections_at(coords, self.nmax)
                    except _BAD_DIRECTION:
                        continue
                    if proj.n > n:
                        return coords, proj
                continue
            if n is not None and proj.n != n:
                self.prov.retries += 1
                continue
            return coords, proj
        raise RankInstability(
            f"no usable {'first ' if n is None else ''}direction after "
            f"{DIRECTION_RETRIES} retries; last error: {last_error}"
        )

    def acquire_base(self):
        """d independent directions whose Prony solves agree on the vertex
        count, as (coords, projections) pairs. A direction that reveals
        more vertices than the earlier ones shows they undercounted, and
        the base restarts from it."""
        base = [self.acquire()]
        n = base[0][1].n
        while len(base) < self.oracle.dim:
            coords, proj = self.acquire([b[0] for b in base], n)
            if proj.n > n:
                base = [(coords, proj)]
                n = proj.n
                self.prov.retries += 1
                continue
            base.append((coords, proj))
        self.prov.directions = [b[0] for b in base]
        self.prov.ranks = [b[1].rank for b in base]
        return base

    def match(self, values, poly_for):
        """``choose_beta`` on this run's settings, as (alphas, matched
        tuples). Failed trials count as retries, and an exhausted budget
        as all of its trials."""
        cfg = self.config
        max_trials = cfg.beta_trials or len(values[0]) ** 3 + 1
        coefficients = _alpha_sequence(len(values), cfg.mode, self.rng)
        try:
            alphas, hits, failures = choose_beta(values, poly_for, coefficients, max_trials)
        except MatchingFailure:
            self.prov.retries += max_trials
            raise
        self.prov.retries += failures
        return alphas, hits

    def assemble(self, rows, values, combos):
        """One vertex per index tuple: entry i of a tuple picks the vertex's
        projection onto rows[i] from values[i]."""
        tuples = [tuple(v[k] for v, k in zip(values, combo)) for combo in combos]
        return assemble_vertices(rows, tuples)

    def finish(self, vertices) -> VertexSet:
        """The sorted result; its moment count covers every measurement
        drawn so far."""
        if len(set(map(tuple, vertices))) != len(vertices):
            raise RankInstability("reconstructed vertices are not distinct")
        self.prov.moment_count = self.oracle.unique_count
        return VertexSet(
            dim=self.oracle.dim,
            vertices=tuple(sorted(tuple(v) for v in vertices)),
            provenance=self.prov,
        )


def _inferred_polytope(dim, vertices) -> Polytope | None:
    p = Polytope(dim=dim, vertices=tuple(vertices))
    try:
        triangulation_of(p)
    except InputError:
        return None
    return p


def _projection_residual(pipeline: _Pipeline, vertices, coords):
    """Triangulation-free consistency check on a held-out direction.

    Recovers the direction's projections from fresh moments through the
    normal Hankel solve at the result's size and compares them with the
    projections predicted from the reconstructed vertices. Returns a
    relative residual, or None when the direction is unusable: the
    predicted projections collide or a cone denominator vanishes. In exact
    mode every other failure of the solve, and any projections other than
    the predicted ones, count included, reject with residual 1; float mode
    skips a direction whose solve fails or miscounts."""
    n = len(vertices)
    exact = pipeline.config.mode == EXACT
    predicted = sorted(
        sum(a * b for a, b in zip(v, coords)) for v in vertices
    )
    collide = len(set(predicted)) != n
    if exact and collide:
        return None
    try:
        ps = pipeline.projections_at(coords, n)
    except DenominatorVanishes:
        return None
    except _BAD_DIRECTION:
        return 1.0 if exact else None
    if exact:
        return 0.0 if list(ps.values) == predicted else 1.0
    if ps.n != n or collide:
        return None
    spread = 1.0 + float(predicted[-1]) - float(predicted[0])
    return max(
        abs(float(a) - float(b)) for a, b in zip(predicted, ps.values)
    ) / spread


def _self_check(pipeline: _Pipeline, vertices):
    """Verify the reconstruction against the oracle on one held-out
    direction, drawn at ``DEFAULT_DENOMINATOR`` whatever the run's own
    denominator: forward integration when a triangulation of the result is
    available, the Hankel annihilation property otherwise."""
    oracle = pipeline.oracle
    prov = pipeline.prov
    recon = _inferred_polytope(oracle.dim, vertices)
    count = 2 * len(vertices) + 1 - oracle.dim
    before = oracle.unique_count
    tol = pipeline.residual_bound
    for _ in range(DIRECTION_RETRIES):
        coords = pipeline.sample_direction(DEFAULT_DENOMINATOR)
        if recon is None:
            residual = _projection_residual(pipeline, vertices, coords)
            if residual is None:
                continue
        else:
            try:
                ours = axial_moments_direct(
                    recon, coords, count, getattr(oracle, "density", None)
                )
            except (DenominatorVanishes, InputError):
                continue
            theirs = oracle.sequence(coords, count).moments
            if pipeline.config.mode == EXACT:
                residual = 0.0 if list(ours) == list(theirs) else 1.0
            else:
                residual = max(
                    abs(float(a) - float(b)) / max(1.0, abs(float(b)))
                    for a, b in zip(ours, theirs)
                )
        # exact residuals are 0 or 1, and exact mode has no noise: tol < 1
        prov.self_check_residual = residual
        if residual > tol:
            raise OracleDisagreement(
                f"self-check residual {residual:.3e} above {tol:.1e}: "
                "the reconstruction is inconsistent with the moments"
            )
        break
    else:
        warnings.warn(
            "self-check inconclusive: no usable held-out direction",
            stacklevel=2,
        )
    prov.self_check_moments = oracle.unique_count - before


def reconstruct(
    oracle,
    nmax: int,
    config: RunConfig | None = None,
    rng=None,
    self_check: bool = False,
) -> VertexSet:
    """Recover the full vertex set from the moment oracle.

    Uses d base directions plus d-1 combined directions (2d-1 in total).
    ``nmax`` is an upper bound on the vertex count; the actual N is read off
    the Hankel rank of the first direction.
    """
    pipe = _Pipeline(oracle, nmax, config, rng)
    d = oracle.dim
    prov = pipe.prov

    base = pipe.acquire_base()
    z1, proj1 = base[0]
    n = proj1.n
    x1 = proj1.values

    rows, values, pairings = [z1], [x1], []
    for i in range(1, d):
        zi, proj_i = base[i]
        for _ in range(DIRECTION_RETRIES):
            def poly_for(alphas, _zi=zi):
                return pipe.poly_at(tuple(a + alphas[1] * b for a, b in zip(z1, _zi)), n)

            try:
                alphas, hits = pipe.match([x1, proj_i.values], poly_for)
                break
            except MatchingFailure:
                # independent of the later base directions too, which assembly uses
                zi, proj_i = pipe.acquire([*rows, *(b[0] for b in base[i + 1:])], n)
                if proj_i.n != n:
                    raise RankInstability(
                        f"a replacement direction shows {proj_i.n} vertices, not {n}")
        else:
            raise MatchingFailure(f"matching failed for direction {i} after retries")
        rows.append(zi)
        values.append(proj_i.values)
        prov.betas.append(alphas[1])
        pairings.append([k for _, k in hits])

    # a matching retry may have replaced a base direction
    prov.directions = rows
    verts = pipe.assemble(rows, values, zip(range(n), *pairings))
    result = pipe.finish(verts)
    if self_check:
        _self_check(pipe, verts)
    return result


FRUGAL_GUARD = 10**6


def match_frugal_d_plus_1(
    oracle,
    nmax: int,
    config: RunConfig | None = None,
    rng=None,
) -> VertexSet:
    """Reconstruction from only d+1 directions in general position.

    All N^d candidate index tuples are tested against the Prony polynomial
    of a single combined direction sum_j alpha_j z_j; with generic alphas
    exactly the true vertex tuples survive.
    """
    pipe = _Pipeline(oracle, nmax, config, rng)
    d = oracle.dim
    prov = pipe.prov

    base = pipe.acquire_base()
    n = base[0][1].n
    if comb(n, d) > FRUGAL_GUARD or n**d > 4 * FRUGAL_GUARD:
        raise InputError(
            f"candidate tuple count C({n},{d}) exceeds the guard {FRUGAL_GUARD}"
        )

    values = [b[1].values for b in base]

    def poly_for(alphas):
        return pipe.poly_at(tuple(
            sum(a * z[t] for a, z in zip(alphas, prov.directions)) for t in range(d)
        ), n)

    alphas, hits = pipe.match(values, poly_for)
    prov.betas = [list(alphas)]
    return pipe.finish(pipe.assemble(prov.directions, values, hits))


def _derive_beta(z, z1, zi, mode):
    """beta with z = z1 + beta * zi, or None."""
    t = next((t for t, c in enumerate(zi) if c != 0), None)
    if t is None:
        return None
    beta = (z[t] - z1[t]) / zi[t]
    for a, b, c in zip(z, z1, zi):
        lhs, rhs = a, b + beta * c
        if mode == EXACT:
            if lhs != rhs:
                return None
        elif abs(float(lhs) - float(rhs)) > 1e-9 * max(1.0, abs(float(lhs))):
            return None
    return beta


def reconstruct_from_sequences(
    sequences, nmax: int, config: RunConfig | None = None
) -> VertexSet:
    """Reconstruction from pre-baked per-direction moment sequences.

    The first d linearly independent stated directions become the base;
    every remaining sequence must be a combined direction z_1 + beta z_i
    for some base index i, from which the matching proceeds exactly as in
    the adaptive pipeline.
    """
    from .moments import SequenceMomentOracle

    pipe = _Pipeline(SequenceMomentOracle(sequences), nmax, config, None)
    oracle = pipe.oracle
    d = oracle.dim
    mode = pipe.config.mode
    prov = pipe.prov

    base = []
    combined = []
    for coords in oracle.directions:
        if len(base) < d and _independent(base + [coords], mode):
            base.append(coords)
        else:
            combined.append(coords)
    if len(base) < d:
        raise InputError(
            f"moment files supply only {len(base)} independent directions, need {d}"
        )

    projs = [pipe.projections_at(coords, nmax) for coords in base]
    counts = {p.n for p in projs}
    if len(counts) != 1:
        raise RankInstability(
            f"directions disagree on the vertex count: {sorted(counts)}"
        )
    n = counts.pop()
    prov.directions = list(base)
    prov.ranks = [p.rank for p in projs]
    x1 = projs[0].values

    pairings = []
    for i in range(1, d):
        # the (1, beta) of each supplied z_1 + beta z_i, to its stated coordinates
        stated = {}
        for coords in combined:
            beta = _derive_beta(coords, base[0], base[i], mode)
            if beta is not None:
                stated.setdefault((1, beta), coords)
        if not stated:
            raise MatchingFailure(f"no supplied combined direction matches base direction {i}")
        alphas, hits, failures = choose_beta(
            [x1, projs[i].values], lambda a: pipe.poly_at(stated[a], n),
            stated, len(stated),
        )
        prov.retries += failures
        prov.betas.append(alphas[1])
        pairings.append([k for _, k in hits])

    return pipe.finish(pipe.assemble(
        base, [p.values for p in projs], zip(range(n), *pairings)
    ))


def reconstruction_error(truth: Polytope, result: VertexSet):
    """Max per-coordinate deviation under the nearest-vertex bijection.

    Exact recovery reports 0; a vertex-count mismatch or a non-bijective
    nearest-neighbor assignment reports infinity.
    """
    a = [tuple(float(x) for x in v) for v in truth.vertices]
    b = [tuple(float(x) for x in v) for v in result.vertices]
    if len(a) != len(b):
        return float("inf")
    used = set()
    worst = 0.0
    for vb in b:
        dists = [max(abs(xa - xb) for xa, xb in zip(va, vb)) for va in a]
        best = min(range(len(a)), key=lambda i: dists[i])
        if best in used:
            return float("inf")
        used.add(best)
        worst = max(worst, dists[best])
    return worst
