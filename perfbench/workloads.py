"""The three workloads, each a cycle of ops rebuilt from its seed.

``build_cycle(workload, seed, c)`` draws cycle ``c``'s instances from
``Random(f"{workload}:{seed}:{c}")`` (float-noisy from one fixed draw, see
``float_noisy``); the same arguments always give the same ops, and every op
seeds its own direction and noise generators, so running a cycle twice
gives identical results. A run repeats cycles 0, 1, 2, ... in a closed loop.

Building a cycle (instance generation, and the pre-generated moment
sequences of ``reconstruct_from_sequences``) is set-up work; only
``Op.run`` is timed.
"""

from __future__ import annotations

from random import Random

from polymom import (
    PolytopeMomentOracle,
    RunConfig,
    match_frugal_d_plus_1,
    moment_sequence,
    reconstruct,
    reconstruct_from_sequences,
    sample_generic_direction,
    vertices_univar,
)
from polymom.prony import moments_needed

import check
import shapes
from check import Op

# The float cube's outcome swings with the pipeline's direction draw: of
# draws 0..9, two solve (draw 1 after a 2 s storm, draw 7 at once), three
# end in MatchingFailure after 7-12 s and five in RankInstability within
# 0.03 s. A run holds too few cube ops to average that out, so every cycle
# runs the cube with two fixed draws: Random(1) succeeds after 2,586 retries
# and 82,586 measurements against a budget of 70, and Random(2) raises
# RankInstability. The MatchingFailure draws are left out for their cost
# alone: one would take longer than the rest of the cycle together.
FLOAT_CUBE_DRAWS = (1, 2)

NOISE_LEVELS = (0.0, 1e-9)

# (density degree, vertex count) of the forward-routes polygons
FORWARD_POLYGONS = ((0, 8), (1, 6), (2, 4))


def _seed(rng):
    return rng.randrange(2**32)


def _oracle_op(kind, label, truth, solve, mode="exact", rho=None,
               route="brion", noise=0.0, noise_seed=0):
    """An op that builds a fresh oracle over ``truth`` and hands it to
    ``solve``; its moment count is the oracle's distinct measurements."""
    held = []

    def run():
        oracle = PolytopeMomentOracle(truth, rho, mode=mode, route=route,
                                      noise=noise, rng=Random(noise_seed))
        held[:] = [oracle]
        return solve(oracle)

    return Op(kind, label, run, check.vertex_check(truth.vertices, mode),
              lambda _result: held[0].unique_count, mode == "exact")


def _config(mode, seed, noise=0.0):
    return RunConfig(mode=mode, seed=seed, noise=noise)


def _reconstruct(nmax, seed, mode="exact", noise=0.0):
    return lambda oracle: reconstruct(oracle, nmax, _config(mode, seed, noise), Random(seed))


def _frugal(nmax, seed):
    return lambda oracle: match_frugal_d_plus_1(oracle, nmax, _config("exact", seed), Random(seed))


def _univar(nmax, seed):
    return lambda oracle: vertices_univar(oracle, nmax, _config("exact", seed), Random(seed))


def _sequences_op(label, truth, rng):
    """reconstruct_from_sequences on pre-generated exact sequences: the d
    base directions, then z_1 + beta z_i for beta = 1..3."""
    d, n = truth.dim, truth.n_vertices
    base = [sample_generic_direction(d, rng=rng).coords for _ in range(d)]
    combined = [tuple(a + beta * b for a, b in zip(base[0], zi))
                for zi in base[1:] for beta in (1, 2, 3)]
    count = moments_needed(d, n, 0)
    sequences = [moment_sequence(truth, z, count) for z in base + combined]
    supplied = count * len(sequences)

    def moments(result):
        return supplied if result is None else result.provenance.moment_count

    return Op("sequences", label, lambda: reconstruct_from_sequences(sequences, n),
              check.vertex_check(truth.vertices, "exact"), moments, True,
              draws_directions=False)


def _forward_op(label, truth, degree, rng, rho=None):
    """One exact sequence by both forward routes; the count is what one
    Hankel solve at nmax = N consumes. Without ``rho`` a density of the
    given degree is drawn."""
    if rho is None and degree:
        rho = shapes.density(rng, truth, degree)
    z = sample_generic_direction(truth.dim, rng=rng).coords
    count = moments_needed(truth.dim, truth.n_vertices, degree)

    def run():
        return (moment_sequence(truth, z, count, rho, route="brion"),
                moment_sequence(truth, z, count, rho, route="direct"))

    return Op("forward", f"{label} deg{degree}", run, check.forward_check(count),
              lambda _result: count, True)


def exact_ladder(rng):
    ops = []
    for n in (8, 12, 16, 20):
        ops.append(_oracle_op("reconstruct", f"ngon({n})", shapes.ngon(n),
                              _reconstruct(n, _seed(rng))))
    targets = [("ngon(8)", shapes.ngon(8), "brion"),
               ("ngon(12)", shapes.ngon(12), "brion"),
               ("cube", shapes.unit_cube(), "brion"),
               ("pyramid", shapes.square_pyramid(), "direct")]
    for k in range(2):
        targets.append((f"box{k}", shapes.parallelepiped(rng), "brion"))
        targets.append((f"prism{k}", shapes.prism(rng), "brion"))
    for label, truth, route in targets:
        n = truth.n_vertices
        ops.append(_oracle_op("frugal", label, truth, _frugal(n, _seed(rng)), route=route))
        ops.append(_oracle_op("univar", label, truth, _univar(n, _seed(rng)), route=route))
    for k in range(12):
        truth = shapes.rational_polygon(rng, vertices=5)
        rho = shapes.density(rng, truth, 1)
        ops.append(_oracle_op("reconstruct", f"polygon{k} deg1", truth,
                              _reconstruct(truth.n_vertices, _seed(rng)), rho=rho))
    for k in range(4):
        ops.append(_sequences_op(f"polygon{k}", shapes.rational_polygon(rng), rng))
    for k in range(2):
        ops.append(_sequences_op(f"prism{k}", shapes.prism(rng), rng))
    return ops


def forward_routes(rng):
    ops = []
    # the direct route's cost climbs steeply with vertex count and density
    # degree, so each degree gets a fixed vertex count
    for degree, n in FORWARD_POLYGONS:
        for k in range(3):
            ops.append(_forward_op(f"polygon{k}", shapes.rational_polygon(rng, vertices=n),
                                   degree, rng))
        ops.append(_forward_op("ngon(12)", shapes.ngon(12), degree, rng,
                               shapes.NGON_DENSITIES[degree]))
    for degree, count in ((0, 5), (1, 5)):
        for k in range(count):
            ops.append(_forward_op(f"tetrahedron{k}", shapes.tetrahedron(rng), degree, rng))
    for k in range(2):
        ops.append(_forward_op(f"prism{k}", shapes.prism(rng), 0, rng))
        ops.append(_forward_op(f"box{k}", shapes.parallelepiped(rng), 0, rng))
    return ops


def float_noisy(rng):
    """Float-mode reconstruction. Unlike the exact workloads, its cost is
    heavy-tailed: about one seeded polygon in twenty ends in a retry storm of
    1-2 s and 40k-110k measurements, so a run's totals swing with how many
    storms its seeds happen to draw. ``build_cycle`` therefore builds this
    workload from one fixed draw, the same in every cycle and every run."""
    ops = []
    for noise in NOISE_LEVELS:
        for k in range(12):
            truth = shapes.rational_polygon(rng)
            ops.append(_oracle_op(
                "reconstruct", f"polygon{k} noise{noise:g}", truth,
                _reconstruct(truth.n_vertices, _seed(rng), "float", noise),
                mode="float", noise=noise, noise_seed=_seed(rng)))
    for n in (8, 10, 12):
        ops.append(_oracle_op("reconstruct", f"ngon({n})", shapes.ngon(n),
                              _reconstruct(n, _seed(rng), "float"), mode="float"))
    for draw in FLOAT_CUBE_DRAWS:
        ops.append(_oracle_op("reconstruct", f"cube draw{draw}", shapes.unit_cube(),
                              _reconstruct(8, draw, "float"), mode="float"))
    for degree in (1, 2):
        for k in range(3):
            truth = shapes.rational_polygon(rng, vertices=5)
            rho = shapes.density(rng, truth, degree)
            ops.append(_oracle_op("reconstruct", f"polygon{k} deg{degree}", truth,
                                  _reconstruct(truth.n_vertices, _seed(rng), "float"),
                                  mode="float", rho=rho))
    return ops


WORKLOADS = {
    "exact-ladder": exact_ladder,
    "forward-routes": forward_routes,
    "float-noisy": float_noisy,
}

# workloads built from this fixed draw whatever the seed and cycle
FIXED_DRAW = {"float-noisy": "float-noisy"}


def build_cycle(workload: str, seed: int, cycle: int):
    draw = FIXED_DRAW.get(workload, f"{workload}:{seed}:{cycle}")
    return WORKLOADS[workload](Random(draw))
