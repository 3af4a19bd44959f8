"""Command line interface: forward moments, reconstruction, roundtrip
verification, and the univariate-representation route.

Exit codes: 0 success, 2 bad input or a file that cannot be read or
written, 3 non-generic direction (resample),
4 route disagreement, 5 rank instability, 6 matching failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .config import RunConfig
from .errors import (
    AmbiguousMatching,
    DenominatorVanishes,
    FullRankHankel,
    InputError,
    IrrationalRoot,
    MatchingFailure,
    MultiplicityMismatch,
    NonGenericDirection,
    OracleDisagreement,
    RankInstability,
    RankNotDivisible,
)
from .geometry import load_polytope
from .moments import (
    PolytopeMomentOracle,
    add_noise,
    load_moments,
    moment_sequence,
    moments_to_csv,
    moments_to_json,
    save_moments,
)
from .numeric import EXACT, FLOAT, poly_parse, scalar_from_json, scalar_to_json
from .reconstruct import (
    VertexSet,
    match_frugal_d_plus_1,
    reconstruct,
    reconstruct_from_sequences,
    reconstruction_error,
)
from .univar import vertices_univar

EXIT_BAD_INPUT = 2
EXIT_NON_GENERIC = 3
EXIT_DISAGREEMENT = 4
EXIT_RANK = 5
EXIT_MATCHING = 6


def _write_json(doc, path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_direction(text, dim, mode):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise InputError(f"direction {text!r} has {len(parts)} entries, need {dim}")
    coords = tuple(scalar_from_json(p, mode) for p in parts)
    return coords


def _config_from_args(args, mode):
    return RunConfig(mode=mode, denominator=args.denominator, seed=args.seed, noise=args.noise)


def _density_from_args(args, dim):
    return poly_parse(args.density, dim) if args.density else None


def _serialize_beta(b):
    if isinstance(b, (list, tuple)):
        return [scalar_to_json(x) for x in b]
    return scalar_to_json(b)


def _diagnostics(vs: VertexSet):
    prov = vs.provenance
    return {
        "ranks": list(prov.ranks),
        "betas": [_serialize_beta(b) for b in prov.betas],
        "moment_count": prov.moment_count,
        "retries": prov.retries,
        "residual_max": prov.self_check_residual,
    }


def _vertex_doc(vs: VertexSet):
    return {
        "dim": vs.dim,
        "vertices": [[scalar_to_json(x) for x in v] for v in vs.vertices],
    }


def cmd_moments(args):
    mode = args.mode
    p = load_polytope(args.polytope, mode)
    rho = _density_from_args(args, p.dim)
    if mode == FLOAT and rho is not None:
        rho = rho.to_float()
    z = _parse_direction(args.direction, p.dim, mode)
    ms = moment_sequence(p, z, args.count, rho, route=args.oracle)
    if args.noise:
        ms = add_noise(ms, args.noise, Random(args.seed))
    if args.csv:
        moments_to_csv(ms, args.csv)
    if args.out:
        save_moments(ms, args.out)
    else:
        _write_json(moments_to_json(ms), None)
    return 0


def _build_oracle(args, p, mode):
    rho = _density_from_args(args, p.dim)
    rng = Random(args.seed if args.seed is not None else 0)
    return PolytopeMomentOracle(
        p,
        rho,
        mode=mode,
        route=args.route,
        noise=args.noise if mode == FLOAT else 0.0,
        rng=rng,
    )


def cmd_reconstruct(args):
    mode = args.mode
    if args.oracle_polytope:
        oracle = _build_oracle(args, load_polytope(args.oracle_polytope, mode), mode)
        config = _config_from_args(args, mode)
        vs = reconstruct(
            oracle, args.nmax, config, rng=Random(args.seed), self_check=False
        )
    elif args.moments:
        sequences = [load_moments(path) for path in args.moments]
        mode = sequences[0].mode
        config = _config_from_args(args, mode)
        vs = reconstruct_from_sequences(sequences, args.nmax, config)
    else:
        raise InputError("supply --oracle-polytope or --moments files")
    _write_json(_vertex_doc(vs), args.out)
    _write_json(_diagnostics(vs), args.diagnostics)
    return 0


def cmd_roundtrip(args):
    mode = args.mode
    truth = load_polytope(args.polytope, mode)
    oracle = _build_oracle(args, truth, mode)
    config = _config_from_args(args, mode)
    rng = Random(args.seed)
    if args.method == "frugal":
        vs = match_frugal_d_plus_1(oracle, args.nmax, config, rng)
    elif args.method == "univar":
        vs = vertices_univar(oracle, args.nmax, config, rng)
    else:
        vs = reconstruct(oracle, args.nmax, config, rng, self_check=args.self_check)
    err = reconstruction_error(truth, vs)
    exact_match = (
        mode == EXACT
        and tuple(sorted(map(tuple, truth.vertices))) == vs.vertices
    )
    report = {
        "max_error": err,
        "exact_match": exact_match,
        "diagnostics": _diagnostics(vs),
        "vertices": _vertex_doc(vs)["vertices"],
    }
    _write_json(report, args.out)
    if mode == EXACT and not exact_match:
        raise OracleDisagreement("exact roundtrip did not recover the vertex set")
    return 0


def cmd_univar(args):
    mode = args.mode
    oracle = _build_oracle(args, load_polytope(args.oracle_polytope, mode), mode)
    config = _config_from_args(args, mode)
    vs = vertices_univar(oracle, args.nmax, config, Random(args.seed))
    _write_json(_vertex_doc(vs), args.out)
    _write_json(_diagnostics(vs), args.diagnostics)
    return 0


def _add_common(sub):
    cfg = RunConfig()
    sub.add_argument("--mode", choices=[EXACT, FLOAT], default=cfg.mode)
    sub.add_argument("--seed", type=int, default=cfg.seed)
    sub.add_argument(
        "--denominator", type=int, default=cfg.denominator,
        help="prime r for sampled directions z in {0, 1/r, ..., (r-1)/r}^d (exact mode: r z)",
    )
    sub.add_argument("--noise", type=float, default=cfg.noise,
                     help="relative moment noise (float mode only)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polymom",
        description="Moments of convex polytopes and vertex reconstruction "
        "from axial moments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    pm = subs.add_parser("moments", help="forward axial moments of a polytope")
    pm.add_argument("polytope", help="polytope JSON file")
    pm.add_argument("--direction", required=True, help="comma-separated coordinates")
    pm.add_argument("--count", type=int, required=True, help="number of moments")
    pm.add_argument("--density", default=None, help="density expression, e.g. '1 + x1 x2'")
    pm.add_argument(
        "--oracle", choices=["direct", "brion", "both"], default="brion",
        help="evaluation route; 'both' asserts the routes agree",
    )
    pm.add_argument("--out", default=None, help="moment JSON output path")
    pm.add_argument("--csv", default=None, help="optional CSV export path")
    _add_common(pm)
    pm.set_defaults(func=cmd_moments)

    pr = subs.add_parser("reconstruct", help="recover vertices from moments")
    src = pr.add_mutually_exclusive_group(required=True)
    src.add_argument("--oracle-polytope", dest="oracle_polytope", default=None,
                     help="polytope JSON file used as an on-demand moment oracle")
    src.add_argument("--moments", nargs="+", default=None,
                     help="pre-baked moment JSON files (directions stated inside)")
    pr.add_argument("--nmax", type=int, required=True,
                    help="upper bound on the vertex count")
    pr.add_argument("--density", default=None)
    pr.add_argument("--route", choices=["brion", "direct"], default="brion",
                    help="forward route for the oracle polytope")
    pr.add_argument("--out", default=None, help="vertex JSON output path")
    pr.add_argument("--diagnostics", default=None, help="diagnostics JSON path")
    _add_common(pr)
    pr.set_defaults(func=cmd_reconstruct)

    rt = subs.add_parser("roundtrip", help="forward -> inverse -> compare")
    rt.add_argument("polytope")
    rt.add_argument("--nmax", type=int, required=True)
    rt.add_argument("--density", default=None)
    rt.add_argument("--method", choices=["matching", "frugal", "univar"],
                    default="matching")
    rt.add_argument("--route", choices=["brion", "direct"], default="brion")
    rt.add_argument("--self-check", dest="self_check", action="store_true",
                    help="verify the result against a held-out direction drawn at r = 1000003")
    rt.add_argument("--out", default=None)
    _add_common(rt)
    rt.set_defaults(func=cmd_roundtrip)

    pu = subs.add_parser("univar", help="reconstruction via univariate "
                         "representations")
    pu.add_argument("--oracle-polytope", dest="oracle_polytope", required=True)
    pu.add_argument("--nmax", type=int, required=True)
    pu.add_argument("--density", default=None)
    pu.add_argument("--route", choices=["brion", "direct"], default="brion")
    pu.add_argument("--out", default=None)
    pu.add_argument("--diagnostics", default=None)
    _add_common(pu)
    pu.set_defaults(func=cmd_univar)

    return parser


_EXIT_CODES = (
    ((InputError, OSError), EXIT_BAD_INPUT),  # OSError: an unwritable output file
    (DenominatorVanishes, EXIT_NON_GENERIC),
    (OracleDisagreement, EXIT_DISAGREEMENT),
    (
        (RankInstability, FullRankHankel, RankNotDivisible, MultiplicityMismatch,
         IrrationalRoot),
        EXIT_RANK,
    ),
    # after the rank entry, which claims its subclasses
    (NonGenericDirection, EXIT_NON_GENERIC),
    ((AmbiguousMatching, MatchingFailure), EXIT_MATCHING),
)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # map package errors to documented exit codes
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                hint = ""
                if code == EXIT_NON_GENERIC:
                    hint = " (hint: resample the direction)"
                print(f"polymom: {exc}{hint}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
