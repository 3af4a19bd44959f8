"""Command line surface: flows, formats, exit codes, determinism."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polymom
from conftest import square_pyramid, unit_cube, unit_square, unit_triangle
from polymom import cli, prony
from polymom.cli import main
from polymom.config import RunConfig
from polymom.errors import NonGenericDirection
from polymom.geometry import Polytope, polytope_to_json, save_polytope
from polymom.reconstruct import VertexSet
from polymom.univar import interpolate_fab, vertices_univar

F = Fraction


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    save_polytope(unit_triangle(), path)
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    save_polytope(unit_square(), path)
    return str(path)


TRIANGLE_DOC = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}
MOMENT_DOC = {"dim": 2, "direction": ["1", "2"], "mode": "exact",
              "moments": ["1/2", "1/2", "7/12", "3/4", "31/30", "3/2"]}
MOMENTS_ARGS = ["--direction", "1,2", "--count", "4"]
TRIANGLE_CONES = [{"vertex": 0, "edges": [[1, 0], [0, 1]]},
                  {"vertex": 1, "edges": [[-1, 0], [-1, 1]]},
                  {"vertex": 2, "edges": [[0, -1], [1, -1]]}]


@pytest.mark.parametrize("command, doc", [
    ("moments", {**TRIANGLE_DOC, "vertices": [[0, 0], [1, 0], [0]]}),
    ("moments", {**TRIANGLE_DOC, "cones": [{"vertex": 0}]}),
    ("moments", {**TRIANGLE_DOC, "cones": [{"vertex": 0, "edges": [[1, 0]]}]}),
    ("moments", {**TRIANGLE_DOC, "dim": "two"}),
    ("moments", {**TRIANGLE_DOC, "simplices": [[0, 1, "x"]]}),
    ("moments", {**TRIANGLE_DOC, "simplices": [[0, 1, 3]]}),
    ("moments", {**TRIANGLE_DOC, "cones": [{**TRIANGLE_CONES[0], "vertex": 3},
                                           *TRIANGLE_CONES[1:]]}),
    # without validation this one printed mu_0 = -1/2 and exited 0
    ("moments", {**TRIANGLE_DOC, "cones": TRIANGLE_CONES[:2]}),
    ("reconstruct", {**MOMENT_DOC, "density_degree": "x"}),
    ("reconstruct", [MOMENT_DOC]),
], ids=["vertex-length", "cone-without-edges", "cone-edge-count", "dim-not-int",
        "simplex-index-not-int", "simplex-index-out-of-range",
        "cone-vertex-out-of-range", "cone-missing", "density-degree-not-int",
        "not-an-object"])
def test_malformed_document_exit_2(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "moments":
        code = main(["moments", str(path), *MOMENTS_ARGS])
    else:
        code = main(["reconstruct", "--moments", str(path), "--nmax", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("polymom:") and "Traceback" not in err


# the segment [0, 1]: mu_j = 1/(j+1)
SEGMENT_MOMENT_DOC = {"dim": 1, "direction": ["1"], "mode": "exact",
                      "moments": ["1", "1/2", "1/3", "1/4", "1/5"]}


@pytest.mark.parametrize("command, doc", [
    ("moments", {**TRIANGLE_DOC, "dim": 2.7}),
    ("moments", {**TRIANGLE_DOC, "simplices": [[0, 1, 2.9]]}),
    ("moments", {**TRIANGLE_DOC, "cones": [{**TRIANGLE_CONES[0], "vertex": 0.5},
                                           *TRIANGLE_CONES[1:]]}),
    ("reconstruct", {**SEGMENT_MOMENT_DOC, "dim": 1.5}),
    ("reconstruct", {**SEGMENT_MOMENT_DOC, "density_degree": 0.5}),
], ids=["dim", "simplex-index", "cone-vertex", "moment-dim", "density-degree"])
def test_non_integral_index_exit_2(tmp_path, capsys, command, doc):
    # int() would truncate each of these to a valid document that succeeds
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "moments":
        code = main(["moments", str(path), *MOMENTS_ARGS])
    else:
        code = main(["reconstruct", "--moments", str(path), "--nmax", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("polymom:") and "must be an integer" in err


# the unit 3-simplex along (1, 2, 3)
SIMPLEX_3D_DOC = {"dim": 3, "direction": ["1", "2", "3"], "mode": "exact",
                  "moments": ["1/6", "1/4", "5/12", "3/4", "43/30", "23/8"]}


@pytest.mark.parametrize("docs, needle", [
    ([MOMENT_DOC, {**MOMENT_DOC, "direction": ["2", "1"], "mode": "float"}],
     "disagree on mode"),
    ([SIMPLEX_3D_DOC, MOMENT_DOC], "disagree on dim"),
    ([MOMENT_DOC, SIMPLEX_3D_DOC], "disagree on dim"),
    ([MOMENT_DOC, {**MOMENT_DOC, "direction": ["2", "1"], "density_degree": 1}],
     "disagree on density_degree"),
    ([MOMENT_DOC, {**MOMENT_DOC, "direction": ["2", "1", "3"]}], "3 coordinates"),
    ([MOMENT_DOC, {**MOMENT_DOC, "moments": ["1", *MOMENT_DOC["moments"][1:]]}],
     "two moment sequences along direction"),
], ids=["exact-then-float", "3d-then-2d", "2d-then-3d", "density-degree",
        "direction-length", "repeated-direction"])
def test_mismatched_moment_files_exit_2(tmp_path, capsys, docs, needle):
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    code = main(["reconstruct", "--moments", *paths, "--nmax", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("polymom:") and needle in err


def test_negative_density_degree_exit_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**MOMENT_DOC, "density_degree": -1}))
    code = main(["reconstruct", "--moments", str(path), "--nmax", "3"])
    assert code == 2
    assert "density_degree" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("reconstruct", ["--noise", "nan"]),
    ("reconstruct", ["--noise", "inf"]),
    ("moments", ["--noise", "nan"]),
    ("moments", ["--noise=-1e-9"]),
], ids=["noise-nan", "noise-inf", "moments-noise-nan", "moments-noise-negative"])
def test_meaningless_float_setting_exit_2(square_file, capsys, command, flags):
    if command == "moments":
        args = ["moments", square_file, *MOMENTS_ARGS]
    else:
        args = ["reconstruct", "--oracle-polytope", square_file, "--nmax", "4",
                "--seed", "5"]
    code = main([*args, "--mode", "float", *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_option_surface():
    # every RunConfig field is a flag of every subcommand, with the field's
    # default; the float thresholds and the float Hankel size are
    # constants, and the separation width follows the noise level
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert fields == ["mode", "denominator", "seed", "noise"]
    for fn, names in (
        (prony.prony_polynomial_from_sequence, ["ms", "nmax", "_rank"]),
        (prony.projections_from_moments, ["ms", "nmax", "noise"]),
        (prony.hankel_size, ["nmax", "density_degree", "mode"]),
        (prony.moments_needed, ["dim", "nmax", "density_degree", "mode"]),
        (prony.minimal_kernel_vector, ["h"]),
        (prony.roots_float, ["p"]),
        (vertices_univar, ["oracle", "nmax", "config", "rng", "base_direction"]),
        (interpolate_fab, ["oracle", "a", "b", "n", "pipeline", "config", "known_pa"]),
    ):
        assert list(inspect.signature(fn).parameters) == names, fn.__name__
    defaults = RunConfig()
    parser = cli.build_parser()
    for argv in (["moments", "p.json", *MOMENTS_ARGS],
                 ["reconstruct", "--moments", "m.json", "--nmax", "3"],
                 ["roundtrip", "p.json", "--nmax", "3"],
                 ["univar", "--oracle-polytope", "p.json", "--nmax", "3"]):
        args = parser.parse_args(argv)
        flagged = [name for name in fields if hasattr(args, name)]
        assert flagged == fields
        assert all(getattr(args, name) == getattr(defaults, name) for name in flagged)


@pytest.mark.parametrize("flag", ["--real-tol", "--cluster-tol", "--match-tol", "--rank-tol"])
def test_removed_tolerance_flag_exit_2(square_file, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--oracle-polytope", square_file, "--nmax", "4",
              "--mode", "float", flag, "1e-7"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["univar", "--oracle-polytope", "{p}", "--nmax", "4"],
    ["roundtrip", "{p}", "--nmax", "4", "--method", "univar"],
], ids=["univar", "roundtrip"])
def test_float_univar_exit_2(square_file, capsys, argv):
    # the univariate route is exact only; float data goes through reconstruct
    code = main([a.format(p=square_file) for a in argv] + ["--mode", "float"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exact data" in captured.err and "Traceback" not in captured.err


def test_denominator_beyond_the_primality_bound_exit_2(square_file, capsys):
    code = main(["reconstruct", "--oracle-polytope", square_file, "--nmax", "4",
                 "--denominator", "3317044064679887385962123"])
    assert code == 2
    assert "too large" in capsys.readouterr().err


# JSON readers turn 1e400 into inf and accept NaN
@pytest.mark.parametrize("kind, text", [
    ("direction", "1e400,1"),
    ("polytope", '{"dim": 2, "vertices": [[0, 0], [1e400, 0], [0, 1]]}'),
    ("polytope", '{"dim": 2, "vertices": [[0, 0], [1, 0], [0, NaN]]}'),
    ("moments", '{"dim": 2, "direction": ["1", "2"], "mode": "float", '
                '"moments": [0.5, 0.5, 1e400, 0.75, 1.0]}'),
    ("moments", '{"dim": 2, "direction": ["1", "2"], "mode": "float", '
                '"moments": [0.5, 0.5, "1e400", 0.75, 1.0]}'),
    ("moments", '{"dim": 2, "direction": [NaN, 2], "mode": "float", '
                '"moments": [0.5, 0.5, 0.5, 0.75, 1.0]}'),
], ids=["direction-overflow", "vertex-overflow", "vertex-nan", "moment-overflow",
        "moment-string-overflow", "moment-direction-nan"])
def test_non_finite_float_input_exit_2(square_file, tmp_path, capsys, kind, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    if kind == "direction":
        args = ["moments", square_file, "--direction", text, "--count", "3"]
    elif kind == "polytope":
        args = ["moments", str(path), *MOMENTS_ARGS]
    else:
        args = ["reconstruct", "--moments", str(path), "--nmax", "2"]
    code = main([*args, "--mode", "float"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("polymom:") and "not a finite double" in err


# legs of 1e200 are doubles, but the cone determinant 1e400 is not
WIDE_TRIANGLE_DOC = {"dim": 2, "vertices": [[0, 0], ["1e200", 0], [0, "1e200"]]}


@pytest.mark.parametrize("argv, quantity", [
    (["moments", "{wide}", *MOMENTS_ARGS], "cone determinant"),
    (["roundtrip", "{wide}", "--nmax", "3"], "cone determinant"),
    (["moments", "{square}", "--direction", "1e308,1e308", "--count", "4"],
     "cone denominator"),
    (["moments", "{square}", "--direction", "1e100,1", "--count", "5"], "moment"),
], ids=["moments-wide-triangle", "roundtrip-wide-triangle", "moments-huge-direction",
        "moments-overflowing-power-sum"])
def test_float_range_exit_2(square_file, tmp_path, capsys, argv, quantity):
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(WIDE_TRIANGLE_DOC))
    code = main([a.format(wide=wide, square=square_file) for a in argv] + ["--mode", "float"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("polymom:") and "Traceback" not in err
    assert quantity in err and "beyond the double range" in err


def test_zero_density_exit_2(square_file, capsys):
    # its degree -1 once reached the oracle as a moment count
    code = main(["roundtrip", square_file, "--nmax", "4", "--density", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "zero polynomial" in err and "nonnegative" not in err


@pytest.mark.parametrize("args", [
    ["moments", "{p}", *MOMENTS_ARGS, "--out", "{bad}"],
    ["moments", "{p}", *MOMENTS_ARGS, "--csv", "{bad}"],
    ["reconstruct", "--oracle-polytope", "{p}", "--nmax", "3", "--out", "{bad}"],
    ["reconstruct", "--oracle-polytope", "{p}", "--nmax", "3", "--diagnostics", "{bad}"],
    ["roundtrip", "{p}", "--nmax", "3", "--out", "{bad}"],
    ["univar", "--oracle-polytope", "{p}", "--nmax", "3", "--diagnostics", "{bad}"],
], ids=["moments-out", "moments-csv", "reconstruct-out", "reconstruct-diagnostics",
        "roundtrip-out", "univar-diagnostics"])
def test_unwritable_output_exit_2(triangle_file, tmp_path, capsys, args):
    bad = str(tmp_path / "no-such-dir" / "out.json")
    code = main([a.format(p=triangle_file, bad=bad) for a in args] + ["--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("polymom:") and "no-such-dir" in err and "Traceback" not in err


class TestMoments:
    def test_triangle_moments(self, triangle_file, tmp_path):
        out = tmp_path / "m.json"
        code = main([
            "moments", triangle_file, "--direction", "1,2", "--count", "7",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["moments"][:3] == ["1/2", "1/2", "7/12"]
        assert doc["dim"] == 2
        assert doc["mode"] == "exact"

    def test_count_one_is_volume(self, square_file, tmp_path, capsys):
        code = main([
            "moments", square_file, "--direction", "1,2", "--count", "1",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["moments"] == ["1"]  # mu_0 = vol(P), emitted as a rational

    def test_both_routes_agree(self, triangle_file, tmp_path):
        out = tmp_path / "m.json"
        code = main([
            "moments", triangle_file, "--direction", "1,2", "--count", "5",
            "--oracle", "both", "--out", str(out),
        ])
        assert code == 0

    def test_non_generic_exit_3(self, square_file, tmp_path, capsys):
        code = main([
            "moments", square_file, "--direction", "1,0", "--count", "3",
        ])
        assert code == 3
        assert "resample" in capsys.readouterr().err

    def test_density_flag(self, square_file, tmp_path):
        out = tmp_path / "m.json"
        code = main([
            "moments", square_file, "--direction", "1,0", "--count", "1",
            "--density", "x1", "--oracle", "direct", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["moments"] == ["1/2"]
        assert doc["density_degree"] == 1

    def test_csv_export(self, triangle_file, tmp_path):
        csv = tmp_path / "m.csv"
        main([
            "moments", triangle_file, "--direction", "1,2", "--count", "3",
            "--csv", str(csv), "--out", str(tmp_path / "m.json"),
        ])
        assert csv.read_text().splitlines()[1] == "0,1/2"

    def test_bad_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2}')
        code = main(["moments", str(bad), "--direction", "1,2", "--count", "3"])
        assert code == 2

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2,')
        code = main(["moments", str(bad), "--direction", "1,2", "--count", "3"])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_negative_count_exit_2(self, triangle_file):
        code = main(["moments", triangle_file, "--direction", "1,2", "--count", "-1"])
        assert code == 2

    def test_route_disagreement_exit_4(self, tmp_path):
        # corrupt one cone determinant so the vertex formula diverges from
        # the integration oracle
        doc = polytope_to_json(unit_triangle())
        # vertex 1 projects to a nonzero value, so a warped cone is visible
        doc["cones"][1]["edges"] = [["-1", "1"], ["-1", "-1"]]
        bad = tmp_path / "warped.json"
        bad.write_text(json.dumps(doc))
        code = main([
            "moments", str(bad), "--direction", "1,2", "--count", "3",
            "--oracle", "both",
        ])
        assert code == 4


class TestReconstruct:
    def test_oracle_polytope(self, triangle_file, tmp_path):
        out = tmp_path / "v.json"
        diag = tmp_path / "d.json"
        code = main([
            "reconstruct", "--oracle-polytope", triangle_file,
            "--nmax", "4", "--seed", "7", "--denominator", "10007",
            "--out", str(out), "--diagnostics", str(diag),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc == {
            "dim": 2,
            "vertices": [["0", "0"], ["0", "1"], ["1", "0"]],
        }
        d = json.loads(diag.read_text())
        assert set(d) == {"ranks", "betas", "moment_count", "retries",
                          "residual_max"}
        assert d["ranks"] == [3, 3]

    def test_moment_files(self, tmp_path, triangle_file):
        # generate base + combined moment files, then reconstruct offline
        dirs = ["1,2", "2,1", "7,5"]  # third is z1 + 3 z2
        files = []
        for i, d in enumerate(dirs):
            path = tmp_path / f"m{i}.json"
            assert main([
                "moments", triangle_file, "--direction", d, "--count", "7",
                "--oracle", "direct", "--out", str(path),
            ]) == 0
            files.append(str(path))
        out = tmp_path / "v.json"
        code = main([
            "reconstruct", "--moments", *files, "--nmax", "3",
            "--out", str(out), "--diagnostics", str(tmp_path / "d.json"),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["vertices"] == [["0", "0"], ["0", "1"], ["1", "0"]]

    def test_truncated_moment_file_exit_2(self, tmp_path, triangle_file):
        path = tmp_path / "m.json"
        main([
            "moments", triangle_file, "--direction", "1,2", "--count", "3",
            "--out", str(path),
        ])
        code = main(["reconstruct", "--moments", str(path), "--nmax", "3"])
        assert code == 2

    def test_missing_moment_file_exit_2(self, tmp_path):
        code = main([
            "reconstruct", "--moments", str(tmp_path / "absent.json"), "--nmax", "3",
        ])
        assert code == 2

    def test_nmax_too_small_exit_5(self, square_file, tmp_path):
        code = main([
            "reconstruct", "--oracle-polytope", square_file,
            "--nmax", "3", "--seed", "7", "--denominator", "10007",
            "--out", str(tmp_path / "v.json"),
        ])
        assert code == 5

    def test_determinism(self, square_file, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"v{tag}.json"
            diag = tmp_path / f"d{tag}.json"
            assert main([
                "reconstruct", "--oracle-polytope", square_file,
                "--nmax", "4", "--seed", "99", "--denominator", "10007",
                "--out", str(out), "--diagnostics", str(diag),
            ]) == 0
            outs.append((out.read_bytes(), diag.read_bytes()))
        assert outs[0] == outs[1]


class TestRoundtrip:
    def test_triangle_exact(self, triangle_file, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "roundtrip", triangle_file, "--nmax", "4", "--seed", "3",
            "--denominator", "10007", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["exact_match"] is True
        assert doc["max_error"] == 0

    def test_square_float_noise(self, square_file, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "roundtrip", square_file, "--nmax", "4", "--mode", "float",
            "--noise", "1e-9", "--seed", "5", "--denominator", "10007",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["max_error"] <= 1e-6

    def test_float_zero_noise(self, square_file, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "roundtrip", square_file, "--nmax", "4", "--mode", "float",
            "--seed", "5", "--denominator", "10007", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["max_error"] <= 1e-10

    def test_methods_agree(self, triangle_file, tmp_path):
        vertex_sets = []
        for method in ("matching", "frugal", "univar"):
            out = tmp_path / f"{method}.json"
            code = main([
                "roundtrip", triangle_file, "--nmax", "3", "--seed", "3",
                "--denominator", "10007", "--method", method, "--out", str(out),
            ])
            assert code == 0
            vertex_sets.append(json.loads(out.read_text())["vertices"])
        assert vertex_sets[0] == vertex_sets[1] == vertex_sets[2]

    def test_pyramid_direct_route(self, tmp_path):
        path = tmp_path / "pyr.json"
        save_polytope(square_pyramid(), path)
        out = tmp_path / "r.json"
        code = main([
            "roundtrip", str(path), "--nmax", "6", "--seed", "5",
            "--denominator", "10007", "--route", "direct", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["exact_match"] is True

    def test_ngon48_exact(self, tmp_path):
        # projections up to 48 * 1000003 at the default denominator
        path = tmp_path / "ngon48.json"
        save_polytope(Polytope(dim=2, vertices=tuple(
            (F(k), F(k * k, 7)) for k in range(48))), path)
        out = tmp_path / "r.json"
        code = main([
            "roundtrip", str(path), "--nmax", "48", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["exact_match"] is True

    def test_self_check_flag(self, triangle_file, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "roundtrip", triangle_file, "--nmax", "3", "--seed", "3",
            "--denominator", "10007", "--self-check", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["diagnostics"]["residual_max"] == 0

    def test_residual_null_without_self_check(self, triangle_file, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "roundtrip", triangle_file, "--nmax", "3", "--seed", "3",
            "--denominator", "10007", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["diagnostics"]["residual_max"] is None

    def test_exact_wrong_vertex_set_exit_4(self, tmp_path, monkeypatch, capsys):
        # an exact roundtrip that recovers another set writes its report,
        # then exits 4
        cube = unit_cube()
        path = tmp_path / "cube.json"
        save_polytope(cube, path)
        short = VertexSet(dim=3, vertices=tuple(sorted(cube.vertices))[1:])
        monkeypatch.setattr(cli, "reconstruct", lambda *args, **kwargs: short)
        out = tmp_path / "r.json"
        code = main(["roundtrip", str(path), "--nmax", "8", "--out", str(out)])
        assert code == 4
        assert json.loads(out.read_text())["exact_match"] is False
        err = capsys.readouterr().err
        assert "did not recover the vertex set" in err and "Traceback" not in err


class TestUnivarCommand:
    def test_triangle(self, triangle_file, tmp_path):
        out = tmp_path / "v.json"
        code = main([
            "univar", "--oracle-polytope", triangle_file, "--nmax", "3",
            "--seed", "3", "--denominator", "10007", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["vertices"] == [["0", "0"], ["0", "1"], ["1", "0"]]

    def test_bare_non_generic_exit_3(self, triangle_file, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NonGenericDirection("interpolation node pool exhausted")

        monkeypatch.setattr(cli, "vertices_univar", fail)
        code = main([
            "univar", "--oracle-polytope", triangle_file, "--nmax", "3",
        ])
        assert code == 3
        assert "resample" in capsys.readouterr().err


def test_console_entry_point(triangle_file, tmp_path):
    out = tmp_path / "m.json"
    # the child must import the same polymom as this process, which pytest's
    # own pythonpath setting does not pass on
    src = str(Path(polymom.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "polymom.cli", "moments", triangle_file,
         "--direction", "1,2", "--count", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["moments"] == ["1/2", "1/2", "7/12"]
