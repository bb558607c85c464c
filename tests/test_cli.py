import hashlib
import json
import math
import warnings

import pytest

from qhkit import qh_distance_exact
from qhkit.cli import main
from qhkit.repro import SUITES

# sha256 of the nine files `qhkit repro SUITE --out DIR` writes for the five
# suites at their pinned defaults.  repro-example-1-8.csv was re-pinned when
# anchor weights took the mesh's np.abs segment length: 7 of its 200 rows
# moved, by at most 2.2e-16 relative.
REPRO_SHA256 = {
    "repro-example-1-1.csv": "c285cd20084b0763e40805f3ee2361c98ab62308223853feec3e522d68ddfad5",
    "repro-example-1-1.json": "0ffcc94f7589d5522485b1e2c9967906d37112d53be3c93fe7e5cae0840d8e1c",
    "repro-example-1-8.csv": "08e3d10208183765fcee0cc09797a7dfa15dac008b6fa7e9c3bdab2fcf6b379e",
    "repro-example-1-8.json": "958eeec3a542bda2f93ff0c2090a4b8b388268db877ba06024eb4a807db0c747",
    "repro-example-3-1.json": "cdcd954c28c8cb24a77a8c484ccf0f0870f0c1a7ddb1bbb58b73d335fd12487f",
    "repro-lemma-3-4.csv": "f88589aeb5982dfd308470ec36ab432f3c4de0fed300f637a99a628fde87e827",
    "repro-lemma-3-4.json": "d194bbabd2708e6a17752b97c1bd6298da71f2da74a88626d6d5a4b934778921",
    "repro-lemma-3-6.csv": "09fee4ee952afdad7481e8caa3d9ab7691c4093a0c55a97d38afcf8f52975ca7",
    "repro-lemma-3-6.json": "559535657c70d98d30e4fd139eaeafc3e613a88e1ab814b7218934e591265eeb",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_qh_subcommand_prints_oracle(capsys):
    code, out, _ = run(capsys, "qh", "--domain", "halfplane",
                       "--from", "0,1", "--to", "0,2", "--grading", "0.2")
    assert code == 0
    assert "oracle = 0.693147" in out
    # On the log-cylinder, 1 -> 2i is log 2 along and pi / 2 around.
    code, out, _ = run(capsys, "qh", "--domain", "punctured",
                       "--from", "1,0", "--to", "0,2", "--grading", "0.2")
    assert code == 0
    assert f"oracle = {math.hypot(math.pi / 2, math.log(2.0)):.6f}" in out
    code, out, _ = run(capsys, "qh", "--domain", "disk",
                       "--from", "0,0", "--to", "0.5,0", "--grading", "0.2")
    assert code == 0
    assert out.startswith("k(") and "oracle = " not in out


def test_qh_near_mesh_nodes_match_oracle(capsys):
    # Two joined mesh nodes one cell apart: their edge is counted once.
    x, y = complex(-0.0546875, 0.2546875), complex(-0.0546875, 0.2703125)
    code, out, _ = run(capsys, "qh", "--domain", "halfplane",
                       "--from=-0.0546875,0.2546875", "--to=-0.0546875,0.2703125",
                       "--grading", "0.1")
    assert code == 0
    k = float(out.split(" = ")[1].split()[0])
    exact = qh_distance_exact("halfplane", x, y)
    assert abs(k - exact) / exact <= 1e-3


def test_qh_stats_go_to_stderr_and_leave_the_report_alone(tmp_path, capsys):
    argv = ("qh", "--domain", "punctured", "--from", "1,0.3", "--to=-0.5,2",
            "--grading", "0.2")
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "plain"))
    assert code == 0 and err == ""
    code, out_stats, err = run(capsys, *argv, "--out", str(tmp_path / "stats"), "--stats")
    assert code == 0 and out_stats == out
    line, = err.splitlines()
    stats = json.loads(line.removeprefix("stats: "))
    assert stats["mesh"]["nodes"] > 0 and stats["query"]["sources"] == 1
    assert (stats["query"]["dijkstra_guessed"], stats["query"]["dijkstra_retried"]) == (1, 0)
    # The delta disc certifies every pair of this mesh, so the filter tests none.
    assert (stats["mesh"]["segment_tests"], stats["mesh"]["segment_rejections"]) == (0, 0)
    stages = stats["mesh"]["stage_s"]
    assert list(stages) == ["refine", "stencil", "cross_depth", "dedupe", "assemble"]
    assert all(t >= 0.0 for t in stages.values())
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert plain == sorted(p.name for p in (tmp_path / "stats").iterdir()) and plain
    for name in plain:
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "stats" / name).read_bytes()


def test_qh_stats_name_the_capped_cells(capsys):
    # The default disk mesh stops 7,720 in-region cells at its depth cap.
    code, _, err = run(capsys, "qh", "--domain", "disk", "--from", "0,0", "--to", "0.3,0",
                       "--stats")
    line, = err.splitlines()
    assert code == 0 and json.loads(line.removeprefix("stats: "))["mesh"]["capped_cells"] == 7720


@pytest.mark.parametrize("domain, start, degree_max, grading", [
    ("disk", "0,0", 64, 0.09993647934048745),
    # The depth cap leaves the intervals next to boundary points coarse.
    ("frame-omega", "0.5,0", 2, 1.0),
])
def test_qh_stats_name_degrees_and_realized_grading(capsys, domain, start, degree_max, grading):
    code, _, err = run(capsys, "qh", "--domain", domain, "--from", start, "--to", "0.3,0",
                       "--stats")
    line, = err.splitlines()
    mesh = json.loads(line.removeprefix("stats: "))["mesh"]
    assert code == 0
    assert (mesh["degree_max"], mesh["realized_grading"]) == (degree_max, grading)
    assert mesh["degree_mean"] == 2 * mesh["edges"] / mesh["nodes"]


@pytest.mark.parametrize("argv", [
    ("qh", "--domain", "halfplane", "--from", "0;1", "--to", "0,2"),
    ("check-wqs", "--map", "identity", "--domain", "halfplane", "--count", "5",
     "--config", "no-such-config.json"),
    ("check-qc", "--map", "affine", "--domain", "halfplane", "--matrix", "1,2"),
    ("check-qc", "--map", "affine", "--domain", "halfplane", "--matrix", "1,2,x,4"),
    ("check-qc", "--map", "shear", "--radii", "0.4,abc"),
    ("qh", "--domain", "halfplane", "--from", "0,1", "--to", "0,2", "--bbox", "0,1,2"),
])
def test_bad_input_is_one_line_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    # Images beyond the float range, or rounded onto the boundary, leave the
    # half-plane; a reflection leaves it too.
    (("check-wqs", "--matrix", "1e308,0,0,1e308"), "outside the image region of affine"),
    (("check-qc", "--matrix", "1,0,0,1e-323"), "outside the image region of affine"),
    (("check-qc", "--matrix", "1e308,0,0,1e308"), "outside the image region of affine"),
    (("check-ring", "--matrix", "1e308,0,0,1e308"), "outside the image region of affine"),
    (("check-lwqs", "--matrix", "1e308,0,0,1e308"), "outside the image region of affine"),
    (("check-qc", "--matrix", "1,0,0,-1"), "outside the image region of affine"),
    # Vertical image differences round away next to the offset: min ratio 0.
    (("check-qc", "--matrix", "1,0,0,1e-17", "--offset", "0,1"), "is undefined at x ="),
])
def test_degenerate_map_is_one_line_error(capsys, argv, message):
    command, *rest = argv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--map", "affine", *rest,
                             "--count", "50", "--seed", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("domain, point", [("halfplane", "nan,1"), ("halfplane", "inf,1"),
                                           ("punctured", "inf,1")])
def test_non_finite_query_point_is_one_line_error(capsys, domain, point):
    # Warnings are errors here, so a numpy RuntimeWarning fails the run.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "qh", "--domain", domain, "--from", point, "--to", "0,1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "is not in region" in err and err.count("\n") == 1


@pytest.mark.parametrize("domain", ["halfplane", "punctured", "disk"])
def test_huge_query_point_is_one_line_error(capsys, domain):
    # |z| overflows a float: the point is inside or outside the region, but
    # never inside the mesh.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "qh", "--domain", domain, "--from", "1.7e308,1.7e308",
                             "--to", "0.5,0.5")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("is not in region" if domain == "disk" else "is not covered by the mesh") in err


@pytest.mark.parametrize("domain, center", [("punctured", "1.7e308,1.7e308"),
                                            ("halfplane", "0,1e200")])
def test_ball_at_a_huge_center_is_one_line_error(capsys, domain, center):
    # The grid of spacing 0.5 would collapse at these coordinates.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "ball", "--domain", domain, "--center", center,
                             "--radius", "1", "--resolution", "0.5")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "float spacing" in err


@pytest.mark.parametrize("argv, message", [
    # m = ceil(L/h) passes the int64 range: no grid is cut.
    (("ball", "--domain", "frame-omega", "--center", "0.5,0", "--radius", "1e-20",
      "--resolution", "1e-21"), "is too fine to cut a piece of length 4.0"),
    (("ball", "--domain", "frame-omega", "--center", "0,0", "--radius", "1e-300",
      "--resolution", "1e-301"), "is too fine to cut a piece of length 4.0"),
    # A witness point rounds onto the base point; no pairs to compare.
    (("repro", "example-1-8", "--n", "1e17"), "rounds onto its base"),
    (("repro", "example-1-1", "--count", "0"), "example-1-1 needs count >= 1"),
    # A suite over no pairs would pass vacuously.
    (("repro", "lemma-3-6", "--count", "0"), "lemma 3.6 needs count >= 1, got 0"),
    (("repro", "lemma-3-4", "--count", "-1"), "lemma 3.4 needs count >= 1, got -1"),
    # An infinite bbox side would reach the quadtree as inf and nan cells.
    (("qh", "--domain", "halfplane", "--bbox", "0,inf,0.1,1", "--from", "0.5,0.5", "--to",
      "0.5,0.7"), "bbox must be finite, got (0.0, inf, 0.1, 1.0)"),
])
def test_fine_complex_ball_and_degenerate_repro_are_one_line_errors(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


CHECK_QC = ("check-qc", "--map", "shear")
QH = ("qh", "--domain", "halfplane", "--from", "0,1", "--to", "0,2")


@pytest.mark.parametrize("config, argv", [
    ({"count": "many"}, CHECK_QC),
    ({"q": "half"}, CHECK_QC),
    ({"radius_schedule": [0.4, "abc"]}, CHECK_QC),
    ({"radius_schedule": 0.4}, CHECK_QC),
    ({"seed": "seven"}, CHECK_QC),
    ([1, 2], CHECK_QC),
    ({"grading": "fine"}, QH),
    ({"bbox": [1, 2]}, QH),
])
def test_bad_config_value_is_one_line_error(tmp_path, capsys, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_integer_seed_env_is_one_line_error(capsys, monkeypatch):
    monkeypatch.setenv("QH_SEED", "seven")
    code, _, err = run(capsys, "check-wqs", "--map", "identity",
                       "--domain", "halfplane", "--count", "5")
    assert code == 1
    assert err.startswith("error: ") and "QH_SEED" in err and err.count("\n") == 1


def test_constants_subcommand(capsys):
    code, out, _ = run(capsys, "constants", "--H", "1", "--q", "0.5",
                       "--c", "1", "--cprime", "1")
    assert code == 0
    assert "ring_M     = 4.0" in out
    assert "beta       = 12.0" in out
    assert repr(1.0 / 5184.0) in out


def test_ball_subcommand(capsys):
    code, out, _ = run(capsys, "ball", "--domain", "halfplane",
                       "--center", "0,1", "--radius", "0.5", "--resolution", "0.1")
    assert code == 0
    assert "component ball" in out


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "qh", "--domain", "halfplane", "--no-such-flag")
    assert code == 1


def test_configuration_error_exit_code(capsys):
    code, _, err = run(capsys, "qh", "--domain", "halfplane",
                       "--from", "0,1", "--to", "0,2", "--grading", "0.9")
    assert code == 1
    assert "grading" in err


def test_check_wqs_bound_violation_exits_two(capsys):
    code, out, _ = run(capsys, "check-wqs", "--map", "inversion",
                       "--count", "10", "--seed", "3", "--bound", "50")
    assert code == 2
    assert "exceeds the claimed bound" in out


def test_check_wqs_within_bound_exits_zero(capsys, halfplane):
    code, _, _ = run(capsys, "check-wqs", "--map", "identity",
                     "--domain", "halfplane", "--count", "10", "--seed", "3",
                     "--bound", "1.5")
    assert code == 0


def test_repro_writes_reports_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    code1, text1, _ = run(capsys, "repro", "example-3-1", "--out", str(out1))
    code2, text2, _ = run(capsys, "repro", "example-3-1", "--out", str(out2))
    assert code1 == code2 == 0
    assert text1 == text2
    f1 = (out1 / "repro-example-3-1.json").read_bytes()
    f2 = (out2 / "repro-example-3-1.json").read_bytes()
    assert f1 == f2
    payload = json.loads(f1)
    assert payload["passed"] is True


def test_repro_reports_match_golden_digests(tmp_path, capsys):
    for suite in sorted(SUITES):
        code, _, _ = run(capsys, "repro", suite, "--out", str(tmp_path))
        assert code == 0, suite
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == REPRO_SHA256


def test_seed_resolution_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QH_SEED", "99")
    code, out, _ = run(capsys, "check-wqs", "--map", "identity",
                       "--domain", "halfplane", "--count", "5", "--seed", "3")
    assert code == 0
    assert "seed 99" in out


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 123, "count": 7}))
    code, out, _ = run(capsys, "check-wqs", "--map", "identity",
                       "--domain", "halfplane", "--config", str(cfg))
    assert code == 0
    assert "seed 123" in out


def test_estimator_report_file(tmp_path, capsys):
    out = tmp_path / "rep"
    code, _, _ = run(capsys, "check-lwqs", "--map", "shear", "--count", "10",
                     "--seed", "4", "--out", str(out))
    assert code == 0
    payload = json.loads((out / "check-lwqs.json").read_text())
    coeff = 2.0 * math.sqrt(5.0) / 5.0
    assert payload["estimate"] >= coeff * 101.0 * (1 - 1e-12)


def test_repro_emits_csv_rows(tmp_path, capsys):
    out = tmp_path / "rows"
    code, _, _ = run(capsys, "repro", "lemma-3-6", "--count", "30",
                     "--out", str(out))
    assert code == 0
    csv_text = (out / "repro-lemma-3-6.csv").read_text().splitlines()
    assert csv_text[0] == "id,x_re,x_im,y_re,y_im,value,oracle,bound_lo,bound_hi,pass"
    assert len(csv_text) > 100
