import json
import subprocess
import sys

BASE = [sys.executable, "-m", "pixelwedge"]


def run(*args):
    return subprocess.run(BASE + list(args), capture_output=True, timeout=120)


def test_classify_known_corner():
    r = run("classify", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "1/2,1/2")
    assert r.returncode == 0
    assert r.stdout == b"class 0 of 5\n"


def test_classify_decimal_corner_is_exact():
    r1 = run("classify", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "0.1,0.7",
             "--format", "json")
    r2 = run("classify", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "1/10,7/10",
             "--format", "json")
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    payload = json.loads(r1.stdout)
    assert payload["alpha"] == "-1/1" and payload["index"] == 2


def test_negative_denominator_slope_orientation():
    # 3/-1 selects the opposite half-plane from -3/1; both must parse
    r1 = run("classify", "--slope1", "3/-1", "--slope2", "-1/2", "--corner", "1/4,1/4")
    r2 = run("classify", "--slope1", "-3/1", "--slope2", "-1/2", "--corner", "1/4,1/4")
    assert r1.returncode == 0 and r2.returncode == 0
    assert b"of 5" in r1.stdout


def test_enumerate_lists_five_classes():
    r = run("enumerate", "--slope1", "2/1", "--slope2", "-3/1", "--format", "ascii")
    assert r.returncode == 0
    for j in range(5):
        assert f"class {j} of 5:".encode() in r.stdout


def test_enumerate_json_round_trips():
    r = run("enumerate", "--slope1", "2/1", "--slope2", "-3/1", "--format", "json")
    shapes = json.loads(r.stdout)
    assert [s["index"] for s in shapes] == [0, 1, 2, 3, 4]
    assert all(s["pixels"] for s in shapes)


def test_digitize_outputs_grid_path():
    r = run("digitize", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "0.1,0.71",
            "--window", "3")
    assert r.returncode == 0
    path = json.loads(r.stdout)
    for (x1, y1), (x2, y2) in zip(path, path[1:]):
        assert abs(x1 - x2) + abs(y1 - y2) == 1


def test_verify_reports_pass():
    r = run("verify", "--slope1", "2/1", "--slope2", "-3/1", "--samples", "20000",
            "--seed", "42")
    assert r.returncode == 0
    assert b"PASS" in r.stdout


def test_verify_json():
    r = run("verify", "--slope1", "1/1", "--slope2", "-1/1", "--samples", "5000",
            "--seed", "7", "--format", "json")
    payload = json.loads(r.stdout)
    assert payload["classes"] == 2 and sum(payload["counts"]) == 5000


def test_sweep_default_and_json():
    r = run("sweep", "4", "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["pass"] is True


def test_partition_svg_and_out_file(tmp_path):
    out = tmp_path / "cells.svg"
    r = run("partition", "--slope1", "2/1", "--slope2", "-3/1", "--out", str(out))
    assert r.returncode == 0 and r.stdout == b""
    assert out.read_bytes().startswith(b"<svg")


def test_out_dir_env_var(tmp_path):
    env = dict(**__import__("os").environ, PIXELWEDGE_OUT_DIR=str(tmp_path))
    r = subprocess.run(
        BASE + ["partition", "--slope1", "2/1", "--slope2", "-3/1", "--out", "p.json",
                "--format", "json"],
        capture_output=True, env=env, timeout=120,
    )
    assert r.returncode == 0
    assert (tmp_path / "p.json").exists()


def test_render_pbm():
    r = run("render", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "1/2,1/2",
            "--window", "3", "--format", "pbm")
    assert r.returncode == 0
    assert r.stdout.startswith(b"P1\n")


def test_same_argv_same_bytes():
    args = ("verify", "--slope1", "3/-1", "--slope2", "-1/2", "--samples", "10000",
            "--seed", "9")
    assert run(*args).stdout == run(*args).stdout


def test_verify_beyond_old_quantile_table():
    # D = 26 and D = 1 used to die with a KeyError traceback
    for slope2 in ("-13/1", "0/1"):
        slope1 = "13/1" if slope2 == "-13/1" else "1/0"
        r = run("verify", "--slope1", slope1, "--slope2", slope2, "--samples", "2000")
        assert r.returncode == 0, r.stderr
        assert b"Traceback" not in r.stderr
    assert r.stdout.endswith(b"(0 dof): PASS\n")


def test_zero_samples_is_usage_error():
    r = run("verify", "--slope1", "2/1", "--slope2", "-3/1", "--samples", "0")
    assert r.returncode == 2
    assert b"--samples" in r.stderr


def test_out_into_missing_directory_is_one_line_refusal(tmp_path):
    out = tmp_path / "missing" / "cells.svg"
    r = run("partition", "--slope1", "2/1", "--slope2", "-3/1", "--out", str(out))
    assert r.returncode == 1
    assert r.stdout == b""
    assert r.stderr.startswith(b"pixelwedge: ") and r.stderr.count(b"\n") == 1


def test_parallel_slopes_exit_code_one():
    r = run("classify", "--slope1", "2/1", "--slope2", "4/2", "--corner", "0,0")
    assert r.returncode == 1
    assert b"parallel" in r.stderr


def test_usage_error_exit_code_two():
    r = run("classify", "--slope1", "2/1")
    assert r.returncode == 2
    r = run("classify", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "1/2,1/2",
            "--format", "yaml")
    assert r.returncode == 2


def test_center_corner_digitize_exit_code_one():
    r = run("digitize", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "1/2,1/2")
    assert r.returncode == 1
    assert b"center" in r.stderr


# sha256 of `partition` stdout, recorded before the integer clipper replaced
# the Fraction one; the SVG path draws the clipped fragments.
PARTITION_SHA256 = {
    ("2/1", "-3/1", "svg"): "87db2c38264882070bb99e76ef7e9dd0392b924eafe2ac9c98e905907ff087e2",
    ("2/1", "-3/1", "json"): "8bd60744aeac2a2318138993f59d67017b7b1801b8bc2345b73e75ac91e3412f",
    ("-3/1", "-1/2", "svg"): "cafb1d2d8180c9f7eef872bea683a1536f8e0e8d4de6ebaca60a8eb3e7ae83a8",
    ("-3/1", "-1/2", "json"): "55af1491e183b6e25d450e781fb2dab2a9058357f598d2685c77503c285e13fc",
    ("1/2", "3/1", "svg"): "e4e0f75ee01111cd483332c7183558f7e1b54d96084eacacad0c2dbdea3dfa95",  # det < 0
    ("1/2", "3/1", "json"): "713ea75a1108eb2d5bf899f760a6775ec8e1105904640e86e2e81621c6d16f20",
}


def test_partition_stdout_bytes_are_pinned():
    import hashlib

    for (s1, s2, fmt), digest in PARTITION_SHA256.items():
        r = run("partition", "--slope1", s1, "--slope2", s2, "--format", fmt)
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(r.stdout).hexdigest() == digest, (s1, s2, fmt)


def test_window_and_sweep_bound_below_one_are_usage_errors():
    spec = ("--slope1", "2/1", "--slope2", "-3/1")
    corner = ("--corner", "0.1,0.71")
    for argv in (
        ("digitize", *spec, *corner, "--window", "0"),
        ("digitize", *spec, *corner, "--window", "-3"),
        ("render", *spec, *corner, "--window", "0"),
        ("render", *spec, *corner, "--window", "-3"),
        ("enumerate", *spec, "--window", "0"),
        ("sweep", "0"),
    ):
        r = run(*argv)
        assert r.returncode == 2, argv
        assert r.stdout == b"" and b"must be >= 1, got" in r.stderr, argv


def test_digitize_window_defaults_to_eight():
    argv = ("digitize", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "0.1,0.71")
    r = run(*argv)
    assert r.returncode == 0
    assert r.stdout == run(*argv, "--window", "8").stdout != run(*argv, "--window", "3").stdout
