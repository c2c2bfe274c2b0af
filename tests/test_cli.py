import json
import os
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


def test_sweep_over_the_pair_limit_is_refused_at_once():
    from pixelwedge.cli import SWEEP_PAIR_LIMIT
    from pixelwedge.verify import coprime_pairs

    assert len(coprime_pairs(19)) ** 2 <= SWEEP_PAIR_LIMIT < len(coprime_pairs(20)) ** 2
    # raises TimeoutExpired, and kills the run, if it takes a second; the gate
    # counts up to the first bound over the limit, n = 20, a lower bound for 400
    r = subprocess.run(BASE + ["sweep", "400"], capture_output=True, timeout=1)
    assert r.returncode == 1 and r.stdout == b""
    assert b"1048576" in r.stderr and str(SWEEP_PAIR_LIMIT).encode() in r.stderr
    # a bound far past the first one over the limit is refused as fast
    r = subprocess.run(BASE + ["sweep", "1" + "0" * 30], capture_output=True, timeout=1)
    assert r.returncode == 1 and r.stdout == b""


def test_sweep_gate_counts_the_sweeps_own_pairs(monkeypatch, capsysbinary):
    # len(coprime_pairs(n)) ** 2 is 1024 at n = 3 and 2304 at n = 4
    from pixelwedge import cli

    monkeypatch.setattr(cli, "SWEEP_PAIR_LIMIT", 1024)
    assert cli.main(["sweep", "3"]) == 0
    assert capsysbinary.readouterr().out.endswith(b"PASS\n")
    assert cli.main(["sweep", "4"]) == 1
    refusal = b"pixelwedge: sweep 4 would scan at least 2304 slope pairs, over the limit of 1024\n"
    assert capsysbinary.readouterr() == (b"", refusal)


def test_partition_svg_and_out_file(tmp_path):
    out = tmp_path / "cells.svg"
    r = run("partition", "--slope1", "2/1", "--slope2", "-3/1", "--out", str(out))
    assert r.returncode == 0 and r.stdout == b""
    assert out.read_bytes().startswith(b"<svg")


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


def test_closed_stdout_is_one_line_write_error():
    # the read end is closed before the run starts: every write gets EPIPE
    spec = ("--slope1", "2/1", "--slope2", "-3/1")
    small = ("classify", *spec, "--corner", "0.1,0.7")
    large = ("enumerate", "--slope1", "20/1", "--slope2", "-1/20", "--window", "40")  # ~715 KB
    for argv in (small, large):
        read, write = os.pipe()
        os.close(read)
        try:
            r = subprocess.run(BASE + list(argv), stdout=write, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        assert r.returncode == 1, (argv, r.stderr)
        assert r.stderr.startswith(b"pixelwedge: cannot write stdout: ") and r.stderr.count(b"\n") == 1, r.stderr


def test_refusal_leaves_no_out_file(tmp_path):
    # one refused at the work gate, one by a domain error after it
    spec = ("--slope2", "-3/1", "--corner", "1/2,1/2")
    for argv in (("partition", "--slope1", "1e30", "--slope2", "-3/1"), ("digitize", "--slope1", "2/1", *spec)):
        out = tmp_path / f"{argv[0]}.out"
        r = run(*argv, "--out", str(out))
        assert r.returncode == 1 and r.stdout == b"", argv
        assert r.stderr.startswith(b"pixelwedge: ") and not out.exists(), argv


def test_verify_over_the_class_limit_is_refused_at_once():
    # D = 10**30 + 3: `[0] * D` raised OverflowError, a traceback
    r = subprocess.run(BASE + ["verify", "--slope1", "1e30", "--slope2", "-3/1", "--samples", "10"],
                       capture_output=True, timeout=1)
    assert r.returncode == 1 and r.stdout == b""
    assert r.stderr.startswith(b"pixelwedge: ") and r.stderr.count(b"\n") == 1
    from pixelwedge.cli import VERIFY_CLASS_LIMIT

    assert str(10**30 + 3).encode() in r.stderr and str(VERIFY_CLASS_LIMIT).encode() in r.stderr


def refused_at_once(*args):
    """The stderr of a run that must exit 1 on one line with no stdout; it
    raises TimeoutExpired, and kills the run, if that takes a second."""
    r = subprocess.run(BASE + list(args), capture_output=True, timeout=1)
    assert r.returncode == 1 and r.stdout == b"", r.stderr
    assert r.stderr.startswith(b"pixelwedge: ") and r.stderr.count(b"\n") == 1
    return r.stderr


def test_verify_over_the_work_limit_is_refused_at_once():
    # about 4*10**6 samples/s: 10**10 samples ran ~40 minutes, and at 10**12
    # the list of blocks alone took ~3.4 GB before the first draw
    from pixelwedge.cli import VERIFY_WORK_LIMIT

    for samples in (10**10, 10**12):
        err = refused_at_once("verify", "--slope1", "2/1", "--slope2", "-3/1", "--samples", str(samples))
        work = samples + 5 * -(-samples // 2**15)
        assert str(work).encode() in err and str(VERIFY_WORK_LIMIT).encode() in err


def test_verify_work_weights_wide_key_samples():
    # keys past 64 bits go draw by draw, ~10x slower a sample: counted as one
    # sample each, 10**7 of them at D = 1 were admitted and ran ~26 s (2 CPUs)
    from pixelwedge.cli import VERIFY_WORK_LIMIT
    from pixelwedge.verify import _WIDE_KEY_WORK

    big = 10**30
    for samples in (10**7, 10**8):
        err = refused_at_once("verify", "--slope1", f"{big}/{big + 1}", "--slope2", "1/1", "--samples", str(samples))
        work = samples * _WIDE_KEY_WORK + -(-samples // 2**15)
        assert str(work).encode() in err and str(VERIFY_WORK_LIMIT).encode() in err


def test_verify_work_counts_one_class_merge_per_block():
    # D = 999001 is under the class limit, but each of the 306 blocks of 10**7
    # samples merges a D-long count list: ~0.1 s a block, ~30 s in all
    from pixelwedge.cli import VERIFY_WORK_LIMIT

    err = refused_at_once("verify", "--slope1", "999/1", "--slope2", "-1/1000", "--samples", "10000000")
    assert str(10**7 + 999001 * 306).encode() in err and str(VERIFY_WORK_LIMIT).encode() in err


def test_enumerate_over_the_pixel_limit_is_refused_at_once():
    from pixelwedge.cli import ENUMERATE_PIXEL_LIMIT

    limit = str(ENUMERATE_PIXEL_LIMIT).encode()
    # D = 10**30 + 3 classes, each in a (2w+1)**2 window, w = 2 * (10**30 + 5)
    estimate = (10**30 + 3) * (4 * (10**30 + 5) + 1) ** 2
    for fmt in ("ascii", "json"):
        err = refused_at_once("enumerate", "--slope1", "1e30", "--slope2", "-3/1", "--format", fmt)
        assert str(estimate).encode() in err and limit in err
    # five classes in a window the user asked for
    err = refused_at_once("enumerate", "--slope1", "2/1", "--slope2", "-3/1", "--window", "100000")
    assert str(5 * 200001**2).encode() in err and limit in err
    # the largest admitted slope text is refused as fast
    s1, s2 = "9." + "3" * 292 + "7e+300", "-7." + "3" * 291 + "7e-300"
    assert limit in refused_at_once("enumerate", "--slope1", s1, "--slope2", s2)


def test_enumerate_estimate_counts_the_window_growth():
    # D = 1601 asked at window 6, which grows to 48, the first doubling of 6
    # that reaches max |entry| = 40: 1601 boxes of 97 x 97 pixels
    from pixelwedge.cli import ENUMERATE_PIXEL_LIMIT

    err = refused_at_once("enumerate", "--slope1", "40/1", "--slope2", "-1/40", "--window", "6")
    assert b"15063809" in err and str(ENUMERATE_PIXEL_LIMIT).encode() in err


def test_enumerate_grows_a_window_too_small_to_separate():
    # window 1 collides at 1, 2, 4 and 8, and 16 >= max |entry| = 10 separates
    r = run("enumerate", "--slope1", "10/1", "--slope2", "-1/10", "--window", "1", "--format", "json")
    assert r.returncode == 0, r.stderr
    shapes = json.loads(r.stdout)
    assert len(shapes) == 101 and {s["window"] for s in shapes} == {16}


def test_partition_over_the_piece_limit_is_refused_at_once():
    from pixelwedge.cli import PARTITION_PIECE_LIMIT

    limit = str(PARTITION_PIECE_LIMIT).encode()
    d = 10**30 + 3
    err = refused_at_once("partition", "--slope1", "1e30", "--slope2", "-3/1", "--format", "json")
    assert str(d).encode() in err and limit in err
    # svg draws each cell's pieces in the unit squares it crosses, at most
    # 0 + 1 + 4 here (`fragment_bound`)
    err = refused_at_once("partition", "--slope1", "1e30", "--slope2", "-3/1", "--format", "svg")
    assert str(5 * d).encode() in err and limit in err
    # D = 1, but the one cell is 1 wide and 10**6 + 1 high: its svg cuts it
    # at every seam it crosses, while its json is one cell
    err = refused_at_once("partition", "--slope1", "1/0", "--slope2", "1e6", "--format", "svg")
    assert str(1 + 10**6 + 1 + 4).encode() in err and limit in err
    # a cell 10**5 + 1 high is still bounded over the limit
    err = refused_at_once("partition", "--slope1", "1/0", "--slope2", "1e5", "--format", "svg")
    assert b"100006" in err and limit in err
    r = subprocess.run(BASE + ["partition", "--slope1", "1/0", "--slope2", "1e6", "--format", "json"],
                       capture_output=True, timeout=5)
    assert r.returncode == 0 and len(json.loads(r.stdout)["cells"]) == 1


def test_partition_svg_of_a_thin_cell_is_answered():
    # D = 1, and the one cell crosses 399 unit columns and 401 unit rows in
    # 802 pieces: far under the limit, though the product of its spans is not
    r = run("partition", "--slope1", "200/199", "--slope2", "201/200", "--format", "svg")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith(b"<svg") and r.stdout.count(b"<polygon") == 802


def test_render_over_the_pixel_limit_is_refused_at_once():
    from pixelwedge.cli import ENUMERATE_PIXEL_LIMIT

    limit = str(ENUMERATE_PIXEL_LIMIT).encode()
    # one (2w+1)**2 box at the default window w = 2 * (10**30 + 5)
    err = refused_at_once("render", "--slope1", "1e30", "--slope2", "-3/1", "--corner", "0.1,0.7")
    assert str((4 * (10**30 + 5) + 1) ** 2).encode() in err and limit in err
    for fmt in ("svg", "json"):
        err = refused_at_once("render", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "0.1,0.7",
                              "--window", "3000", "--format", fmt)
        assert str(6001**2).encode() in err and limit in err


def test_digitize_over_the_vertex_limit_is_refused_at_once():
    from pixelwedge.cli import DIGITIZE_VERTEX_LIMIT

    limit = str(DIGITIZE_VERTEX_LIMIT).encode()
    # rays (1, 10**30) and (1, -3): ((w+3)//10**30 + 2) * (10**30 + 1)
    # + ((w+3)//3 + 2) * 4 + 1 vertices at most
    err = refused_at_once("digitize", "--slope1", "1e30", "--slope2", "-3/1", "--corner", "0.1,0.7")
    assert str(2 * 10**30 + 23).encode() in err and limit in err
    err = refused_at_once("digitize", "--slope1", "1e30", "--slope2", "-3/1", "--corner", "0.1,0.7",
                          "--window", "1")
    assert str(2 * 10**30 + 15).encode() in err and limit in err
    # rays (1, 2) and (1, -3) of 2/1, -3/1: (80003//2 + 2) * 3 + (80003//3 + 2) * 4 + 1
    err = refused_at_once("digitize", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "0.1,0.7",
                          "--window", "80000")
    assert str(226686).encode() in err and limit in err


def test_limits_admit_every_pair_with_entries_up_to_five():
    # every pinned output and every input of the benchmark's cli workload
    # (entries <= 5, so D <= 50 and the default window <= 40; digitize at
    # window 6, and 8 by default, which covers 6) stays answered
    from pixelwedge import Slopes
    from pixelwedge.cli import DIGITIZE_VERTEX_LIMIT, ENUMERATE_PIXEL_LIMIT, PARTITION_PIECE_LIMIT
    from pixelwedge.digitize import path_vertex_bound
    from pixelwedge.partition import fragment_bound
    from pixelwedge.shapes import default_window
    from pixelwedge.verify import coprime_pairs

    pairs = coprime_pairs(5)
    for a, b in pairs:
        for c, d in pairs:
            if a * d != b * c:
                slopes = Slopes(a, b, c, d)
                w = default_window(slopes)
                assert w <= 40 and slopes.count <= 50
                assert slopes.count * (2 * w + 1) ** 2 <= ENUMERATE_PIXEL_LIMIT
                assert fragment_bound(slopes) <= PARTITION_PIECE_LIMIT
                assert (2 * w + 1) ** 2 <= ENUMERATE_PIXEL_LIMIT  # render
                assert path_vertex_bound(slopes, 8) <= DIGITIZE_VERTEX_LIMIT


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


def test_zero_denominator_corner_is_usage_error():
    # used to end in a ZeroDivisionError traceback, which argparse does not catch
    for corner in ("1/0,1", "1,1/0"):
        r = run("classify", "--slope1", "2/1", "--slope2", "-3/1", "--corner", corner)
        assert r.returncode == 2, corner
        assert r.stdout == b"" and b"Traceback" not in r.stderr, corner
        assert b"--corner" in r.stderr, corner


def test_corner_parts_are_read_like_slope_parts(capsysbinary):
    # signed and spaced parts: the parser took no sign after a corner's slash
    from pixelwedge import cli

    def answer(corner, *argv):
        code = cli.main([*argv, "--slope1", "2/1", "--slope2", "-3/1", "--corner", corner])
        return code, capsysbinary.readouterr()

    for written, reduced in (("1/-2,1/3", "-1/2,1/3"), ("1/+2,1/3", "1/2,1/3"), ("-3/-4,1/3", "3/4,1/3"),
                             ("1 / 2,1/3", "1/2,1/3")):
        for argv in (["classify"], ["classify", "--format", "json"], ["render"], ["digitize"]):
            expected = answer(reduced, *argv)
            assert expected[0] == 0 and expected[1].out, (reduced, argv)
            assert answer(written, *argv) == expected, (written, argv)


def test_usage_errors_name_their_reason(capsysbinary):
    from pixelwedge import cli

    spec = {"--slope1": "2/1", "--slope2": "-3/1", "--corner": "1/3,1/5"}
    for flag, value, reason in (
        ("--slope1", "0/0", "slope 0/0 is not a direction"),
        ("--slope1", "1/x", "'1/x' is not a rational p/q or decimal"),
        ("--corner", "1/0,1", "zero denominator in '1/0'"),
        ("--corner", "0.1", "corner '0.1' is not x,y"),
        # a p/q part is read by int(), so an exponent there is malformed text, not over the limit
        ("--slope1", "1/1e400", "'1/1e400' is not a rational p/q or decimal"),
        ("--corner", "1e400/1,1", "'1e400/1' is not a rational p/q or decimal"),
    ):
        argv = {**spec, flag: value}
        assert cli.main(["classify", *(t for kv in argv.items() for t in kv)]) == 2, value
        out, err = capsysbinary.readouterr()
        assert out == b"" and err.endswith(f"error: argument {flag}: {reason}\n".encode()), err


def test_ambiguous_endpoint_message_prints_rationals():
    r = run("digitize", "--slope1", "-0.5", "--slope2", "0/1", "--corner", "10,10.5", "--window", "3")
    assert r.returncode == 1 and r.stdout == b""
    assert r.stderr == b"pixelwedge: path endpoint (8/3, 21/2) rounds ambiguously\n"


def test_unbounded_rational_text_is_usage_error():
    # 1e5000000 kept Fraction busy for seconds; a 5001-digit slope ended in
    # CPython's int-to-string digit limit, reported as a domain error
    for flag, value in (("--corner", "1e5000000,1"), ("--slope1", "1e5000")):
        argv = {"--slope1": "2/1", "--slope2": "-3/1", "--corner": "1/3,1/5", flag: value}
        # raises TimeoutExpired, and kills the run, if it takes a second
        r = subprocess.run(BASE + ["classify", *(t for kv in argv.items() for t in kv)],
                           capture_output=True, timeout=1)
        assert r.returncode == 2 and r.stdout == b"", value
        assert b"Traceback" not in r.stderr and flag.encode() in r.stderr, value
    r = run("classify", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "1," + "1" * 301)
    assert r.returncode == 2 and b"300" in r.stderr


def test_largest_admitted_rational_text_is_answered():
    # 300 characters each, with the largest exponent either way: parts of up to
    # 594 digits, and thresholds of ~2080 characters, under CPython's 4300 digits
    s1, s2 = "9." + "3" * 292 + "7e-300", "-7." + "3" * 291 + "7e-300"
    x, y = "1." + "3" * 292 + "7e-300", "-2." + "3" * 291 + "7e+300"
    from pixelwedge.exact import TEXT_LIMIT

    assert {len(s1), len(s2), len(x), len(y)} == {TEXT_LIMIT}
    r = run("classify", "--slope1", s1, "--slope2", s2, "--corner", f"{x},{y}", "--format", "json")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert len(payload["alpha"]) > 2000 and len(payload["beta"]) > 2000
    assert payload["classes"] > 10**800


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
    ("7/2", "-5/3", "svg"): "bb48be18f23ef07921b5dcef3ebe6537e662be9952c31a439179ea8055aa8d8f",  # D = 31
    ("7/2", "-5/3", "json"): "4d570fd0b29a6e3346dcedfc2ec9e83afa076d5778c4e71a5dbccd6439791c06",
    ("40/1", "-1/40", "svg"): "eaf45c931312eec6a95c78b706e6d8d20b99fe9a063cc3b3028d4f420a944804",  # D = 1601
    ("40/1", "-1/40", "json"): "0d890c567d95a2103814598b3d77f67e083c8d911945d6959a918cf27c9fe95a",
    # det = -3, and each cell spans 4 unit columns and 5 unit rows
    ("6/5", "9/7", "svg"): "b52109397a37728d86b87ff97ab207900e71a3c9b59470f3e25c85beb4c9a594",
    ("6/5", "9/7", "json"): "1896b75a76c4de210e77e352670f2dfd9f7e1fb04d4a50f784747b4c6722fb41",
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


# sha256 of stdout for every CLI encoder of a picture or an answer, recorded
# before the renderers were folded into one raster and one JSON encoder.
PIN_PAIRS = (("2/1", "-3/1"), ("3/-1", "-1/2"), ("1/2", "3/1"))  # the last has det < 0


def _pinned_argvs():
    for s1, s2 in PIN_PAIRS:
        spec = ("--slope1", s1, "--slope2", s2)
        corner = ("--corner", "0.1,0.71")
        for fmt in ("ascii", "json"):
            yield ("enumerate", *spec, "--format", fmt)
            yield ("enumerate", *spec, "--format", fmt, "--window", "2")
        for fmt in ("ascii", "pbm", "svg", "json"):
            yield ("render", *spec, *corner, "--format", fmt)
        yield ("classify", *spec, *corner, "--format", "json")
        yield ("digitize", *spec, *corner)


STDOUT_SHA256 = {
    "enumerate --slope1 2/1 --slope2 -3/1 --format ascii":
        "f5a22c881a4e640db6ca138060151551a86ba80e9e7b51f8b6a861a43d6b8f0a",
    "enumerate --slope1 2/1 --slope2 -3/1 --format ascii --window 2":
        "57f32227a9d1745d93bbf0ebf73be8f3fcce573fb1033d827edead18cf9feb09",
    "enumerate --slope1 2/1 --slope2 -3/1 --format json":
        "0b83e742274a9f2d8ce51c71333a3937c3af20b9655fef5114b1699f0b133d0d",
    "enumerate --slope1 2/1 --slope2 -3/1 --format json --window 2":
        "50d4692534bcaf027588977f9b8faa122ac5171cb2c4b31146cdbbccb42c77e1",
    "render --slope1 2/1 --slope2 -3/1 --corner 0.1,0.71 --format ascii":
        "fc6db95f767a48c0f1a3f89161367ca358e7cd67a35ce0427eeaf8b9979eb262",
    "render --slope1 2/1 --slope2 -3/1 --corner 0.1,0.71 --format pbm":
        "f7446a300c25d17247b40e8a6acc76049423bf198fd497f803fc1fea1bf86996",
    "render --slope1 2/1 --slope2 -3/1 --corner 0.1,0.71 --format svg":
        "01040646dca701f6ef4a9e4d8286d9696b0f41285978b8b2a748083dd8c28f6d",
    "render --slope1 2/1 --slope2 -3/1 --corner 0.1,0.71 --format json":
        "8f9e1ec9889d98221b0ac6fcd01ffd3f699660e020d0a9d9a3222c86d1dea6b9",
    "classify --slope1 2/1 --slope2 -3/1 --corner 0.1,0.71 --format json":
        "1a23ae058ec6b8e7b0c658bad1acad2fcf6df692d08f28db1dbccffbeefdf50f",
    "digitize --slope1 2/1 --slope2 -3/1 --corner 0.1,0.71":
        "af064c737afa8e26dea2377b94ced21117cdf8c29fa694e1dbb233889e910bb3",
    "enumerate --slope1 3/-1 --slope2 -1/2 --format ascii":
        "b3ed24254f664f6fe54417c64ec93473fb5f13b5b1bfec0db1d65b8cecbd8864",
    "enumerate --slope1 3/-1 --slope2 -1/2 --format ascii --window 2":
        "4819190cb469e98693dd6cd70f636a1aa1aa0879548a221e3a7cb9614f448b7a",
    "enumerate --slope1 3/-1 --slope2 -1/2 --format json":
        "eb7fe503ded1899fd2e7e44d21e9401fe6eb4c9242edcb1e849b46476277819a",
    "enumerate --slope1 3/-1 --slope2 -1/2 --format json --window 2":
        "7e8a338e02922b3f9094ea3c4010d358c4bbd4993ce815d68e0a0dd3f413c629",
    "render --slope1 3/-1 --slope2 -1/2 --corner 0.1,0.71 --format ascii":
        "606d0c94c818cbcf754009b0ea1a71ef659b55ee65e022d51fb3ccd92d7640e1",
    "render --slope1 3/-1 --slope2 -1/2 --corner 0.1,0.71 --format pbm":
        "9d6fae019b548cb043fce7c3675e91e2a954929c0a1406f837baa42600132b94",
    "render --slope1 3/-1 --slope2 -1/2 --corner 0.1,0.71 --format svg":
        "e5e75f7fc19e2e50cfb7d9a120bff5452222e8e7e2bb9847620895c333b07680",
    "render --slope1 3/-1 --slope2 -1/2 --corner 0.1,0.71 --format json":
        "015255f54bf2e272032e4c45e4adf5e6375142267fa9f17af42d5d4407f64aa1",
    "classify --slope1 3/-1 --slope2 -1/2 --corner 0.1,0.71 --format json":
        "3862618733ee531b69de7f4baaee010ef4530a392ac47b0203bcddb183b158ea",
    "digitize --slope1 3/-1 --slope2 -1/2 --corner 0.1,0.71":
        "bff5175de1d291ef701e5898970c71a9d9a6b607b68077b952ea2411177dbf7f",
    "enumerate --slope1 1/2 --slope2 3/1 --format ascii":
        "17c2028c1361ade988bcfcb54d1c9192df9a94dac28ee2fc73209341431cc818",
    "enumerate --slope1 1/2 --slope2 3/1 --format ascii --window 2":
        "8f4638e1e66c7bb427aa848072c3ff89786db1bc3eb9e1a2a0f4cd7545733849",
    "enumerate --slope1 1/2 --slope2 3/1 --format json":
        "07b4ba9a0928c72e013045dd720068cfb83df94258d87b7a10b78f3fae287231",
    "enumerate --slope1 1/2 --slope2 3/1 --format json --window 2":
        "1f91fa5c6efba6d4964eca15e57498b573405979ac578942ecab81de2dd9ea98",
    "render --slope1 1/2 --slope2 3/1 --corner 0.1,0.71 --format ascii":
        "1071f9674b61ff849a65df6acdcdda3a82676adb7d2cfec87c4862770b2fd74c",
    "render --slope1 1/2 --slope2 3/1 --corner 0.1,0.71 --format pbm":
        "4f9bd5f5c0d6a6db1842ecccdf34dab298cbf2f1970a710fc2a7a7901ff49ebb",
    "render --slope1 1/2 --slope2 3/1 --corner 0.1,0.71 --format svg":
        "3323043e4a918eef078f06050afeb2caa7cc24d525981ad3c1dabace285dc1b2",
    "render --slope1 1/2 --slope2 3/1 --corner 0.1,0.71 --format json":
        "89de93d78b971bc6805435aa51f72d951def00124223b8ae11fb6edfff70b32e",
    "classify --slope1 1/2 --slope2 3/1 --corner 0.1,0.71 --format json":
        "00ec66f5829426dec4a6c24f18b8f6b762b5165d1f85e7fe670e976b88fb4757",
    "digitize --slope1 1/2 --slope2 3/1 --corner 0.1,0.71":
        "8811bb2f631e8b0c2817142ae8a68c351cc6680b6c3428c2a1a354b6c92321cf",
}


# sha256 of `pixelwedge sweep N` stdout, recorded before the sweep took its
# own separating window and read cell bases as integers.
SWEEP_STDOUT_SHA256 = {
    "sweep 1 --format ascii":
        "bb5b821ee23707c1bbff4022e7ea3591418fcffbead8bf1ace43f78cce619b35",
    "sweep 1 --format json":
        "a58c5114bdaa7b28b3f68b42fab7440afaecf494e2a4ef630fc1cd4f65adb581",
    "sweep 2 --format ascii":
        "8886ad720d331e2786359225ed5d135c8c94f7b1f1dd61ab5d66d22217681b73",
    "sweep 2 --format json":
        "54f6bef57f7c201d6ca01a9796ee844bcf9a8d2e23eb75c42f9c535e9ff6a440",
    "sweep 3 --format ascii":
        "c5fd2cd3634f43bb83c5958559d5092cc4f1a46ea05200e9a6f83d16fae1797d",
    "sweep 3 --format json":
        "59b993993b52d770f94488072fae0c6d963f36cb80c74e4d5755d0212cdd2a36",
    "sweep 4 --format ascii":
        "dfabcbab534818131a73f2d94adb36ae8ac317e024f8098e39f58610d54c21fe",
    "sweep 4 --format json":
        "3c663b743e278390d51cca6ad39403f1450d9d9ee3a05f17a667171fbdf334f5",
    "sweep 5 --format ascii":
        "d4344a87fc905224023966b4a08816a94216016d34f3dfd1be82f7ef33d39668",
    "sweep 5 --format json":
        "0ba8c1cfb214cf9376e565d8cba08e7faf2f1dba787a41ffd4cfc428e6cee596",
    "sweep 6 --format ascii":
        "1eb303d78e80cf1e90f6792f68e289e21b769ea08ce3427630a786244f578117",
    "sweep 6 --format json":
        "ddddb9b91d93ef4dba61e6f74cdda2814de419927721b5585ed8fbda77aeecbb",
    "sweep 7 --format ascii":
        "97d08f40ba46a1f49f4f2840c0136b0434fd3c0b379c2167018076a65c54cbc0",
    "sweep 7 --format json":
        "2a9003611bc00f482f7ab35e7464feae2e33cd380bf60323779321b0abb75568",
    "sweep 8 --format ascii":
        "d66785a3054423b57b96cac5424a4b4127b7c9a499eb744abbeeebbaf30d3667",
    "sweep 8 --format json":
        "e3ae33db1a49cf222f161a03112a88dff75c0303027757ebddb22503f15efd0f",
    "sweep 9 --format ascii":
        "80f894397dfdbb24280d36d6fd8e28c1af4d223e7f6c2d47730b86e3eb244fd3",
    "sweep 9 --format json":
        "5116bc6021b5dde375eec6e11f05e824f4f1db3741d6e9ce31ebd3ff82ac8857",
    "sweep 10 --format ascii":
        "95a67b1db0bcffdaceeda6ee5619ab26de10c6179fa83c8f1a33d6223689a2a3",
    "sweep 10 --format json":
        "167f42dc25823a62f810bca208d7cb095d6fdc460a9c41cd2b54369ec369cd5f",
}


def test_encoder_stdout_bytes_are_pinned(capsysbinary):
    import hashlib

    from pixelwedge.cli import main

    argvs = list(_pinned_argvs())
    assert len(argvs) == len(STDOUT_SHA256) == 30
    for argv in argvs:
        assert main(list(argv)) == 0, argv
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[" ".join(argv)], argv


def test_sweep_stdout_bytes_are_pinned(capsysbinary):
    import hashlib

    from pixelwedge.cli import main

    assert len(SWEEP_STDOUT_SHA256) == 20
    for n in range(1, 11):
        for fmt in ("ascii", "json"):
            argv = ("sweep", str(n), "--format", fmt)
            assert main(list(argv)) == 0, argv
            out = capsysbinary.readouterr().out
            assert hashlib.sha256(out).hexdigest() == SWEEP_STDOUT_SHA256[" ".join(argv)], argv


def test_json_loads_only_for_json_answers():
    # a bare interpreter (-S: no site, so no .pth file imports json first)
    # runs main in process and reports whether json was imported
    code = "import sys; from pixelwedge import cli; code = cli.main(sys.argv[1:]); print('json' in sys.modules, file=sys.stderr); sys.exit(code)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    argv = ["classify", "--slope1", "2/1", "--slope2", "-3/1", "--corner", "0.1,0.71"]
    for extra, out, loaded in (([], b"class 2 of 5\n", b"False\n"), (["--format", "json"], b'{"alpha": ', b"True\n")):
        r = subprocess.run([sys.executable, "-S", "-c", code, *argv, *extra], capture_output=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": src})
        assert r.returncode == 0 and r.stdout.startswith(out) and r.stderr == loaded, r
