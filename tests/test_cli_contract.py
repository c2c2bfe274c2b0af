"""The CLI contract as a property: every argv gets an answer or a refusal.

Argv are drawn from the CLI grammar, known-bad shapes included, and run
through `cli.main` in process. The work limits are lowered so that admitted
runs stay small; the gates run the same code at any limit.
"""
import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from pixelwedge import cli

LIMITS = {
    "SWEEP_PAIR_LIMIT": 10_000,
    "VERIFY_CLASS_LIMIT": 1000,
    "VERIFY_WORK_LIMIT": 50_000,
    "ENUMERATE_PIXEL_LIMIT": 50_000,
    "PARTITION_PIECE_LIMIT": 2000,
    "DIGITIZE_VERTEX_LIMIT": 2000,
}

FORMATS = {
    "digitize": ["json"],
    "classify": ["ascii", "json"],
    "enumerate": ["ascii", "json"],
    "partition": ["svg", "json"],
    "verify": ["ascii", "json"],
    "render": ["ascii", "pbm", "svg", "json"],
    "sweep": ["ascii", "json"],
}


def mostly(usual, odd):
    """`usual` seven times in eight, else `odd`."""
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda u: usual if u else odd)


small = st.integers(-9, 9)
decimal = st.builds("{}.{}e{}".format, small, st.integers(0, 9), st.integers(-1, 1))
# huge values, text past the limits, and odd shapes, some of them still valid
odd = st.sampled_from(["1e30", "-2.5e-300", "9" * 299, "1e5000", "1e-301", "9" * 301, "+", "\u0663", "abc", "",
                       "1//2", "1/x", "1/0", "1/-2", " 3/4 "])
# slopes keep signed parts; 1/0 and 0/0 included
slope = mostly(st.one_of(st.builds("{}/{}".format, small, small), st.builds("{:+d}/{:+d}".format, small, small),
                         decimal), odd)
# half-integers too, and odd pairs of them are pixel centres
coord = mostly(st.one_of(st.builds("{}/{}".format, small, st.integers(1, 9)), st.builds("{}/2".format, small),
                         decimal), odd)
corner = mostly(st.builds("{},{}".format, coord, coord), coord)
window = mostly(st.integers(1, 12).map(str), st.sampled_from(["0", "-3", "100000", "1e3", "x"]))
samples = mostly(st.integers(1, 3000).map(str), st.sampled_from(["0", "-1", "10000000000", "x"]))
sweep_n = mostly(st.integers(1, 7).map(str), st.sampled_from(["0", "19", "400", "1" + "0" * 30, "x"]))


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(FORMATS)))
    argv = [cmd]
    if cmd == "sweep":
        argv += [draw(sweep_n)] if draw(st.booleans()) else []
    else:
        argv += ["--slope1", draw(slope), "--slope2", draw(slope)]
        if cmd in ("digitize", "classify", "render"):
            argv += ["--corner", draw(corner)]
        if cmd in ("digitize", "enumerate", "render") and draw(st.booleans()):
            argv += ["--window", draw(window)]
        if cmd == "verify":
            argv += ["--samples", draw(samples), "--seed", draw(small.map(str))]
    if draw(st.booleans()):
        argv += ["--format", draw(mostly(st.sampled_from(FORMATS[cmd]), st.sampled_from(["pbm", "svg", "yaml"])))]
    if draw(st.sampled_from([False] * 9 + [True])):  # a flag or its value left out
        argv = argv[:draw(st.integers(1, len(argv)))]
    return argv


def run_main(argv: list[str]) -> tuple[int, bytes, str]:
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=400)
@given(argv=argvs(), out=st.sampled_from([None, "answer", "missing/answer"]))
def test_every_argv_gets_an_answer_or_a_refusal(argv, out):
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        for name, value in LIMITS.items():
            mp.setattr(cli, name, value)
        path = os.path.join(tmp, out) if out else None
        argv = argv + ["--out", path] if path else argv
        runs = []
        for _ in range(2):
            code, stdout, stderr = run_main(argv)
            written = None
            if path and os.path.exists(path):
                with open(path, "rb") as fh:
                    written = fh.read()
                os.remove(path)
            runs.append((code, stdout, stderr, written))
            assert code in (0, 1, 2), argv
            if code == 2:  # a usage error names its reason, never a function of cli.py
                assert not any(f"invalid {name} value" in stderr for name in dir(cli)), (argv, stderr)
            if code == 1 and stderr:
                assert stderr.startswith("pixelwedge: ") and stderr.count("\n") == 1, argv
            if code and not (argv[0] == "sweep" and code == 1 and not stderr):  # a failing sweep keeps its report
                assert stdout == b"" and written is None, argv
            if path and code == 0:
                assert stdout == b"" and written is not None, argv
        assert runs[0] == runs[1], argv
