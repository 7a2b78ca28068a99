"""Golden outputs: the CLI's bytes for a fixed set of commands, one file
each in `golden/`.

A file holds the exit code, stdout, and stderr without its
`# wall_time_s=` line, and its name is the command's slug.  Every command
runs in this one process, on the one parser `main` keeps; the commands
other than certify 4..167 are checked a second time in reverse order, so an
output that depended on the calls before it would show.  A refactor that
must keep every output byte-identical passes this test unchanged; a change
that means to alter an output regenerates the files with

    PYTHONPATH=src python tests/test_golden_outputs.py

and the diff shows which bytes moved.
"""

import contextlib
import difflib
import io
import pathlib
import re
import sys

import pytest

from matchlab.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

GENFUN_PAIRS = [(7, 2), (8, 2), (10, 6), (11, 6), (13, 2), (14, 6), (17, 2), (50, 2),
                (100, 2), (100, 6), (150, 2), (161, 6)]


def _both_formats(argv):
    return [argv, ["--format", "json", *argv]]


CERTIFY_RANGE = [["certify", str(n)] for n in range(4, 168)]

COMMANDS = [
    *CERTIFY_RANGE,
    ["certify", "2000"],
    ["certify", "6000"],
    *(argv for n, m in GENFUN_PAIRS for argv in _both_formats(["genfun", str(n), str(m), "--check"])),
    *(["--format", fmt, "report", "1..8"] for fmt in ("text", "json", "csv")),
    *(argv for g in ("1", "2", "5", "7", "12", "25", "Z") for argv in _both_formats(["classify", g])),
    *(argv for n in ("1", "5", "7", "8") for argv in _both_formats(["verify-amp", n])),
    *_both_formats(["enumerate", "7", "--a", "0,1,3", "--b", "1,2,4"]),
    *_both_formats(["enumerate", "Z", "--a", "-3,0,2,5", "--b", "-1,1,4,6"]),
    ["genfun", "30", "5", "--check"],
    # n < m + 4: the one class has no sum 3, and brute is the only route
    ["genfun", "4", "2", "--method", "brute"],
    ["classify", "pear"],
    ["--format", "csv", "certify", "7"],
    ["report", "5..3"],
]


def slug(argv) -> str:
    """The golden file name of `matchlab argv`: its words joined by '-',
    every run of other characters folded to one '-'."""
    return re.sub(r"[^A-Za-z0-9]+", "-", " ".join(argv)).strip("-") + ".txt"


def blob(argv) -> bytes:
    """The exit code, stdout and stderr (less its wall-time line) of
    `matchlab argv`, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    err_kept = "".join(line for line in err.getvalue().splitlines(keepends=True)
                       if not line.startswith("# wall_time_s="))
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err_kept}".encode()


def _mismatch(argv) -> str | None:
    """None when `matchlab argv` prints its golden bytes, else the start of
    a unified diff from them."""
    got, want = blob(argv), (GOLDEN / slug(argv)).read_bytes()
    if got == want:
        return None
    diff = difflib.unified_diff(want.decode().splitlines(), got.decode().splitlines(),
                                "golden/" + slug(argv), "now", lineterm="")
    return "\n".join(list(diff)[:40])


def test_fixture_pins_exactly_the_commands():
    names = [slug(argv) for argv in COMMANDS]
    assert len(set(names)) == len(COMMANDS)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(names)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_golden(argv):
    diff = _mismatch(argv)
    if diff is not None:
        pytest.fail(f"matchlab {' '.join(argv)}: output changed\n{diff}", pytrace=False)


def test_outputs_do_not_depend_on_call_order():
    reordered = [argv for argv in reversed(COMMANDS) if argv not in CERTIFY_RANGE]
    changed = [" ".join(argv) for argv in reordered if _mismatch(argv) is not None]
    assert changed == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in set(GOLDEN.iterdir()) - {GOLDEN / slug(argv) for argv in COMMANDS}:
        stale.unlink()
    for argv in COMMANDS:
        (GOLDEN / slug(argv)).write_bytes(blob(argv))
    print(f"pinned {len(COMMANDS)} commands in {GOLDEN}", file=sys.stderr)
