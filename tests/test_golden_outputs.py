"""Golden outputs: the CLI's bytes for a fixed set of commands, pinned as one
sha256 each in `golden_outputs.json`.

A hash covers the exit code, stdout, and stderr without its
`# wall_time_s=` line.  Every command runs in this one process, on the one
parser `main` keeps; the commands other than certify 4..167 are checked a
second time in reverse order, so an output that depended on the calls
before it would show.  A refactor that must keep every output
byte-identical passes this test unchanged; a change that means to alter an
output regenerates the fixture with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says in its description which commands changed.
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import sys

import pytest

from matchlab.cli import main

FIXTURE = pathlib.Path(__file__).with_name("golden_outputs.json")

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
    ["classify", "pear"],
    ["--format", "csv", "certify", "7"],
    ["report", "5..3"],
]


def digest(argv) -> str:
    """sha256 of the exit code, stdout and stderr (less its wall-time line)
    of `matchlab argv`, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    err_kept = "".join(line for line in err.getvalue().splitlines(keepends=True)
                       if not line.startswith("# wall_time_s="))
    blob = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err_kept}"
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.cache
def _pinned() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_pins_exactly_the_commands():
    assert sorted(_pinned()) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_golden(argv):
    command = " ".join(argv)
    assert digest(argv) == _pinned()[command], f"matchlab {command}: output changed"


def test_outputs_do_not_depend_on_call_order():
    reordered = [argv for argv in reversed(COMMANDS) if argv not in CERTIFY_RANGE]
    changed = [" ".join(argv) for argv in reordered if digest(argv) != _pinned()[" ".join(argv)]]
    assert changed == []


if __name__ == "__main__":
    pins = {" ".join(argv): digest(argv) for argv in COMMANDS}
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} commands in {FIXTURE}", file=sys.stderr)
