import json
import subprocess
import sys
from pathlib import Path

from matchlab.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_classification.py"


def test_reproduction_script_writes_verified_artifacts(tmp_path, capsys):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    expected = {f"classify_n{n}.json" for n in range(1, 9)} | {"classify_Z.json"}
    expected |= {f"certify_n{n}.json" for n in range(4, 36) if n != 5}
    assert {p.name for p in tmp_path.iterdir()} == expected

    certs = {p.name: json.loads(p.read_text()) for p in tmp_path.iterdir()}
    assert all(c["verified"] is True for c in certs.values())
    assert certs["classify_Z.json"]["evidence"]["holds"] is True

    for name, argv in [
        ("certify_n13.json", ["certify", "13"]),
        ("classify_n5.json", ["--format", "json", "classify", "5"]),
    ]:
        assert main(argv) == 0
        assert (tmp_path / name).read_text() == capsys.readouterr().out
