import json
import math
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_classification.py"


def test_reproduction_script_writes_verified_artifacts(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    expected = {"report_1_8.json", "integers_spot_check.json"}
    expected |= {f"cert_coprime6_n{n}.json" for n in range(7, 36) if math.gcd(n, 6) == 1}
    expected |= {
        f"cert_nonprime_n{n}.json" for n in range(4, 17) if any(n % d == 0 for d in range(2, n))
    }
    assert {p.name for p in tmp_path.iterdir()} == expected

    report = json.loads((tmp_path / "report_1_8.json").read_text())
    assert [c["descriptor"] for c in report] == [f"Z/{n}Z" for n in range(1, 9)]
    certs = report + [json.loads(p.read_text()) for p in tmp_path.glob("cert_*.json")]
    assert all(c["verified"] is True for c in certs)
    assert json.loads((tmp_path / "integers_spot_check.json").read_text())["failures"] == []
