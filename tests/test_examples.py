"""The examples still run and end on their closing line.

``quickstart.py`` and ``video_surveillance.py`` build QoS and resource
vectors by hand; ``failure_resilience.py`` is the one example that
crashes and recovers nodes, so it drives routing under churn end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, expected",
    [
        ("quickstart.py", "Close(): session 1 released; active sessions = 0"),
        ("video_surveillance.py", "processed one second of media on every feed"),
        (
            "failure_resilience.py",
            "virtual links re-routed around crashed relays",
        ),
    ],
)
def test_example_runs(script, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout.splitlines()[-1]
