"""FINGERPRINT.txt is the committed output of scripts/fingerprint.py: the
digests of a fixed set of fixed-seed runs, under the build they were
recorded on. A change that keeps behaviour prints them again; a change
that moves a digest on purpose records the file anew in the same change."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "fingerprint.py"
RECORD = ROOT / "FINGERPRINT.txt"


def load_script():
    spec = importlib.util.spec_from_file_location("fingerprint_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def split(text: str):
    """(header lines, {output name: digest}) of the script's output."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    digests = dict(reversed(line.split("  ", 1))
                   for line in lines if not line.startswith("#"))
    return header, digests


def test_fingerprint_matches_record():
    recorded_text = RECORD.read_text(encoding="utf-8")
    recorded_env, recorded = split(recorded_text)
    here = load_script().environment()
    if here != recorded_env:
        # other kernels round differently: the digests hold on one build
        pytest.skip(f"FINGERPRINT.txt was recorded on {recorded_env}; "
                    f"this build is {here}")
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, timeout=600, check=False)
    assert run.returncode == 0, run.stderr
    _, got = split(run.stdout)
    differ = sorted(name for name in recorded.keys() | got.keys()
                    if recorded.get(name) != got.get(name))
    assert not differ, f"outputs whose digest differs from FINGERPRINT.txt: {differ}"
    assert run.stdout == recorded_text
