"""What `import hgam` loads. Start-up time is mostly this import, so a new
module at import time is a change to measure, and this test makes it a
visible one: it fails when hgam loads any module outside `hgam.*` beyond
numpy and the standard-library modules listed below."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# the modules hgam imports at load time, besides numpy and its own
STDLIB = ("__future__", "argparse", "csv", "dataclasses", "json", "mmap")

PROBE = f"""
import sys
import numpy, {", ".join(STDLIB)}
before = set(sys.modules)
import hgam, hgam.cli
print("\\n".join(sorted(set(sys.modules) - before)))
print("yaml loaded" if "yaml" in sys.modules else "yaml not loaded")
"""


def test_import_loads_nothing_beyond_numpy_and_its_stdlib_modules():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                         text=True, env=env, timeout=120, check=False)
    assert run.returncode == 0, run.stderr
    *loaded, yaml = run.stdout.splitlines()
    # load_config imports yaml when a run reads a config file, not before
    assert yaml == "yaml not loaded"
    assert "hgam" in loaded
    assert [name for name in loaded
            if name != "hgam" and not name.startswith("hgam.")] == []
