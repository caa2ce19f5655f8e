"""Guards for `metatap.oracles`: no command loads it, and every oracle in
it is compared with its production counterpart by some test."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

from metatap import oracles


def test_cli_does_not_import_oracles():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    script = (
        "import sys\n"
        "from metatap import cli\n"
        "status = cli.main(['compute', '--r', '5/27', '--group', 'A4', '--cross-check'])\n"
        "print(status, 'metatap.oracles' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr
    assert '"cross_path_match": true' in lines[0]
    assert lines[-1] == "0 False"


def test_every_oracle_is_used_by_a_test():
    names = sorted(name for name, obj in vars(oracles).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == oracles.__name__)
    assert {"det_bareiss", "fox_derivative", "perm_rep", "phi_map"} <= set(names)
    here = Path(__file__).resolve()
    text = "\n".join(path.read_text() for path in sorted(here.parent.glob("test_*.py"))
                     if path != here)
    unused = [name for name in names if not re.search(rf"\b{name}\b", text)]
    assert unused == []
