"""Guards for `metatap.oracles`: no command loads it, every oracle in it is
compared with its production counterpart by some test, and the oracles'
Fox-table path appears in no production module."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

from metatap import characters, exactalg, groupcalc, oracles, twinring, twisted
from metatap.oracles import PolyMatrix


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


# The matrix-polynomial Fox path: prefix-image tables, assembled Fox
# matrices and Phi(g - 1) as matrix polynomials.  Production evaluates the
# Fox determinants from the relator walks instead.
FOX_TABLE_PATH = ("fox_images", "fox_tables", "fox_jacobian", "block_matrix",
                  "phi_generator_minus_one", "_phi_generator_minus_one",
                  "twisted_alexander_tables")


def test_fox_table_path_only_in_oracles():
    # no production module defines or calls it, and the production types
    # and modules no longer carry it
    call = re.compile(rf"\b({'|'.join(FOX_TABLE_PATH)})\(|[.\s](blocks)\(")
    package = Path(oracles.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        if path.name != "oracles.py":
            found = [m.group(0) for m in call.finditer(path.read_text())]
            assert found == [], path.name
    assert not hasattr(PolyMatrix, "blocks")
    assert not hasattr(characters.Representation, "fox_images")
    assert not hasattr(groupcalc, "fox_jacobian")
    assert not hasattr(twisted, "_phi_generator_minus_one")
    # and a compute run calls none of it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    script = (
        "import sys\n"
        "from metatap import cli\n"
        "called = set()\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        called.add(frame.f_code.co_name)\n"
        "sys.setprofile(profile)\n"
        "status = cli.main(['compute', '--pres', '10_145', '--group', 'M(5|2,4)'])\n"
        "sys.setprofile(None)\n"
        f"print(status, sorted(called & set({FOX_TABLE_PATH + ('blocks',)!r})))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


# The matrix-polynomial type, the recursion on it and the twin section.
# Production runs the recursion on integer matrices at t = 2^B instead.
SERIES_PATH = ("PolyMatrix", "recursion_series", "normalized_series",
               "yx_geometric", "_head", "_part_series", "TwinDecomp",
               "twin_decompose", "twin_determinant", "NotTwinError")


def test_matrix_polynomials_only_in_oracles():
    # no production module defines, imports or calls them; a docstring
    # may point to the oracle by its qualified name
    name = re.compile(rf"(?<!oracles\.)\b({'|'.join(SERIES_PATH)})\b")
    package = Path(oracles.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "oracles.py":
            assert name.findall(path.read_text()) == [], path.name
    for module in (exactalg, twinring):
        assert not any(hasattr(module, attr) for attr in SERIES_PATH)
    assert all(hasattr(oracles, attr) for attr in SERIES_PATH)

