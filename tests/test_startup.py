"""A command imports only what it uses.

Every CLI command is its own process, so what `import cusp_ledger.cli`
pulls in is paid on every run.  A fresh `python -I` imports the cli and
loads the shipped catalog, as each command does, and must not load a
module of UNUSED that a bare interpreter does not load already.  The
package is imported from wherever this process found it: src/ in the
checkout, the installed package when the suite runs outside it.
"""

import subprocess
import sys
from pathlib import Path

import cusp_ledger

UNUSED = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect",
          "typing")

LOADED = """\
import sys
if sys.argv[2] == "cli":
    sys.path.insert(0, sys.argv[1])
    import cusp_ledger.cli
    from cusp_ledger.families import catalog_load, shipped_catalog_path
    catalog_load(shipped_catalog_path())
print("\\n".join(sys.modules))
"""


def _loaded(what: str) -> set[str]:
    root = Path(cusp_ledger.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-I", "-c", LOADED, str(root), what],
        capture_output=True, text=True, timeout=60, check=True).stdout
    return set(out.split())


def test_start_up_imports_no_pool_no_dataclasses_no_typing():
    bare, cli = _loaded("bare"), _loaded("cli")
    assert "cusp_ledger.cli" in cli
    assert [m for m in UNUSED if m in cli and m not in bare] == []
