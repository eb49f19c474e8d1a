"""A command imports only what it uses.

Every CLI command is its own process, so what `import cusp_ledger.cli`
pulls in is paid on every run.  A fresh `python -I` imports the cli,
loads the shipped catalog and runs a well-formed command, as each command
does, and must not load a module of UNUSED that a bare interpreter does not
load already: argparse (and gettext with it) is imported only for an argv
that the cli's own reader leaves to it.  The check
runs under `-I -S` as well, since a `site` hook may preload a module
(`typing`, say) and so hide the package's own import of it.  The
package is imported from wherever this process found it: src/ in the
checkout, the installed package when the suite runs outside it.
"""

import subprocess
import sys
from pathlib import Path

import cusp_ledger

UNUSED = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect",
          "typing", "argparse", "gettext")

LOADED = """\
import os, sys
if sys.argv[2] == "cli":
    sys.path.insert(0, sys.argv[1])
    import cusp_ledger.cli
    from cusp_ledger.families import catalog_load, shipped_catalog_path
    catalog_load(shipped_catalog_path())
    stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
    assert cusp_ledger.cli.main(["--json", "profile", "30"]) == 0
    sys.stdout = stdout
print("\\n".join(sys.modules))
"""


def _loaded(flags: tuple[str, ...], what: str) -> set[str]:
    root = Path(cusp_ledger.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, *flags, "-c", LOADED, str(root), what],
        capture_output=True, text=True, timeout=60, check=True).stdout
    return set(out.split())


def test_start_up_imports_no_pool_no_dataclasses_no_typing():
    for flags in ("-I",), ("-I", "-S"):
        bare, cli = _loaded(flags, "bare"), _loaded(flags, "cli")
        assert "cusp_ledger.cli" in cli, flags
        assert [m for m in UNUSED if m in cli and m not in bare] == [], flags
