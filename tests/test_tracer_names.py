"""The benchmark's tracer (perfbench/spans.py) wraps package functions that
it looks up by name, so a rename in the package must fail here rather than
break `perfbench/run.py --trace 1` and `--self-check`."""

import importlib.util
from pathlib import Path

import cusp_ledger
import cusp_ledger.cli  # noqa: F401  (binds cusp_ledger.cli)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve_in_the_package():
    # spans.py uses only the standard library; it is loaded, not changed
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wanted = [(module, path) for _, module, path, _, _ in spans.TRACED]
    wanted.append(("cli", "ProcessPoolExecutor"))
    missing = []
    for module, path in wanted:
        # the lookup of Tracer.install: getattr down to the owner, then
        # the owner's own __dict__
        owner = getattr(cusp_ledger, module, None)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        if not callable(getattr(owner, "__dict__", {}).get(attr)):
            missing.append(f"{module}.{path}")
    assert spans.TRACED
    assert missing == []
