"""The benchmark's tracer (perfbench/spans.py) wraps package functions that
it looks up by name, so a rename in the package must fail here rather than
break `perfbench/run.py --trace 1` and `--self-check`."""

import importlib.util
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import cusp_ledger
import cusp_ledger.cli  # noqa: F401  (binds cusp_ledger.cli)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ("series", "curves", "eta", "reduction", "families", "cli")


def _spans():
    # spans.py uses only the standard library; it is loaded, not changed
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve_in_the_package():
    spans = _spans()
    wanted = [(module, path) for _, module, path, _, _ in spans.TRACED]
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


def test_tracer_install_round_trip():
    # what --trace 1 and --self-check run: install wraps every traced name
    # and cli.ProcessPoolExecutor (bound by the cli on first access), and
    # its remover puts every original back
    spans = _spans()
    owners = [cusp_ledger] + [getattr(cusp_ledger, m) for m in MODULES]
    owners += [getattr(getattr(cusp_ledger, module), path.split(".")[0])
               for _, module, path, _, _ in spans.TRACED if "." in path]
    before = [(owner, dict(vars(owner))) for owner in owners]
    main = cusp_ledger.cli.main
    remove = spans.Tracer().install(cusp_ledger)
    try:
        pool = cusp_ledger.cli.ProcessPoolExecutor
        assert pool is not ProcessPoolExecutor
        assert issubclass(pool, ProcessPoolExecutor)
        assert cusp_ledger.cli.main is not main
    finally:
        remove()
    assert cusp_ledger.cli.ProcessPoolExecutor is ProcessPoolExecutor
    changed = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, snapshot in before
               for name, value in snapshot.items()
               if vars(owner).get(name) is not value]
    assert changed == []
