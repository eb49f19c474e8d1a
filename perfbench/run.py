"""cusp-ledger benchmark: seeded closed-loop batches through the public API.

    python3 perfbench/run.py --workload family-scan --seed 1 --seconds 21 \
        --trace 0

Run from the root of a checkout.  One client sends each op only after the
previous one has finished, in this one process.  `--seconds` fixes the
number of rounds in the batch (see workloads.rounds_for), so every commit
runs exactly the same work for a given seed.

--trace 0 runs the batch REPS times and reports the end-to-end metrics, each
time scaled to a fixed host speed by reference samples taken between the
ops (see speed.py);
--trace 1 runs it untraced, traced and untraced again, and reports the
per-layer metrics of the traced pass.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.

Maintenance modes: --self-check runs a tiny batch of every workload through
generation, digests, known-answer checks and the traced pass; --record
rewrites expected.json, the exit codes and output digests of the default
seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CATALOG = SRC / "cusp_ledger" / "data" / "catalog.json"
EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench-out"
DEFAULT_SEEDS = range(10)
DEFAULT_SECONDS = 21
REPS = 3          # repetitions of the batch in an untraced run
SETUP_STARTS = 6  # fresh interpreters before, between and after repetitions
DIGEST_HEX = 16   # recorded digests keep the first 16 hex digits of sha256

sys.path.insert(0, str(HERE))
from checks import command_argv, known_answer  # noqa: E402
from spans import METRICS, Tracer, layer_metrics  # noqa: E402
from speed import EVERY_S, Speed  # noqa: E402
from workloads import WORKLOADS, make_batch, make_round, rounds_for  # noqa: E402

SETUP_CODE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cusp_ledger.cli
from cusp_ledger.families import catalog_load, shipped_catalog_path
catalog_load(shipped_catalog_path())
print(time.perf_counter() - t)
"""


def load_package():
    if not (SRC / "cusp_ledger" / "__init__.py").is_file():
        raise SystemExit(f"error: no cusp_ledger sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cusp_ledger
    import cusp_ledger.cli  # noqa: F401  (binds cusp_ledger.cli)
    return cusp_ledger


def load_families() -> dict:
    return {f["name"]: f for f in json.loads(CATALOG.read_text())["families"]}


# -- running ops --------------------------------------------------------------

def execute(package, op) -> tuple[int, str, str]:
    """Run one op; returns (exit code, stdout, stderr)."""
    if op.argv[0] == "tower":
        families = package.families
        _, name, depth, terms = op.argv
        catalog = families.catalog_load(families.shipped_catalog_path())
        spec = catalog.family(name)
        direct = families.tower_series_direct(spec, int(depth), int(terms))
        recursive = families.tower_series_recursive(spec, int(depth),
                                                    int(terms))
        agree = direct == recursive
        out = json.dumps({"family": name, "depth": int(depth),
                          "terms": int(terms), "agree": agree,
                          "series": direct.to_json_obj()}, indent=2)
        return (0 if agree else 1), out + "\n", ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = package.cli.main(["--json", *op.argv])
    return code, out.getvalue(), err.getvalue()


def run_batch(package, ops, tracer=None) -> dict:
    """One pass over the batch, with reference samples between the ops.
    Latencies, scaled to the nominal host speed (see speed.py), and
    batch_s, their sum; raw_s is the unscaled sum."""
    stamps, results, speed = [], [], Speed(EVERY_S)
    for i, op in enumerate(ops):
        speed.sample()
        if tracer is not None:
            tracer.op_id = i
        t = time.perf_counter()
        try:
            result = execute(package, op)
        except Exception:  # an escaped exception is a failed op, not a crash
            result = (-1, "", traceback.format_exc())
        stamps.append((t, time.perf_counter()))
        results.append(result)
    speed.sample()
    latencies = [(end - start) * speed.factor(start, end)
                 for start, end in stamps]
    return {"batch_s": sum(latencies),
            "raw_s": sum(end - start for start, end in stamps),
            "latencies": latencies, "results": results}


def judge(ops, batch, families, expected) -> tuple[list[str], str]:
    """Per-op failures (digest or known answer) and the run's digest."""
    failures, combined = [], hashlib.sha256()
    for op, (code, out, err) in zip(ops, batch["results"]):
        digest = hashlib.sha256(out.encode()).hexdigest()
        combined.update(f"{op.id} {code} {digest}\n".encode())
        want = expected.get(op.id)
        reason = known_answer(op, code, out, err, families)
        if reason is None and want is not None \
                and want != f"{code}:{digest[:DIGEST_HEX]}":
            reason = f"exit:digest {code}:{digest[:DIGEST_HEX]}, " \
                     f"recorded {want}"
        if reason is not None:
            failures.append(f"{op.id} {' '.join(op.argv)}: {reason}")
    return failures, combined.hexdigest()


def expected_digests(workload: str, seed: int) -> dict:
    doc = json.loads(EXPECTED.read_text())
    return doc.get(workload, {}).get(str(seed), {})


# -- end-to-end metrics -------------------------------------------------------

def setup_times(starts: int = SETUP_STARTS) -> list[float]:
    """Times for fresh interpreters to import cusp_ledger.cli and load the
    shipped catalog, each scaled by the speed of the reference samples
    taken before and after the starts of the burst."""
    stamps, speed = [], Speed()
    for _ in range(starts):
        speed.sample()
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True)
        stamps.append((t, time.perf_counter(), float(proc.stdout)))
    speed.sample()
    return [setup * speed.factor(start, end) for start, end, setup in stamps]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten ops
    beyond it; with ten ops or fewer, the slowest op."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def anchor_times(ops, latencies) -> dict:
    """Each anchor's latency, keyed by its command line."""
    return {" ".join(op.argv): lat for op, lat in zip(ops, latencies)
            if op.anchor}


def end_to_end(package, ops, families,
               expected) -> tuple[dict, list, bool, str]:
    """Run the batch REPS times; report the median repetition, and per op
    its median latency over the repetitions, all scaled to the nominal host
    speed.  setup_s is the median of fresh starts spread over the whole run,
    before, between and after the repetitions, after one unmeasured start
    that warms the bytecode."""
    setup_times(1)
    setup, reps = setup_times(), []
    for _ in range(REPS):
        reps.append(run_batch(package, ops))
        setup += setup_times()
    failures, digests = [], []
    for batch in reps:
        more, digest = judge(ops, batch, families, expected)
        failures += more
        digests.append(digest)
    latencies = [statistics.median(lat)
                 for lat in zip(*(b["latencies"] for b in reps))]
    value, pct = tail(latencies)
    for argv, t in anchor_times(ops, latencies).items():
        print(f"anchor {argv}: {t:.4f} s")
    print(f"op_tail_s is p{pct:.1f} of {len(ops)} ops; failed_ratio "
          f"{len(failures) / (REPS * len(ops)):.4f}")
    times = [b["batch_s"] for b in reps]
    print("repetitions (scaled s, raw s) " + "; ".join(
        f"{b['batch_s']:.4f} {b['raw_s']:.4f}" for b in reps))
    metrics = {
        "batch_s": (statistics.median(times), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return metrics, failures, len(set(digests)) == 1, digests[0]


def traced(package, ops, families, expected, name, seed):
    """A traced pass between two untraced ones; per-layer metrics of the
    traced pass, and its overhead over the faster untraced pass.  Like
    end_to_end, it also returns the per-op failures, whether every pass gave
    the same outputs, and the combined digest."""
    before = run_batch(package, ops)
    tracer = Tracer()
    tracer.calibrate()
    remove = tracer.install(package)
    try:
        batch = run_batch(package, ops, tracer)
    finally:
        remove()
    after = run_batch(package, ops)
    failures, digests = [], []
    for one in (before, batch, after):
        more, digest = judge(ops, one, families, expected)
        failures += more
        digests.append(digest)
    json_bytes = sum(len(out.encode()) for op, (_, out, _) in
                     zip(ops, batch["results"]) if op.argv[0] != "tower")
    plain_s = min(before["batch_s"], after["batch_s"])
    values = layer_metrics(tracer, json_bytes, batch["batch_s"] / plain_s)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz"
    tracer.dump(spans)
    print(f"{len(tracer.start)} spans written to {spans.relative_to(ROOT)}; "
          f"{tracer.residual_ns:.0f} ns uncovered per wrapper call")
    metrics = {m: (values[m], unit) for m, unit in METRICS}
    return metrics, failures, len(set(digests)) == 1, digests[0]


# -- modes ------------------------------------------------------------------

def run(args) -> int:
    package = load_package()
    families = load_families()
    workload = WORKLOADS[args.workload]
    rounds = rounds_for(workload, args.seconds / REPS)
    ops = make_batch(workload, args.seed, rounds, families)
    expected = expected_digests(args.workload, args.seed)
    if args.trace:
        metrics, failures, same, digest = traced(
            package, ops, families, expected, args.workload, args.seed)
        attempted = 3 * len(ops)
    else:
        metrics, failures, same, digest = end_to_end(
            package, ops, families, expected)
        attempted = REPS * len(ops)
    for line in failures:
        print(f"FAILED {line}")
    if not same:
        print("FAILED outputs differ between passes over the batch")
    checked = "recorded digests" if expected else "known answers only"
    print(f"digest {digest} ({rounds} rounds, {len(ops)} ops, {checked})")
    print(json.dumps({
        "correct": not failures and same, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def record() -> int:
    package = load_package()
    families = load_families()
    doc = {}
    for name, workload in WORKLOADS.items():
        doc[name] = {}
        for seed in DEFAULT_SEEDS:
            ops = make_batch(workload, seed,
                             rounds_for(workload, DEFAULT_SECONDS / REPS),
                             families)
            batch = run_batch(package, ops)
            failures, _ = judge(ops, batch, families, {})
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            doc[name][str(seed)] = {
                op.id: f"{code}:"
                       f"{hashlib.sha256(out.encode()).hexdigest()[:DIGEST_HEX]}"
                for op, (code, out, _) in zip(ops, batch["results"])}
            print(f"recorded {name} seed {seed}: {len(ops)} ops")
    EXPECTED.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


# a semantic change per command, which its known-answer check must catch
TAMPER = {
    "verify": lambda d: d.update(qualifying_count=d["qualifying_count"] + 1),
    "profile": lambda d: d.update(cusp_count=d["cusp_count"] + 1),
    "classify": lambda d: d.update(difficulty_class="Classical?"),
    "tower": lambda d: d.update(agree=False),
    "reduce": lambda d: d.update(coeffs=d["coeffs"][1:]),
    "find-eta": lambda d: [e.update(orders={c: "1/7" for c in e["orders"]})
                           for e in d["results"]],
}


def self_check() -> int:
    """A tiny batch per workload (every other op of the first round of
    seed 0) goes through the untraced and the traced run and must
    pass every check, report every metric of BENCHMARK.json, and fail the
    checks once its outputs are tampered with."""
    package = load_package()
    families = load_families()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if bench["run_seconds"] != DEFAULT_SECONDS:
        problems.append("BENCHMARK.json run_seconds differs from the default")
    for name, workload in WORKLOADS.items():
        ops = make_round(workload, 0, 0, families)[::2]
        expected = expected_digests(name, 0)
        if not expected:
            problems.append(f"{name}: no recorded digests for seed 0")
        plain, failures, same, _ = end_to_end(package, ops, families,
                                              expected)
        layers, more, same_traced, _ = traced(package, ops, families,
                                              expected, name, "check")
        problems += failures + more
        if not (same and same_traced):
            problems.append(f"{name}: outputs differ between passes")
        for kind, metrics in (("end_to_end", plain), ("per_layer", layers)):
            if [(m["name"], m["unit"]) for m in bench[kind]] != \
                    [(k, u) for k, (_, u) in metrics.items()]:
                problems.append(f"{name}: {kind} metrics differ from "
                                f"BENCHMARK.json")
        if layers["cli.main.calls"][0] != sum(op.argv[0] != "tower"
                                              for op in ops):
            problems.append(f"{name}: cli.main spans miss ops")
        batch = run_batch(package, ops)
        for op, (code, out, err) in zip(ops, batch["results"]):
            if not out:
                continue
            doc = json.loads(out)
            TAMPER[command_argv(op)[0]](doc)
            if json.loads(out) == doc:
                continue
            bad = dict(batch, results=[(code, json.dumps(doc), err)])
            if not judge([op], bad, families, {})[0]:
                problems.append(f"{name}: tampered output of {op.id} passed")
        print(f"self-check {name}: {len(ops)} ops")
    for line in problems:
        print(f"FAILED {line}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-check", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
