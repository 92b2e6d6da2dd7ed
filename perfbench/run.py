"""persdiff benchmark: CLI workloads end to end, and per layer when traced.

    python3 perfbench/run.py --workload grid-gf2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One operation is one ``persdiff.cli.main(argv)`` call on one
generated document, with stdout captured: argument parsing, the file
read, validation, the computation and the JSON output.  The load is a
closed loop in one process, one operation at a time, and every document
is used once, so each operation starts as cold as a command-line run.
Interpreter start, ``import persdiff`` and writing the documents are
set-up.  Every operation passes a correctness gate outside its timed
region.  The last line of stdout is the JSON result; documents, output
digests and spans go under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
ZERO_SAMPLES = 16
# op_s_tail: the highest of p50, p75, p90 with at least ten samples beyond
# it at the benchmark's commit, fixed so later commits compare the same one.
TAIL_PCT = 75

sys.path.insert(0, str(HERE))
from docs import WORKLOADS, Workload, write_pool  # noqa: E402


def import_package():
    """Import persdiff from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "persdiff" / "__init__.py").is_file():
        raise SystemExit(f"error: no persdiff package under {SRC}")
    sys.path.insert(0, str(SRC))
    import persdiff

    if Path(persdiff.__file__).resolve().parent != SRC / "persdiff":
        raise SystemExit(f"error: imported persdiff from {persdiff.__file__}, not {SRC}")
    return persdiff


@dataclass
class Op:
    index: int
    traced: bool
    seconds: float
    doc: str  # sha256 of the input document
    stdout: str  # sha256 of the captured stdout
    failure: str | None


def run_cli(argv) -> tuple[int, str]:
    """One CLI call in this process; returns (exit code, stdout)."""
    from persdiff import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _open_of(p, spec):
    from persdiff.posets import EMPTY_OPEN, principal_up_set

    if spec == "inf":
        return EMPTY_OPEN
    if len(spec) != 1:
        raise ValueError(f"expected one generator, got {spec!r}")
    g = spec[0]
    return principal_up_set(p, tuple(g) if isinstance(g, list) else (g,))


def check_diagram(path, doc, rng) -> str | None:
    """Recompute every reported multiplicity, and a sample of zero ones,
    through the lifespan quotient route on a freshly loaded complex."""
    from persdiff.io import load_complex
    from persdiff.memory import lifespan_rank
    from persdiff.posets import PairOpen, enumerate_diagram_pairs

    if doc.get("kind") != "diagram":
        return "output is not a diagram document"
    k = load_complex(path)
    p = k.poset
    reported = set()
    for e in doc["entries"]:
        n, mult = e["degree"], e["multiplicity"]
        pair = PairOpen(_open_of(p, e["birth"]), _open_of(p, e["death"]))
        if (n, pair) in reported or mult <= 0:
            return f"duplicate or non-positive entry {e}"
        reported.add((n, pair))
        if lifespan_rank(k, n, pair) != mult:
            return f"entry {e} disagrees with the lifespan rank"
    zeros = [
        (n, pair)
        for n in range(max(k.max_dim, 0) + 1)
        for pair in enumerate_diagram_pairs(p)
        if (n, pair) not in reported
    ]
    for n, pair in rng.sample(zeros, min(ZERO_SAMPLES, len(zeros))):
        if lifespan_rank(k, n, pair) != 0:
            return f"unreported pair in degree {n} has a non-zero lifespan rank"
    return None


def check_op(workload: Workload, path, code, stdout, rng) -> str | None:
    """None if the operation's output is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if workload.args[0] == "verify":
        return None if doc.get("ok") is True else "verification not ok"
    try:
        return check_diagram(path, doc, rng)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed diagram entry: {exc!r}"


def load_reference(workload: Workload) -> dict:
    """Stdout digests recorded at the benchmark's commit, keyed by document digest."""
    path = HERE / "reference" / f"{workload.name}.json"
    return json.loads(path.read_text())["digests"] if path.is_file() else {}


def setup(workload: Workload, seed: int, directory: Path) -> tuple[list, float]:
    """Write the documents ``SETUP_REPEATS`` times, each after a fresh
    interpreter imports the package; return the documents and the median."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import persdiff"], env=env, check=True)
        pool = write_pool(workload, seed, directory)
        times.append(time.perf_counter() - start)
    return pool, statistics.median(times)


def run_ops(workload, pool, seconds, seed, tracer=None, runner=run_cli) -> list[Op]:
    """Closed loop over the documents until ``seconds`` have passed and
    at least two operations ran.  With a tracer, odd operations are
    traced and even ones are not."""
    reference = load_reference(workload)
    rng = random.Random(f"gate:{workload.name}:{seed}")
    ops = []
    begin = time.perf_counter()
    for i, (path, doc_sha) in enumerate(pool):
        if i >= 2 and time.perf_counter() - begin >= seconds:
            break
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(i)
        start = time.perf_counter()
        try:
            code, stdout = runner(workload.argv(path))
        except Exception as exc:  # an op that raises is a failed op
            code, stdout = f"exception {exc!r}", ""
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        failure = check_op(workload, path, code, stdout, rng)
        out_sha = hashlib.sha256(stdout.encode()).hexdigest()
        if failure is None and reference.get(doc_sha, out_sha) != out_sha:
            failure = "stdout differs from the reference digest"
        ops.append(Op(i, traced, elapsed, doc_sha, out_sha, failure))
    return ops


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def throughput(ops) -> float:
    done = sum(1 for op in ops if op.failure is None)
    return done / sum(op.seconds for op in ops)


def end_to_end(ops, setup_s: float) -> tuple[dict, list[str]]:
    times = [op.seconds for op in ops]
    tail = percentile(times, TAIL_PCT)
    beyond = sum(1 for t in times if t > tail)
    failed = sum(1 for op in ops if op.failure)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (throughput(ops), "ops/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [
        f"op_s_tail is p{TAIL_PCT}: {beyond} of {len(times)} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than 10)"),
        f"fail_ratio {failed / len(ops):.4f} ({failed} of {len(ops)} ops failed)",
    ]
    return metrics, notes


def per_layer(ops, tracer) -> dict:
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    n = len(traced)
    s = tracer.summary()

    def get(name, key):
        return s[name][key] / n

    out = {}
    for layer in (
        "io", "complexes", "posets", "linalg", "memory",
        "calculus", "diagrams", "oracle", "verify", "cli",
    ):
        out[f"{layer}.calls"] = (get(layer, "calls"), "calls/op")
        out[f"{layer}.self_s"] = (get(layer, "self_s"), "s/op")
    for name in (
        "io.load_complex", "complexes.validate", "posets.pair_blankets",
        "posets.blankets_of_open", "posets.min_elements", "linalg.meet",
        "linalg.join", "linalg.from_array", "memory.blanket_union",
        "diagrams.compute_diagram", "verify.run_verification",
    ):
        out[f"{name}.self_s"] = (get(name, "self_s"), "s/op")
    for name in (
        "posets.pair_blankets", "posets.blankets_of_open", "linalg.meet",
        "linalg.join", "linalg.contains", "linalg.kernel", "linalg.from_array",
        "memory.homological_memory", "memory.blanket_union",
        "memory.lifespan_rank", "calculus.pair_group_rank",
    ):
        out[f"{name}.calls"] = (get(name, "calls"), "calls/op")
    out["complexes.point_subspaces.calls"] = (
        get("complexes.cycles_at", "calls") + get("complexes.boundaries_at", "calls"),
        "calls/op",
    )
    for name in ("posets.enumerate_diagram_pairs", "posets.degree_blankets"):
        out[f"{name}.pairs_out"] = (tracer.counts.get(name, 0) / n, "pairs/op")
    out["linalg.meet.cells"] = (tracer.meet_cells / n, "cells/op")
    calls = tracer.memory_calls
    out["memory.homological_memory.reuse"] = (
        1 - len(tracer.memory_args) / calls if calls else 0.0,
        "1",
    )
    oracle = s["oracle.oracle_barcode"]["incl_s"]
    counter = s["diagrams.chain_diagram_counter"]["incl_s"]
    out["diagrams.oracle_ratio"] = (counter / oracle if oracle else 0.0, "1")
    out["trace.overhead"] = (throughput(traced) / throughput(plain), "1")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    directory = OUT / "docs" / tag
    try:
        pool, setup_s = setup(workload, args.seed, directory)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        ops = run_ops(workload, pool, args.seconds, args.seed, tracer)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "ops": [
            {"doc": op.doc, "stdout": op.stdout, "seconds": op.seconds,
             "traced": op.traced, "failure": op.failure}
            for op in ops
        ],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"{tag}.spans.npz")
        metrics = per_layer(ops, tracer)
        notes = [f"{sum(op.traced for op in ops)} of {len(ops)} ops traced"]
    else:
        metrics, notes = end_to_end(ops, setup_s)
    for op in ops:
        if op.failure:
            print(f"op {op.index} failed: {op.failure}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": not any(op.failure for op in ops),
                "attempted": len(ops),
                "failed": sum(1 for op in ops if op.failure),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
