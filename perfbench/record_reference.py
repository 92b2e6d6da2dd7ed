"""Record the reference stdout digests of one workload at seed 0.

    python3 perfbench/run.py --workload grid-gf2 --seed 0 --seconds 100000
    python3 perfbench/record_reference.py grid-gf2

The first command runs every document of the seed-0 pool; this one turns
its record into ``perfbench/reference/<workload>.json``.  Only do this
when the program's output is meant to change.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

name = sys.argv[1]
record = json.loads((HERE.parent / ".perfbench_out" / f"{name}-seed0-trace0.json").read_text())
if any(op["failure"] for op in record["ops"]):
    raise SystemExit("the record has failed operations; not recording it")
digests = {op["doc"]: op["stdout"] for op in record["ops"]}
out = HERE / "reference" / f"{name}.json"
out.parent.mkdir(exist_ok=True)
out.write_text(json.dumps({"seed": 0, "digests": digests}, indent=1, sort_keys=True) + "\n")
print(f"{len(digests)} digests written to {out}")
