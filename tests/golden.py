"""The golden CLI outputs: one command line per (document, command), and the
file under ``data/golden/`` its stdout must equal byte for byte.

Each command's stdout, on one pair for ``blankets``: the GF(2) outputs
recorded before opens became bitmasks, the ``--field rational`` ones and
every ``torsion_chain`` one before Q subspaces held integer rows, and the
``--field gf:5`` ones before subspaces were held as pivot tables.  Byte
comparison catches a changed value or diagram-pair order, which two runs
of the same build cannot.  No output shows the order of blanket lists
while every check passes, so test_open_bitmasks.py pins that order.
``torsion_chain`` attaches two 2-cells to a loop by degrees 2 and 3, so
its GF(2) and Q diagrams differ.  The ``diagram --csv``, plain-text
``verify`` and ``barcode`` outputs were recorded before the package's
top-level names were cut to its public surface; ``barcode`` runs only on
the chain documents, since it refuses any other poset.
``carriage_return`` has only a ``diagram --csv`` golden, recorded when
CSV fields began to be quoted by the package itself: its ungraded labels
hold a carriage return (``a\rb``, ``e\r``) and a comma (``c,d``), and
each such field is quoted, the same bytes on every Python version.

This module imports neither pytest nor persdiff.  Run as a script, it
diffs every golden against a ``persdiff`` executable and fails when one
differs or when a file under ``data/golden/`` has no command:

    python tests/golden.py path/to/persdiff
"""
import difflib
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

GOLDEN_COMMANDS = {
    "diagram": ("diagram",),
    "diagram_principal": ("diagram", "--mode", "principal"),
    "diagram_all": ("diagram", "--all"),
    "diagram_principal_all": ("diagram", "--mode", "principal", "--all"),
    "blankets_steps2": ("blankets", "--steps", 2),
    "verify_oracle_s30_seed3": ("verify", "--json", "--oracle", "--samples", 30, "--seed", 3),
    "diagram_all_rational": ("diagram", "--all", "--field", "rational"),
    "verify_oracle_s30_seed3_rational": (
        "verify", "--json", "--oracle", "--samples", 30, "--seed", 3, "--field", "rational",
    ),
    "diagram_all_gf5": ("diagram", "--all", "--field", "gf:5"),
    "verify_oracle_s30_seed3_gf5": (
        "verify", "--json", "--oracle", "--samples", 30, "--seed", 3, "--field", "gf:5",
    ),
    "diagram_csv": ("diagram", "--csv"),
    "verify_text_oracle_s30_seed3": ("verify", "--oracle", "--samples", 30, "--seed", 3),
    "barcode": ("barcode",),
    "barcode_json": ("barcode", "--json"),
}
# The pair each document's ``blankets`` golden starts from.
GOLDEN_PAIRS = {
    "two_param": ("--birth", "1,1", "--death", "2,2"),
    "triangle": ("--birth", "2", "--death", "inf"),
    "corner_grid": ("--birth", "3,3", "--death", "inf"),
    "torsion_chain": ("--birth", "1", "--death", "4"),
}
# The documents a command applies to, where not every one.
GOLDEN_ONLY = {
    "barcode": ("triangle", "torsion_chain"),
    "barcode_json": ("triangle", "torsion_chain"),
}
# Documents that have one golden command, not every one.
GOLDEN_SINGLE = {"carriage_return": "diagram_csv"}
# Every (document, command) pair with a golden output.
GOLDEN_CASES = [
    (document, command)
    for document in GOLDEN_PAIRS
    for command in GOLDEN_COMMANDS
    if document in GOLDEN_ONLY.get(command, GOLDEN_PAIRS)
] + list(GOLDEN_SINGLE.items())


def golden_argv(document: str, command: str) -> list[str]:
    """The CLI arguments, after the program name, of one golden output."""
    name, *options = GOLDEN_COMMANDS[command]
    if name == "blankets":
        options += GOLDEN_PAIRS[document]
    return [name, str(DATA / f"{document}.json"), *map(str, options)]


def golden_path(document: str, command: str) -> Path:
    suffix = "json" if "--json" in GOLDEN_COMMANDS[command] else "txt"
    return GOLDEN / f"{document}.{command}.{suffix}"


def main(program: str) -> int:
    checked = set()
    failed = 0
    for document, command in GOLDEN_CASES:
        path = golden_path(document, command)
        checked.add(path)
        done = subprocess.run([program, *golden_argv(document, command)], capture_output=True)
        want = path.read_bytes()
        if done.returncode == 0 and done.stdout == want:
            continue
        failed += 1
        print(f"{path.name}: exit {done.returncode}")
        sys.stdout.write(done.stderr.decode())
        sys.stdout.writelines(
            difflib.unified_diff(
                want.decode().splitlines(True), done.stdout.decode().splitlines(True), str(path), "stdout"
            )
        )
    unchecked = sorted(p.name for p in GOLDEN.iterdir() if p not in checked)
    for name in unchecked:
        print(f"{name}: no command produces it")
    print(f"{len(checked) - failed} of {len(checked)} golden outputs match")
    return 1 if failed or unchecked else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
