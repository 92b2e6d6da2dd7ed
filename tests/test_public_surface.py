"""The package's top-level names, and the demos that read them.

``import persdiff`` re-exports what the command line, the demos and the
benchmark read; the calculus is imported from ``persdiff.calculus`` and
every other name from the module that defines it.  The demo outputs under
``data/demos/`` were recorded before the top level was cut to these names.
"""
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import persdiff

DEMOS = Path(__file__).parents[1] / "demos"
DEMO_OUTPUTS = Path(__file__).parent / "data" / "demos"

PUBLIC = {
    "BlanketMode",
    "EMPTY_OPEN",
    "FieldSpec",
    "FilteredComplex",
    "FinitePoset",
    "GradedPair",
    "blankets_of_open",
    "compute_diagram",
    "cycles_on_open",
    "degree_blankets",
    "describe_open",
    "enumerate_diagram_pairs",
    "homological_memory",
    "lifespan_rank",
    "load_complex",
    "make_pair",
    "min_elements",
    "oracle_barcode",
    "pair_blankets",
    "principal_up_set",
    "run_verification",
}


def test_top_level_names():
    names = {
        name
        for name, value in vars(persdiff).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(persdiff.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")], env=env, capture_output=True, check=True
    )
    assert done.stdout == (DEMO_OUTPUTS / f"{demo}.txt").read_bytes()
