"""Self-tests of the benchmark, on tiny versions of its workloads.

    python3 -m pytest -q perfbench/selftest.py
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from docs import WORKLOADS, write_pool  # noqa: E402

run.import_package()

from spans import Tracer  # noqa: E402


def wrapped_bindings() -> list[str]:
    """Package module and class attributes that hold a traced wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "persdiff" and not mod_name.startswith("persdiff."):
            continue
        for key, value in vars(mod).items():
            holders = [(f"{mod_name}.{key}", value)]
            if isinstance(value, type):
                holders += [(f"{mod_name}.{key}.{a}", v) for a, v in vars(value).items()]
            for label, v in holders:
                if isinstance(v, classmethod):
                    v = v.__func__
                if hasattr(v, "perfbench_span"):
                    found.append(label)
    return found


TINY = {
    "grid-gf2": dict(shape=(3, 4), cells=(4, 3), presence=0.3),
    "grid-rational": dict(shape=(3, 3), cells=(4, 3), presence=0.3),
    "chain-verify": dict(shape=(8,), cells=(5, 4), presence=0.4),
}


def tiny(name: str, pool: int = 4):
    return dataclasses.replace(WORKLOADS[name], pool=pool, **TINY[name])


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name in TINY:
        monkeypatch.setitem(run.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_printed_with_its_unit(tiny_workloads, capsys, name, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "60", "--trace", str(trace)]) == 0
    res = _result(capsys)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] == 4
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())
    assert wrapped_bindings() == []


def test_layers_exercised_only_where_expected(tiny_workloads, capsys):
    shares = {}
    for name in TINY:
        run.main(["--workload", name, "--seed", "3", "--seconds", "60", "--trace", "1"])
        shares[name] = _result(capsys)["metrics"]
    for layer in ("verify", "oracle"):
        assert shares["chain-verify"][f"{layer}.calls"]["value"] > 0
        assert shares["grid-gf2"][f"{layer}.calls"]["value"] == 0
        assert shares["grid-rational"][f"{layer}.calls"]["value"] == 0
    assert shares["chain-verify"]["diagrams.oracle_ratio"]["value"] > 0


def test_tracer_wraps_every_binding_and_restores_them():
    import persdiff.cli
    import persdiff.io
    import persdiff.linalg
    import persdiff.memory

    original = persdiff.linalg.Subspace.__dict__["from_array"]
    tracer = Tracer()
    tracer.install(0)
    try:
        bound = set(wrapped_bindings())
        for label in (
            "persdiff.linalg.meet",
            "persdiff.memory.meet",
            "persdiff.cli.load_complex",
            "persdiff.io.load_complex",
            "persdiff.load_complex",
            "persdiff.complexes.FilteredComplex.cycles_at",
            "persdiff.linalg.Subspace.from_array",
        ):
            assert label in bound
    finally:
        tracer.uninstall()
    assert wrapped_bindings() == []
    assert persdiff.cli.load_complex is persdiff.io.load_complex
    assert persdiff.linalg.Subspace.__dict__["from_array"] is original


def _pool(name, tmp_path, pool=4):
    workload = tiny(name, pool)
    return workload, write_pool(workload, 5, tmp_path / name)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_ops_see_unwrapped_functions(name, tmp_path):
    seen = []

    def runner(argv):
        seen.append(wrapped_bindings())
        return run.run_cli(argv)

    workload, pool = _pool(name, tmp_path)
    ops = run.run_ops(workload, pool, 60, 5, runner=runner)
    assert len(ops) == 4 and not any(op.failure for op in ops)
    assert seen == [[]] * 4


def _corrupt(stdout: str) -> str:
    doc = json.loads(stdout)
    if doc["kind"] == "verification":
        doc["ok"] = False
    elif doc["entries"]:
        doc["entries"][0]["multiplicity"] += 1
    else:
        doc["entries"].append({"degree": 0, "birth": [[0, 0]], "death": "inf", "multiplicity": 1})
    return json.dumps(doc)


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_output_counts_as_failure(name, tmp_path):
    def runner(argv):
        code, stdout = run.run_cli(argv)
        return code, _corrupt(stdout)

    workload, pool = _pool(name, tmp_path)
    ops = run.run_ops(workload, pool, 60, 5, runner=runner)
    assert len(ops) == 4 and all(op.failure for op in ops)
    _, notes = run.end_to_end(ops, 1.0)
    assert "fail_ratio 1.0000 (4 of 4 ops failed)" in notes


def test_exit_code_exception_and_digest_mismatch_count_as_failures(tmp_path, monkeypatch):
    workload, pool = _pool("grid-gf2", tmp_path, pool=3)
    answers = iter([(1, "{}"), RuntimeError("boom"), None])

    def runner(argv):
        a = next(answers)
        if isinstance(a, Exception):
            raise a
        return a or run.run_cli(argv)

    monkeypatch.setattr(run, "load_reference", lambda w: {pool[2][1]: "0" * 64})
    ops = run.run_ops(workload, pool, 60, 5, runner=runner)
    assert [op.failure is not None for op in ops] == [True, True, True]
    assert "digest" in ops[2].failure


def test_documents_follow_the_seed(tmp_path):
    workload = tiny("grid-gf2", pool=3)
    a = [sha for _, sha in write_pool(workload, 1, tmp_path / "a")]
    b = [sha for _, sha in write_pool(workload, 1, tmp_path / "b")]
    c = [sha for _, sha in write_pool(workload, 2, tmp_path / "c")]
    assert a == b and a != c


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_covers_the_seed0_documents(name, tmp_path):
    digests = json.loads((HERE / "reference" / f"{name}.json").read_text())["digests"]
    pool = write_pool(WORKLOADS[name], 0, tmp_path)
    assert set(digests) == {sha for _, sha in pool}
