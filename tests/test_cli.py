import contextlib
import copy
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import persdiff
from persdiff.cli import build_parser, main
from persdiff.complexes import MAX_DIM
from persdiff.diagrams import MAX_DIAGRAM_ROWS, compute_diagram
from persdiff.io import load_complex
from persdiff.posets import MAX_BLANKET_PAIRS, BlanketMode, FinitePoset, diagram_pair_count
from persdiff.verify import MAX_RANK_CHECKS, MAX_SAMPLES

from conftest import LONG_CHAIN_CELLS
from golden import GOLDEN_CASES, golden_argv, golden_path

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_valid_triangle(self, capsys):
        code, out, _ = run(capsys, "validate", DATA / "triangle.json")
        assert code == 0
        assert "valid" in out

    def test_edge_before_vertex(self, capsys):
        code, out, _ = run(capsys, "validate", DATA / "edge_before_vertex.json")
        assert code == 2
        assert out.count("birth-order") == 1

    def test_non_prime_field(self, capsys):
        code, _, err = run(capsys, "validate", DATA / "bad_field.json")
        assert code == 3
        assert "not prime" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", DATA / "nope.json")
        assert code == 3

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "validate", DATA / "edge_before_vertex.json", "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["violations"][0]["kind"] == "birth-order"

    def test_generic_vertex_with_a_face(self, capsys, tmp_path):
        # A 0-cell has no faces to resolve, so any face it lists is unknown.
        doc = _triangle_with()
        doc["cells"].append({"id": "v", "dim": 0, "faces": [["v", 1]], "births": [0]})
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", path, "--json")
        assert code == 2
        assert [v["kind"] for v in json.loads(out)["violations"]] == ["unknown-face"]


class TestDiagram:
    def test_triangle_degree_one(self, capsys):
        code, out, _ = run(capsys, "diagram", DATA / "triangle.json", "--degree", 1)
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [
            {"degree": 1, "birth": [1], "death": [2], "multiplicity": 1}
        ]

    def test_triangle_degree_zero(self, capsys):
        code, out, _ = run(capsys, "diagram", DATA / "triangle.json", "--degree", 0)
        doc = json.loads(out)
        assert doc["entries"] == [
            {"degree": 0, "birth": [0], "death": [1], "multiplicity": 2},
            {"degree": 0, "birth": [0], "death": "inf", "multiplicity": 1},
        ]

    def test_empty_degree_gives_empty_list(self, capsys):
        code, out, _ = run(capsys, "diagram", DATA / "triangle.json", "--degree", 7)
        assert code == 0
        assert json.loads(out)["entries"] == []

    def test_two_param_loop(self, capsys):
        code, out, _ = run(capsys, "diagram", DATA / "two_param.json", "--degree", 1)
        doc = json.loads(out)
        assert doc["entries"] == [
            {"degree": 1, "birth": [[1, 1]], "death": [[2, 2]], "multiplicity": 1}
        ]

    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "diagram", DATA / "triangle.json")
        doc = json.loads(out)
        entries = compute_diagram(load_complex(DATA / "triangle.json"))
        assert [e.multiplicity for e in entries] == [2, 1, 1]
        # Serializing the computed entries reproduces the document.
        assert json.loads(json.dumps([dataclasses.asdict(e) for e in entries])) == doc["entries"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "diagram", DATA / "triangle.json", "--csv")
        lines = out.strip().splitlines()
        assert lines[0] == "degree,birth,death,multiplicity"
        assert "0,0,1,2" in lines

    def test_csv_grid_rows_have_four_fields(self, capsys):
        """A grade vector holds commas, so its field is quoted."""
        code, out, _ = run(capsys, "diagram", DATA / "two_param.json", "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1] == ["0", "(0,0)", "(0,1)", "1"]
        assert all(len(row) == 4 for row in rows)
        assert out.splitlines()[1] == '0,"(0,0)","(0,1)",1'

    def test_csv_labels_round_trip(self, capsys, tmp_path):
        labels = ["a,b", 'say "hi"', "two\nlines"]
        doc = _doc(_labelled_chain(*labels), [labels[0]])
        doc["cells"] += [
            {"id": "w", "vertices": ["w"], "births": [labels[1]]},
            {"id": "vw", "vertices": ["v", "w"], "births": [labels[2]]},
        ]
        code, out, _ = _run_doc(capsys, tmp_path, doc, "--csv", "--all")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        entries = compute_diagram(load_complex(tmp_path / "doc.json"), include_zero=True)
        assert rows == [["degree", "birth", "death", "multiplicity"]] + [
            [str(e.degree), e.birth[0], "inf" if e.death == "inf" else e.death[0], str(e.multiplicity)]
            for e in entries
        ]
        assert {row[1] for row in rows[1:]} == set(labels)
        assert ["0", labels[1], labels[2], "1"] in rows

    @pytest.mark.parametrize("extra", [(), ("--csv",)])
    def test_diagram_rows_stream(self, tmp_path, extra):
        """``diagram --all`` writes each row as the walk reaches it: on the
        3-cell 128-chain (16,512 rows) the traced peak stays under 1 MiB,
        where a document held whole takes about 20 MiB (4.6 MiB as CSV)."""

        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        path = tmp_path / "chain128.json"
        cells = copy.deepcopy(LONG_CHAIN_CELLS)
        cells[1]["births"], cells[2]["births"] = [64], [127]
        doc = {"format_version": 1, "field": "gf2", "poset": {"kind": "grid", "shape": [128]}, "cells": cells}
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Discard()):
                code = main(["diagram", str(path), "--all", *extra])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2**20

    def test_all_includes_zeros(self, capsys):
        _, out_default, _ = run(capsys, "diagram", DATA / "triangle.json", "--degree", 1)
        _, out_all, _ = run(capsys, "diagram", DATA / "triangle.json", "--degree", 1, "--all")
        assert len(json.loads(out_all)["entries"]) > len(json.loads(out_default)["entries"])
        assert all(e["multiplicity"] >= 1 for e in json.loads(out_default)["entries"])

    def test_invalid_input_rejected(self, capsys):
        code, _, _ = run(capsys, "diagram", DATA / "edge_before_vertex.json")
        assert code == 2

    def test_diagram_row_count_is_bounded(self, capsys, tmp_path):
        """With --all the 3-cell 2,048-chain would write 4,196,352 rows, two
        degrees of its 2,098,176 principal pairs: refused before the walk.
        Without --all it is written as before."""
        path = tmp_path / "chain2048.json"
        doc = {
            "format_version": 1,
            "field": "gf2",
            "poset": {"kind": "grid", "shape": [2048]},
            "cells": LONG_CHAIN_CELLS,
        }
        path.write_text(json.dumps(doc))
        for extra in ((), ("--csv",), ("--degree", 0)):
            start = time.perf_counter()
            code, out, err = run(capsys, "diagram", path, "--all", *extra)
            assert time.perf_counter() - start < 1
            assert (code, out) == (3, "")
            rows = 2_098_176 * (1 if extra and extra[0] == "--degree" else 2)
            assert err == (
                f"error: the diagram with zero multiplicities would have {rows} rows; "
                f"at most {MAX_DIAGRAM_ROWS} are supported\n"
            )
        code, out, _ = run(capsys, "diagram", path, "--csv")
        assert (code, out) == (0, "degree,birth,death,multiplicity\n0,0,inf,1\n0,1024,2047,1\n")
        # The 3-cell 1,024-chain, two degrees, stays inside it.
        assert diagram_pair_count(FinitePoset.chain(1024)) * 2 == 1_049_600 <= MAX_DIAGRAM_ROWS


class TestBarcode:
    def test_triangle_text(self, capsys):
        code, out, _ = run(capsys, "barcode", DATA / "triangle.json")
        assert code == 0
        assert "H0 [0, 1) x2" in out
        assert "H0 [0, inf) x1" in out
        assert "H1 [1, 2) x1" in out

    def test_triangle_json(self, capsys):
        _, out, _ = run(capsys, "barcode", DATA / "triangle.json", "--json")
        doc = json.loads(out)
        assert {"degree": 1, "birth": 1, "death": 2, "multiplicity": 1} in doc["bars"]

    def test_non_chain_is_usage_error(self, capsys):
        code, _, err = run(capsys, "barcode", DATA / "two_param.json")
        assert code == 3
        assert "diagram" in err

    def test_svg_written(self, capsys, tmp_path):
        target = tmp_path / "bars.svg"
        code, _, _ = run(capsys, "barcode", DATA / "triangle.json", "--svg", target)
        assert code == 0
        text = target.read_text()
        assert text.startswith("<svg") and "<line" in text

    def test_empty_complex(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "field": "gf2",
            "poset": {"kind": "grid", "shape": [2]},
            "cells": [],
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "barcode", path)
        assert code == 0
        assert "no bars" in out

    def test_two_disjoint_vertices(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "field": "gf2",
            "poset": {"kind": "grid", "shape": [2]},
            "cells": [
                {"id": "u", "vertices": ["u"], "births": [0]},
                {"id": "v", "vertices": ["v"], "births": [0]},
            ],
        }
        path = tmp_path / "dots.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "barcode", path)
        assert code == 0
        assert out.strip() == "H0 [0, inf) x2"


class TestBlankets:
    def test_corner_grid_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "blankets",
            DATA / "corner_grid.json",
            "--birth", "1,1",
            "--death", "4,4",
            "--steps", "1",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        got = {(tuple(map(tuple, e["birth"])), tuple(map(tuple, e["death"]))) for e in doc["pairs"]}
        assert got == {
            (((0, 1),), ((4, 4),)),
            (((1, 1),), ((3, 3),)),
            (((1, 0),), ((4, 4),)),
        }

    def test_offset_grid_principal_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "blankets",
            DATA / "offset_grid.json",
            "--birth", "2,2",
            "--death", "2,4",
            "--mode", "principal",
            "--json",
        )
        doc = json.loads(out)
        got = {(tuple(map(tuple, e["birth"])), tuple(map(tuple, e["death"]))) for e in doc["pairs"]}
        assert got == {(((0, 2),), ((2, 4),)), (((2, 0),), ((2, 4),))}

    def test_zero_steps_returns_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "blankets",
            DATA / "triangle.json",
            "--birth", "1",
            "--death", "2",
            "--steps", "0",
        )
        assert code == 0
        assert out.strip() == "[1] [2]"

    def test_empty_birth_prints_like_its_json(self, capsys):
        argv = ("blankets", DATA / "triangle.json", "--birth", "inf", "--death", "inf", "--steps", 0)
        assert run(capsys, *argv)[:2] == (0, "[] inf\n")
        assert json.loads(run(capsys, *argv, "--json")[1])["pairs"] == [{"birth": [], "death": "inf"}]

    def test_incomparable_pair_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "blankets",
            DATA / "two_param.json",
            "--birth", "0,1",
            "--death", "1,0",
        )
        assert code == 3
        assert "does not contain" in err

    def test_inf_death(self, capsys):
        # The only blanket of (whole chain, empty) covers the empty open by
        # the maximal singleton.
        code, out, _ = run(
            capsys, "blankets", DATA / "triangle.json", "--birth", "0", "--death", "inf"
        )
        assert code == 0
        assert out.strip() == "[0] [2]"

    def test_blanket_count_is_bounded(self, capsys, tmp_path):
        """Iterated blankets past MAX_BLANKET_PAIRS are refused; on an 8x8
        grid the set passes it at step 22, and 64 steps would exhaust memory."""
        path = tmp_path / "grid8.json"
        doc = {
            "format_version": 1,
            "field": "gf2",
            "poset": {"kind": "grid", "shape": [8, 8]},
            "cells": [{"id": "v", "vertices": ["v"], "births": [[0, 0]]}],
        }
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "blankets", path, "--birth", "7,7", "--death", "inf", "--steps", 64)
        assert time.perf_counter() - start < 10
        assert (code, out) == (3, "")
        assert f"blanket steps from the pair; at most {MAX_BLANKET_PAIRS} are supported" in err


class TestVerify:
    def test_triangle_passes(self, capsys):
        code, out, _ = run(capsys, "verify", DATA / "triangle.json", "--samples", 20)
        assert code == 0
        assert "verification PASSED" in out

    def test_with_oracle(self, capsys):
        code, out, _ = run(
            capsys, "verify", DATA / "triangle.json", "--samples", 10, "--oracle"
        )
        assert code == 0
        assert "oracle-barcode-agreement" in out

    def test_two_param_passes_and_notes_mode_gap(self, capsys):
        code, out, _ = run(capsys, "verify", DATA / "two_param.json", "--samples", 15)
        assert code == 0
        assert "note:" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "verify", DATA / "triangle.json", "--samples", 10, "--json"
        )
        doc = json.loads(out)
        assert doc["ok"] is True
        assert any(c["name"].startswith("cad1") for c in doc["checks"])

    def test_union_escaping_its_memory_is_a_counterexample(self, capsys, monkeypatch):
        """A degree-1 blanket union that is not inside the pair's memory has
        no quotient rank: verify reports the pair and exits 1.  The union
        is the colimit cycles wherever a pair's memory is not zero, and the
        derivative route reads the same union."""
        import persdiff.memory
        import persdiff.verify

        def escaping(k, n, covers, death, b):
            return k.colimit_cycles(n)

        monkeypatch.setattr(persdiff.memory, "cover_union", escaping)
        monkeypatch.setattr(persdiff.verify, "cover_union", escaping)
        code, out, err = run(capsys, "verify", DATA / "two_param.json", "--samples", 5, "--json")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["ok"] is False
        (check,) = [c for c in doc["checks"] if c["name"] == "pair-group-equals-lifespan-rank"]
        assert len(check["counterexamples"]) == 54
        first = check["counterexamples"][0]
        assert first == "('full', 0, '{(0,0)}', '{(0,1)}', -2, 'union-not-in-memory')"
        assert any(c.startswith("('principal', ") for c in check["counterexamples"])

    def test_random_bifiltration_passes(self, capsys, tmp_path):
        import random as _random
        import sys

        sys.path.insert(0, str(Path(__file__).parent))
        from corpus import random_filtration

        rng = _random.Random(42)
        k = random_filtration(rng, shape=(3, 3), max_cells=12)
        cells = []
        for n in range(k.max_dim + 1):
            for c in k.cells_of_dim(n):
                cells.append(
                    {
                        "id": c.id,
                        "vertices": list(c.vertices),
                        "births": [list(k.poset.grades[b]) for b in c.births],
                    }
                )
        doc = {
            "format_version": 1,
            "field": "gf2",
            "poset": {"kind": "grid", "shape": [3, 3]},
            "cells": cells,
        }
        path = tmp_path / "random12.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", path, "--samples", 25, "--seed", 42)
        assert code == 0
        assert "verification PASSED" in out

    def test_rank_check_count_is_bounded(self, capsys, tmp_path):
        """The 3-cell 2,048-chain has 2,098,176 principal pairs, so 8,392,704
        rank-identity checks in two degrees and two modes, 4 times the
        1,024-chain's: refused before the first."""
        path = tmp_path / "chain2048.json"
        doc = {
            "format_version": 1,
            "field": "gf2",
            "poset": {"kind": "grid", "shape": [2048]},
            "cells": LONG_CHAIN_CELLS,
        }
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", path, "--samples", 10)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == (
            f"error: verify would check the rank identity 8392704 times; "
            f"at most {MAX_RANK_CHECKS} are supported\n"
        )
        # The 3-cell 1,024-chain, two degrees in two modes, stays inside it.
        assert diagram_pair_count(FinitePoset.chain(1024)) * 2 * 2 == 2_099_200 <= MAX_RANK_CHECKS


class TestDeterminism:
    def test_diagram_byte_identical(self, capsys):
        _, first, _ = run(capsys, "diagram", DATA / "two_param.json")
        _, second, _ = run(capsys, "diagram", DATA / "two_param.json")
        assert first == second

    def test_verify_byte_identical_with_seed(self, capsys):
        _, first, _ = run(capsys, "verify", DATA / "triangle.json", "--seed", 5, "--samples", 10, "--json")
        _, second, _ = run(capsys, "verify", DATA / "triangle.json", "--seed", 5, "--samples", 10, "--json")
        assert first == second

    def test_csv_byte_identical(self, capsys):
        _, first, _ = run(capsys, "diagram", DATA / "two_param.json", "--csv")
        _, second, _ = run(capsys, "diagram", DATA / "two_param.json", "--csv")
        assert first == second


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 3

    def test_field_override(self, capsys):
        code, out, _ = run(
            capsys, "diagram", DATA / "triangle.json", "--field", "gf:5", "--degree", 1
        )
        assert code == 0
        assert json.loads(out)["field"] == "gf:5"

    def test_bad_option_values_are_usage_errors(self, capsys):
        tri = DATA / "triangle.json"
        pair = ("--birth", 1, "--death", "inf")
        for argv in (
            ("diagram", tri, "--mode", "bogus"),
            ("barcode", tri, "--mode", "bogus"),
            ("blankets", tri, *pair, "--mode", "bogus"),
            ("blankets", tri, *pair, "--steps", -1),
            ("diagram", tri, "--degree", -1),
            ("verify", tri, "--samples", -1),
            ("diagram", tri, "--degree", "x"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert err.startswith("usage error: argument --"), argv

    def test_sample_count_is_bounded(self, capsys):
        """Sample counts above MAX_SAMPLES are refused before any sampling."""
        tri = DATA / "triangle.json"
        for samples in (MAX_SAMPLES + 1, 10**8):
            code, out, err = run(capsys, "verify", tri, "--samples", samples)
            assert (code, out) == (3, "")
            assert f"at most {MAX_SAMPLES} samples are supported, got {samples}" in err

    def test_mode_aliases(self, capsys):
        tri = DATA / "two_param.json"
        for alias, mode in (("full-lattice", "full"), ("principal-only", "principal")):
            want = run(capsys, "diagram", tri, "--all", "--mode", mode)
            assert want[0] == 0
            assert run(capsys, "diagram", tri, "--all", "--mode", alias) == want
            blankets = ("blankets", tri, "--birth", "0,0", "--death", "inf", "--json", "--mode")
            got = run(capsys, *blankets, alias)
            assert got == run(capsys, *blankets, mode)
            assert json.loads(got[1])["mode"] == mode

    def test_repeated_calls_match_fresh_runs(self, capsys):
        """One process shares one parser: each call's stdout, stderr and exit
        code equal those of the same command run in a fresh interpreter."""
        tri = str(DATA / "triangle.json")
        calls = [
            ["diagram", tri, "--degree", "1"],
            ["diagram", tri, "--csv"],
            ["diagram", tri, "--mode", "bogus"],
            ["blankets", tri, "--birth", "1", "--death", "inf", "--json", "--mode", "principal"],
            ["diagram", tri],
            ["verify", tri, "--samples", "5"],
            ["blankets", tri, "--birth", "1", "--death", "inf"],
        ]
        in_process = [run(capsys, *argv) for argv in calls]
        env = dict(os.environ, PYTHONPATH=str(Path(persdiff.__file__).parents[1]))
        fresh = []
        for argv in calls:
            done = subprocess.run(
                [sys.executable, "-m", "persdiff", *argv], env=env, capture_output=True, text=True
            )
            fresh.append((done.returncode, done.stdout, done.stderr))
        assert in_process == fresh
        assert build_parser() is build_parser()

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(capsys, "validate", path)[0] == 3

    def test_wrong_format_version(self, capsys, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"format_version": 2, "poset": {"kind": "grid", "shape": [2]}}))
        assert run(capsys, "validate", path)[0] == 3

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_format_version_is_the_integer_one(self, capsys, tmp_path, version):
        """``true`` and ``1.0`` compare equal to 1 but are not the integer 1."""
        code, out, err = _run_doc(capsys, tmp_path, _triangle_with(format_version=version))
        assert (code, out) == (3, "")
        assert err == f"error: unsupported format_version {version!r} (expected 1)\n"

    def test_explicit_ungraded_poset_document(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "field": "gf2",
            "poset": {
                "kind": "explicit",
                "elements": ["lo", "mid", "hi"],
                "covers": [["lo", "mid"], ["mid", "hi"]],
            },
            "cells": [
                {"id": "u", "vertices": ["u"], "births": ["lo"]},
                {"id": "v", "vertices": ["v"], "births": ["lo"]},
                {"id": "uv", "vertices": ["u", "v"], "births": ["mid"]},
            ],
        }
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "diagram", path, "--degree", 0)
        assert code == 0
        entries = json.loads(out)["entries"]
        assert entries == [
            {"degree": 0, "birth": ["lo"], "death": ["mid"], "multiplicity": 1},
            {"degree": 0, "birth": ["lo"], "death": "inf", "multiplicity": 1},
        ]


def _triangle_with(**changes):
    doc = json.loads((DATA / "triangle.json").read_text())
    doc.update(changes)
    return doc


def _run_doc(capsys, tmp_path, doc, *argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "diagram", path, *argv)


def _generic_edge(*coefficients):
    faces = [[v, c] for v, c in zip("ab", coefficients)]
    return {"id": "g", "dim": 1, "births": [1], "faces": faces}


class TestMalformedDocuments:
    """Bad documents are parse errors (exit 3), never tracebacks."""

    def test_non_pair_face_entry(self, capsys, tmp_path):
        doc = _triangle_with()
        doc["cells"].append({"id": "g", "dim": 1, "births": [1], "faces": [1]})
        code, _, err = _run_doc(capsys, tmp_path, doc)
        assert code == 3
        assert "malformed cell record 'g'" in err

    def test_string_grid_shape(self, capsys, tmp_path):
        code, _, err = _run_doc(capsys, tmp_path, _triangle_with(poset={"kind": "grid", "shape": "ab"}))
        assert code == 3
        assert "bad grid shape" in err

    def test_rational_zero_denominator(self, capsys, tmp_path):
        doc = _triangle_with(field="rational")
        doc["cells"].append(_generic_edge("1/0", 1))
        code, _, err = _run_doc(capsys, tmp_path, doc)
        assert code == 3
        assert "'1/0'" in err

    def test_float_coefficient_over_gf2(self, capsys, tmp_path):
        doc = _triangle_with()
        doc["cells"].append(_generic_edge(0.5, 1))
        code, out, err = _run_doc(capsys, tmp_path, doc)
        assert code == 3
        assert out == ""
        assert "floating point" in err

    def test_bool_coefficient_over_gf5(self, capsys, tmp_path):
        doc = _triangle_with(field="gf:5")
        doc["cells"].append(_generic_edge(True, 1))
        assert _run_doc(capsys, tmp_path, doc)[0] == 3

    def test_grid_over_size_limit(self, capsys, tmp_path):
        code, _, err = _run_doc(capsys, tmp_path, _triangle_with(poset={"kind": "grid", "shape": [64, 65]}))
        assert code == 3
        assert "4160 elements" in err

    def test_explicit_over_size_limit(self, capsys, tmp_path):
        poset = {"kind": "explicit", "elements": [str(i) for i in range(4097)]}
        code, _, err = _run_doc(capsys, tmp_path, _triangle_with(poset=poset))
        assert code == 3
        assert "4097 elements" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate",),
            ("diagram",),
            ("barcode",),
            ("blankets", "--birth", "0", "--death", "inf"),
            ("verify", "--oracle"),
        ],
    )
    def test_empty_explicit_poset(self, capsys, tmp_path, argv):
        doc = _triangle_with(poset={"kind": "explicit", "elements": []}, cells=[])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, out, err) == (3, "", "error: bad poset: poset has no elements\n")

    def test_cell_dimension_over_limit(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_param.json").read_text())
        doc["cells"].append({"id": "huge", "dim": 30000, "faces": [], "births": [[0, 0]]})
        code, out, err = _run_doc(capsys, tmp_path, doc)
        assert code == 3
        assert out == ""
        assert f"cell 'huge' has dimension 30000; at most {MAX_DIM} is supported" in err

    @pytest.mark.parametrize("coefficient", ["1e1000000000", "1e20000", "-3e-20000"])
    def test_huge_rational_is_refused_quickly(self, capsys, tmp_path, coefficient):
        doc = _triangle_with(field="rational")
        doc["cells"].append(_generic_edge(coefficient, 1))
        start = time.perf_counter()
        code, out, err = _run_doc(capsys, tmp_path, doc)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "malformed cell record 'g': rational coefficient too large" in err

    def test_huge_characteristic_is_refused_quickly(self, capsys, tmp_path):
        code, _, err = _run_doc(capsys, tmp_path, _triangle_with(field="gf:99999999999999999"))
        assert code == 3
        assert "too large" in err

    @pytest.mark.parametrize("value", [2.7, 3.0, True])
    def test_non_integer_grid_shape(self, capsys, tmp_path, value):
        doc = _triangle_with(poset={"kind": "grid", "shape": [value]})
        code, out, err = _run_doc(capsys, tmp_path, doc)
        assert (code, out) == (3, "")
        assert "bad grid shape" in err

    @pytest.mark.parametrize(
        "grades", [{"a": 0.9, "b": 1.2}, {"a": [0], "b": [1.0]}, {"a": False, "b": True}]
    )
    def test_non_integer_grades(self, capsys, tmp_path, grades):
        poset = {"kind": "explicit", "elements": ["a", "b"], "covers": [["a", "b"]], "grades": grades}
        cells = [{"id": "v", "vertices": ["v"], "births": ["a"]}]
        code, out, err = _run_doc(capsys, tmp_path, _triangle_with(poset=poset, cells=cells))
        assert (code, out) == (3, "")
        assert "expected an integer" in err

    @pytest.mark.parametrize(
        "cell",
        [
            {"id": "g", "dim": 1.9, "births": [1], "faces": [["a", 1], ["b", 1]]},
            {"id": "g", "dim": 1.0, "births": [1], "faces": [["a", 1], ["b", 1]]},
            {"id": "g", "dim": True, "births": [1], "faces": [["a", 1], ["b", 1]]},
            {"id": "g", "dim": 0.0, "births": [1], "vertices": ["g"]},
        ],
    )
    def test_non_integer_cell_dimension(self, capsys, tmp_path, cell):
        doc = _triangle_with()
        doc["cells"].append(cell)
        code, out, err = _run_doc(capsys, tmp_path, doc)
        assert (code, out) == (3, "")
        assert "malformed cell record 'g': expected an integer" in err

    def test_string_vertex_list(self, capsys, tmp_path):
        doc = _triangle_with()
        doc["cells"].append({"id": "g", "vertices": "ab", "births": [1]})
        code, out, err = _run_doc(capsys, tmp_path, doc)
        assert (code, out, err) == (3, "", "error: cell 'g' needs a vertex list\n")

    @pytest.mark.parametrize(
        "poset, message",
        [
            ({"kind": "explicit", "elements": "xyz"}, "bad poset: 'elements' must be a list"),
            (
                {"kind": "explicit", "elements": ["x", "y"], "covers": ["xy"]},
                "bad poset: cover 'xy' is not a pair of labels",
            ),
        ],
    )
    def test_string_for_a_label_list(self, capsys, tmp_path, poset, message):
        """A string is never split into one-character labels."""
        cells = [{"id": "v", "vertices": ["v"], "births": ["x"]}]
        code, out, err = _run_doc(capsys, tmp_path, _triangle_with(poset=poset, cells=cells))
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_non_integer_birth_grade(self, capsys, tmp_path):
        doc = json.loads((DATA / "two_param.json").read_text())
        doc["cells"][0]["births"] = [[0, 0.5]]
        code, out, err = _run_doc(capsys, tmp_path, doc)
        assert (code, out) == (3, "")
        assert "expected an integer" in err


def _doc(poset, births):
    """One vertex born at ``births`` on ``poset``."""
    cells = [{"id": "v", "vertices": ["v"], "births": births}]
    return {"format_version": 1, "field": "gf2", "poset": poset, "cells": cells}


_GRADED = {"kind": "explicit", "elements": ["a", "b"], "covers": [["a", "b"]], "grades": {"a": 5, "b": 7}}
_LABELLED = {"kind": "explicit", "elements": ["1", "2", "3"], "covers": [["1", "2"], ["2", "3"]]}
_GRID = {"kind": "grid", "shape": [2, 2]}


class TestBareIntegers:
    """A bare integer names the grade (x,) on a graded poset and the label
    str(x) on an ungraded one, in documents and in ``blankets`` opens;
    it is never an element index."""

    @pytest.mark.parametrize(
        "poset, births, birth",
        [(_GRADED, [5], [5]), (_GRADED, [7], [7]), (_LABELLED, [1], ["1"]), (_GRID, [[1, 0]], [[1, 0]])],
    )
    def test_birth_names_a_grade_or_label(self, capsys, tmp_path, poset, births, birth):
        code, out, _ = _run_doc(capsys, tmp_path, _doc(poset, births))
        assert code == 0
        assert json.loads(out)["entries"] == [{"degree": 0, "birth": birth, "death": "inf", "multiplicity": 1}]

    @pytest.mark.parametrize(
        "poset, births, message",
        [(_GRADED, [1], "no element with grade (1,)"), (_GRID, [3], "no element with grade (3,)")],
    )
    def test_birth_is_not_an_index(self, capsys, tmp_path, poset, births, message):
        code, out, err = _run_doc(capsys, tmp_path, _doc(poset, births))
        assert (code, out, err) == (3, "", f"error: bad birth grade: {message}\n")

    @pytest.mark.parametrize(
        "poset, births, birth, out",
        [
            (_GRID, [[0, 0]], "1,0", "[(1, 0)] inf\n"),
            (_GRADED, [5], "7", "[7] inf\n"),
            (_LABELLED, [1], "2", "['2'] inf\n"),
        ],
    )
    def test_blanket_open_names_a_grade_or_label(self, capsys, tmp_path, poset, births, birth, out):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_doc(poset, births)))
        assert run(capsys, "blankets", path, "--birth", birth, "--death", "inf", "--steps", 0) == (0, out, "")

    @pytest.mark.parametrize("birth", ["007", "1"])
    def test_blanket_open_names_a_label_as_written(self, capsys, tmp_path, birth):
        """On an ungraded poset a generator is a label, leading zeros and
        all: "007" names "007", not "7", and "1" still names "1"."""
        path = tmp_path / "doc.json"
        poset = {"kind": "explicit", "elements": ["007", "1"], "covers": [["007", "1"]]}
        path.write_text(json.dumps(_doc(poset, ["007"])))
        assert run(capsys, "blankets", path, "--birth", birth, "--death", "inf", "--steps", 0) == (
            0,
            f"['{birth}'] inf\n",
            "",
        )

    def test_blanket_open_is_not_an_index(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_doc(_GRID, [[0, 0]])))
        code, out, err = run(capsys, "blankets", path, "--birth", "1", "--death", "inf")
        assert (code, out, err) == (3, "", "error: no element with grade (1,)\n")


class TestNoTraceback:
    """Inputs that once ended in a traceback exit 3 with one error line."""

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "diagram", path)
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot read")

    @pytest.mark.parametrize(
        "label, cell",
        [("\ud800", "v"), ("a\udfff", "v"), ("b", "\udc00"), ("\ude00\ud83d", "v"), ("\U0001f600", "v")],
    )
    def test_lone_surrogate(self, tmp_path, label, cell):
        """JSON may escape a lone surrogate, which no text output can encode:
        the document is refused with one error line, where ``diagram --csv``,
        ``barcode`` and text ``verify`` once crashed writing stdout (exit 1).
        An escaped surrogate pair, as ``json.dumps`` writes an astral
        character, is that character, and is accepted.
        Run in a subprocess: an in-process ``StringIO`` takes surrogates."""
        path = tmp_path / "doc.json"
        doc = _doc(_labelled_chain(label, "z"), [label])
        doc["cells"][0]["id"] = cell
        path.write_text(json.dumps(doc))
        assert "\\u" in path.read_text()
        env = dict(os.environ, PYTHONPATH=str(Path(persdiff.__file__).parents[1]), PYTHONIOENCODING="utf-8")
        for argv in (["diagram", "--csv"], ["barcode"], ["verify", "--samples", "5"]):
            done = subprocess.run(
                [sys.executable, "-m", "persdiff", argv[0], str(path), *argv[1:]], env=env, capture_output=True
            )
            if label == "\U0001f600":
                assert done.returncode == 0 and label.encode() in done.stdout, argv
            else:
                lone = next(c for c in label + cell if 0xD800 <= ord(c) <= 0xDFFF)
                assert (done.returncode, done.stdout) == (3, b""), argv
                assert done.stderr.decode() == f"error: a string in {path} holds the lone surrogate {ascii(lone)[1:-1]}\n"

    def test_lone_surrogate_deep_in_a_document(self, capsys, tmp_path):
        """The search for a lone surrogate does not recurse, so a document
        nested as deep as the decoder allows gets the same one error line."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 900 + '"\\ud800"' + "]" * 900)
        code, out, err = run(capsys, "diagram", path)
        assert (code, out, err) == (3, "", f"error: a string in {path} holds the lone surrogate \\ud800\n")

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "diagram", path)
        assert (code, out) == (3, "")
        assert err.startswith("error: malformed JSON") and "recursion" in err

    def test_huge_json_integer(self, capsys, tmp_path):
        doc = _triangle_with()
        doc["cells"].append(_generic_edge(1, 1))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('["a", 1]', '["a", ' + "7" * 5000 + "]"))
        code, out, err = run(capsys, "diagram", path)
        assert (code, out) == (3, "")
        assert err == f"error: integer literal in {path} has more than 4300 digits\n"

    def test_non_decimal_digit_in_open(self, capsys):
        code, out, err = run(capsys, "blankets", DATA / "triangle.json", "--birth", "²", "--death", "inf")
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "unknown element label '²'" in err

    @pytest.mark.parametrize(
        "document, birth, death, label",
        [("triangle", "--3", "inf", "--3"), ("two_param", "0,0", "-1,--2", "-1,--2")],
    )
    def test_double_minus_in_open(self, capsys, document, birth, death, label):
        """``int`` takes one sign, so a part with two is a label."""
        argv = ("blankets", DATA / f"{document}.json", f"--birth={birth}", f"--death={death}")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: unknown element label {label!r}\n")

    def test_unknown_elements_print_unquoted(self, capsys, tmp_path):
        code, out, err = run(capsys, "blankets", DATA / "triangle.json", "--birth", "5", "--death", "inf")
        assert (code, out, err) == (3, "", "error: no element with grade (5,)\n")
        doc = _triangle_with()
        doc["cells"][0]["births"] = ["q"]
        code, out, err = _run_doc(capsys, tmp_path, doc)
        assert (code, out, err) == (3, "", "error: bad birth grade: unknown element label 'q'\n")

    def test_unwritable_svg_path(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "x.svg"
        code, out, err = run(capsys, "barcode", DATA / "triangle.json", "--svg", target)
        assert (code, out) == (3, "")
        assert err.startswith(f"usage error: cannot write {target}")


# Replacement values for the document fuzz: wrong types, bad numbers and
# strings, empty containers.  All small, so no mutation makes a big input.
_ODD_VALUES = [None, True, 0, -1, 2, 0.5, "", "ab", "1/0", "inf", [], [1], [[0, 0]], {}]
_SEED_DOCS = {p.name: json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))}


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(_SEED_DOCS[draw(st.sampled_from(sorted(_SEED_DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        delete = draw(st.booleans())
        value = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@settings(max_examples=300)
@given(mutated_documents())
def test_mutated_documents_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["diagram", str(path)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


_OPEN_TOKENS = [*"0123456789-,;()abxy", "inf"]
_open_specs = st.lists(st.sampled_from(_OPEN_TOKENS), max_size=8).map("".join)


@settings(max_examples=200)
@given(st.sampled_from(["triangle", "two_param", "offset_grid"]), _open_specs, _open_specs)
@example("triangle", "--3", "inf")
@example("triangle", "--", "inf")  # argparse hands over [] for "--birth=--"
def test_open_specs_exit_cleanly(document, birth, death):
    """Any ``--birth``/``--death`` spec is an open or a usage error."""
    argv = ["blankets", str(DATA / f"{document}.json"), f"--birth={birth}", f"--death={death}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "field, points",
    [
        ("gf2", [(0, [0], "inf"), (1, [1], [4]), (2, [2], "inf")]),
        ("rational", [(0, [0], "inf"), (1, [1], [2]), (2, [4], "inf")]),
    ],
)
def test_torsion_chain_diagram_depends_on_the_field(capsys, field, points):
    """Over GF(2) the degree-2 attachment is a cycle and the degree-3 one
    kills the loop; over Q it is the other way round."""
    code, out, _ = run(capsys, "diagram", DATA / "torsion_chain.json", "--field", field)
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [(e["degree"], e["birth"], e["death"]) for e in entries] == points
    assert all(e["multiplicity"] == 1 for e in entries)


@pytest.mark.parametrize("document, command", sorted(GOLDEN_CASES))
def test_golden_output(capsys, document, command):
    code, out, _ = run(capsys, *golden_argv(document, command))
    assert code == 0
    assert out.encode() == golden_path(document, command).read_bytes()


def test_golden_output_without_numpy():
    """The package imports no numpy: with numpy unimportable, a fresh
    interpreter gives every golden output byte for byte."""
    script = """
import contextlib, io, json, sys
import persdiff
clean = "numpy" not in sys.modules
sys.modules["numpy"] = None
from persdiff.cli import main
out = {}
for key, argv in json.loads(sys.argv[1]).items():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out[key] = [main(argv), buf.getvalue()]
print(json.dumps({"clean": clean, "out": out}))
"""
    src = Path(persdiff.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = json.dumps({".".join(case): golden_argv(*case) for case in GOLDEN_CASES})
    done = subprocess.run(
        [sys.executable, "-c", script, argv], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(done.stdout)
    assert result["clean"]
    for case in GOLDEN_CASES:
        code, out = result["out"][".".join(case)]
        assert code == 0
        assert out.encode() == golden_path(*case).read_bytes()


def _hollow_triangle(poset, low, mid, high, field="gf2"):
    """Vertices a, b, c and edge ab at ``low``, edges ac and bc at ``mid``,
    and the 2-cell at ``high``: classes in degrees 0 and 1."""
    cells = [{"id": v, "vertices": [v], "births": [low]} for v in "abc"]
    cells += [
        {"id": "ab", "vertices": ["a", "b"], "births": [low]},
        {"id": "ac", "vertices": ["a", "c"], "births": [mid]},
        {"id": "bc", "vertices": ["b", "c"], "births": [mid]},
        {"id": "abc", "vertices": ["a", "b", "c"], "births": [high]},
    ]
    return {"format_version": 1, "field": field, "poset": poset, "cells": cells}


def _labelled_chain(*labels):
    covers = [[lo, hi] for lo, hi in zip(labels, labels[1:])]
    return {"kind": "explicit", "elements": list(labels), "covers": covers}


@pytest.mark.parametrize(
    "doc",
    [
        _hollow_triangle({"kind": "grid", "shape": [4]}, 0, 1, 3),
        _hollow_triangle({"kind": "grid", "shape": [3, 3]}, [0, 0], [1, 0], [2, 2], "rational"),
        _hollow_triangle({"kind": "grid", "shape": [2, 2, 2]}, [0, 0, 0], [0, 1, 0], [1, 1, 1], "gf:5"),
        _hollow_triangle(
            dict(_labelled_chain("p", "q", "r"), grades={"p": [-3], "q": [7], "r": [2**70]}), "p", "q", "r"
        ),
        _hollow_triangle(
            {
                "kind": "explicit",
                "elements": ["bot", "left", "right", "top"],
                "covers": [["bot", "left"], ["bot", "right"], ["left", "top"], ["right", "top"]],
                "grades": {"bot": [0, 0], "left": [1, 0], "right": [0, 1], "top": [1, 1]},
            },
            "bot",
            "left",
            "top",
        ),
        _hollow_triangle(_labelled_chain('x"y', "back\\slash", "tab\there"), 'x"y', "back\\slash", "tab\there"),
        _hollow_triangle(_labelled_chain("grève", "∃", "\U0001d11e"), "grève", "∃", "\U0001d11e"),
        _hollow_triangle(_labelled_chain("a,b", "line\nbreak", "nul\x00"), "a,b", "line\nbreak", "nul\x00"),
        _hollow_triangle(_labelled_chain("lo", "mid", "hi", "top"), "lo", "hi", "top", "gf:3"),
        # No cells, and one element whose grade vector is empty.
        _doc({"kind": "explicit", "elements": ["x"], "grades": {"x": []}}, ["x"]) | {"cells": []},
    ],
)
def test_dump_equals_json_dumps(capsys, tmp_path, doc):
    """``diagram`` writes its JSON an entry at a time; its bytes must be
    those of ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline
    for the same entries: grades as ints and vectors, labels that need
    escaping or are not ASCII, empty entry lists and ``--all``."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    k = load_complex(path)
    for argv, degrees, mode, include_zero in [
        ((), None, BlanketMode.FULL, False),
        (("--all",), None, BlanketMode.FULL, True),
        (("--mode", "principal", "--all"), None, BlanketMode.PRINCIPAL, True),
        (("--degree", 1), [1], BlanketMode.FULL, False),
        (("--degree", 7, "--all"), [7], BlanketMode.FULL, True),
        (("--degree", 7), [7], BlanketMode.FULL, False),
    ]:
        entries = compute_diagram(k, degrees=degrees, mode=mode, include_zero=include_zero)
        expected = {
            "format_version": 1,
            "kind": "diagram",
            "field": k.field.token(),
            "mode": mode.value,
            "entries": [dataclasses.asdict(e) for e in entries],
        }
        code, out, _ = run(capsys, "diagram", path, *argv)
        assert code == 0
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        # Only a degree above the complex's gives no entries, once it has cells.
        assert entries or 7 in argv or not doc["cells"]
