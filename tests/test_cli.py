import argparse
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import bridge_reducible
from hibiring import (
    Lattice,
    betti,
    enumerate_distributive,
    from_json_dict,
    grid,
    ideal,
    oracle,
    syzygy,
)
from hibiring.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def lattice_file(tmp_path):
    def write(doc, name="lattice.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


N5 = {"elements": ["0", "a", "b", "c", "1"],
      "covers": [[0, 1], [1, 4], [0, 2], [2, 3], [3, 4]]}
CHAIN = {"elements": ["a", "b", "c"], "covers": [[0, 1], [1, 2]]}
CUBE = {"elements": [str(i) for i in range(8)],
        "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [1, 5], [2, 4], [2, 6],
                   [3, 5], [3, 6], [4, 7], [5, 7], [6, 7]]}


def test_lattice_grid(capsys):
    code, out, _ = run(capsys, "lattice", "--grid", "2", "3")
    assert code == 0
    assert "12 elements, 18 incomparable pairs, planar, k=1" in out


def test_lattice_chain_file(capsys, lattice_file):
    code, out, _ = run(capsys, "lattice", "--file", lattice_file(CHAIN))
    assert code == 0
    assert "0 incomparable pairs" in out


def test_lattice_rejects_non_distributive(capsys, lattice_file):
    code, _, err = run(capsys, "lattice", "--file", lattice_file(N5))
    assert code == 1
    assert "distributive" in err


def test_lattice_missing_input(capsys):
    code, _, err = run(capsys, "lattice")
    assert code == 1
    assert "--grid" in err


def test_lattice_missing_file(capsys):
    code, _, err = run(capsys, "lattice", "--file", "/nonexistent/x.json")
    assert code == 1


def test_lattice_malformed_json(capsys, lattice_file):
    code, _, err = run(capsys, "lattice", "--file",
                       lattice_file({"nodes": []}, "bad.json"))
    assert code == 1
    assert "malformed" in err


@pytest.mark.parametrize("argv", [
    ["lattice"], ["lattice", "--format", "json"],
    ["syzygy", "--format", "json"], ["ideal"]])
def test_file_rejects_non_string_names(capsys, lattice_file, argv):
    """A name that is not a string is an input error naming the entry, not
    a traceback from the first report that joins the labels."""
    path = lattice_file({"elements": [1, 2, 3, 4],
                         "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]})
    code, out, err = run(capsys, *argv, "--file", path)
    assert (code, out) == (1, "")
    assert err == "error: element 0 has name 1; element names must be strings\n"


@pytest.mark.parametrize("doc, message", [
    ({"elements": "abc", "covers": [[0, 1], [1, 2]]},
     "'elements' must be a list of names"),
    ({"elements": ["a", "b"], "covers": {"0": 1}},
     "'covers' must be a list of [lower, upper] index pairs"),
], ids=["elements", "covers"])
def test_file_rejects_malformed_lists(capsys, lattice_file, doc, message):
    """A string for elements is not read as a list of one-letter names, and
    covers that are not index pairs name the key, not an unpacking error."""
    code, out, err = run(capsys, "lattice", "--file", lattice_file(doc))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("doc, message", [
    ({"elements": ["a", "b"], "covers": [["0", 1]]},
     "'covers' must be a list of [lower, upper] index pairs"),
    ([], "malformed lattice JSON: the top level must be an object with "
         "'elements' and 'covers' keys"),
    ({"elements": ["a", "b"]}, "malformed lattice JSON: no 'covers' key"),
], ids=["string-index", "top-level-list", "no-covers"])
def test_file_names_the_fault(capsys, lattice_file, doc, message):
    """Each malformed document is an input error that names its own fault,
    not a missing key for every KeyError or TypeError."""
    code, out, err = run(capsys, "lattice", "--file", lattice_file(doc))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_file_with_long_cycle(capsys, lattice_file):
    """Covers forming a 1,100-element cycle, longer than the interpreter's
    recursion limit, are an input error like a short cycle."""
    n = 1100
    doc = {"elements": [str(i) for i in range(n)],
           "covers": [[i, (i + 1) % n] for i in range(n)]}
    code, out, err = run(capsys, "lattice", "--file", lattice_file(doc))
    assert (code, out, err) == (1, "", "error: cover relation has a cycle\n")


def test_grid_and_file_are_exclusive(capsys, lattice_file):
    """Both inputs at once is a usage error, not a run on the grid with the
    file ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--grid", "2", "3", "--file", lattice_file(CHAIN)])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "usage:" in out.err
    assert "argument --file: not allowed with argument --grid" in out.err


def test_ideal_listing(capsys):
    code, out, _ = run(capsys, "ideal", "--grid", "1", "2")
    assert code == 0
    assert "x2*x3-x1*x4" in out
    assert "x2*x5-x1*x6" in out
    assert "x4*x5-x3*x6" in out


def test_ideal_export_m2(capsys):
    code, out, _ = run(capsys, "ideal", "--grid", "2", "3", "--export", "m2")
    assert code == 0
    assert out.startswith("R = QQ[x_1..x_12];")
    assert out.count("x_") > 18
    assert "betti res I" in out


def test_ideal_export_singular_prime_field(capsys):
    code, out, _ = run(capsys, "ideal", "--grid", "1", "2",
                       "--export", "singular", "--field", "fp:32003")
    assert code == 0
    assert out.startswith("ring r = 32003, x(1..6), dp;")


def test_ideal_export_zero_ideal(capsys, lattice_file):
    code, out, _ = run(capsys, "ideal", "--file", lattice_file(CHAIN),
                       "--export", "m2")
    assert code == 0
    assert "ideal(0_R)" in out


def test_ideal_prime_too_small(capsys):
    code, _, err = run(capsys, "ideal", "--grid", "1", "2", "--field", "fp:5")
    assert code == 1
    assert "must exceed" in err


@pytest.mark.parametrize("field, message", [
    ("fp:9", "is not prime"),
    ("fp:1", "is not prime"),
    ("gf:7", "unknown field"),
    ("fp:x", ""),
    ("fp:abc", "unknown field"),
    ("fp:", "unknown field"),
    ("fp:1_01", "unknown field"),
    ("fp:+101", "unknown field"),
    ("fp: 101", "unknown field"),
    ("fp:\u0661\u0660\u0661", "unknown field"),  # Arabic-Indic 101
])
def test_ideal_field_rejected(capsys, field, message):
    code, out, err = run(capsys, "ideal", "--grid", "2", "3", "--field", field)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


def test_ideal_field_at_singular_limit(capsys):
    code, out, _ = run(capsys, "ideal", "--grid", "1", "1", "--export", "m2",
                       "--field", "fp:2147483647")
    assert code == 0
    assert out.startswith("R = ZZ/2147483647[x_1..x_4];")


@pytest.mark.parametrize("p", [10**400 + 1, 1000000000000000003],
                         ids=["401_digits", "19_digits"])
def test_ideal_field_above_singular_limit(p):
    """A characteristic above 2147483647, the largest Singular accepts,
    exits 1 at once with a message naming the limit and no traceback: no
    square root is taken of it and no trial division runs."""
    argv = [sys.executable, "-m", "hibiring.cli", "ideal", "--grid", "1", "1",
            "--export", "m2", "--field", f"fp:{p}"]
    proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: prime must be at most 2147483647, the "
                           "largest characteristic Singular accepts\n")
    assert "Traceback" not in proc.stderr


def test_syzygy_histogram(capsys):
    code, out, _ = run(capsys, "syzygy", "--grid", "2", "3", "--verify")
    assert code == 0
    assert "strip=36, L=8, box=8, G=0, diamond=0" in out
    assert "total minimal generators: 52" in out


@pytest.mark.parametrize("fixture, histogram", [
    ("diamond_counterexample",
     {"strip": 6, "L": 2, "box": 0, "G": 0, "diamond": 3}),
    ("stacked_diamonds",
     {"strip": 0, "L": 0, "box": 0, "G": 0, "diamond": 1}),
])
def test_syzygy_nonlinear_file(capsys, lattice_file, request, fixture,
                               histogram):
    """On a nonlinear lattice the histogram's degree-4 count reaches the
    report."""
    L = request.getfixturevalue(fixture)
    path = lattice_file({"elements": list(L.labels),
                         "covers": [list(c) for c in L.covers]})
    code, out, _ = run(capsys, "syzygy", "--file", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal_histogram"] == histogram
    assert doc["total"] == sum(histogram.values())


def test_syzygy_classify_listing(capsys):
    code, out, _ = run(capsys, "syzygy", "--grid", "1", "2", "--classify")
    assert code == 0
    assert out.count("S1 witness") == 1
    assert out.count("D witness") == 1


def _syzygy_report(L, verified):
    """The syzygy JSON report built with one dict per typed generator."""
    I = ideal.hibi_ideal(L)
    gens = list(syzygy.iter_typed_generators(I))
    hist = betti.typed_minimal_histogram(I, gens)
    listing = [{"kind": t.kind, "witness": [L.labels[v] for v in t.witness]}
               for t in gens]
    return {"generators": listing, "minimal_histogram": hist,
            "total": sum(hist.values()), "verified": verified}


def test_syzygy_json_empty_listing(capsys):
    code, out, _ = run(capsys, "syzygy", "--grid", "1", "1", "--format",
                       "json")
    report = _syzygy_report(grid(1, 1), False)
    assert code == 0
    assert report["generators"] == []
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_syzygy_json_escapes_labels(capsys, lattice_file):
    """Labels with a quote, a backslash, a tab and non-ASCII characters are
    written as json.dumps writes them."""
    doc = {"elements": ["0", 'say "x"', "back\\slash", "caf\u00e9",
                        "\u03bb\t", "1"],
           "covers": [[0, 1], [0, 2], [1, 3], [2, 3], [2, 4], [3, 5], [4, 5]]}
    code, out, _ = run(capsys, "syzygy", "--file", lattice_file(doc),
                       "--verify", "--format", "json")
    report = _syzygy_report(from_json_dict(doc), True)
    assert code == 0
    assert len(report["generators"]) == 3
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    for escaped in ('"say \\"x\\""', '"back\\\\slash"', '"caf\\u00e9"',
                    '"\\u03bb\\t"'):
        assert escaped in out


def test_betti_both_worked_example(capsys):
    code, out, _ = run(capsys, "betti", "--grid", "2", "3", "--mode", "both")
    assert code == 0
    assert "36 + 8 + 8 + 0 = 52" in out
    assert "52 = 52" in out


def test_betti_chain_zero(capsys, lattice_file):
    code, out, _ = run(capsys, "betti", "--file", lattice_file(CHAIN))
    assert code == 0
    assert "= 0" in out


def test_betti_formula_needs_planar(capsys, lattice_file):
    code, _, err = run(capsys, "betti", "--file", lattice_file(CUBE),
                       "--mode", "formula")
    assert code == 1
    assert "planar" in err


def test_betti_oracle_handles_non_planar(capsys, lattice_file):
    code, out, _ = run(capsys, "betti", "--file", lattice_file(CUBE),
                       "--mode", "oracle")
    assert code == 0
    assert "degree 3: 16" in out


def test_betti_json_round_trip(capsys):
    code, out, _ = run(capsys, "betti", "--grid", "2", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["agreement"] is True
    assert doc["formula"]["total"] == doc["oracle"]["total"] == 16


def test_betti_by_degree_keys(capsys):
    code, out, _ = run(capsys, "betti", "--grid", "1", "2",
                       "--mode", "oracle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["oracle"]["by_degree"]) == {"3", "4"}


def test_linearity_verdicts(capsys, lattice_file, count_calls,
                            bridged_diamonds):
    code, out, _ = run(capsys, "linearity", "--grid", "3", "3", "--verify")
    assert code == 0
    assert "verdict: linear" in out and "oracle agrees: True" in out

    # without --verify the verdict is the diamond count alone
    ideal_calls = count_calls(ideal, "hibi_ideal")
    oracle_calls = count_calls(oracle, "graded_betti_oracle")
    code, out, _ = run(capsys, "linearity", "--grid", "3", "3")
    assert code == 0
    assert "verdict: linear" in out
    assert ideal_calls == [] and oracle_calls == []

    stacked = {"elements": [str(i) for i in range(7)],
               "covers": [[0, 1], [0, 2], [1, 3], [2, 3], [3, 4], [3, 5],
                          [4, 6], [5, 6]]}
    code, out, _ = run(capsys, "linearity", "--file", lattice_file(stacked),
                       "--verify")
    assert code == 0
    assert "verdict: nonlinear" in out

    path = lattice_file(bridged_diamonds.to_json_dict())  # k = 3, linear
    code, out, _ = run(capsys, "linearity", "--file", path, "--verify")
    assert code == 0
    assert "verdict: linear" in out and "oracle agrees: True" in out


@pytest.mark.parametrize("fixture, by_degree", [
    ("l_overcount", {"3": 50, "4": 9}),
    ("bridged_diamonds", {"3": 35, "4": 0}),
])
def test_betti_file_disagreement_reported(capsys, lattice_file, count_calls,
                                          request, fixture, by_degree):
    """The two pinned counterexamples: --mode both reports the disagreement
    as agreement false with exit 2, --mode formula prints the closed-form
    breakdown without building the ideal or running the graded oracle."""
    L = request.getfixturevalue(fixture)
    path = lattice_file({"elements": list(L.labels),
                         "covers": [list(c) for c in L.covers]})
    code, out, _ = run(capsys, "betti", "--file", path, "--mode", "both",
                       "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["agreement"] is False
    assert doc["oracle"]["by_degree"] == by_degree
    assert doc["formula"]["total"] != doc["oracle"]["total"]
    calls = count_calls(oracle, "graded_betti_oracle")
    ideal_calls = count_calls(ideal, "hibi_ideal")
    code, out, _ = run(capsys, "betti", "--file", path, "--mode", "formula")
    assert code == 0
    assert out.startswith("formula: ")
    assert calls == [] and ideal_calls == []


def test_betti_formula_walks_the_jm_elements_once(capsys, lattice_file,
                                                  count_calls,
                                                  bridged_diamonds):
    """--mode formula checks planarity once and walks the JM pairs and
    triples once each, for all four terms of the planar formula."""
    planar = count_calls(Lattice, "is_planar")
    pairs = count_calls(betti, "_jm_pairs")
    triples = count_calls(betti, "_jm_triples")
    path = lattice_file(bridged_diamonds.to_json_dict())
    code, out, _ = run(capsys, "betti", "--file", path, "--mode", "formula")
    assert code == 0
    assert out == "formula: 24 + 8 + 2 + 0 = 34\n"
    assert (len(planar), len(pairs), len(triples)) == (1, 1, 1)


def test_syzygy_builds_typed_generators_once(capsys, count_calls):
    calls = count_calls(syzygy, "iter_typed_generators")
    code, out, _ = run(capsys, "syzygy", "--grid", "2", "3")
    assert code == 0
    assert "total minimal generators: 52" in out
    assert len(calls) == 1


def test_syzygy_histogram_reads_no_d_row(capsys, count_calls):
    """The histogram is passed the degree-3 generators only: every one that
    is not of kind D, and no degree-4 row."""
    calls = count_calls(betti, "typed_minimal_histogram")
    code, out, _ = run(capsys, "syzygy", "--grid", "2", "3", "--format",
                       "json")
    assert code == 0
    kinds = [g["kind"] for g in json.loads(out)["generators"]]
    (_, gens), = calls
    assert [t.kind for t in gens] == [k for k in kinds if k != "D"]
    assert len(gens) < len(kinds) == 161
    assert all(len(mu) == 1 for t in gens for mu, _ in t.row)


def test_syzygy_peak_memory(capsys):
    """Only the degree-3 rows outlive their φ check: the JSON run on grid
    4x4 (5,150 typed generators, 1,100 of degree 3) peaks under 5 MB of
    Python allocations, where holding every row took 6.3 MB."""
    oracle.shape_h1.cache_clear()  # measure a cold run, as a fresh process
    tracemalloc.start()
    try:
        code = main(["syzygy", "--grid", "4", "4", "--verify", "--format",
                     "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["generators"]) == 5150
    assert peak < 5 * 2 ** 20


def test_syzygy_verify_applies_phi_once(capsys, count_calls):
    """Each typed generator is checked against phi = 0 once, where it is
    built; --verify reports that check instead of repeating it."""
    calls = count_calls(syzygy, "apply_phi")
    code, out, _ = run(capsys, "syzygy", "--grid", "2", "3", "--verify",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert len(calls) == len(doc["generators"]) == 161


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_syzygy_late_failure_writes_nothing(capsys, monkeypatch, fmt):
    """A generator that fails φ = 0 after others have been built and listed
    still stops the command before anything is written."""
    checks = []
    phi = syzygy.apply_phi

    def fails_last(row, I):
        checks.append(row)
        return {(): 1} if len(checks) == 161 else phi(row, I)
    monkeypatch.setattr(syzygy, "apply_phi", fails_last)
    code, out, err = run(capsys, "syzygy", "--grid", "2", "3", "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: D element on witness")


def test_syzygy_failed_phi_is_mismatch(capsys, monkeypatch):
    def constant_one(row, I):
        return {(): 1}
    monkeypatch.setattr(syzygy, "apply_phi", constant_one)
    code, out, err = run(capsys, "syzygy", "--grid", "1", "2")
    assert code == 2
    assert out == ""
    assert err == "error: S1 element on witness (2, 3, 5) is not a syzygy\n"


def test_census_runs_the_oracle_once_per_planar_lattice(capsys, count_calls):
    lattices = [L for L in enumerate_distributive(7) if L.n > 1]
    planar = sum(1 for L in lattices if L.is_planar())
    calls = count_calls(oracle, "graded_betti_oracle")
    # the linearity check reads planar_betti's diamond count, not a second one
    counts = count_calls(betti, "n_diamond_planar")
    # one ideal per lattice, shared by the certificate and the oracle
    builds = count_calls(ideal, "hibi_ideal")
    code, _, _ = run(capsys, "census", "--max-elements", "7")
    assert code == 0
    assert len(calls) == len(counts) == planar
    assert len(builds) == len(lattices) == 20


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_census_failure_replays_with_file(capsys, lattice_file, monkeypatch,
                                          fmt):
    """A failing census row carries its lattice, as JSON in either format,
    and --file replays it to the same disagreement.  Census <= 10 has no
    failing row, so the bridge criterion is put back: it fails one row, the
    diamond count 2 against the oracle's 3."""
    monkeypatch.setattr(betti, "diamond_reducible", bridge_reducible)
    code, out, _ = run(capsys, "census", "--max-elements", "10",
                       "--format", fmt)
    assert code == 2
    if fmt == "json":
        rows = json.loads(out)["rows"]
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
    failing = [row for row in rows if row.get("error")]
    assert [row for row in rows if row.get("lattice")] == failing
    (row,) = failing
    doc = row["lattice"] if fmt == "json" else json.loads(row["lattice"])
    code, out, _ = run(capsys, "betti", "--file", lattice_file(doc),
                       "--format", "json")
    assert code == 2
    assert json.loads(out)["oracle"]["by_degree"] == {"3": 8, "4": 3}


def test_census_four_elements(capsys):
    code, out, _ = run(capsys, "census", "--max-elements", "4")
    assert code == 0
    assert "4 lattices examined" in out


def test_census_csv(capsys):
    code, out, _ = run(capsys, "census", "--max-elements", "6",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "betti,elements,gb,k,linearity,planar"
    assert len(lines) == 13  # 12 lattices + header
    assert all(",pass," in ln for ln in lines[1:])


def test_census_cap(capsys):
    code, _, err = run(capsys, "census", "--max-elements", "13")
    assert code == 1


def test_deterministic_output(capsys):
    a = run(capsys, "syzygy", "--grid", "2", "2")
    b = run(capsys, "syzygy", "--grid", "2", "2")
    assert a[1] == b[1]


@pytest.mark.parametrize("argv", [
    ["betti", "--grid", "1"],
    ["betti", "--grid", "1", "1", "--max-degree", "4"],
    ["betti", "--grid", "1", "1", "--threads", "2"],
    ["syzygy", "--grid", "2", "3", "--field", "fp:101"],
    ["census", "--max-elements", "4", "--check", "gb"],
    ["betti", "--grid", "1", "1", "--format", "csv"],
    ["syzygy", "--grid", "1", "2", "--format", "csv"],
])
def test_usage_error_is_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert "usage:" in out.err and "151" not in out.out


def test_cli_surface():
    """Every subcommand's options, pinned: a flag added or removed shows up
    here.  --format is text or json everywhere, and census also writes csv."""
    shared = ["--grid", "--file", "--format"]
    expected = {
        "lattice": shared,
        "ideal": shared + ["--field", "--export"],
        "syzygy": shared + ["--classify", "--verify"],
        "betti": shared + ["--mode"],
        "linearity": shared + ["--verify"],
        "census": ["--format", "--max-elements"],
    }
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(expected)
    for name, parser in sub.choices.items():
        options = {s: a for a in parser._actions for s in a.option_strings}
        assert list(options) == ["-h", "--help"] + expected[name], name
        formats = ("text", "json", "csv") if name == "census" else (
            "text", "json")
        assert options["--format"].choices == formats, name


def test_readme_cli_examples(capsys):
    """Every `hibi ...` line of the README's CLI block runs and exits 0."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()
                if line.startswith("hibi ")]
    assert len(commands) >= 6
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
        capsys.readouterr()
