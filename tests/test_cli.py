"""Command-line interface tests: output formats and the exit-code contract."""

import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seidelkit
from seidelkit import (ClosedFormSpectrum, Graph, ScanConfig, blowup,
                       certify, charpoly_exact, clique_blowup,
                       compare_spectra, complement, construct,
                       graph_from_graph6, graph_to_graph6, graphs,
                       scan_stream, seidel_inertia, seidel_matrix,
                       seidel_spectrum, spectral, to_json)
from seidelkit import cli
from seidelkit.cli import run
from conftest import reference_json, report_text


def _out(capsys):
    captured = capsys.readouterr()
    return captured.out.strip(), captured.err.strip()


# -- scalar commands ---------------------------------------------------------

def test_spectrum_text(capsys):
    assert run(["spectrum", "C~"]) == 0
    out, _ = _out(capsys)
    assert out == "{1^3, -3^1}"


def test_spectrum_json(capsys):
    assert run(["spectrum", "C~", "--json"]) == 0
    out, _ = _out(capsys)
    doc = json.loads(out)
    assert doc["groups"] == [[pytest.approx(1.0), 3], [pytest.approx(-3.0), 1]]
    assert len(doc["values"]) == 4


def test_energy(capsys):
    assert run(["energy", "C~"]) == 0
    out, _ = _out(capsys)
    assert out == "6"


def test_inertia(capsys):
    assert run(["inertia", "Bw"]) == 0
    out, _ = _out(capsys)
    assert out == "(2, 0, 1)"


def test_charpoly(capsys):
    # P_3 is "Bo": edges (0,1) and (1,2)
    assert run(["charpoly", "Bo"]) == 0
    out, _ = _out(capsys)
    assert out == "x^3 - 3x - 2"


def test_charpoly_refuses_an_order_over_the_cap(capsys, monkeypatch):
    # refused before the first big-integer product, with one message, as
    # text or JSON; one long line would otherwise stall the command
    def unreachable(a, b):
        raise AssertionError("a product was computed")

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_int_matmul", unreachable)
        line = graph_to_graph6(Graph(np.zeros((61, 61), dtype=np.int8)))
        for json_flag in ([], ["--json"]):
            assert run(["charpoly", line, *json_flag]) == 2
            assert _out(capsys) == ("", "seidelkit: characteristic "
                                        "polynomial order 61 exceeds exact "
                                        "cap 60")
    # at the cap it runs: K_60's Seidel matrix I - J has charpoly
    # (x - 1)^59 (x + 59)
    k60 = graph_to_graph6(Graph(np.ones((60, 60), dtype=np.int8)
                                - np.eye(60, dtype=np.int8)))
    assert run(["charpoly", k60, "--json"]) == 0
    coefficients = [1]
    for root in [1] * 59 + [-59]:
        coefficients = [a - root * b for a, b
                        in zip(coefficients + [0], [0] + coefficients)]
    assert json.loads(_out(capsys)[0]) == {"coefficients": coefficients}


def test_complement_roundtrip(capsys):
    assert run(["complement", "C~"]) == 0
    out, _ = _out(capsys)
    assert out == "C?"  # empty graph on 4 vertices
    assert run(["complement", "C?"]) == 0
    out, _ = _out(capsys)
    assert out == "C~"


# -- construct / closed-form ---------------------------------------------------

def test_construct_dmstar_k2_is_k4(capsys):
    assert run(["construct", "--dmstar", "--m", "2", "A_"]) == 0
    out, _ = _out(capsys)
    assert out == "C~"


@pytest.mark.parametrize("kind, order", [
    ("dm", 6), ("dmstar", 6), ("t2-left", 12), ("t2-right", 12)])
def test_construct_kinds(capsys, kind, order):
    g = graph_from_graph6("Bo")
    expected = {"dm": blowup(g, 2), "dmstar": clique_blowup(g, 2),
                "t2-left": clique_blowup(blowup(g, 2), 2),
                "t2-right": blowup(clique_blowup(g, 2), 2)}[kind]
    assert run(["construct", f"--{kind}", "--m", "2", "--json", "Bo"]) == 0
    doc = json.loads(_out(capsys)[0])
    assert doc == {"graph6": graph_to_graph6(expected), "order": order}


def test_construct_pipes_into_spectrum_matching_closed_form(capsys):
    # theorem 1's members are dm and dmstar, in that order
    numeric = []
    for kind in ("dm", "dmstar"):
        assert run(["construct", f"--{kind}", "--m", "2", "A_"]) == 0
        constructed, _ = _out(capsys)
        assert run(["spectrum", constructed]) == 0
        numeric.append(_out(capsys)[0])
    assert run(["closed-form", "--theorem", "1", "--m", "2", "A_"]) == 0
    closed, _ = _out(capsys)
    assert closed == f"spectrum_a: {numeric[0]}\nspectrum_b: {numeric[1]}"


@pytest.mark.parametrize("theorem, m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_closed_form_prints_the_closed_forms_of_certify(capsys, theorem, m):
    # both members of the pair, as certify reports them: one table of a
    # pair's construction kinds, ``theory._MEMBERS``, for both commands
    for line in ("A_", "Bw", "C~", "D]w", "DQc", "E?Bw"):
        cert = certify(graph_from_graph6(line), m, theorem)
        argv = ["closed-form", line, "--theorem", str(theorem), "--m", str(m)]
        assert run(argv + ["--json"]) == 0
        assert capsys.readouterr() == (to_json(
            {"spectrum_a": cert.closed_a, "spectrum_b": cert.closed_b}) + "\n",
            "")
        assert run(argv) == 0
        assert _out(capsys) == (
            f"spectrum_a: {cert.closed_a.format_grouped()}\n"
            f"spectrum_b: {cert.closed_b.format_grouped()}", "")


def test_closed_form_takes_no_lemma(capsys):
    # a lemma's one construction is a member of theorem 1's pair
    assert run(["closed-form", "--lemma", "1", "--m", "2", "A_"]) == 1
    assert run(["closed-form", "--theorem", "1", "--lemma", "2", "--m", "2",
                "A_"]) == 1
    assert run(["closed-form", "--theorem", "3", "--m", "2", "A_"]) == 1
    assert run(["closed-form", "--m", "2", "A_"]) == 1  # no --theorem
    assert _out(capsys)[0] == ""


def test_closed_form_theorem_two(capsys):
    assert run(["closed-form", "--theorem", "2", "--m", "2", "A_"]) == 0
    out, _ = _out(capsys)
    lines = out.split("\n")
    assert len(lines) == 2
    assert lines[0] == "spectrum_a: {5^1, 1^4, -3^3}"
    assert lines[1] == "spectrum_b: {3^3, -1^4, -5^1}"


def test_construct_and_certify_respect_cap(capsys, monkeypatch):
    # order 10002, past the cap, is refused before anything is allocated
    assert run(["construct", "--dm", "--m", "5001", "A_"]) == 2
    assert _out(capsys) == (
        "", "seidelkit: blow-up order 10002 exceeds dimension cap 10000")
    assert run(["certify", "A_", "--theorem", "2", "--m", "71"]) == 2
    assert "blow-up order 10082 exceeds dimension cap 10000" in _out(capsys)[1]
    # both read the one cap when they run
    monkeypatch.setattr(graphs, "DEFAULT_MAX_DIM", 7)
    assert run(["certify", "C~", "--theorem", "1", "--m", "2"]) == 2
    assert "exceeds dimension cap 7" in _out(capsys)[1]
    assert run(["construct", "--t2-left", "--m", "2", "A_"]) == 2
    assert "blow-up order 8 exceeds dimension cap 7" in _out(capsys)[1]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_closed_form_respects_cap(capsys, monkeypatch, json_flag):
    # refused by the one cap check, before the base spectrum is solved: at
    # n = 1500 that solve took most of the time of the refusal
    def unreachable(g):
        raise AssertionError("the base spectrum was solved")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "seidel_spectrum", unreachable)
        for argv, order in ((["--theorem", "1", "--m", "5001"], 10002),
                            (["--theorem", "2", "--m", "71"], 10082)):
            assert run(["closed-form", "A_", *argv, *json_flag]) == 2
            assert _out(capsys) == ("", f"seidelkit: blow-up order {order} "
                                        "exceeds dimension cap 10000")
    # order 10000, at the cap, is still predicted
    assert run(["closed-form", "A_", "--theorem", "1", "--m", "5000",
                *json_flag]) == 0
    out, err = _out(capsys)
    assert err == ""
    if not json_flag:
        assert out == ("spectrum_a: {9999^1, -1^9999}\n"
                       "spectrum_b: {1^9999, -9999^1}")


def test_closed_form_json_builds_no_text(capsys, monkeypatch):
    assert run(["closed-form", "A_", "--theorem", "2", "--m", "70",
                "--json"]) == 0
    expected = _out(capsys)

    def unreachable(self):
        raise AssertionError("the text form was built under --json")

    monkeypatch.setattr(ClosedFormSpectrum, "format_grouped", unreachable)
    assert run(["closed-form", "A_", "--theorem", "2", "--m", "70",
                "--json"]) == 0
    assert _out(capsys) == expected


# -- compare / certify -----------------------------------------------------------

def test_compare_k3_p3(capsys):
    assert run(["compare", "Bw", "Bo"]) == 0
    out, _ = _out(capsys)
    assert "equienergetic=True" in out and "cospectral=False" in out


def test_compare_reads_two_stdin_lines(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(
        b"\nBw\n\nBo\nBW\n")))
    assert run(["compare", "-", "-"]) == 0
    out, _ = _out(capsys)
    assert "equienergetic=True" in out and "cospectral=False" in out


def test_compare_solves_each_spectrum_once(capsys, monkeypatch):
    solved = []
    original = spectral.sym_eigenvalues

    def counting(mat, *args, **kwargs):
        solved.append(np.asarray(mat).shape)
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(spectral, "sym_eigenvalues", counting)
    assert run(["compare", "Bw", "BW"]) == 0
    assert solved == [(3, 3), (3, 3)]


def test_compare_json(capsys):
    assert run(["compare", "--json", "A_", "Bw"]) == 0
    out, _ = _out(capsys)
    doc = json.loads(out)
    assert doc["equienergetic"] is False
    assert doc["energy_delta"] == pytest.approx(2.0, abs=1e-9)


def test_certify_emits_json_certificate(capsys):
    code = run(["certify", "--theorem", "1", "--m", "2", "A_"])
    assert code == 0
    out, _ = _out(capsys)
    doc = json.loads(out)
    assert doc["equienergetic"] is True
    assert doc["cospectral"] is False
    assert doc["hypothesis"]["satisfied"] is True
    assert doc["theorem_violation"] is False
    assert doc["energy_a"] == pytest.approx(6.0, abs=1e-8)


def test_certify_text_rendering(capsys):
    assert run(["certify", "--theorem", "2", "--m", "2", "--text", "A_"]) == 0
    out, _ = _out(capsys)
    assert out.startswith("certificate (pair 2, m=2)")
    assert "equienergetic=True" in out


# -- JSON output ---------------------------------------------------------------

_G = "D]w"  # Seidel spectrum with irrational values and a repeated one


def _compare(first, second):
    equal, delta, cospectral = compare_spectra(seidel_spectrum(first),
                                               seidel_spectrum(second))
    return {"equienergetic": equal, "energy_delta": delta,
            "cospectral": cospectral}


def _closed_form(g, m, theorem):
    cert = certify(g, m, theorem)
    return {"spectrum_a": cert.closed_a, "spectrum_b": cert.closed_b}


@pytest.mark.parametrize("argv, expected", [
    (["spectrum", "--json"], seidel_spectrum),
    (["energy", "--json"], lambda g: {"energy": seidel_spectrum(g).energy()}),
    (["inertia", "--json"], seidel_inertia),
    (["charpoly", "--json"], lambda g: {
        "coefficients": charpoly_exact(seidel_matrix(g)).to_list()}),
    (["complement", "--json"],
     lambda g: {"graph6": graph_to_graph6(complement(g))}),
    (["construct", "--t2-left", "--m", "2", "--json"], lambda g: {
        "graph6": graph_to_graph6(construct(g, 2, "t2-left")),
        "order": 4 * g.n}),
    (["closed-form", "--theorem", "1", "--m", "3", "--json"],
     lambda g: _closed_form(g, 3, 1)),
    (["closed-form", "--theorem", "2", "--m", "3", "--json"],
     lambda g: _closed_form(g, 3, 2)),
    (["closed-form", "--theorem", "2", "--m", "2", "--json"],
     lambda g: _closed_form(g, 2, 2)),
    (["compare", "--json", "Bw"], lambda g: _compare(g, graph_from_graph6("Bw"))),
    (["certify", "--theorem", "1", "--m", "2"], lambda g: certify(g, 2, 1)),
    (["certify", "--theorem", "2", "--m", "3"], lambda g: certify(g, 3, 2)),
])
def test_json_output_is_the_reference_rendering(capsys, argv, expected):
    assert run([argv[0], _G, *argv[1:]]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == reference_json(expected(graph_from_graph6(_G))) + "\n"


# -- scan -------------------------------------------------------------------------

def test_scan_from_file(tmp_path, capsys):
    catalog = tmp_path / "graphs.g6"
    catalog.write_text("A_\nBw\n@\n")
    assert run(["scan", str(catalog), "--m", "2"]) == 0
    out, _ = _out(capsys)
    doc = json.loads(out)
    assert doc["totals"]["scanned"] == 3
    assert doc["totals"]["certified"] == 1
    assert doc["totals"]["refuted"] == 1
    assert doc["totals"]["hypothesis_failed"] == 1


def test_scan_from_file_with_non_ascii_line(tmp_path, capsys):
    catalog = tmp_path / "graphs.g6"
    catalog.write_bytes(b"A_\nB\xc3\xa9\nBw\n")
    assert run(["scan", str(catalog), "--m", "2"]) == 0
    doc = json.loads(_out(capsys)[0])
    t = doc["totals"]
    assert (t["scanned"], t["parse_failed"], t["certified"], t["refuted"]) \
        == (3, 1, 1, 1)
    assert t["scanned"] == (t["certified"] + t["refuted"]
                            + t["hypothesis_failed"] + t["parse_failed"]
                            + t["skipped"])
    [failure] = doc["failures"]
    assert failure["line"] == 2
    assert [e["line"] for e in doc["certificates"]] == [1, 3]


def test_warm_up_scan_loads_no_module_after_the_cli(tmp_path):
    # a module that the first scan imports lazily adds to every scan's
    # start-up time; only the scan layer itself, which no other command
    # loads, and the text codecs may load then
    catalog, out = tmp_path / "warm.g6", tmp_path / "report.json"
    catalog.write_bytes(b"A_\nBw\nC~\nnot graph6\n")
    script = "\n".join([
        "import json, sys",
        "import seidelkit.cli",
        "before = set(sys.modules)",
        f"code = seidelkit.cli.run(['scan', {str(catalog)!r}, '--m', '2',"
        f" '--out', {str(out)!r}])",
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))"])
    src = os.path.dirname(os.path.dirname(seidelkit.__file__))
    result = subprocess.run([sys.executable, "-c", script], check=True,
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src})
    code, loaded = json.loads(result.stdout)
    assert code == 0
    assert json.loads(out.read_text())["totals"]["parse_failed"] == 1
    assert [name for name in loaded if not name.startswith("encodings.")] == [
        "seidelkit.search"]


def test_only_a_scan_that_forks_loads_the_pool(tmp_path, catalog_lines):
    # certify and scans under the fork threshold, at any --jobs, import
    # neither the process pool nor csv; a CSV report loads csv, and a scan
    # past the threshold, lowered as in ``pool_starts``, loads the pool
    catalog = tmp_path / "cold.g6"
    catalog.write_text("\n".join(catalog_lines[:60] + ["not graph6"]) + "\n")
    scan = ["scan", str(catalog), "--m", "2", "--out"]
    script = "\n".join([
        "import json, os, sys",
        "import seidelkit.cli",
        "from seidelkit import search",
        "run, codes = seidelkit.cli.run, []",
        "codes.append(run(['certify', '--theorem', '2', '--m', '3', 'A_']))",
        f"scan = {scan!r}",
        "for jobs in ('1', '2'):",
        "    codes.append(run(scan + [f'jobs{jobs}.json', '--jobs', jobs]))",
        "cold = [name for name in ('multiprocessing', 'concurrent.futures',",
        "                          'csv', 'glob') if name in sys.modules]",
        "codes.append(run(scan + ['report.csv', '--format', 'csv']))",
        "csv_loaded = 'csv' in sys.modules",
        "search._FORK_BYTES = 1 << 12",
        "codes.append(run(scan + ['forked.json', '--jobs', '2']))",
        "print(json.dumps([codes, cold, csv_loaded, os.cpu_count() or 1,",
        "                  'concurrent.futures.process' in sys.modules]))"])
    src = os.path.dirname(os.path.dirname(seidelkit.__file__))
    result = subprocess.run([sys.executable, "-c", script], check=True,
                            capture_output=True, text=True, timeout=120,
                            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    codes, cold, csv_loaded, cpus, pool_loaded = json.loads(
        result.stdout.splitlines()[-1])
    assert codes == [0] * 5
    assert cold == []
    assert csv_loaded
    assert pool_loaded == (cpus > 1)  # on one CPU, --jobs 2 runs serially
    serial = (tmp_path / "jobs1.json").read_bytes()
    assert (tmp_path / "jobs2.json").read_bytes() == serial
    assert (tmp_path / "forked.json").read_bytes() == serial


# the names the package re-exported from ``search`` when it imported it
# eagerly; ``NUMERIC_MAX_ORDER`` and ``to_json`` now live in graphs and theory
_SEARCH_REEXPORTS = ["NUMERIC_MAX_ORDER", "PairReport", "ScanConfig",
                     "ScanEntry", "ScanFailure", "ScanSkip", "scan_stream",
                     "to_json", "write_report", "search"]


def test_no_command_but_scan_loads_the_scan_layer():
    # every other command starts in a fresh process without ``search``, csv
    # or the process pool, and ``import seidelkit`` alone loads none of
    # them; the names the package re-exports still resolve on first use
    commands = [["certify", "--theorem", "2", "--m", "3", "A_"],
                ["certify", "--theorem", "1", "--m", "2", "Bw", "--text"],
                ["spectrum", "C~", "--json"], ["energy", "C~"],
                ["inertia", "C~"], ["charpoly", "C~"], ["complement", "Bw"],
                ["construct", "Bw", "--dm", "--m", "2"],
                ["closed-form", "C~", "--theorem", "2", "--m", "2"],
                ["compare", "Bw", "C~"]]
    script = "\n".join([
        "import contextlib, io, json, sys",
        "import seidelkit",
        "bare = 'seidelkit.search' in sys.modules",
        "import seidelkit.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    codes = [seidelkit.cli.run(argv) for argv in {commands!r}]",
        "cold = [name for name in ('seidelkit.search', 'csv',",
        "                          'concurrent.futures') if name in sys.modules]",
        f"names = {_SEARCH_REEXPORTS!r}",
        "listed = set(names) <= set(dir(seidelkit))",
        "missing = [name for name in names if not hasattr(seidelkit, name)]",
        "print(json.dumps([bare, codes, cold, listed, missing]))"])
    src = os.path.dirname(os.path.dirname(seidelkit.__file__))
    result = subprocess.run([sys.executable, "-c", script], check=True,
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src})
    bare, codes, cold, listed, missing = json.loads(result.stdout)
    assert not bare
    assert codes == [0] * len(commands)
    assert cold == []
    assert listed and missing == []


def test_scan_stdin_and_output_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"A_\n")))
    out_path = tmp_path / "report.csv"
    assert run(["scan", "--m", "3", "--format", "csv",
                "--out", str(out_path)]) == 0
    out, _ = _out(capsys)
    assert out == ""  # written to the file instead
    assert out_path.read_text().startswith("line,kind,graph6")


@pytest.mark.parametrize("format", ["json", "csv", "text"])
def test_scan_gives_stdout_and_a_path_the_same_report(
        tmp_path, capsys, catalog_lines, format):
    # shuffled, so that the entries alternate between blocks
    lines = [*catalog_lines, "garbage!", "A", "F~~~w"]
    random.Random(5).shuffle(lines)
    catalog = tmp_path / "catalog.g6"
    catalog.write_text("\n".join(lines) + "\n")
    expected = report_text(scan_stream(lines, ScanConfig(m=2)), format)
    scan = ["scan", str(catalog), "--m", "2", "--format", format]
    assert run(scan) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / f"report.{format}"
    assert run(scan + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == expected


class _UnreadableInput(io.RawIOBase):
    def readable(self):
        return True

    def readinto(self, buffer):
        raise AssertionError("scan read its input")


def test_scan_rejects_max_order_above_cap_before_reading(capsys, monkeypatch):
    # at the construction cap, one line would abort the whole scan
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BufferedReader(_UnreadableInput())))
    assert run(["scan", "--theorem", "2", "--m", "100",
                "--max-order", "10001"]) == 2
    assert _out(capsys) == (
        "", "seidelkit: max_order 10001 exceeds the construction cap 10000")


def test_scan_skips_lines_over_max_order(tmp_path, capsys):
    catalog = tmp_path / "graphs.g6"
    catalog.write_text("A_\nC~\n")
    assert run(["scan", str(catalog), "--m", "2"]) == 0
    assert json.loads(_out(capsys)[0])["config"]["max_order"] == 2000
    # C~ at m = 2 is order 8
    assert run(["scan", str(catalog), "--m", "2", "--max-order", "7"]) == 0
    doc = json.loads(_out(capsys)[0])
    assert doc["config"]["max_order"] == 7
    assert [e["line"] for e in doc["certificates"]] == [1]
    assert doc["skipped"] == [{"line": 2, "order": 8,
                               "reason": "constructed order exceeds max_order"}]


def test_stdin_single_graph(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"C~\n")))
    assert run(["energy", "-"]) == 0
    out, _ = _out(capsys)
    assert out == "6"


def test_file_input_single_graph(tmp_path, capsys):
    path = tmp_path / "one.g6"
    path.write_text("C~\n")
    assert run(["energy", "--file", str(path)]) == 0
    out, _ = _out(capsys)
    assert out == "6"


@pytest.mark.parametrize("line", [
    b"B\xffw", b"A\xc3\xa9", b"C~~", b">>graph6<<C~~", b">>graph6<<C\x80",
    b">>graph6<<"])
def test_a_bad_line_gets_one_error_from_file_stdin_and_scan(
        tmp_path, capsys, monkeypatch, line):
    # --file and - read bytes, as scan does, so a line fails with the same
    # message and byte offset whichever way it comes in
    path = tmp_path / "bad.g6"
    path.write_bytes(b"\n" + line + b"\r\n")
    assert run(["scan", str(path), "--m", "2"]) == 0
    [failure] = json.loads(_out(capsys)[0])["failures"]
    expected = ("", f"seidelkit: {failure['error']}")
    assert run(["spectrum", "--file", str(path)]) == 2
    assert _out(capsys) == expected
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(
        path.read_bytes())))
    assert run(["spectrum", "-"]) == 2
    assert _out(capsys) == expected


def _readme_examples() -> list[list[str]]:
    """The arguments of each ``seidelkit`` line of README.md's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.split("\n```", 1)[0].splitlines()
            if line.startswith("seidelkit ")]


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch, catalog_lines):
    # the usage the README documents is the parser's; ``scan`` reads a few
    # atlas lines from the catalog its example names
    examples = _readme_examples()
    assert {argv[0] for argv in examples} >= {"closed-form", "certify", "scan"}
    monkeypatch.chdir(tmp_path)
    (tmp_path / "catalog.g6").write_text("\n".join(catalog_lines[:12]) + "\n")
    codes = {shlex.join(argv): run(argv) for argv in examples}
    assert codes == dict.fromkeys(codes, 0)


# -- exit codes ----------------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    assert run(["no-such-command"]) == 1
    assert run(["certify", "--m", "2", "A_"]) == 1  # missing --theorem
    assert run(["construct", "--m", "2", "A_"]) == 1  # missing variant
    assert run(["energy"]) == 1  # no input source
    assert run(["energy", "A_", "--file", "x"]) == 1  # two input sources
    _, err = _out(capsys)
    assert err


def test_computation_errors_exit_two(capsys):
    assert run(["energy", "!!!not-a-graph"]) == 2
    _, err = _out(capsys)
    assert "seidelkit" in err
    assert run(["spectrum", "--file", "/nonexistent/path.g6"]) == 2
    assert run(["construct", "--dm", "--m", "1", "A_"]) == 2  # m < 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["spectrum", "--help"]) == 0
