"""Catalog scanning, accounting, determinism, and report format tests."""

import ctypes
import glob
import hashlib
import json
import math
import os
import random
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
import pytest

from hypothesis import assume, example, given, settings, strategies as st
from networkx.generators.atlas import graph_atlas_g

from seidelkit import (DEFAULT_MAX_DIM, Graph, Graph6Error, ScanConfig,
                       certify, graph_from_graph6, graph_to_graph6,
                       scan_stream, to_json, write_report)
from seidelkit import graphs, search
from seidelkit.cli import run
from conftest import (CONFIG_KEYS, ENTRY_KEYS, FAILURE_KEYS, POOL,
                      REPORT_KEYS, SKIP_KEYS, TOTALS_KEYS, check_json_object,
                      from_nx, jacobi_desc, jacobi_member, plain_entry,
                      reference_json, report_text, seidel_of)


def test_config_validation():
    # m and the theorem: tests/test_theory.py's argument table
    with pytest.raises(ValueError):
        ScanConfig(m=2, max_order=DEFAULT_MAX_DIM + 1)  # past the construction cap
    assert ScanConfig(m=2, max_order=DEFAULT_MAX_DIM).max_order == DEFAULT_MAX_DIM
    with pytest.raises(ValueError):
        scan_stream(["A_"], ScanConfig(m=2), jobs=0)


def test_empty_stream():
    report = scan_stream([], ScanConfig(m=2))
    totals = report.totals
    assert totals["scanned"] == 0
    assert report.certificates == () and report.failures == ()
    assert not report.has_violations


def test_single_k2_line_m3():
    report = scan_stream(["A_"], ScanConfig(m=3))
    assert report.totals["scanned"] == 1
    assert report.totals["certified"] == 1
    [entry] = report.certificates
    assert entry.line == 1 and entry.kind == "certified"
    cert = entry.block.certificate(entry.row)
    assert abs(cert.energy_a - 10.0) < 1e-8
    assert abs(cert.energy_b - 10.0) < 1e-8
    assert cert.equienergetic


def test_scan_four_vertex_catalog(catalog_graphs, catalog_lines):
    lines = [line for g, line in zip(catalog_graphs, catalog_lines) if g.n == 4]
    assert len(lines) == 11
    config = ScanConfig(m=2, theorem=1)
    report = scan_stream(lines, config)
    assert report.totals["scanned"] == 11

    # independent brute-force pass: Jacobi eigensolve on each Seidel matrix
    expected_satisfied = set()
    for line in lines:
        g = graph_from_graph6(line)
        eigs = jacobi_desc(seidel_of(np.asarray(g.adj)))
        bound_ok = min(abs(e) for e in eigs) >= 0.5 - 1e-7
        n_pos = sum(1 for e in eigs if e > 1e-7)
        n_neg = sum(1 for e in eigs if e < -1e-7)
        if bound_ok and n_pos == n_neg and n_pos + n_neg == len(eigs):
            expected_satisfied.add(line)
    found = {e.block.graph6[e.row] for e in report.certificates
             if e.kind == "certified"}
    assert found == expected_satisfied


def test_accounting_is_exact():
    lines = [
        "A_",            # certified (K_2 is balanced and clears the bound)
        "not graph6!!",  # parse failure
        "",              # blank: ignored entirely
        "Bw",            # K_3: bound met, unbalanced -> refuted
        "@",             # K_1: zero eigenvalue -> hypothesis failed
        "C~",            # K_4 at max_order 6: constructed order 8 -> skipped
        "A_",            # duplicate line, processed independently
    ]
    report = scan_stream(lines, ScanConfig(m=2, max_order=6))
    t = report.totals
    assert t["scanned"] == 6  # blank line not counted
    assert t["parse_failed"] == 1
    assert t["skipped"] == 1
    assert t["hypothesis_failed"] == 1
    assert t["certified"] == 2
    assert t["refuted"] == 1
    assert t["scanned"] == (t["certified"] + t["refuted"]
                            + t["hypothesis_failed"] + t["parse_failed"]
                            + t["skipped"])
    assert t["violations"] == 0
    [failure] = report.failures
    assert failure.line == 2 and failure.error
    [skip] = report.skipped
    assert skip.line == 6 and skip.order == 8
    # input ordering preserved
    assert [e.line for e in report.certificates] == [1, 4, 7]


def test_scan_deterministic_across_parallelism(catalog_lines, pool_starts):
    lines = catalog_lines[:60]
    serial = scan_stream(lines, ScanConfig(m=2), jobs=1)
    parallel = scan_stream(lines, ScanConfig(m=2), jobs=3)
    cpus = os.cpu_count() or 1
    assert pool_starts == ([min(3, cpus)] if cpus > 1 else [])
    assert report_text(serial) == report_text(parallel)
    again = scan_stream(lines, ScanConfig(m=2), jobs=1)
    assert report_text(serial) == report_text(again)


class _InProcessPool:
    """Stands in for ProcessPoolExecutor; runs the work in-process and
    records the worker count of each pool."""

    started = None

    def __init__(self, max_workers, initializer=None):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_scan_starts_no_more_workers_than_cpus_or_lines(monkeypatch):
    started = []
    monkeypatch.setattr(_InProcessPool, "started", started)
    monkeypatch.setattr(POOL, _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    lines = ["A_", "Bw", "junk", "C~", "Bo", "@"]
    serial = report_text(scan_stream(lines, ScanConfig(m=2)))
    # under the fork threshold: no pool at any worker count
    for jobs in (2, 3, 8, 100_000):
        assert report_text(scan_stream(lines, ScanConfig(m=2),
                                       jobs=jobs)) == serial
    assert started == []

    # "A_" and "Bw" alone, 32 + 72 bytes, pass it; "junk" counts nothing
    monkeypatch.setattr(search, "_FORK_BYTES", 64)
    assert report_text(scan_stream(lines, ScanConfig(m=2))) == serial
    report = scan_stream(lines, ScanConfig(m=2), jobs=100_000)
    assert report_text(report) == serial
    scan_stream(lines[:3], ScanConfig(m=2), jobs=100_000)
    assert started == [4, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: serial
    assert report_text(scan_stream(lines, ScanConfig(m=2), jobs=8)) == serial
    assert started == [4, 3]


def test_broken_pool_reruns_the_lost_chunks_in_process(catalog_lines,
                                                        monkeypatch):
    class BreakingPool(_InProcessPool):
        """Returns the first chunk, then breaks as a pool whose worker died."""

        def map(self, fn, tasks):
            yield fn(tasks[0])
            raise BrokenProcessPool("a worker died")

    lines = catalog_lines[:60]
    serial = report_text(scan_stream(lines, ScanConfig(m=2)))
    started, firsts = [], []
    scan_chunk = search._scan_chunk

    def recording(config, chunk):
        firsts.append(chunk[0][0])
        return scan_chunk(config, chunk)

    monkeypatch.setattr(BreakingPool, "started", started)
    monkeypatch.setattr(POOL, BreakingPool)
    monkeypatch.setattr(search, "_scan_chunk", recording)
    monkeypatch.setattr(search, "_FORK_BYTES", 1 << 12)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert report_text(scan_stream(lines, ScanConfig(m=2), jobs=2)) == serial
    # eight chunks of eight lines, each run once, in line order
    assert started == [2]
    assert firsts == list(range(1, 61, 8))


@st.composite
def _graph6_lines(draw):
    # short and long (n >= 63) size fields
    n = draw(st.one_of(st.integers(1, 12), st.integers(60, 70)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    adj = np.triu(rng.integers(0, 2, (n, n), dtype=np.int8), 1)
    line = graph_to_graph6(Graph(adj | adj.T))
    if draw(st.booleans()):
        line = ">>graph6<<" + line
    line += draw(st.sampled_from(["", "\n", "\r\n"]))
    return line.encode() if draw(st.booleans()) else line


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_graph6_lines(), st.sampled_from([(1, 2), (1, 3), (2, 2)]))
def test_line_cost_reads_the_order_of_a_valid_line(line, pair):
    theorem, m = pair
    n = graph_from_graph6(line).n
    assert search._graph6_header(line)[0] == n  # the pre-pass's read
    config = ScanConfig(m=m, theorem=theorem, max_order=DEFAULT_MAX_DIM)
    order = m ** theorem * n
    assert search._line_cost(config, n) == (order, 8 * n * n)
    # over max_order the line is skipped, and costs nothing
    assert search._line_cost(ScanConfig(m=m, theorem=theorem,
                                        max_order=order - 1), n) == (order, 0)
    # a line with a byte too few or too many fails both reads
    text = line.rstrip("\r\n" if isinstance(line, str) else b"\r\n")
    extra = "?" if isinstance(line, str) else b"?"
    for bad in (text[:-1], text + extra):
        with pytest.raises(Graph6Error):
            graph_from_graph6(bad)
        with pytest.raises(Graph6Error):
            search._graph6_header(bad)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.one_of(st.binary(max_size=12), st.text(max_size=12)))
@example("A\x7f")  # a payload byte out of range
@example(b"Bx")  # nonzero padding bits
def test_line_cost_never_raises(line):
    # the pre-pass's count of a line: Graph6Error is the only fault
    config, cost = ScanConfig(m=2), 0
    try:
        cost = search._line_cost(config, search._graph6_header(line)[0])[1]
    except Graph6Error:
        pass
    try:
        g = graph_from_graph6(line)
    except Graph6Error:
        assert cost == 0
    else:
        assert cost == 8 * g.n ** 2


class _Forked(Exception):
    """Raised where a scan would start its pool."""


def _forks(config: ScanConfig, text, fork_bytes: int) -> bool:
    """Whether a ``--jobs 2`` scan of two copies of ``text`` starts a pool,
    that is, whether its pre-pass counts them past ``fork_bytes``."""
    def pool(*args, **kwargs):
        raise _Forked

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(POOL, pool)
        patch.setattr(search, "_FORK_BYTES", fork_bytes)
        patch.setattr(os, "cpu_count", lambda: 2)
        try:
            scan_stream([text, text], config, jobs=2)
        except _Forked:
            return True
    return False


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(_graph6_lines(),
                 # a byte too few or too many
                 _graph6_lines().map(lambda line: line.strip()[:-1]),
                 _graph6_lines().map(
                     lambda line: line.strip() + line.strip()[-1:]),
                 st.binary(max_size=12), st.text(max_size=12)),
       st.sampled_from([(1, 2), (1, 3), (2, 2)]),
       st.sampled_from([64, 200, DEFAULT_MAX_DIM]))
@example("A\x7f", (1, 2), DEFAULT_MAX_DIM)  # a payload byte out of range
@example(b"Bx", (1, 2), DEFAULT_MAX_DIM)  # nonzero padding bits
def test_fork_pre_pass_counts_a_line_exactly_when_the_scan_builds_it(
        line, pair, max_order):
    # the base matrix bytes of a line that decodes within max_order, else
    # none
    text = line.strip()
    assume(text)  # a blank line is not scanned
    theorem, m = pair
    config = ScanConfig(m=m, theorem=theorem, max_order=max_order)
    try:
        n = graph_from_graph6(text).n
        cost = 8 * n * n if m ** theorem * n <= max_order else 0
    except Graph6Error:
        cost = 0
    assert _forks(config, text, 2 * cost - 1)
    assert not _forks(config, text, 2 * cost)


def test_a_catalog_that_cannot_fork_reads_each_header_once(catalog_lines,
                                                           monkeypatch):
    # at max_order 12, m = 2, no line costs more than 8 * 6 ** 2 bytes, so
    # 213 lines cannot pass _FORK_BYTES and a --jobs 2 scan reads each
    # line's header only to decode it; at the default max_order it reads
    # each twice, the pre-pass first
    lines = _mixed_catalog(catalog_lines)
    scanned = [line.strip() for line in lines if line.strip()]
    reads, header = [], graphs._graph6_header

    def counting(text):
        reads.append(text)
        return header(text)

    monkeypatch.setattr(graphs, "_graph6_header", counting)
    monkeypatch.setattr(search, "_graph6_header", counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert len(scanned) * 8 * 6 ** 2 <= search._FORK_BYTES
    for max_order, times in ((12, 1), (DEFAULT_MAX_DIM, 2)):
        config = ScanConfig(m=2, max_order=max_order)
        reads.clear()
        forked = scan_stream(lines, config, jobs=2)
        assert sorted(reads) == sorted(scanned * times)
        assert report_text(forked) == report_text(scan_stream(lines, config))


def _blas_threads(path):
    return ctypes.CDLL(path).scipy_openblas_get_num_threads64_()


def test_pool_workers_run_one_blas_thread(monkeypatch):
    paths = glob.glob(os.path.dirname(np.__file__)
                      + ".libs/libscipy_openblas64_*")
    if not paths:
        pytest.skip("numpy bundles no scipy-openblas")
    before = _blas_threads(paths[0])
    with ProcessPoolExecutor(1, initializer=search._cap_blas) as pool:
        assert pool.submit(_blas_threads, paths[0]).result() == 1
    assert _blas_threads(paths[0]) == before  # the parent keeps its threads

    # without the library, or without the symbol, a silent no-op
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    search._cap_blas()
    monkeypatch.setattr(glob, "glob", lambda pattern: paths)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    search._cap_blas()
    monkeypatch.undo()
    assert _blas_threads(paths[0]) == before


def test_report_json_round_trip():
    lines = ["A_", "junk", "Bw", "C~"]
    config = ScanConfig(m=2, max_order=6)
    report = scan_stream(lines, config)
    doc = json.loads(report_text(report))
    assert set(doc) == REPORT_KEYS
    check_json_object(doc["config"], config, CONFIG_KEYS)
    assert set(doc["totals"]) == TOTALS_KEYS
    assert doc["totals"] == report.totals
    assert len(doc["certificates"]) == 2
    for entry_doc, entry in zip(doc["certificates"], report.certificates):
        check_json_object(entry_doc, plain_entry(entry), ENTRY_KEYS)
    [failure_doc] = doc["failures"]
    check_json_object(failure_doc, report.failures[0], FAILURE_KEYS)
    [skip_doc] = doc["skipped"]
    check_json_object(skip_doc, report.skipped[0], SKIP_KEYS)


def test_report_json_shape_empty():
    text = report_text(scan_stream([], ScanConfig(m=2)))
    doc = json.loads(text)
    assert doc["certificates"] == [] and doc["failures"] == []
    assert all(v == 0 for v in doc["totals"].values())
    assert doc["config"]["m"] == 2
    assert "parallelism" not in doc["config"]


# -- the canonical JSON writer ----------------------------------------------


@dataclass(frozen=True)
class _Pair:
    zeta: object
    alpha: object


@dataclass
class _Triple:
    mid: object
    b: object
    a: object


@dataclass(frozen=True)
class _Empty:
    pass


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
                     1e-5, 0.1]),
    st.floats().map(np.float64))
_INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 64))
_TEXTS = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='[]{}\\"\x00\x1f\x7f\u00e9\u2028\U0001f600 ?~_%',
            max_size=8),
    st.sampled_from(["Bw", "C~", "D[{", "E{}w", "~?@c", "\\", '"']))
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXTS)
# homogeneous tuples take the writer's one-join path; bools among ints,
# float subclasses among floats and pairs of ints take the other
_ROWS = st.one_of(
    st.lists(_FLOATS, max_size=6).map(tuple),
    st.lists(st.floats(), max_size=6).map(tuple),
    st.lists(st.one_of(st.integers(), st.booleans()), max_size=6).map(tuple),
    st.lists(st.tuples(st.integers(), st.integers()), max_size=4).map(tuple),
    st.just(()), st.just({}), st.just(_Empty()))


def _nested(children):
    return st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3),
        st.dictionaries(_TEXTS, children, max_size=4),
        st.builds(_Pair, children, children),
        st.builds(_Triple, children, children, children))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.recursive(st.one_of(_LEAVES, _ROWS), _nested, max_leaves=24))
def test_to_json_matches_the_standard_library(value):
    assert to_json(value) == reference_json(value)


class _Str(str):
    pass


class _Int(int):
    pass


@dataclass(frozen=True)
class _Row:
    value: object
    floats: object
    inner: object
    shared: object


# a column mixes types, or holds one type throughout; exact floats, with
# the special values often, take the writer's one-rendering path
_CELLS = st.one_of(_LEAVES, _TEXTS.map(_Str), st.integers().map(_Int))
_PLAIN_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.1, 1e16]),
    st.floats())
_COLUMNS = st.one_of(
    st.lists(_CELLS, min_size=1, max_size=4),
    *(st.lists(cells, min_size=1, max_size=4) for cells in (
        _PLAIN_FLOATS, _FLOATS, st.integers(), _TEXTS, st.booleans())))
_FLOAT_ROWS = st.lists(_PLAIN_FLOATS, max_size=4).map(tuple)


@st.composite
def _runs(draw):
    """A tuple or list of _Row: each field cycles through its own pool of
    objects, so rows share some objects and not others."""
    length = draw(st.sampled_from([0, 1, 2, 3, 128, 129, 130, 300]))
    values = draw(_COLUMNS)
    floats = draw(st.one_of(
        st.lists(_FLOAT_ROWS, min_size=1, max_size=3),
        st.lists(st.one_of(_FLOAT_ROWS, _ROWS, _CELLS), min_size=1,
                 max_size=3)))
    inner = draw(st.one_of(
        st.lists(st.builds(_Pair, _CELLS, _FLOAT_ROWS), min_size=1,
                 max_size=3),
        st.lists(st.builds(_Pair, st.builds(_Pair, _CELLS, _CELLS),
                           st.just(_Empty())), min_size=1, max_size=3),
        st.lists(st.one_of(_CELLS, st.builds(_Pair, _CELLS, _CELLS),
                           st.just(_Empty())), min_size=1, max_size=3)))
    shared = draw(st.one_of(_ROWS, _CELLS))
    rows = [_Row(values[k % len(values)], floats[k % len(floats)],
                 inner[k % len(inner)], shared) for k in range(length)]
    return rows if draw(st.booleans()) else tuple(rows)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_runs())
def test_runs_of_one_dataclass_render_as_each_row_alone(rows):
    assert to_json(rows) == reference_json(rows)
    assert to_json({"run": rows, "last": rows[-1:]}) == reference_json(
        {"run": rows, "last": rows[-1:]})


@pytest.mark.parametrize("length", [0, 1, 2, 129, 300])
def test_runs_of_a_dataclass_without_fields(length):
    for rows in ((_Empty(),) * length, [_Empty() for _ in range(length)],
                 (_Pair(_Empty(), (_Empty(),) * length),) * length):
        assert to_json(rows) == reference_json(rows)


def test_to_json_refuses_what_json_refuses_and_non_str_keys():
    for bad in ({"a": {1, 2}}, (np.int64(1),), object(), _Pair(1, b"bytes"),
                {"a": 1, 2: "b"}, _Pair, np.ones(2)):
        with pytest.raises(TypeError):
            reference_json(bad)
        with pytest.raises(TypeError):
            to_json(bad)
    with pytest.raises(TypeError, match="keys must be str"):
        to_json(_Triple(0, 1, {"x": {2: 3}}))


# long float columns from a few values, so that values repeat: 0.0 beside
# -0.0, NaN as one shared object and as objects apart, infinities, and
# values of other types that hash and compare equal to a float (1, True)
_REPEATED = [0.0, -0.0, 1.0, 0.1, 4.999999999999999, -2.5, 1e16, 5e-324]
_MERGED = [math.nan, math.inf, -math.inf, np.float64(0.1), np.float64(-0.0),
           np.float64(1.0), 1, True, False, 0]


@st.composite
def _repeating_columns(draw):
    pool = draw(st.lists(st.one_of(st.sampled_from(_REPEATED), st.floats()),
                         min_size=1, max_size=6))
    pool += draw(st.lists(st.sampled_from(_MERGED), max_size=2))
    values = st.sampled_from(pool)
    if draw(st.booleans()):  # a new NaN object each time
        values = st.one_of(values, st.builds(float, st.just("nan")))
    return draw(st.lists(values, max_size=300))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_repeating_columns(), _repeating_columns())
@example([1.0, 1, True, np.float64(1.0)] * 3, [0.0, -0.0, 0.0, 0.5, 0.5])
@example([-0.0] * 3 + [0.5] * 2, [math.nan] * 3 + [float("nan")] * 2)
def test_repeated_floats_render_as_each_value_alone(first, values):
    rows = [_Pair(v, [v, w]) for v, w in zip(values, reversed(values))]
    for obj in (first, values, tuple(values), rows, tuple(rows)):
        # no text carries over from the column rendered before
        assert to_json(obj) == reference_json(obj)


def test_a_report_renders_alone_after_another():
    zeros = [_Pair(0.0, [0.0, 1.0])] * 3, [_Pair(-0.0, [-0.0, 1])] * 3
    for before, after in (zeros, zeros[::-1]):
        to_json(before)
        assert to_json(after) == reference_json(after)
    first, second = (scan_stream(lines, ScanConfig(m=2, theorem=theorem))
                     for theorem, lines in ((1, ["A_", "Bw", "C~"]),
                                            (2, ["Bw", "C^", "C~"])))
    alone = report_text(second)
    report_text(first)
    assert report_text(second) == alone == reference_json(second) + "\n"


# digests of the canonical reports on the n <= 6 atlas and three bad lines
_GOLDEN_REPORTS = {
    (1, 2): "feeb98cba2a392074febdbf48412867094b60364764e9778c4e5f7b1352ee4db",
    (1, 3): "c257b710a037a873c9fc27d5a12f9a9f33bb7f5e1e687ef89f98634cf7f72585",
    (2, 2): "83a8d544094ee1aae871e08fde5b40194858847f293f03b7ae20e2d639a4f86c",
}


@pytest.mark.parametrize("theorem, m", sorted(_GOLDEN_REPORTS))
def test_report_json_is_byte_for_byte_pinned(catalog_lines, theorem, m):
    lines = [*catalog_lines, "garbage!", "A", "\u00e9"]
    report = scan_stream(lines, ScanConfig(m=m, theorem=theorem))
    text = report_text(report)
    assert text == reference_json(report) + "\n"
    assert (hashlib.sha256(text.encode()).hexdigest()
            == _GOLDEN_REPORTS[theorem, m])


def test_report_json_of_the_whole_atlas_is_pinned():
    # the 1252 graphs with 1 <= n <= 7 at theorem 1, m = 2: 650 of its 821
    # certificates are at n = 7
    lines = [graph_to_graph6(from_nx(g)) for g in graph_atlas_g()
             if g.number_of_nodes() >= 1]
    report = scan_stream(lines, ScanConfig(m=2, theorem=1))
    assert len(lines) == 1252 and len(report.certificates) == 821
    text = report_text(report)
    assert text == reference_json(report) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d475403d314f5fde9ffb34d9b7ed3be44636a100b375a7c5261468ab109dec5c")


# digests of the CSV and text reports on the same lines
_GOLDEN_CSV = {
    (1, 2): "66d59772b8c7ca53d7c751a0c069e44631bfa4cd1acda4644b40a69d3a740b92",
    (1, 3): "69f21f5c82edd89bb556685caf1746d22a8905c228aca534287f151560ad5f66",
    (2, 2): "42e9be23f40ad5ca26b61d57b9a97cb651d4165de970db3de3757a178ce57981",
}
_GOLDEN_TEXT = {
    (1, 2): "b097118cb0b6d5d16525f6bb51ab462db1a634711bd0f276ec80bdf88ee86348",
    (1, 3): "2ccba744fb989f044314c6c37083c6eb101d497887c4e0314cbaf146c6424917",
    (2, 2): "a86ba146d69a7f29e9f059aad981002d9c6282d6cd01841f7fc5169978310b36",
}


@pytest.mark.parametrize("theorem, m", sorted(_GOLDEN_REPORTS))
def test_every_report_format_is_pinned_and_the_same_through_a_pool(
        catalog_lines, pool_starts, theorem, m):
    lines = [*catalog_lines, "garbage!", "A", "\u00e9"]
    config = ScanConfig(m=m, theorem=theorem)
    serial = scan_stream(lines, config)
    pooled = scan_stream(lines, config, jobs=2)
    assert pool_starts == ([2] if (os.cpu_count() or 1) > 1 else [])
    for format in ("json", "csv", "text"):
        assert report_text(pooled, format) == report_text(serial, format)
    for format, golden in (("csv", _GOLDEN_CSV), ("text", _GOLDEN_TEXT)):
        text = report_text(serial, format)
        assert hashlib.sha256(text.encode()).hexdigest() == golden[theorem, m]


def test_report_csv_format():
    report = scan_stream(["A_"], ScanConfig(m=2))
    csv_text = report_text(report, "csv")
    header, row = csv_text.strip().split("\n")
    assert header.startswith("line,kind,graph6")
    assert "A_" in row and ",6," in row  # energy 6 printed at 12 significant digits


def test_report_text_format():
    report = scan_stream(["A_", "garbage"], ScanConfig(m=2))
    text = report_text(report, "text")
    assert "scanned=2" in text
    assert "certified=1" in text
    assert "parse error" in text


def test_write_report_to_file(tmp_path):
    report = scan_stream(["A_"], ScanConfig(m=2))
    out = tmp_path / "report.json"
    assert write_report(report, "json", out) is None
    assert out.read_text() == report_text(report)
    # an unknown format is refused before anything is opened or written
    refused = tmp_path / "report.yaml"
    with pytest.raises(ValueError, match="unknown report format"):
        write_report(report, "yaml", refused)
    assert not refused.exists()


def _alternates(entries) -> bool:
    """Whether some block's entries are split by another block's."""
    runs = [e.block for k, e in enumerate(entries)
            if not k or e.block is not entries[k - 1].block]
    return len(set(map(id, runs))) < len(runs)


@pytest.mark.parametrize("small", [False, True])
def test_write_report_writes_the_same_text_to_a_path_and_to_stdout(
        catalog_lines, tmp_path, monkeypatch, small):
    if small:  # one order spans several blocks and chunks
        monkeypatch.setattr(search, "_BLOCK_BYTES", 3 * 8 * 6 ** 2)
        monkeypatch.setattr(search, "_CHUNK_LINES", 7)
    pinned = [*catalog_lines, "garbage!", "A", "\u00e9"]
    reports = [scan_stream(pinned, ScanConfig(m=m, theorem=theorem))
               for theorem, m in sorted(_GOLDEN_REPORTS)]
    # a shuffled catalog of orders 1-7, whose entries alternate between
    # blocks, and an empty report
    mixed = scan_stream(_mixed_catalog(catalog_lines), ScanConfig(m=2))
    assert _alternates(mixed.certificates)
    blocks = {id(e.block): e.block for e in mixed.certificates}.values()
    orders = [graph_from_graph6(block.graph6[0]).n for block in blocks]
    assert (len(orders) > len(set(orders))) == small
    reports += [mixed, scan_stream([], ScanConfig(m=2))]
    digests = [*(_GOLDEN_REPORTS[key] for key in sorted(_GOLDEN_REPORTS)),
               None, None]
    for report, digest in zip(reports, digests):
        for format in ("json", "csv", "text"):
            out = tmp_path / f"report.{format}"
            assert write_report(report, format, out) is None
            assert out.read_text() == report_text(report, format)
        text = (tmp_path / "report.json").read_bytes()
        assert text.decode() == reference_json(report) + "\n"
        assert digest in (None, hashlib.sha256(text).hexdigest())


def test_write_report_holds_a_small_share_of_the_report(catalog_lines,
                                                        tmp_path,
                                                        monkeypatch):
    # the n <= 6 atlas 30 times in chunks of 64 lines: 5130 entries, an
    # 8.1 MB file.  Writing it peaked at 0.022-0.027 of the file's size
    # (tracemalloc), at 2.25 when the report was rendered as one string.
    monkeypatch.setattr(search, "_CHUNK_LINES", 64)
    report = scan_stream(catalog_lines * 30, ScanConfig(m=2))
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_report(report, "json", out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.certificates) == 5130
    assert peak < out.stat().st_size / 10


@pytest.mark.parametrize("bucket", ["parse_failed", "skipped"])
def test_write_report_holds_a_small_share_of_many_failures_or_skips(
        bucket, tmp_path):
    # 50 000 unparsable lines (a 4.49 MB file) or lines over max_order
    # (5.29 MB).  Writing either peaked at 0.02 of the file's size
    # (tracemalloc), at 3.6 when the failures and skips were one piece.
    if bucket == "parse_failed":
        lines, config = [f"not graph6 {i}" for i in range(50_000)], ScanConfig(m=2)
    else:
        lines, config = ["Bw"] * 50_000, ScanConfig(m=2, max_order=2)
    report = scan_stream(lines, config)
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_report(report, "json", out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.totals[bucket] == 50_000
    assert out.read_text() == reference_json(report) + "\n"
    assert peak < out.stat().st_size / 10


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 513])
def test_failures_and_skips_render_in_slices_as_each_alone(catalog_lines,
                                                           count):
    # count unparsable lines and count lines over max_order, shuffled among
    # certified ones: no slice, one item, a slice short of _SLICE, full, or
    # one over; errors with "%" and non-ASCII text, skips of two orders
    bad = ["garbage! %s %d", "A", "é", "%"]
    lines = [*catalog_lines[:60], *(bad[i % 4] + "~" * (i % 3) for i in
                                    range(count)),
             *(("F~~~w", "G~~~~{")[i % 2] for i in range(count))]
    random.Random(count).shuffle(lines)
    report = scan_stream(lines, ScanConfig(m=2, max_order=12))
    assert search._SLICE == 256 and report.totals["certified"]
    assert report.totals["parse_failed"] == report.totals["skipped"] == count
    assert report_text(report) == reference_json(report) + "\n"


def test_scan_theorem_two():
    report = scan_stream(["A_"], ScanConfig(m=2, theorem=2))
    [entry] = report.certificates
    cert = entry.block.certificate(entry.row)
    assert abs(cert.energy_a - 18.0) < 1e-8
    # the scan proves every certificate's closed forms
    assert cert.closed_form_agrees is True
    assert cert.exact_multiplicities_verified is True
    assert len(cert.closed_a.values()) == 8
    assert np.allclose(jacobi_member(graph_from_graph6("A_"), 2, "t2-left"),
                       cert.closed_a.values(), atol=1e-9)


def _mixed_catalog(catalog_lines):
    """The atlas with n <= 6, a prefixed line, malformed lines and an n = 7
    line, shuffled."""
    lines = list(catalog_lines) + [
        ">>graph6<<Bw", "not graph6!!", "C~~", "", "F~~~w"]
    random.Random(7).shuffle(lines)
    return lines


@pytest.mark.parametrize("theorem, m", [(1, 2), (1, 3), (2, 2)])
def test_blocks_report_as_one_line_at_a_time(catalog_lines, monkeypatch,
                                             theorem, m):
    lines = _mixed_catalog(catalog_lines)
    # n = 7 lines are over max_order, every other order is solved
    config = ScanConfig(m=m, theorem=theorem, max_order=6 * m ** theorem)
    blocks = scan_stream(lines, config)
    assert blocks.totals["skipped"] == 1 and blocks.totals["parse_failed"] == 2
    assert blocks.totals["certified"] and blocks.totals["refuted"]
    text = report_text(blocks)
    assert report_text(scan_stream(lines, config, jobs=2)) == text

    sizes = []
    certify_block = search._certify_block

    def recording(adj, m, theorem, **kwargs):
        assert kwargs == {"screen": True}
        sizes.append((len(adj), 8 * adj.shape[-1] ** 2 * len(adj)))
        return certify_block(adj, m, theorem, **kwargs)

    monkeypatch.setattr(search, "_certify_block", recording)
    # one line per block; then mixed blocks, at most three n = 6 lines
    for budget, chunk in ((1, 4096), (3 * 8 * 6 ** 2, 7)):
        monkeypatch.setattr(search, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(search, "_CHUNK_LINES", chunk)
        sizes.clear()
        assert report_text(scan_stream(lines, config)) == text
        assert all(size == 1 or held <= budget for size, held in sizes)
        assert (max(size for size, _ in sizes) > 1) == (budget > 1)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 2 ** 32 - 1)),
                min_size=1, max_size=12),
       st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3)]))
# a row of each kind: the bound met or not, with balanced signs or not
@example([(2, 0), (3, 0), (5, 0), (6, 0)], (2, 2))
def test_scan_certifies_as_certify_does_on_the_lines_that_meet_the_bound(
        graphs, pair):
    theorem, m = pair
    lines = []
    for n, seed in graphs:
        adj = np.triu(np.random.default_rng(seed).integers(
            0, 2, (n, n), dtype=np.int8), 1)
        lines.append(graph_to_graph6(Graph(adj | adj.T)))
    report = scan_stream(lines, ScanConfig(m=m, theorem=theorem))
    entries = {entry.line: entry for entry in report.certificates}
    for line_no, line in enumerate(lines, start=1):
        cert = certify(graph_from_graph6(line), m, theorem)
        hyp = cert.hypothesis
        # every verdict reads the one bound rule, below the bound as well
        assert hyp.satisfied == (hyp.balanced and hyp.bound_met())
        assert cert.theorem_violation == (
            hyp.bound_met() and cert.equienergetic != hyp.balanced)
        if hyp.bound_met():
            entry = entries.pop(line_no)
            assert entry.block.certificate(entry.row) == cert
            assert entry.kind == ("certified" if hyp.satisfied else "refuted")
    # every other line failed the hypothesis
    assert entries == {}
    assert report.totals["hypothesis_failed"] == len(lines) - len(
        report.certificates)


def test_stacked_solve_failure_fails_the_scan(tmp_path, capsys, monkeypatch):
    original = np.linalg.eigvalsh

    def fail_on_stacks(a, *args, **kwargs):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", fail_on_stacks)
    catalog = tmp_path / "catalog.g6"
    catalog.write_text("A_\nBw\nC~\n")
    out = tmp_path / "report.json"
    assert run(["scan", str(catalog), "--m", "2", "--out", str(out)]) == 2
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()
