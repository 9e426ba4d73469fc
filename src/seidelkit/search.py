"""Bulk scanning of graph6 catalogs for certified equienergetic blow-up pairs.

``scan_stream`` consumes graph6 lines, evaluates the eigenvalue-magnitude
hypothesis on each graph, and certifies every graph that clears the bound:
balanced instances are expected to yield equienergetic pairs ("certified"),
unbalanced ones to yield non-equienergetic pairs ("refuted").  Per-line
parse failures and dimension-cap skips are recorded, never fatal.

Lines are read in chunks.  Each line of a chunk is decoded on its own, and
the graphs that reach the solve are grouped by order into blocks, capped
together at ``_BLOCK_BYTES`` of member matrices.  Each block is one
``theory._certify_block``: one stacked Seidel build and eigensolve call, a
screen against the bound, a hypothesis report for the lines that meet it
only, and one construction and proof per member.
``--jobs`` workers, on one BLAS thread each, take whole chunks once the
lines' headers add up to more than ``_FORK_BYTES`` of that work.
Output ordering follows input line numbers, so a scan is deterministic
regardless of the chunk, block and worker counts; the JSON rendering is
canonical (sorted keys), takes the report's records field by field
(``to_json``), and is byte-identical across all of them.

Accounting invariant, enforced by construction:

    scanned == certified + refuted + hypothesis_failed + parse_failed + skipped
"""

import csv
import ctypes
import glob
import io
import math
import os
from collections import Counter, defaultdict
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, fields, is_dataclass
from functools import cache, partial
from itertools import accumulate, chain, islice
from operator import attrgetter
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .graphs import (DEFAULT_MAX_DIM, Graph6Error, _check_blowup,
                     _graph6_header, graph_from_graph6)
from .theory import Certificate, _certify_block

__all__ = [
    "NUMERIC_MAX_ORDER",
    "ScanConfig",
    "ScanEntry",
    "ScanFailure",
    "ScanSkip",
    "PairReport",
    "scan_stream",
    "write_report",
    "report_to_json",
    "to_json",
]

# Default cap on the order of constructed graphs during a scan.
NUMERIC_MAX_ORDER = 2_000

# Lines per chunk: each chunk is decoded, then certified in equal-order
# blocks.
_CHUNK_LINES = 4096

# Cap on B * N**2 * 8 bytes, the int64 Seidel matrices of one member for a
# block of B graphs at constructed order N, summed over the blocks waiting
# to run.  A line over the cap on its own runs as a block of one.
_BLOCK_BYTES = 1 << 24

# Work, in the bytes ``_BLOCK_BYTES`` counts, that a catalog must pass for
# ``jobs > 1`` to start a pool.  Two BLAS-capped workers broke even with
# serial at 40-60 MiB on 2 cores, at constructed orders 20-64 and 600.
_FORK_BYTES = 1 << 26


@dataclass(frozen=True)
class ScanConfig:
    """Scan parameters, echoed in the report.

    ``theorem`` selects the pair construction (1 = single blow-ups,
    2 = composed double blow-ups); ``max_order`` caps the order of the
    constructed graphs, at most the construction cap ``DEFAULT_MAX_DIM``.
    """

    m: int
    theorem: int = 1
    max_order: int = NUMERIC_MAX_ORDER

    def __post_init__(self):
        # m and the theorem alone: each line's order is checked against
        # max_order, so a config may skip every line
        _check_blowup(0, self.m, self.theorem)
        if self.max_order < 1:
            raise ValueError("max_order must be positive")
        if self.max_order > DEFAULT_MAX_DIM:
            # a line over the construction cap would abort the whole scan
            raise ValueError(f"max_order {self.max_order} exceeds the "
                             f"construction cap {DEFAULT_MAX_DIM}")


@dataclass(frozen=True)
class ScanEntry:
    """One certified line: ``kind`` is "certified" or "refuted"."""

    line: int
    kind: str
    certificate: Certificate


@dataclass(frozen=True)
class ScanFailure:
    line: int
    error: str


@dataclass(frozen=True)
class ScanSkip:
    line: int
    order: int
    reason: str


@dataclass(frozen=True)
class PairReport:
    """Result of one scan: config echo, totals, certificates, failures, skips.

    ``totals`` maps each count name (see the module docstring, plus
    ``hypothesis_satisfied``, ``boundary_flagged`` and ``violations``) to
    its value.
    """

    config: ScanConfig
    totals: dict
    certificates: tuple[ScanEntry, ...]
    failures: tuple[ScanFailure, ...]
    skipped: tuple[ScanSkip, ...]

    @property
    def has_violations(self) -> bool:
        return self.totals["violations"] > 0


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


def _scan_chunk(config: ScanConfig, chunk) -> list[tuple]:
    """Process (line number, text) pairs; returns one (tag, line, ...)
    record per pair, in order, whose tag is the totals bucket of the line.

    Every line is decoded on its own.  The graphs that reach the solve wait
    in equal-order blocks until their member matrices would pass
    ``_BLOCK_BYTES``; then every waiting block runs.  Module-level so worker
    processes can unpickle it.
    """
    records, waiting, held = {}, defaultdict(list), 0
    for line_no, text in chunk:
        try:
            g = graph_from_graph6(text)
        except Graph6Error as exc:
            records[line_no] = ("parse_failed", line_no, str(exc))
            continue
        order = config.m ** config.theorem * g.n
        if order > config.max_order:
            records[line_no] = ("skipped", line_no, order)
            continue
        # the int64 Seidel matrix of one member of this line
        cost = 8 * order * order
        if held + cost > _BLOCK_BYTES:
            _run_blocks(config, waiting, records)
            held = 0
        waiting[g.n].append((line_no, g))
        held += cost
    _run_blocks(config, waiting, records)
    return [records[line_no] for line_no, _ in chunk]


def _run_blocks(config: ScanConfig, waiting: dict, records: dict) -> None:
    """Run each order's waiting (line number, graph) pairs as one screened
    ``_certify_block`` into ``records``: the lines below the bound are
    ``hypothesis_failed``."""
    for block in waiting.values():
        rows, certs = _certify_block(np.stack([g.adj for _, g in block]),
                                     config.m, config.theorem, screen=True)
        records.update((line_no, ("hypothesis_failed", line_no))
                       for line_no, _ in block)
        for k, cert in zip(rows.tolist(), certs):
            kind = "certified" if cert.hypothesis.satisfied else "refuted"
            records[block[k][0]] = (kind, block[k][0], cert)
    waiting.clear()


def _chunks(tasks, size: int):
    tasks = iter(tasks)
    while chunk := list(islice(tasks, size)):
        yield chunk


def _line_cost(config: ScanConfig, text) -> int:
    """The bytes ``_scan_chunk`` budgets for a line, read from its header and
    length alone: 0 for a line that fails there or is skipped."""
    try:
        n, data, start = _graph6_header(text)
    except Graph6Error:
        return 0
    order = config.m ** config.theorem * n
    whole = len(data) - start == (n * (n - 1) // 2 + 5) // 6
    return 8 * order * order if whole and order <= config.max_order else 0


def _cap_blas() -> None:
    """Pool initializer: numpy's bundled OpenBLAS, if any, on one thread, so
    that the workers' BLAS threads do not oversubscribe the cores."""
    libs = os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*"
    for path in glob.glob(libs):
        with suppress(OSError, AttributeError):
            ctypes.CDLL(path).scipy_openblas_set_num_threads64_(1)


def scan_stream(lines, config: ScanConfig, jobs: int = 1) -> PairReport:
    """Scan an iterable of graph6 lines; returns an ordered :class:`PairReport`.

    Lines may be ``str`` or ``bytes``; bytes let a non-ASCII line fail
    to parse on its own instead of failing the read of the whole input.
    Blank lines are ignored (line numbering still counts them).  Lines are
    read in chunks of ``_CHUNK_LINES``, and each chunk is certified in
    equal-order blocks.  With ``jobs > 1`` and over ``_FORK_BYTES`` of
    work, smaller chunks go to that many worker processes and are merged
    back in input order; those a broken pool did not return run here.
    The report does not depend on the chunk, block or worker count.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    tasks = ((i, line.strip()) for i, line in enumerate(lines, start=1)
             if line.strip())

    worker = partial(_scan_chunk, config)
    if jobs > 1:
        tasks = list(tasks)
        # every worker starts up front: no more than can be kept busy, and
        # none for less work than pays for starting them
        jobs = min(jobs, len(tasks), os.cpu_count() or 1)
        work = accumulate(_line_cost(config, text) for _, text in tasks)
        if jobs > 1 and all(total <= _FORK_BYTES for total in work):
            jobs = 1
    if jobs > 1:
        # about four chunks per worker: few enough that the per-chunk
        # pickling cost stays small next to sub-millisecond lines
        size = min(_CHUNK_LINES, -(-len(tasks) // (4 * jobs)))
        todo, chunks = list(_chunks(tasks, size)), []
        try:
            with ProcessPoolExecutor(jobs, initializer=_cap_blas) as pool:
                chunks.extend(pool.map(worker, todo))
        except BrokenProcessPool:  # a worker died: finish in-process
            chunks += map(worker, todo[len(chunks):])
    else:
        chunks = map(worker, _chunks(tasks, _CHUNK_LINES))
    records = [record for chunk in chunks for record in chunk]

    tags = Counter(record[0] for record in records)
    entries = [ScanEntry(line=r[1], kind=r[0], certificate=r[2])
               for r in records if r[0] in ("certified", "refuted")]
    totals = {tag: tags[tag] for tag in ("parse_failed", "skipped",
                                         "hypothesis_failed", "certified",
                                         "refuted")}
    totals.update(
        scanned=len(records), hypothesis_satisfied=tags["certified"],
        boundary_flagged=sum(e.certificate.hypothesis.boundary for e in entries),
        violations=sum(e.certificate.theorem_violation for e in entries))
    failures = tuple(ScanFailure(line=r[1], error=r[2])
                     for r in records if r[0] == "parse_failed")
    skips = tuple(ScanSkip(line=r[1], order=r[2],
                           reason="constructed order exceeds max_order")
                  for r in records if r[0] == "skipped")
    return PairReport(config=config, totals=totals,
                      certificates=tuple(entries), failures=failures,
                      skipped=skips)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def to_json(obj) -> str:
    """Canonical JSON text of ``obj``: sorted keys, a 2-space indent, ASCII
    escapes and no trailing newline.

    Dataclasses render as objects over their fields, tuples and lists as
    arrays, and leaves as ``json`` renders them: ``NaN`` and ``Infinity``
    for special floats, the ``float``/``int`` repr for their subclasses.
    Dict keys must be strings.  The text is byte for byte
    ``json.dumps(x, sort_keys=True, indent=2)`` of the same value with each
    dataclass replaced by a dict of its fields.  Any other type raises
    ``TypeError``.

    A tuple or list of instances of one dataclass, such as a report's
    certificates, is rendered by column: each field of the run at once,
    and each row filled into the layout that one instance uses.
    """
    return _render(obj, "\n")


def _render(obj, nl: str) -> str:
    """``obj`` as JSON, nested under ``nl``: a newline and the indent of
    the line that holds ``obj``."""
    cls = type(obj)
    leaf = _LEAVES.get(cls)
    if leaf is not None:
        return leaf(obj)
    nested = _NESTED.get(cls)
    if nested is None:
        _register(cls)
        return _render(obj, nl)
    return nested(obj, nl)


def _items(values, nl: str) -> list[str]:
    """Each of ``values`` rendered under ``nl``, leaves without a call of
    ``_render``."""
    return [leaf(value) if (leaf := _LEAVES.get(type(value))) else
            _render(value, nl) for value in values]


_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _SPECIAL_FLOATS.get(text, text)


def _leaves(leaf, values) -> list[str]:
    """Each of ``values``, leaves that ``leaf`` renders, rendered; finite
    floats without the special-value lookup."""
    if leaf is _float and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    return list(map(leaf, values))


def _array(seq, nl: str) -> str:
    return _bracket(_column(list(seq), nl + "  "), nl)


def _bracket(texts: list[str], nl: str) -> str:
    """The JSON array of the rendered items ``texts`` under ``nl``."""
    if not texts:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


# Rows of a run rendered at once: each column of a slice is held as a
# list, so slices bound that memory on long reports.
_RUN_ROWS = 128


def _rows(cls, objs, nl: str) -> list[str]:
    """The text of each of ``objs``, instances of the dataclass ``cls``,
    as ``_dataclass`` renders it at ``nl``, rendered field by field."""
    template, names = _layout(cls, nl)
    if not names:
        return [template] * len(objs)
    inner = nl + "  "
    columns = [_column(list(map(attrgetter(name), objs)), inner)
               for name in names]
    return [template % row for row in zip(*columns)]


def _column(values, nl: str) -> list[str]:
    """Each of ``values`` rendered under ``nl``: leaves of one type by one
    ``map``, instances of one dataclass by ``_rows`` on ``_RUN_ROWS`` at a
    time, tuples whose items are leaves of one type by one rendering of all
    their items, and anything else once per distinct object."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        cls = kinds.pop()
        leaf = _LEAVES.get(cls)
        if leaf is not None:
            return _leaves(leaf, values)
        if is_dataclass(cls):
            return [row for start in range(0, len(values), _RUN_ROWS)
                    for row in _rows(cls, values[start:start + _RUN_ROWS], nl)]
        if cls is tuple:
            items = list(chain.from_iterable(values))
            kinds = set(map(type, items)) or {float}
            leaf = _LEAVES.get(kinds.pop()) if len(kinds) == 1 else None
            if leaf is not None:
                texts = iter(_leaves(leaf, items))
                return [_bracket(list(islice(texts, len(row))), nl)
                        for row in values]
    texts = {}
    for value in values:
        if id(value) not in texts:
            texts[id(value)] = _render(value, nl)
    return [texts[id(value)] for value in values]


def _object(mapping: dict, nl: str) -> str:
    if not mapping:
        return "{}"
    inner = nl + "  "
    items = []
    for key, value in sorted(mapping.items()):
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        items.append(_quote(key) + ": " + _render(value, inner))
    return "{" + inner + ("," + inner).join(items) + nl + "}"


@cache
def _layout(cls, nl: str) -> tuple[str, tuple[str, ...]]:
    """A dataclass's ``%`` template at indent ``nl``, with its keys sorted
    and rendered, and its field names in that order."""
    names = tuple(sorted(f.name for f in fields(cls)))
    if not names:
        return "{}", names
    inner = nl + "  "
    items = ("," + inner).join(_quote(name).replace("%", "%%") + ": %s"
                               for name in names)
    return "{" + inner + items + nl + "}", names


def _dataclass(obj, nl: str) -> str:
    template, names = _layout(type(obj), nl)
    return template % tuple(_items([getattr(obj, name) for name in names],
                                   nl + "  "))


_LEAVES = {
    str: _quote,
    int: int.__repr__,
    float: _float,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_NESTED = {tuple: _array, list: _array, dict: _object}


def _register(cls) -> None:
    """File ``cls``, a type in neither table, under its writer: a dataclass,
    or a subclass of a JSON type, tried in ``json``'s order."""
    if is_dataclass(cls):
        _NESTED[cls] = _dataclass
        return
    for base in (str, int, float, tuple, list, dict):
        if issubclass(cls, base):
            table = _LEAVES if base in _LEAVES else _NESTED
            table[cls] = table[base]
            return
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def report_to_json(report: PairReport) -> str:
    """Canonical JSON rendering (sorted keys, fixed layout, trailing newline)."""
    return to_json(report) + "\n"


_CSV_FIELDS = [
    "line", "kind", "graph6", "theorem", "m", "hypothesis_satisfied",
    "balanced", "boundary", "min_abs_eigenvalue", "bound", "energy_a",
    "energy_b", "energy_delta", "equienergetic", "cospectral",
    "closed_form_agrees", "exact_multiplicities_verified", "theorem_violation",
]


_sig = "{:.12g}".format


def report_to_csv(report: PairReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n",
                            extrasaction="ignore")
    writer.writeheader()
    for entry in report.certificates:
        cert = entry.certificate
        row = {**vars(cert.hypothesis), **vars(cert), "line": entry.line,
               "kind": entry.kind,
               "hypothesis_satisfied": cert.hypothesis.satisfied}
        writer.writerow({key: _sig(value) if isinstance(value, float) else value
                         for key, value in row.items()})
    return buf.getvalue()


def report_to_text(report: PairReport) -> str:
    t = report.totals
    cfg = report.config
    lines = [
        f"scan: pair construction {cfg.theorem}, m={cfg.m}, "
        f"max_order={cfg.max_order}",
        f"scanned={t['scanned']} certified={t['certified']} "
        f"refuted={t['refuted']} hypothesis_failed={t['hypothesis_failed']} "
        f"parse_failed={t['parse_failed']} skipped={t['skipped']}",
        f"hypothesis_satisfied={t['hypothesis_satisfied']} "
        f"boundary_flagged={t['boundary_flagged']} "
        f"violations={t['violations']}",
    ]
    for entry in report.certificates:
        cert = entry.certificate
        lines.append(
            f"line {entry.line}: {cert.graph6} [{entry.kind}] "
            f"SE_a={_sig(cert.energy_a)} SE_b={_sig(cert.energy_b)} "
            f"equienergetic={cert.equienergetic} cospectral={cert.cospectral}"
            + (" VIOLATION" if cert.theorem_violation else ""))
    for failure in report.failures:
        lines.append(f"line {failure.line}: parse error: {failure.error}")
    for skip in report.skipped:
        lines.append(f"line {skip.line}: skipped ({skip.reason}: {skip.order})")
    return "\n".join(lines) + "\n"


def write_report(report: PairReport, format: str = "json",
                 destination=None) -> str:
    """Serialize a report; optionally write it to ``destination`` (path).

    Returns the rendered text in all cases.  JSON is the canonical form;
    CSV carries one certificate summary per row; text is human-readable.
    """
    render = {"json": report_to_json, "csv": report_to_csv,
              "text": report_to_text}.get(format)
    if render is None:
        raise ValueError(f"unknown report format: {format!r}")
    text = render(report)
    if destination is not None:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)
    return text
