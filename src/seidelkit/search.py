"""Bulk scanning of graph6 catalogs for certified equienergetic blow-up pairs.

``scan_stream`` decodes each graph6 line, tests the eigenvalue-magnitude
hypothesis, and certifies every graph that meets the bound: "certified" if
balanced (an equienergetic pair is expected), else "refuted".  Parse
failures and lines over ``max_order`` are recorded, never fatal.

Lines are certified in chunks of equal-order blocks (``_scan_chunk``), in
worker processes once a catalog passes ``_FORK_BYTES`` of work at
``jobs > 1`` (``scan_stream``).  The certificates stay their blocks'
columns (``theory.CertificateBlock``).  ``write_report``, the one writer
of a report's text, writes it in pieces, never whole: ``_report`` renders
the JSON with the pieces of the canonical writer that ``theory`` owns.
Output follows input line order, and the JSON is byte-identical whatever
the chunk, block and worker counts.

Accounting invariant, each bucket counted where its lines are decided:

    scanned == certified + refuted + hypothesis_failed + parse_failed + skipped
"""

import os
import sys
from collections import Counter, defaultdict
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .graphs import (DEFAULT_MAX_DIM, NUMERIC_MAX_ORDER, Graph6Error,
                     _check_blowup, _graph6_header, graph_from_graph6)
from .theory import (Certificate, CertificateBlock, _certify_block, _column,
                     _layout, _quote, _render, _sig, _template)

__all__ = [
    "ScanConfig",
    "ScanEntry",
    "ScanFailure",
    "ScanSkip",
    "PairReport",
    "scan_stream",
    "write_report",
]

# Lines per chunk: each chunk is decoded, then certified in equal-order
# blocks.
_CHUNK_LINES = 4096

# Cap on B * n**2 * 8 bytes, the float64 base Seidel matrices of a block of
# B graphs of order n, summed over the blocks waiting to run.  A line over
# the cap on its own runs as a block of one.  4 MiB: G(300, 1/2) lines peak
# at 4.9 MiB (tracemalloc), not 21.9 as at 16 MiB, for up to 8 % more time.
_BLOCK_BYTES = 1 << 22

# Work, in the bytes ``_BLOCK_BYTES`` counts, that a catalog must pass for
# ``jobs > 1`` to start a pool.  Two BLAS-capped workers broke even with
# serial on 2 cores, at theorem 1, m = 2, at 18-22 MiB on copies of a
# catalog of orders 10-32 and at 21-24 MiB on G(300, 1/2) lines.
_FORK_BYTES = 20 << 20

# Failures or skips per ``_column`` call: a writer holds one slice's texts.
_SLICE = 256


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
        if type(self.max_order) is not int or self.max_order < 1:
            raise ValueError(f"max_order must be a positive int, "
                             f"got {self.max_order!r}")
        if self.max_order > DEFAULT_MAX_DIM:
            # a line over the construction cap would abort the whole scan
            raise ValueError(f"max_order {self.max_order} exceeds the "
                             f"construction cap {DEFAULT_MAX_DIM}")


class ScanEntry(NamedTuple):
    """One certified line: ``kind`` is "certified" or "refuted", and its
    certificate is row ``row`` of ``block``, ``block.certificate(row)``."""

    line: int
    kind: str
    block: CertificateBlock
    row: int


@dataclass(frozen=True)
class ScanFailure:
    line: int
    error: str


@dataclass(frozen=True)
class ScanSkip:
    line: int
    order: int
    reason: str = "constructed order exceeds max_order"


@dataclass(frozen=True)
class PairReport:
    """Result of one scan: config echo, totals, certificates, failures, skips.

    ``totals`` maps each count name (see the module docstring, plus
    ``hypothesis_satisfied``, ``boundary_flagged`` and ``violations``) to
    its value.  ``certificates`` holds a :class:`ScanEntry` per certified
    or refuted line, in line order.
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


def _scan_chunk(config: ScanConfig, chunk) -> tuple:
    """Process (line number, text) pairs; returns the chunk's entries,
    failures and skips, each a list in line order, and a ``Counter`` of its
    lines, ``scanned``, and of each bucket where its lines are decided.

    Every line is decoded on its own, and ``_line_cost`` of its order skips
    it or budgets it.  The graphs that reach the solve wait in equal-order
    blocks until their Seidel matrices would pass ``_BLOCK_BYTES``; then
    every waiting block runs.  Module-level so workers can unpickle it.
    """
    entries, failures, skips = [], [], []
    counts, waiting, held = Counter(scanned=len(chunk)), defaultdict(list), 0
    for line_no, text in chunk:
        try:
            adj = graph_from_graph6(text).adj
        except Graph6Error as exc:
            failures.append(ScanFailure(line_no, str(exc)))
            continue
        order, cost = _line_cost(config, len(adj))
        if not cost:
            skips.append(ScanSkip(line_no, order))
            continue
        if held + cost > _BLOCK_BYTES:
            _run_blocks(config, waiting, entries, counts)
            held = 0
        waiting[len(adj)].append((line_no, adj))
        held += cost
    _run_blocks(config, waiting, entries, counts)
    counts.update(parse_failed=len(failures), skipped=len(skips))
    entries.sort(key=itemgetter(0))  # blocks of mixed orders interleave
    return entries, failures, skips, counts


def _run_blocks(config: ScanConfig, waiting, entries, counts) -> None:
    """Run each order's waiting (line number, adjacency) pairs as one
    screened ``_certify_block``: its kept rows join ``entries``, and
    ``counts`` gains its lines under the bound and its columns' verdicts."""
    for block in waiting.values():
        lines, adj = zip(*block)
        rows, certs = _certify_block(np.array(adj), config.m, config.theorem,
                                     screen=True)
        counts["hypothesis_failed"] += len(block) - len(rows)
        if certs is not None:
            entries += (ScanEntry(lines[row], "certified" if ok else "refuted",
                                  certs, k) for k, (row, ok)
                        in enumerate(zip(rows.tolist(), certs.satisfied)))
            counts.update(certified=certs.satisfied.count(True),
                          refuted=certs.satisfied.count(False),
                          boundary_flagged=certs.boundary.count(True),
                          violations=certs.theorem_violation.count(True))
    waiting.clear()


def _chunks(tasks, size: int):
    tasks = iter(tasks)
    while chunk := list(islice(tasks, size)):
        yield chunk


def _line_cost(config: ScanConfig, n: int) -> tuple[int, int]:
    """The one rule for a line whose graph has order n: its constructed
    order, and the bytes a block budgets for it, its float64 base Seidel
    matrix, or 0 for a line over ``max_order``, which is skipped."""
    order = config.m ** config.theorem * n
    return order, 8 * n * n if order <= config.max_order else 0


def _cap_blas() -> None:
    """Pool initializer: numpy's bundled OpenBLAS, if any, on one thread, so
    that the workers' BLAS threads do not oversubscribe the cores."""
    import ctypes  # only pool workers run this, so only they import these
    import glob
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
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be a positive int, got {jobs!r}")
    tasks = ((i, text) for i, line in enumerate(lines, start=1)
             if (text := line.strip()))

    worker = partial(_scan_chunk, config)
    if jobs > 1:
        tasks = list(tasks)
        # every worker starts up front: no more than can be kept busy, and
        # none for less work than pays for starting them
        jobs = min(jobs, len(tasks), os.cpu_count() or 1)
        # no line costs more than one of the largest order max_order allows
        top = _line_cost(config, config.max_order // config.m ** config.theorem)
        work, jobs = 0, jobs if len(tasks) * top[1] > _FORK_BYTES else 1
        for _, text in tasks if jobs > 1 else ():
            with suppress(Graph6Error):  # a line that fails costs nothing
                work += _line_cost(config, _graph6_header(text)[0])[1]
            if work > _FORK_BYTES:
                break
        else:  # not past _FORK_BYTES
            jobs = 1
    if jobs > 1:
        # about four chunks per worker: few enough that the per-chunk
        # pickling cost stays small next to sub-millisecond lines
        size = min(_CHUNK_LINES, -(-len(tasks) // (4 * jobs)))
        todo, chunks = list(_chunks(tasks, size)), []
        # imported only to fork: they cost a fresh process about 15 ms
        from concurrent.futures.process import (BrokenProcessPool,
                                                ProcessPoolExecutor)
        try:
            with ProcessPoolExecutor(jobs, initializer=_cap_blas) as pool:
                chunks.extend(pool.map(worker, todo))
        except BrokenProcessPool:  # a worker died: finish in-process
            chunks += map(worker, todo[len(chunks):])
    else:
        chunks = map(worker, _chunks(tasks, _CHUNK_LINES))
    entries, failures, skips, counts = merged = [], [], [], Counter()
    for chunk in chunks:  # each chunk's lists and counts, in line order
        for whole, part in zip(merged, chunk):
            whole += part
    counts["hypothesis_satisfied"] = counts["certified"]
    return PairReport(config=config, totals={tag: counts[tag] for tag in (
        "parse_failed", "skipped", "hypothesis_failed", "certified", "refuted",
        "scanned", "hypothesis_satisfied", "boundary_flagged", "violations")},
        certificates=tuple(entries), failures=tuple(failures),
        skipped=tuple(skips))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _report(report: PairReport):
    """``report`` as canonical JSON with a trailing newline, in pieces: the
    template's text before each field, the config, the totals, and each
    certificate entry and slice of ``_SLICE`` failures or skips after its
    separator."""
    template, pairs = _layout(PairReport, "\n")
    inner, deeper = "\n  ", "\n    "
    texts = template.split("%s")
    for text, (name, _) in zip(texts, pairs):
        yield text
        value = getattr(report, name)
        if type(value) is not tuple:  # the config and the totals
            yield _render(value, inner)
            continue
        sep = "[" + deeper
        for piece in (_entries(value, deeper) if name == "certificates" else
                      (("," + deeper).join(_column(part, deeper))
                       for part in _chunks(value, _SLICE))):
            yield sep + piece
            sep = "," + deeper
        yield inner + "]" if value else "[]"
    yield texts[-1] + "\n"


def _entries(entries, nl: str):
    """Each :class:`ScanEntry` of ``entries`` rendered under ``nl``, as an
    object of its ``certificate``, ``kind`` and ``line``.  A block's rows
    are rendered, by column, at its first entry and dropped after its last:
    a writer holds the rows of one chunk's blocks at most."""
    entry = _layout(("certificate", "kind", "line"), nl)[0]
    blocks = {}  # each open block's template and rows, by id
    for e in entries:
        if id(e.block) not in blocks:
            cert, columns = _template(Certificate, e.block, nl + "  ")
            blocks[id(e.block)] = cert, list(zip(*columns))
        cert, rows = blocks[id(e.block)]
        if e.row == len(rows) - 1:
            del blocks[id(e.block)]
        yield entry % (cert % rows[e.row], _quote(e.kind), e.line)


_CSV_FIELDS = [
    "line", "kind", "graph6", "theorem", "m", "hypothesis_satisfied",
    "balanced", "boundary", "min_abs_eigenvalue", "bound", "energy_a",
    "energy_b", "energy_delta", "equienergetic", "cospectral",
    "closed_form_agrees", "exact_multiplicities_verified", "theorem_violation",
]


def _csv(report: PairReport):
    import csv  # a fresh process imports it for a CSV report only
    # writerow returns what write returns: here the row's text
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    yield writer.writerow(_CSV_FIELDS)
    for e in report.certificates:
        # each field from its block's column at the entry's row
        values = [getattr(e.block, name.removeprefix("hypothesis_"))
                  for name in _CSV_FIELDS[2:]]
        values = [v[e.row] if type(v) is list else v for v in values]
        yield writer.writerow([e.line, e.kind, *(
            _sig(v) if type(v) is float else v for v in values)])


def _text(report: PairReport):
    t, cfg = report.totals, report.config
    yield (f"scan: pair construction {cfg.theorem}, m={cfg.m}, "
           f"max_order={cfg.max_order}\n"
           f"scanned={t['scanned']} certified={t['certified']} "
           f"refuted={t['refuted']} hypothesis_failed={t['hypothesis_failed']} "
           f"parse_failed={t['parse_failed']} skipped={t['skipped']}\n"
           f"hypothesis_satisfied={t['hypothesis_satisfied']} "
           f"boundary_flagged={t['boundary_flagged']} "
           f"violations={t['violations']}\n")
    for e in report.certificates:
        b, k = e.block, e.row
        yield (f"line {e.line}: {b.graph6[k]} [{e.kind}] "
               f"SE_a={_sig(b.energy_a[k])} SE_b={_sig(b.energy_b[k])} "
               f"equienergetic={b.equienergetic[k]} cospectral={b.cospectral[k]}"
               + (" VIOLATION\n" if b.theorem_violation[k] else "\n"))
    for failure in report.failures:
        yield f"line {failure.line}: parse error: {failure.error}\n"
    for skip in report.skipped:
        yield f"line {skip.line}: skipped ({skip.reason}: {skip.order})\n"


# each format's pieces, in order: JSON is the canonical form, CSV carries
# one certificate summary per row, and text is human-readable
_FORMATS = {"json": _report, "csv": _csv, "text": _text}


def write_report(report: PairReport, format: str = "json",
                 destination=None) -> None:
    """Write ``report`` in ``format`` to the path ``destination``, or to
    ``sys.stdout`` if None: the one writer of a report's text, piece by
    piece, never holding the whole text."""
    pieces = _FORMATS.get(format)
    if pieces is None:  # refused before anything is opened
        raise ValueError(f"unknown report format: {format!r}")
    # one write per piece, into a 64 KiB buffer: the default, one 4 KiB file
    # system block, wrote the atlas report 4 % slower, in more system calls
    with (nullcontext(sys.stdout) if destination is None else open(
            destination, "w", encoding="ascii", buffering=1 << 16)) as fh:
        fh.writelines(pieces(report))
