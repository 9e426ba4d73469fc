"""Bulk scanning of graph6 catalogs for certified equienergetic blow-up pairs.

``scan_stream`` consumes graph6 lines, evaluates the eigenvalue-magnitude
hypothesis on each graph, and certifies every graph that clears the bound:
balanced instances are expected to yield equienergetic pairs ("certified"),
unbalanced ones to yield non-equienergetic pairs ("refuted").  Per-line
parse failures and dimension-cap skips are recorded, never fatal.  Output
ordering follows input line numbers, so a scan is deterministic regardless
of the worker count; the JSON rendering is canonical (sorted keys) and
byte-identical across runs and parallelism settings.

Accounting invariant, enforced by construction:

    scanned == certified + refuted + hypothesis_failed + parse_failed + skipped
"""

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

from .graphs import Graph6Error, graph_from_graph6
from .spectral import ZERO_TOL, seidel_spectrum
from .theory import Certificate, certify, hypothesis_from_spectrum

__all__ = [
    "NUMERIC_MAX_ORDER",
    "ScanConfig",
    "ScanTotals",
    "ScanEntry",
    "ScanFailure",
    "ScanSkip",
    "PairReport",
    "scan_stream",
    "write_report",
    "report_to_json",
    "report_from_json",
]

# Default cap on the order of constructed graphs during a scan.
NUMERIC_MAX_ORDER = 2_000


@dataclass(frozen=True)
class ScanConfig:
    """Scan parameters.

    ``theorem`` selects the pair construction (1 = single blow-ups,
    2 = composed double blow-ups); ``max_order`` caps the order of the
    constructed graphs; ``exact_verify`` turns on the exact eigenvector
    check of the padding multiplicities; ``parallelism`` is the
    worker count and never affects results.
    """

    m: int
    theorem: int = 1
    max_order: int = NUMERIC_MAX_ORDER
    exact_verify: bool = False
    parallelism: int = 1

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"blow-up multiplicity must be >= 2, got {self.m}")
        if self.theorem not in (1, 2):
            raise ValueError("theorem must be 1 or 2")
        if self.max_order < 1:
            raise ValueError("max_order must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")

    @property
    def order_factor(self) -> int:
        return self.m if self.theorem == 1 else self.m * self.m

    def to_dict(self) -> dict:
        # parallelism is a run-time knob, not part of the result identity
        return {
            "m": self.m,
            "theorem": self.theorem,
            "max_order": self.max_order,
            "exact_verify": self.exact_verify,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScanConfig":
        return cls(m=d["m"], theorem=d["theorem"], max_order=d["max_order"],
                   exact_verify=d["exact_verify"])


@dataclass(frozen=True)
class ScanTotals:
    scanned: int = 0
    parse_failed: int = 0
    skipped: int = 0
    hypothesis_failed: int = 0
    hypothesis_satisfied: int = 0
    certified: int = 0
    refuted: int = 0
    boundary_flagged: int = 0
    violations: int = 0

    def to_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "parse_failed": self.parse_failed,
            "skipped": self.skipped,
            "hypothesis_failed": self.hypothesis_failed,
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "certified": self.certified,
            "refuted": self.refuted,
            "boundary_flagged": self.boundary_flagged,
            "violations": self.violations,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScanTotals":
        return cls(**d)


@dataclass(frozen=True)
class ScanEntry:
    """One certified line: ``kind`` is "certified" or "refuted"."""

    line: int
    kind: str
    certificate: Certificate

    def to_dict(self) -> dict:
        return {"line": self.line, "kind": self.kind,
                "certificate": self.certificate.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "ScanEntry":
        return cls(line=d["line"], kind=d["kind"],
                   certificate=Certificate.from_dict(d["certificate"]))


@dataclass(frozen=True)
class ScanFailure:
    line: int
    error: str

    def to_dict(self) -> dict:
        return {"line": self.line, "error": self.error}

    @classmethod
    def from_dict(cls, d: dict) -> "ScanFailure":
        return cls(**d)


@dataclass(frozen=True)
class ScanSkip:
    line: int
    order: int
    reason: str

    def to_dict(self) -> dict:
        return {"line": self.line, "order": self.order, "reason": self.reason}

    @classmethod
    def from_dict(cls, d: dict) -> "ScanSkip":
        return cls(**d)


@dataclass(frozen=True)
class PairReport:
    """Result of one scan: config echo, totals, certificates, failures, skips."""

    config: ScanConfig
    totals: ScanTotals
    certificates: tuple[ScanEntry, ...]
    failures: tuple[ScanFailure, ...]
    skipped: tuple[ScanSkip, ...]

    @property
    def has_violations(self) -> bool:
        return self.totals.violations > 0

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "totals": self.totals.to_dict(),
            "certificates": [e.to_dict() for e in self.certificates],
            "failures": [f.to_dict() for f in self.failures],
            "skipped": [s.to_dict() for s in self.skipped],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PairReport":
        return cls(
            config=ScanConfig.from_dict(d["config"]),
            totals=ScanTotals.from_dict(d["totals"]),
            certificates=tuple(ScanEntry.from_dict(e) for e in d["certificates"]),
            failures=tuple(ScanFailure.from_dict(f) for f in d["failures"]),
            skipped=tuple(ScanSkip.from_dict(s) for s in d["skipped"]))


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


def _scan_one(config: ScanConfig, task: tuple[int, str | bytes]):
    """Process a single input line; returns a (tag, ...) record.

    Module-level so worker processes can unpickle it.
    """
    line_no, text = task
    try:
        g = graph_from_graph6(text)
    except Graph6Error as exc:
        return ("fail", line_no, str(exc))
    order = config.order_factor * g.n
    if order > config.max_order:
        return ("skip", line_no, order)
    sigma = seidel_spectrum(g)
    hyp = hypothesis_from_spectrum(sigma, config.m, config.theorem)
    if not hyp.bound_met(ZERO_TOL):
        return ("hypfail", line_no)
    cert = certify(g, config.m, config.theorem, exact=config.exact_verify,
                   sigma=sigma, hypothesis=hyp)
    kind = "certified" if cert.hypothesis.satisfied else "refuted"
    return ("cert", line_no, kind, cert)


def scan_stream(lines, config: ScanConfig) -> PairReport:
    """Scan an iterable of graph6 lines; returns an ordered :class:`PairReport`.

    Lines may be ``str`` or ``bytes``; bytes let a non-ASCII line fail
    to parse on its own instead of failing the read of the whole input.
    Blank lines are ignored (line numbering still counts them).  With
    ``config.parallelism > 1`` the lines are certified in worker
    processes and merged back in input order, so the report is identical
    to a serial run.
    """
    tasks = [(i, line.strip()) for i, line in enumerate(lines, start=1)
             if line.strip()]

    worker = partial(_scan_one, config)
    if config.parallelism > 1 and len(tasks) > 1:
        # about four chunks per worker: few enough that the per-chunk
        # pickling cost stays small next to sub-millisecond lines
        chunksize = -(-len(tasks) // (4 * config.parallelism))
        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            records = list(pool.map(worker, tasks, chunksize=chunksize))
    else:
        records = [worker(t) for t in tasks]

    totals = ScanTotals(scanned=len(tasks))
    entries = []
    failures = []
    skips = []
    for record in records:
        tag = record[0]
        if tag == "fail":
            failures.append(ScanFailure(line=record[1], error=record[2]))
            totals = replace(totals, parse_failed=totals.parse_failed + 1)
        elif tag == "skip":
            skips.append(ScanSkip(line=record[1], order=record[2],
                                  reason="constructed order exceeds max_order"))
            totals = replace(totals, skipped=totals.skipped + 1)
        elif tag == "hypfail":
            totals = replace(totals,
                             hypothesis_failed=totals.hypothesis_failed + 1)
        else:
            _, line_no, kind, cert = record
            entries.append(ScanEntry(line=line_no, kind=kind, certificate=cert))
            if kind == "certified":
                totals = replace(totals, certified=totals.certified + 1,
                                 hypothesis_satisfied=totals.hypothesis_satisfied + 1)
            else:
                totals = replace(totals, refuted=totals.refuted + 1)
            if cert.hypothesis.boundary:
                totals = replace(totals,
                                 boundary_flagged=totals.boundary_flagged + 1)
            if cert.theorem_violation:
                totals = replace(totals, violations=totals.violations + 1)

    return PairReport(config=config, totals=totals,
                      certificates=tuple(entries), failures=tuple(failures),
                      skipped=tuple(skips))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def report_to_json(report: PairReport) -> str:
    """Canonical JSON rendering (sorted keys, fixed layout, trailing newline)."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> PairReport:
    return PairReport.from_dict(json.loads(text))


_CSV_FIELDS = [
    "line", "kind", "graph6", "theorem", "m", "hypothesis_satisfied",
    "balanced", "boundary", "min_abs_eigenvalue", "bound", "energy_a",
    "energy_b", "energy_delta", "equienergetic", "cospectral",
    "closed_form_agrees", "exact_multiplicities_verified", "theorem_violation",
]


def _sig(x: float) -> str:
    return f"{x:.12g}"


def report_to_csv(report: PairReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for entry in report.certificates:
        cert = entry.certificate
        hyp = cert.hypothesis
        writer.writerow({
            "line": entry.line,
            "kind": entry.kind,
            "graph6": cert.graph6,
            "theorem": cert.theorem,
            "m": cert.m,
            "hypothesis_satisfied": hyp.satisfied,
            "balanced": hyp.balanced,
            "boundary": hyp.boundary,
            "min_abs_eigenvalue": _sig(hyp.min_abs_eigenvalue),
            "bound": _sig(hyp.bound),
            "energy_a": _sig(cert.energy_a),
            "energy_b": _sig(cert.energy_b),
            "energy_delta": _sig(cert.energy_delta),
            "equienergetic": cert.equienergetic,
            "cospectral": cert.cospectral,
            "closed_form_agrees": cert.closed_form_agrees,
            "exact_multiplicities_verified": cert.exact_multiplicities_verified,
            "theorem_violation": cert.theorem_violation,
        })
    return buf.getvalue()


def report_to_text(report: PairReport) -> str:
    t = report.totals
    cfg = report.config
    lines = [
        f"scan: pair construction {cfg.theorem}, m={cfg.m}, "
        f"max_order={cfg.max_order}, exact_verify={cfg.exact_verify}",
        f"scanned={t.scanned} certified={t.certified} refuted={t.refuted} "
        f"hypothesis_failed={t.hypothesis_failed} parse_failed={t.parse_failed} "
        f"skipped={t.skipped}",
        f"hypothesis_satisfied={t.hypothesis_satisfied} "
        f"boundary_flagged={t.boundary_flagged} violations={t.violations}",
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
    if format == "json":
        text = report_to_json(report)
    elif format == "csv":
        text = report_to_csv(report)
    elif format == "text":
        text = report_to_text(report)
    else:
        raise ValueError(f"unknown report format: {format!r}")
    if destination is not None:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)
    return text
