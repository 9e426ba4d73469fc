"""Command-line front end: one subcommand per library capability.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 a certified
instance contradicts the predicted equienergy (bug or counterexample --
either demands attention).

Single-graph commands accept the graph6 string as a positional argument,
or read it as bytes, as ``scan`` does, from stdin (``-``) or ``--file
PATH``; exactly one source.  ``closed-form`` and ``certify`` name a pair
by its theorem.  Constructed orders are capped at ``DEFAULT_MAX_DIM``,
the same cap for ``construct``, ``certify``, ``closed-form`` and ``scan``.
"""

import argparse
import sys
from contextlib import nullcontext

import numpy as np

from . import __version__
from .graphs import (KINDS, NUMERIC_MAX_ORDER, Graph6Error, _check_blowup,
                     complement, construct, graph_from_graph6, graph_to_graph6)
from .spectral import (CHARPOLY_MAX_ORDER, ConvergenceError, charpoly_exact,
                       seidel_inertia, seidel_matrix, seidel_spectrum)
from .theory import (_MEMBERS, ClosedFormSpectrum, _closed_forms, _record,
                     _sig, certify, compare_spectra, to_json)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="seidelkit",
                     description="Seidel spectra, energies, and certified "
                                 "equienergetic blow-up pairs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name, handler, help_text, json_flag=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("graph", nargs="?", default=None,
                       help="graph6 string, or - for stdin")
        p.add_argument("--file", default=None,
                       help="read the graph6 line from this file")
        if json_flag:
            p.add_argument("--json", action="store_true",
                           help="emit JSON instead of text")
        return p

    graph_command("spectrum", _cmd_spectrum, "Seidel spectrum in multiplicity notation")
    graph_command("energy", _cmd_energy, "Seidel energy (sum of absolute eigenvalues)")
    graph_command("inertia", _cmd_inertia, "positive/zero/negative Seidel eigenvalue counts")
    graph_command("charpoly", _cmd_charpoly,
                  "exact characteristic polynomial of the Seidel matrix "
                  f"(order <= {CHARPOLY_MAX_ORDER})")
    graph_command("complement", _cmd_complement, "graph6 of the edge complement")

    p = graph_command("construct", _cmd_construct, "build a blow-up graph, print its graph6")
    which = p.add_mutually_exclusive_group(required=True)
    for kind, steps in KINDS.items():
        # e.g. "clique blow-up of the independent blow-up (order m^2*n)"
        names = [("clique" if clique else "independent") + " blow-up"
                 for clique in reversed(steps)]
        order = "m*n" if len(steps) == 1 else f"m^{len(steps)}*n"
        which.add_argument(f"--{kind}", dest="kind", action="store_const",
                           const=kind,
                           help=f"{' of the '.join(names)} (order {order})")
    p.add_argument("--m", type=int, required=True, help="multiplicity, >= 2")

    p = graph_command("closed-form", _cmd_closed_form,
                      "closed-form spectra of both members of a pair")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("compare", help="equienergetic/cospectral verdict for two graphs")
    p.set_defaults(handler=_cmd_compare)
    p.add_argument("graph1", help="graph6 string, or - for stdin")
    p.add_argument("graph2", help="graph6 string, or - for stdin")
    p.add_argument("--json", action="store_true")

    p = graph_command("certify", _cmd_certify,
                      "full certificate for one blow-up pair", json_flag=False)
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--text", action="store_true",
                   help="human-readable rendering instead of JSON")

    p = sub.add_parser("scan", help="scan a graph6 catalog and report certified pairs")
    p.set_defaults(handler=_cmd_scan)
    p.add_argument("input", nargs="?", default="-",
                   help="catalog file, or - for stdin (default)")
    p.add_argument("--theorem", type=int, choices=(1, 2), default=1)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument("--jobs", type=int, default=1, help="worker processes on "
                   "one BLAS thread each, for catalogs over 20 MiB of matrices")
    p.add_argument("--max-order", type=int, default=NUMERIC_MAX_ORDER,
                   help="skip graphs whose constructed order exceeds this "
                        f"(default {NUMERIC_MAX_ORDER}, at most the "
                        "dimension cap)")
    return parser


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


def _first_graph6_line(stream) -> bytes:
    for line in stream:
        if line.strip():
            return line.strip()
    raise _UsageError("seidelkit: error: no graph6 line found on input")


def _load_graph(token, file=None):
    """The graph of a graph6 ``token``, ``-`` for the next non-blank stdin
    line, or of the first non-blank line of ``file``: exactly one source.
    Bytes, as ``scan`` reads them (a stdin with none, as an ``io.StringIO``,
    gives text), so a bad line gets the scan's error."""
    if (token is None) == (file is None):
        raise _UsageError(
            "seidelkit: error: supply exactly one input "
            "(positional graph6, '-', or --file PATH)")
    if file is not None:
        with open(file, "rb") as fh:
            token = _first_graph6_line(fh)
    elif token == "-":
        token = _first_graph6_line(getattr(sys.stdin, "buffer", sys.stdin))
    return graph_from_graph6(token)


def _emit(args, obj, text) -> int:
    """Print ``obj`` as JSON under ``--json``, else ``text()``, which is
    built only then; exit code 0."""
    print(to_json(obj) if args.json else text())
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    spec = seidel_spectrum(_load_graph(args.graph, args.file))
    return _emit(args, spec, spec.format_grouped)


def _cmd_energy(args) -> int:
    energy = seidel_spectrum(_load_graph(args.graph, args.file)).energy()
    return _emit(args, {"energy": energy}, lambda: _sig(energy))


def _cmd_inertia(args) -> int:
    inertia = seidel_inertia(_load_graph(args.graph, args.file))
    return _emit(args, inertia,
                 lambda: f"({inertia.n_pos}, {inertia.n_zero}, {inertia.n_neg})")


def _cmd_charpoly(args) -> int:
    poly = charpoly_exact(seidel_matrix(_load_graph(args.graph, args.file)))
    return _emit(args, {"coefficients": poly.to_list()}, poly.format_text)


def _cmd_complement(args) -> int:
    line = graph_to_graph6(complement(_load_graph(args.graph, args.file)))
    return _emit(args, {"graph6": line}, lambda: line)


def _cmd_construct(args) -> int:
    result = construct(_load_graph(args.graph, args.file), args.m, args.kind)
    line = graph_to_graph6(result)
    return _emit(args, {"graph6": line, "order": result.n}, lambda: line)


def _cmd_closed_form(args) -> int:
    g = _load_graph(args.graph, args.file)
    # each member is theorem twin steps: refuse them before the base solve
    _check_blowup(g.n, args.m, args.theorem)
    values = np.array([seidel_spectrum(g).values])
    forms = {f"spectrum_{side}": _record(ClosedFormSpectrum,
                                         _closed_forms(values, args.m, kind), 0)
             for side, kind in zip("ab", _MEMBERS[args.theorem])}
    return _emit(args, forms, lambda: "\n".join(
        f"{key}: {cf.format_grouped()}" for key, cf in forms.items()))


def _cmd_compare(args) -> int:
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    equal, delta, cospectral = compare_spectra(seidel_spectrum(g1),
                                               seidel_spectrum(g2))
    return _emit(args, {"equienergetic": equal, "energy_delta": delta,
                        "cospectral": cospectral},
                 lambda: f"equienergetic={equal} delta={_sig(delta)} "
                         f"cospectral={cospectral}")


def _cmd_certify(args) -> int:
    cert = certify(_load_graph(args.graph, args.file), args.m, args.theorem)
    print(cert.render_text() if args.text else to_json(cert))
    return 3 if cert.theorem_violation else 0


def _cmd_scan(args) -> int:
    # only a scan loads the scan layer: importing it costs a fresh process
    # about 6.6 ms
    from .search import ScanConfig, scan_stream, write_report

    # built, and so checked against the construction cap, before any line
    # is read
    config = ScanConfig(m=args.m, theorem=args.theorem,
                        max_order=args.max_order)
    # read bytes, if stdin has them: a non-ASCII line then fails on its own
    with (nullcontext(getattr(sys.stdin, "buffer", sys.stdin))
          if args.input == "-" else open(args.input, "rb")) as fh:
        report = scan_stream(fh, config, jobs=args.jobs)
    write_report(report, format=args.format, destination=args.out)
    return 3 if report.has_violations else 0


# built once per process: parse_args leaves the parser unchanged
_PARSER = _build_parser()


def run(argv) -> int:
    """Parse arguments, dispatch, and map failures onto the exit-code contract."""
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (Graph6Error, ConvergenceError, ValueError, OSError) as exc:
        print(f"seidelkit: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
