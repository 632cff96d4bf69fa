"""Command-line verification driver.

Subcommands select check groups; ``all`` runs everything.  Exit status: 0 when
every non-skipped check passes, 1 when any fails, 2 on usage errors; a
reader that closes standard output early does not change it.  The seed
only moves the integer evaluation points of p in the classical-limit span
comparisons; their inputs are free of p, so it never changes any verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import CheckConfig, run_checks, SUBCOMMANDS
from . import borel

MAX_TRUNCATION = 40  # filtration weight; X-degree up to 20


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ospq-verify",
        description="Exact symbolic verification of the deformed orthosymplectic "
                    "supergroup, its R-matrix, Hopf structure, and dual Borel side.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS,
                        help="check group to run")
    parser.add_argument("--truncation", type=int, default=borel.DEFAULT_TRUNCATION,
                        help="filtration weight bound for series checks: an even "
                             "integer from 4 to 40 (default 16); it moves the "
                             "borel-ansatz checks and the series sanity half of "
                             "borel-coproduct.homomorphism, whose Hopf checks are "
                             "exact (borel-coproduct takes as long at any "
                             "weight; borel-ansatz grows with it)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the evaluation points of p in the "
                             "classical-limit spans (inputs free of p)")
    parser.add_argument("--export", metavar="DIR", default=None,
                        help="write canonical-serialization artifacts to DIR")
    return parser


def render_text(reports, out):
    width = max(len(r.name) for r in reports)
    for r in reports:
        out.write(f"{r.name:<{width}}  {r.status.upper():<4}  "
                  f"{r.elapsed_ms:>7} ms  {r.details}\n")
    passed = sum(1 for r in reports if r.status == "pass")
    failed = sum(1 for r in reports if r.status == "fail")
    out.write(f"{passed} passed, {failed} failed, "
              f"{len(reports) - passed - failed} skipped\n")


def export_artifacts(directory):
    from .serialize import format_poly, format_matrix, format_series
    from . import frt
    from .supermatrix import desuperize
    os.makedirs(directory, exist_ok=True)

    def write(name, text):
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)

    pres = frt.presentation()
    rtt, orth = frt.eliminated_residuals()
    write("residuals_exchange.txt",
          "\n".join(format_poly(f) for f in rtt) + "\n")
    write("residuals_orthogonality.txt",
          "\n".join(format_poly(f) for f in orth) + "\n")
    write("residuals_reduced.txt",
          "\n".join(format_poly(pres.normal_form(f)) for f in rtt + orth) + "\n")
    write("relations_defining.txt",
          "\n".join(format_poly(f) for f in frt.defining_relations()) + "\n")
    write("relation_unimodularity.txt", format_poly(frt.unimodularity_relation()) + "\n")
    write("rules_compiled.txt",
          "\n".join(format_poly(f) for f in pres.system.rule_polys()) + "\n")
    r = frt.quantum_r_matrix()
    write("matrix_r.txt", format_matrix(r))
    write("matrix_r_desuperized.txt", format_matrix(desuperize(r)))
    write("matrix_metric.txt", format_matrix(frt.metric_matrix()))
    from . import classical
    rep_lines = []
    for name in classical.BASIS:
        rep_lines.append(f"# {name}")
        rep_lines.append(format_matrix(classical.REP[name]))
    write("matrix_representation.txt", "\n".join(rep_lines))
    table_lines = []
    for (x, y), rhs in sorted(classical._TABLE.items()):
        body = " + ".join(f"({c})*{z}" for z, c in sorted(rhs.items())) or "0"
        table_lines.append(f"[{x},{y}] = {body}")
    write("structure_constants.txt", "\n".join(table_lines) + "\n")
    defects = frt.antipode_axiom_defects()
    lines = []
    for (i, j), left, right in defects:
        lines.append(f"entry ({i + 1},{j + 1}) left:  {format_poly(left)}")
        lines.append(f"entry ({i + 1},{j + 1}) right: {format_poly(right)}")
    write("hopf_antipode_traces.txt", "\n".join(lines) + "\n")
    sol = borel.particular_solution(borel.DEFAULT_TRUNCATION)
    series_lines = []
    for name, series in (("K", sol.K), ("L", sol.L), ("M", sol.M),
                         ("N", sol.N), ("P", sol.P)):
        series_lines.append(f"# {name}")
        series_lines.append(format_series(series))
    write("series_ansatz_particular.txt", "\n".join(series_lines))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    config = CheckConfig(truncation=args.truncation, seed=args.seed)
    if not 4 <= config.truncation <= MAX_TRUNCATION or config.truncation % 2:
        print(f"--truncation must be an even integer from 4 to {MAX_TRUNCATION}",
              file=sys.stderr)
        return 2
    if args.export is not None:
        try:
            export_artifacts(args.export)
        except OSError as exc:
            print(f"export failed: {exc}", file=sys.stderr)
            return 2
    reports = run_checks(args.subcommand, config)
    try:
        if args.format == "json":
            json.dump([r.as_dict() for r in reports], sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            render_text(reports, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send the rest to devnull, so that the
        # flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all(r.status != "fail" for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
