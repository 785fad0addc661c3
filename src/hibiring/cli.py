"""Command-line front end.

Subcommands: lattice, ideal, syzygy, betti, linearity, census.  A lattice is
given either as --grid M N or as --file PATH pointing to a JSON document with
"elements" (a list of names) and "covers" (pairs of indices into that list,
lower element first).  Exit codes: 0 success, 1 input error (including a
missing or unknown argument), 2 mathematical mismatch (a formula/oracle
disagreement, a failed Groebner certificate, or a typed generator that fails
phi = 0).
"""

import argparse
import csv
import json
import sys
from json.encoder import encode_basestring_ascii
from math import isqrt

from . import lattice as lat
from .betti import (
    k_of,
    planar_betti,
    planar_formula,
    planar_linearity,
    typed_minimal_histogram,
)
from .errors import HibiError, NotASyzygy, NotGroebner, OracleMismatch
from .ideal import (
    buchberger_check,
    hibi_ideal,
    to_json_dict,
    to_macaulay2,
    to_singular,
)
from .oracle import graded_betti_oracle, is_linear_first_syzygy
from .syzygy import FINE_KINDS, iter_typed_generators

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2


# the largest characteristic Singular accepts for a prime field
MAX_CHARACTERISTIC = 2147483647


def _parse_field(text, nvars):
    """The characteristic --field names: 0 for qq, P for fp:P."""
    if text == "qq":
        return 0
    digits = text[3:]
    if text.startswith("fp:") and digits.isascii() and digits.isdigit():
        p = int(digits)
        if p > MAX_CHARACTERISTIC:
            raise ValueError(f"prime must be at most {MAX_CHARACTERISTIC}, "
                             "the largest characteristic Singular accepts")
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")
        if p <= nvars:
            raise ValueError(
                f"prime {p} must exceed the number of variables ({nvars})")
        return p
    raise ValueError(f"unknown field {text!r}; use qq or fp:P")


def _load_lattice(args):
    if args.grid is not None:
        m, n = args.grid
        if m < 1 or n < 1:
            raise ValueError("grid dimensions must be positive")
        return lat.grid(m, n)
    if args.file is not None:
        with open(args.file) as fh:
            return lat.from_json_dict(json.load(fh))
    raise ValueError("provide a lattice via --grid M N or --file PATH")


def _emit(args, report, text_lines):
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- subcommands ---------------------------------------------------------------


def cmd_lattice(args):
    L = _load_lattice(args)
    jm = sorted(L.jm_set())
    ncovers = len(L.covers)
    report = {
        "elements": L.n,
        "covers": ncovers,
        "incomparable_pairs": len(L.incomparable_pairs()),
        "distributive": True,
        "planar": L.is_planar(),
        "jm_elements": [L.labels[v] for v in jm],
        "k": k_of(L),
    }
    shape = "planar" if report["planar"] else "not planar"
    lines = [
        f"{L.n} elements, {report['incomparable_pairs']} incomparable pairs, "
        f"{shape}, k={report['k']}",
        f"covers: {ncovers}",
        f"JM elements: {', '.join(report['jm_elements']) or '(none)'}",
    ]
    _emit(args, report, lines)
    return EXIT_OK


def cmd_ideal(args):
    L = _load_lattice(args)
    p = _parse_field(args.field, L.n)
    ideal = hibi_ideal(L)
    if args.export == "m2":
        sys.stdout.write(to_macaulay2(ideal, p))
        return EXIT_OK
    if args.export == "singular":
        sys.stdout.write(to_singular(ideal, p))
        return EXIT_OK
    if args.export == "json":
        print(json.dumps(to_json_dict(ideal, p), indent=2, sort_keys=True))
        return EXIT_OK
    report = {"generators": [
        {"pair": [L.labels[v] for v in r.pair], "text": ideal.render(r)}
        for r in ideal.relations]}
    lines = [f"{len(ideal)} generators"]
    lines += [f"  g({g['pair'][0]},{g['pair'][1]}) = {g['text']}"
              for g in report["generators"]]
    _emit(args, report, lines)
    return EXIT_OK


def _write_syzygy_json(labels, listing, report):
    """Write json.dumps(report, indent=2, sort_keys=True) for report plus the
    generator listing [{"kind": ..., "witness": [label, ...]}, ...], built
    from the (kind, witness) pairs with the kinds and labels encoded once.
    "generators" sorts first among the keys, so the rest of the report
    follows the listing unchanged.  Three writes (head, listing, rest), none
    per item: with unbuffered stdout each write is a system call."""
    label = [encode_basestring_ascii(x) for x in labels]
    kind = {k: encode_basestring_ascii(k) for k in FINE_KINDS}
    item = '    {\n      "kind": %s,\n      "witness": [\n        %s\n      ]\n    }'
    sep = ",\n        "
    items = ",\n".join(item % (kind[k], sep.join(map(label.__getitem__, w)))
                       for k, w in listing)
    rest = json.dumps(report, indent=2, sort_keys=True)
    opening, closing = ("[\n", "\n  ]") if listing else ("[]", "")
    out = sys.stdout
    out.write('{\n  "generators": ' + opening)
    out.write(items)
    out.write(closing + ",\n" + rest[2:] + "\n")


def _listing_and_histogram(ideal):
    """(kind, witness) of every typed generator, each checked against phi = 0
    where it is built, and their minimal histogram.  The histogram reads only
    degree-3 rows, so D, the one degree-4 kind, keeps no row, and the rows it
    read are freed on return, before any output is built."""
    listing, degree3 = [], []
    for t in iter_typed_generators(ideal):
        listing.append((t.kind, t.witness))
        if t.kind != "D":
            degree3.append(t)
    return listing, typed_minimal_histogram(ideal, degree3)


def cmd_syzygy(args):
    L = _load_lattice(args)
    listing, hist = _listing_and_histogram(hibi_ideal(L))
    report = {"minimal_histogram": hist, "total": sum(hist.values()),
              "verified": bool(args.verify)}
    if args.format == "json":
        _write_syzygy_json(L.labels, listing, report)
        return EXIT_OK
    lines = []
    if args.classify:
        lines += [f"  {k} witness ({', '.join(L.labels[v] for v in w)})"
                  for k, w in listing]
    lines.append("minimal histogram: "
                 + ", ".join(f"{k}={v}" for k, v in hist.items()))
    lines.append(f"total minimal generators: {report['total']}")
    if args.verify:
        lines.append(f"all {len(listing)} typed generators verified as syzygies")
    _emit(args, report, lines)
    return EXIT_OK


def cmd_betti(args):
    L = _load_lattice(args)
    report = {"mode": args.mode}
    lines = []
    if args.mode in ("formula", "both"):
        f = planar_formula(L)
        breakdown = {"strip": f.nS, "L": f.nL, "box": f.nB, "diamond": f.nD}
        formula_total = sum(breakdown.values())
        report["formula"] = {"breakdown": breakdown, "total": formula_total}
        lines.append("formula: "
                     + " + ".join(str(v) for v in breakdown.values())
                     + f" = {formula_total}")
    if args.mode in ("oracle", "both"):
        rows = graded_betti_oracle(hibi_ideal(L))
        report["oracle"] = {
            "total": rows.total,
            "by_degree": {r.degree: r.minimal_generators for r in rows}}
        lines.append("oracle: " + ", ".join(
            f"degree {r.degree}: {r.minimal_generators}" for r in rows)
            + f" (total {rows.total})")
    if args.mode == "both":
        if formula_total != rows.total:
            report["agreement"] = False
            _emit(args, report, lines
                  + [f"MISMATCH: formula {formula_total} != oracle "
                     f"{rows.total}"])
            return EXIT_MISMATCH
        report["agreement"] = True
        lines.append(f"{formula_total} = {rows.total}")
    _emit(args, report, lines)
    return EXIT_OK


def cmd_linearity(args):
    L = _load_lattice(args)
    v = planar_linearity(L)
    report = {"k": v.k, "verdict": v.verdict, "reason": v.reason}
    lines = [f"k = {v.k}", f"verdict: {v.verdict}", f"reason: {v.reason}"]
    if args.verify:
        oracle = is_linear_first_syzygy(hibi_ideal(L))
        report["oracle_agrees"] = (v.verdict == "linear") == oracle
        lines.append(f"oracle agrees: {report['oracle_agrees']}")
        if not report["oracle_agrees"]:
            _emit(args, report, lines)
            return EXIT_MISMATCH
    _emit(args, report, lines)
    return EXIT_OK


def cmd_census(args):
    rows = []
    for L in lat.enumerate_distributive(args.max_elements):
        if L.n == 1:
            continue  # the one-element lattice has no relations at all
        ideal = hibi_ideal(L)
        planar = L.is_planar()
        row = {"elements": L.n, "planar": planar, "k": k_of(L)}
        try:
            buchberger_check(ideal)
            row["gb"] = "pass"
            if planar:
                row["betti"] = planar_betti(ideal).total
                # the linearity rule, nD = 0 iff linear, holds here:
                # planar_betti has raised unless nD equals the oracle's
                # degree-4 count, and GradedBetti.linear holds exactly when
                # that count is 0
                row["linearity"] = "pass"
            else:
                row["betti"] = row["linearity"] = "skipped (not planar)"
        except (NotGroebner, OracleMismatch) as exc:
            row["error"] = str(exc)
            row["lattice"] = L.to_json_dict()  # replayable with --file
        rows.append(row)
    failures = sum("error" in row for row in rows)
    if args.format == "csv":
        fields = sorted({k for row in rows for k in row})
        writer = csv.writer(sys.stdout)
        writer.writerow(fields)
        for row in rows:  # a lattice cell as JSON, which --file reads
            cells = [row.get(k, "") for k in fields]
            writer.writerow([json.dumps(c) if isinstance(c, dict) else c
                             for c in cells])
    else:
        _emit(args, {"rows": rows, "examined": len(rows),
                     "failures": failures},
              [f"{len(rows)} lattices examined, {failures} failures"])
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_INPUT on a usage error; argparse's own 2 would read as
    a mathematical mismatch."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="hibi",
        description="First syzygies of Hibi rings of finite distributive "
                    "lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--grid", nargs=2, type=int, metavar=("M", "N"))
        source.add_argument("--file", metavar="PATH")
        p.add_argument("--format", choices=("text", "json"), default="text")

    common(sub.add_parser("lattice", help="lattice report"))
    p = sub.add_parser("ideal", help="generator listing or export script")
    common(p)
    p.add_argument("--field", default="qq", metavar="{qq|fp:P}")
    p.add_argument("--export", choices=("m2", "singular", "json"))
    p = sub.add_parser("syzygy", help="typed syzygy listing and histogram")
    common(p)
    p.add_argument("--classify", action="store_true")
    p.add_argument("--verify", action="store_true")
    p = sub.add_parser("betti", help="first Betti number by formula/oracle")
    common(p)
    p.add_argument("--mode", choices=("formula", "oracle", "both"),
                   default="both")
    p = sub.add_parser("linearity", help="linearity of the first syzygy")
    common(p)
    p.add_argument("--verify", action="store_true")
    p = sub.add_parser("census", help="property suites over all small "
                                      "distributive lattices")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--max-elements", type=int, required=True)
    return parser


_COMMANDS = {
    "lattice": cmd_lattice,
    "ideal": cmd_ideal,
    "syzygy": cmd_syzygy,
    "betti": cmd_betti,
    "linearity": cmd_linearity,
    "census": cmd_census,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NotASyzygy, NotGroebner, OracleMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (HibiError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
