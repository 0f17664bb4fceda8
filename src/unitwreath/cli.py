"""Command-line front end.

Subcommands: check, verify, scan, model.  Exit codes:
0 success/pass, 1 hypothesis failure, 2 verification failure, 3 input or
usage error, or a resource limit (the load limit, or the closure cap in the
group algebra's cross-check),
141 (128 + SIGPIPE) when stdout's reader closed early, as `| head` does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import catalog, construct, oracle, pcgroup

EXIT_PASS = 0
EXIT_HYPOTHESIS = 1
EXIT_VERIFY = 2
EXIT_INPUT = 3
EXIT_PIPE = 141


def _dump(obj) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it.

    With indent set, json.dumps runs the stdlib's pure-Python encoder; this
    writer dispatches on the exact type instead and joins each container.
    It takes dicts with str keys, lists, tuples, str, int, bool and None,
    and raises TypeError on anything else.
    """
    return _json(obj, "\n")


_quote = json.encoder.encode_basestring_ascii


def _json(obj, newline: str) -> str:
    """_dump's recursion; newline is a line break and the indent of obj's line."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return repr(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "  # _quote raises TypeError on a key that is not a str
        return ("{" + inner + ("," + inner).join(
            [_quote(key) + ": " + _json(obj[key], inner) for key in sorted(obj)]) + newline + "}")
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json(x, inner) for x in obj]) + newline + "]"
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _parse_witness(group, spec: str):
    """Parse "a=<word>,b=<word>,z=<word>"; words use '*' or '·' separators."""
    parts = {}
    for item in spec.split(","):
        key, sep, word = item.partition("=")
        key = key.strip()
        if not sep:
            raise pcgroup.ParseError(f"bad witness component {item!r}")
        if key not in ("a", "b", "z"):
            raise pcgroup.ParseError(f"unknown witness key {key!r}")
        if key in parts:
            raise pcgroup.ParseError(f"witness key {key!r} given twice")
        if not word.strip(" \t\n*·"):  # nothing but separators
            raise pcgroup.ParseError(f"witness key {key!r} has an empty word")
        parts[key] = group.parse_word(word)
    missing = {"a", "b", "z"} - set(parts)
    if missing:
        raise pcgroup.ParseError(f"witness override missing {sorted(missing)}")
    return parts["a"], parts["b"], parts["z"]


def _hypothesis_text(group, report) -> str:
    lines = [f"group {group.name} of order {group.order}"]
    lines.append(f"  non-abelian:        {report.nonabelian}")
    lines.append(
        f"  derived subgroup:   order {report.derived_order}, "
        f"cyclic: {report.derived_cyclic}"
    )
    lines.append(f"  center:             order {report.center_order}")
    lines.append(
        "  central involutions outside derived: "
        + (" ".join(group.word_str(x) for x in report.candidates_z) or "none")
    )
    lines.append(f"  hypotheses: {'pass' if report.passed else 'FAIL'}"
                 + (f" ({report.failure_reason})" if report.failure_reason else ""))
    return "\n".join(lines)


def _pipeline_text(result) -> str:
    group = result.group
    lines = [_hypothesis_text(group, result.hypothesis)]
    if result.witness is not None:
        w = result.witness
        lines.append(
            f"  witness: a = {group.word_str(w.a)}, b = {group.word_str(w.b)}, "
            f"z = {group.word_str(w.z)}  (s = {w.s}, k = {w.k})"
        )
    if result.orbit is not None:
        lines.append("  orbit of h = 1 + b(1+z) under conjugation by a:")
        for i, (words, _) in enumerate(result.orbit_units()):
            lines.append(f"    h^(a^{i}) = {words}")
    if result.section is not None:
        sec = result.section
        lines.append("  base |X| = {base_order}, ambient |<X,a>| = {ambient_order}, "
                     "kernel = {kernel_order}, section = {quotient_order}".format(**sec.orders()))
        for name in construct.CHECK_NAMES:
            if name in sec.checks:
                lines.append(f"    {name:<34} {'ok' if sec.checks[name] else 'FAIL'}")
    if result.error is not None:
        lines.append(f"  error: {result.error}")
    lines.append(f"  verdict: {'pass' if result.verdict else 'FAIL'}")
    return "\n".join(lines)


def _cmd_check(args) -> int:
    group = pcgroup.load_file(args.path)
    report = construct.check_hypotheses(group)
    if args.json:
        print(_dump(report.to_dict(group)))
    else:
        print(_hypothesis_text(group, report))
    return EXIT_PASS if report.passed else EXIT_HYPOTHESIS


def _verify_file(args) -> int:
    group = pcgroup.load_file(args.path)
    override = None
    if args.witness:
        override = _parse_witness(group, args.witness)
    result = construct.run_pipeline(
        group, use_oracle=args.oracle, override=override, cap=args.cap
    )
    print(_dump(result.to_dict()) if args.json else _pipeline_text(result))
    if not result.hypothesis.passed:
        return EXIT_HYPOTHESIS
    return EXIT_PASS if result.verdict else EXIT_VERIFY


def _require_entries(census, args) -> None:
    """A sweep that found no group has verified nothing: an input error."""
    if not census.entries:
        of_order = f" of order {args.order}" if args.order is not None else ""
        raise FileNotFoundError(f"no presentation file{of_order} in {args.path}")


def _cmd_verify(args) -> int:
    path = Path(args.path)
    if path.is_dir():
        sweep = catalog.verify_all(
            path,
            order_filter=args.order,
            use_oracle=args.oracle,
            keep_going=args.keep_going,
            cap=args.cap,
        )
        _require_entries(sweep.census, args)
        if args.json:
            print(_dump(sweep.to_dict()))
        else:
            print(sweep.census.to_text())
            for result in sweep.results:
                print(_pipeline_text(result))
            print(f"sweep verdict: {'pass' if sweep.verdict else 'FAIL'}")
        if sweep.census.errors:
            return EXIT_INPUT
        return EXIT_PASS if sweep.verdict else EXIT_VERIFY
    return _verify_file(args)


def _cmd_scan(args) -> int:
    census = catalog.scan(args.path, order_filter=args.order)
    _require_entries(census, args)
    print(_dump(census.to_dict()) if args.json else census.to_text())
    return EXIT_INPUT if census.errors else EXIT_PASS


def _cmd_model(args) -> int:
    model = oracle.reference_wreath(args.s)
    table = model.to_table_group()
    out = {
        "s": args.s,
        "m": model.m,
        "order": model.order,
        "elements": [f"({v:0{model.m}b},{t})" for (v, t) in model.elements()],
        "table": table.table,
    }
    if args.json:
        print(_dump(out))
    else:
        print(f"C2 wr C{model.m}: order {model.order}")
        for row in table.table:
            print(" ".join(f"{x:3d}" for x in row))
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_INPUT: argparse's own 2 means a false construction."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _group_order(text: str) -> int:
    if not text.isdecimal() or int(text) < 2 or int(text) & (int(text) - 1):
        raise argparse.ArgumentTypeError(f"{text!r} is not a power of two >= 2")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="unitwreath",
        description=(
            "Verify that C2 wr G' is involved in the normalized unit group "
            "of the characteristic-2 group algebra of a 2-group G."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("check", help="hypothesis check on one presentation file")
    p.add_argument("path")
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "verify", help="witness, orbit and section, on a file or a directory"
    )
    p.add_argument("path", help="presentation file or corpus directory")
    add_common(p)
    p.add_argument(
        "--witness",
        metavar="a=<word>,b=<word>,z=<word>",
        help="override witness selection (words like b*c; 1 = identity)",
    )
    p.add_argument(
        "--cap", type=_positive_int, default=oracle.DEFAULT_CAP,
        help="size cap for the closures of the group algebra's cross-check",
    )
    p.add_argument("--oracle", action="store_true",
                   help="enable brute-force isomorphism cross-check "
                   f"(run only when s <= {construct.ORACLE_MAX_S})")
    p.add_argument("--order", type=_group_order, default=None,
                   help="restrict a directory sweep to one group order")
    p.add_argument("--first-failure", dest="keep_going", action="store_false",
                   help="stop a directory sweep at the first failure")
    p.set_defaults(func=_cmd_verify, usage_error=p.error)  # prints verify's usage line

    p = sub.add_parser("scan", help="census of a corpus directory")
    p.add_argument("path")
    add_common(p)
    p.add_argument("--order", type=_group_order, default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("model", help="dump the reference wreath product C2 wr C_(2^s)")
    p.add_argument("s", type=int, choices=range(1, 4))  # s = 4: a table of 2^40 entries
    add_common(p)
    p.set_defaults(func=_cmd_model)

    return parser


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if Path(args.path).is_dir():
            if args.witness:
                args.usage_error("--witness applies to one presentation file, not a directory")
        elif args.order is not None or not args.keep_going:
            args.usage_error(
                "--order and --first-failure apply to a directory sweep, not one file"
            )
    try:
        return args.func(args)
    except (pcgroup.PcError, pcgroup.ClosureCapError, construct.NoWitnessError,
            FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main(argv=None) -> int:
    try:
        try:
            code = _run(argv)
        except SystemExit:  # argparse's --help and usage errors
            sys.stdout.flush()
            raise
        sys.stdout.flush()  # a pipe is block-buffered: a closed reader shows here at the latest
        return code
    except BrokenPipeError:
        # as the Python docs advise: point stdout at devnull, so that the
        # flush at interpreter exit does not fail on the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
