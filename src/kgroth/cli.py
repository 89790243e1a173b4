"""Command-line front end with deterministic JSON and text output.

Exit codes: 0 success (and every check passing), 1 internal error or a
failing verification, 2 invalid input.  A reader that closes stdout early
gets exit 1 with nothing on stderr.  Data goes to stdout, diagnostics to
stderr; identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import families, kostka
from .partitions import check_partition, degree, is_k_bounded
from .symfunc import convert, s as schur
from .tableaux import enumerate_tableaux

# family -> (default basis, takes --k, series truncated at --deg-max, member);
# member(lam, k, deg_max) looks its function up when called, so a rebound
# name in families is the one used
FAMILIES = {
    "G": ("m", False, True, lambda lam, k, d: families.grothendieck(lam, d)),
    "g": ("h", False, False, lambda lam, k, d: families.dual_grothendieck(lam)),
    "Gk": ("m", True, True, lambda lam, k, d: families.affine_grothendieck(lam, k, d)),
    "gk": ("h", True, False, lambda lam, k, d: families.kkschur(lam, k)),
    "ks": ("h", True, False, lambda lam, k, d: families.k_schur(lam, k)),
    "dks": ("m", True, False, lambda lam, k, d: families.dual_k_schur(lam, k)),
    "s": ("m", False, False, lambda lam, k, d: schur(lam)),
}


class InputError(Exception):
    """Invalid command-line input; mapped to exit code 2."""


def _parse_parts(text: str, what: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse {what} {text!r}") from exc


def parse_partition(text: str) -> tuple[int, ...]:
    try:
        return check_partition(_parse_parts(text, "partition"))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_composition(text: str) -> tuple[int, ...]:
    parts = _parse_parts(text, "composition")
    if any(v < 0 for v in parts):
        raise InputError(f"composition parts must be nonnegative: {parts}")
    return parts


def _needs_k(args, what: str) -> int:
    if args.k is None:
        raise InputError(f"{what} needs --k")
    return args.k


def _require_bounded(k: int, lam=(), alpha=()) -> None:
    """Bad input unless the shape lam and the weight alpha are k-bounded, in that order."""
    if not is_k_bounded(lam, k):
        raise InputError(f"{lam} is not {k}-bounded")
    if any(v > k for v in alpha):
        raise InputError(f"weight must be {k}-bounded: {alpha}")


# lower bounds of the integer options, checked once for every verb
_INT_BOUNDS = {"k": 1, "deg_max": 0, "standard_degree": 0, "r": 0}


def _check_integers(args) -> None:
    for name, low in _INT_BOUNDS.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise InputError(f"--{name.replace('_', '-')} must be at least {low}: {value}")


def _cache_dir(args) -> str | None:
    """The cache dir path, made if missing; a regular file in its way is bad input."""
    path = args.cache_dir
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise InputError(f"cache dir is not a directory: {path} ({exc.strerror})") from exc
    return path


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _emit_expansion(args, payload: dict, title: str, coeffs: dict, basis: str, tail=()) -> None:
    """Emit payload with coeffs as its terms, or coeffs as text under title and above tail."""
    ordered = sorted(coeffs.items(), key=lambda t: (degree(t[0]), t[0]))
    payload["terms"] = [{"partition": list(lam), "coeff": c} for lam, c in ordered if c]
    lines = [title]
    if not ordered:
        lines.append("  0")
    width = max((len(str(c)) for _, c in ordered), default=1)
    for lam, c in ordered:
        lines.append(f"  {str(c).rjust(width)}  {basis}[{','.join(map(str, lam))}]")
    _emit(args, payload, "\n".join([*lines, *tail]))


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args) -> int:
    lam = parse_partition(args.partition)
    family, k, deg_max = args.family, args.k, args.deg_max
    default_basis, affine, series, member = FAMILIES[family]
    if affine:
        _require_bounded(_needs_k(args, f"family {family}"), lam)
    if series:
        if deg_max is None:
            deg_max = degree(lam) + 4
        if deg_max < degree(lam):
            raise InputError(f"--deg-max {deg_max} is below the degree of {lam}")
        # a cached matrix serves the affine series; the finite families need only
        # weights up to |lam|, which sweep faster than a whole matrix loads
        if args.cache_dir and affine:
            kostka.build_affine_kostka(k, deg_max, _cache_dir(args))
    f = member(lam, k, deg_max)
    if not series and deg_max is not None:
        f = f.truncate(deg_max)
    basis = args.basis or default_basis
    if f.k is not None and basis != "m":
        raise InputError(f"family {family} lives in the quotient; only the m basis applies")
    if f.basis != basis:
        f = convert(f, basis)
    payload = {
        "family": family,
        "partition": list(lam),
        "basis": basis,
        "k": k,
        "deg_max": f.deg_max,
    }
    bound = "" if f.deg_max is None else f" truncated at degree {f.deg_max}"
    title = f"{family}[{','.join(map(str, lam))}]"
    if k is not None:
        title += f" (k={k})"
    _emit_expansion(args, payload, f"{title}{bound}, {basis} basis:", f.coeffs, basis)
    return 0


def cmd_tableaux(args) -> int:
    lam = parse_partition(args.shape)
    k = _needs_k(args, "tableaux")
    _require_bounded(k, lam)
    if (args.weight is None) == (args.standard_degree is None):
        raise InputError("give exactly one of --weight or --standard-degree")
    if args.standard_degree is not None:
        alpha = (1,) * args.standard_degree
    else:
        alpha = parse_composition(args.weight)
        _require_bounded(k, alpha=alpha)
    chains = enumerate_tableaux(lam, alpha, k)
    fillings = [ch.to_filling(alpha) for ch in chains]
    fillings.sort(key=lambda t: sorted((c, tuple(sorted(s))) for c, s in t.cells.items()))
    payload = {
        "shape": list(lam),
        "weight": list(alpha),
        "k": k,
        "count": len(fillings),
    }
    lines = [f"count: {len(fillings)}"]
    if args.list:
        payload["tableaux"] = [t.to_json_dict() for t in fillings]
        for idx, t in enumerate(fillings):
            lines.append(f"[{idx + 1}]")
            lines.append(t.render(k=k, show_residues=args.residues))
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_pieri(args) -> int:
    lam = parse_partition(args.partition)
    k = _needs_k(args, "pieri")
    _require_bounded(k, lam)
    if args.r > k:
        raise InputError(f"--r must not exceed k={k}")
    fn = families.row_pieri if args.direction == "row" else families.column_pieri
    result = fn(lam, args.r, k)
    payload = {
        "basis": "gk",
        "k": k,
        "deg_max": None,
        "direction": args.direction,
        "partition": list(lam),
        "r": args.r,
    }
    title = f"{args.direction} pieri: r={args.r} on gk[{','.join(map(str, lam))}], k={k}:"
    tail = []
    if args.strips:
        payload["strips"] = [
            {"mu": list(mu), "rho": list(rho)} for mu, rho in result.strips
        ]
        tail = ["strips:"]
        tail.extend(
            f"  mu=[{','.join(map(str, mu))}] rho=[{','.join(map(str, rho))}]"
            for mu, rho in result.strips
        )
    _emit_expansion(args, payload, title, result.terms, "gk", tail)
    return 0


def cmd_verify(args) -> int:
    k, deg_max = args.k, args.deg_max
    result = families.VERIFY_CHECKS[args.check](k, deg_max)
    payload = {
        "check": args.check,
        "params": {"k": k, "deg_max": deg_max},
        "instances": result.instances,
        "failures": result.failures,
        "pass": result.ok,
    }
    status = "PASS" if result.ok else "FAIL"
    lines = [
        f"{status} {args.check} k={k} deg-max={deg_max} "
        f"instances={result.instances} failures={len(result.failures)}"
    ]
    lines.extend(f"  counterexample: {f}" for f in result.failures)
    _emit(args, payload, "\n".join(lines))
    return 0 if result.ok else 1


def cmd_scan(args) -> int:
    k, deg_max = args.k, args.deg_max
    if deg_max < 1:
        report = families._report(args.conjecture, k, deg_max, [])
    else:
        report = families.SCANS[args.conjecture](k, deg_max)
    text = (
        f"scan {report['conjecture']} k={k} deg-max={deg_max}: "
        f"{len(report['entries'])} coefficients, {len(report['violations'])} findings"
    )
    if report["violations"]:
        text += "\n" + "\n".join(
            f"  FINDING lam={v['lam']} mu={v['mu']} coeff={v['coeff']}"
            for v in report["violations"]
        )
    _emit(args, report, text)
    return 0


def cmd_kostka(args) -> int:
    k = _needs_k(args, "kostka")
    if (args.shape is None) != (args.weight is None):
        raise InputError("give both --shape and --weight, or neither")
    if args.shape is not None:
        lam = parse_partition(args.shape)
        alpha = parse_composition(args.weight)
        _require_bounded(k, lam, alpha)
        from .tableaux import count_kostka

        value = count_kostka(lam, alpha, k)
        payload = {"k": k, "shape": list(lam), "weight": list(alpha), "count": value}
        _emit(args, payload, f"kostka k={k} shape={list(lam)} weight={list(alpha)}: {value}")
        return 0
    deg_max = args.deg_max
    matrix = kostka.build_affine_kostka(k, deg_max, _cache_dir(args))
    rows = matrix.entries
    # a matrix can have over 10^5 entries, so each row is written as it is
    # formatted; every shape is also a weight, so each partition is formatted once
    write = sys.stdout.write
    if args.format == "json":
        # the bytes of json.dumps of the whole document with sort_keys=True
        parts = {mu: f"[{', '.join(map(str, mu))}]" for mu in matrix.columns}
        write(f'{{"deg_max": {deg_max}, "entries": [')
        sep = ""
        for lam, mu, v in rows:
            write(f'{sep}{{"count": {v}, "shape": {parts[lam]}, "weight": {parts[mu]}}}')
            sep = ", "
        write(f'], "k": {k}}}\n')
    else:
        parts = {mu: ",".join(map(str, mu)) for mu in matrix.columns}
        write(f"kostka matrix k={k} deg-max={deg_max}: {len(rows)} nonzero entries\n")
        for lam, mu, v in rows:
            write(f"  K[{parts[lam]} | {parts[mu]}] = {v}\n")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _terminal_columns() -> int:
    """The width shutil.get_terminal_size reports: COLUMNS, else the terminal's, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return columns or 80


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, with the width read without importing shutil.

    argparse imports shutil for the width as soon as the first argument is
    added, and with what shutil imports that costs every call about 4 ms.
    """

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        if width is None:
            width = _terminal_columns() - 2
        super().__init__(prog, indent_increment, max_help_position, width)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgroth",
        description="Exact combinatorics of cores, affine set-valued tableaux and their polynomial families",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, help):
        return sub.add_parser(name, help=help, formatter_class=_HelpFormatter)

    def common(p):
        p.add_argument("--k", type=int, default=None, help="level parameter k")
        p.add_argument("--deg-max", type=int, default=None, dest="deg_max")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--cache-dir", default=None, dest="cache_dir")

    p = verb("expand", "expand a family member in a classical basis")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--basis", choices=("m", "h", "e", "s"), default=None)
    common(p)
    p.set_defaults(fn=cmd_expand)

    p = verb("tableaux", "count or list tableaux of a shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--weight", default=None)
    p.add_argument("--standard-degree", type=int, default=None, dest="standard_degree")
    p.add_argument("--count", action="store_true", help="count only (default)")
    p.add_argument("--list", action="store_true", help="list the fillings")
    p.add_argument("--residues", action="store_true", help="show residue subscripts in text output")
    common(p)
    p.set_defaults(fn=cmd_tableaux)

    p = verb("pieri", "strip expansion of a product")
    p.add_argument("direction", choices=("row", "col"))
    p.add_argument("--partition", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--strips", action="store_true", help="include the raw strip multiset")
    common(p)
    p.set_defaults(fn=cmd_pieri)

    p = verb("verify", "run an identity suite")
    p.add_argument("check", choices=sorted(families.VERIFY_CHECKS))
    common(p)
    p.set_defaults(fn=cmd_verify, k=2, deg_max=6)

    p = verb("scan", "scan an open positivity question, reporting findings")
    p.add_argument("conjecture", choices=sorted(families.SCANS))
    common(p)
    p.set_defaults(fn=cmd_scan, k=2, deg_max=6)

    p = verb("kostka", "tableau-count matrices and entries")
    p.add_argument("--shape", default=None)
    p.add_argument("--weight", default=None)
    common(p)
    p.set_defaults(fn=cmd_kostka, deg_max=4)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cache_dir", None) is None:
        args.cache_dir = os.environ.get("KGROTH_CACHE_DIR") or None
    try:
        _check_integers(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; pointing stdout at devnull keeps the interpreter's
        # flush at exit from failing a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:
        # anything else is a fault of the library, not of the input; traceback
        # is imported only here because importing it slows every call's start
        import traceback

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
