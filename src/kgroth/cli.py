"""Command-line front end with deterministic JSON and text output.

Exit codes: 0 success (and every check passing), 1 internal error or a
failing verification, 2 invalid input.  A reader that closes stdout early
gets exit 1 with nothing on stderr.  Data goes to stdout, diagnostics to
stderr; identical invocations produce byte-identical stdout.

Each verb's arguments are declared once, in `VERBS`.  `build_parser` builds
the argparse tree from that table, and it is the only code that imports
argparse.  A plain line, a verb followed by its exact long options each given
once, with no value starting with "-", is read by `_parse_plain` into the
namespace argparse would return.  Every other line (help, abbreviations,
--opt=value, negative numbers, bad or missing arguments) falls back to
argparse, so its messages and exit codes are argparse's.  A plain request
then never imports argparse, which with building its parsers costs 4-5 ms
of each call's start-up.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import families, kostka
from .partitions import check_partition, degree, is_k_bounded
from .symfunc import convert, s as schur
from .tableaux import count_kostka, enumerate_tableaux

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


def _cache_dir(args, k: int, deg_max: int) -> str | None:
    """--cache-dir, else KGROTH_CACHE_DIR, made if missing, for the matrix of (k, deg_max).

    A file in the dir's way, or a directory at the path of the matrix's file,
    is bad input, found before any matrix is built.
    """
    path = args.cache_dir
    if path is None:
        path = os.environ.get("KGROTH_CACHE_DIR")
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise InputError(f"cache dir is not a directory: {path} ({exc.strerror})") from exc
        if os.path.isdir(file := kostka._cache_path(k, deg_max, path)):
            raise InputError(f"cache file is a directory: {file}")
    return path


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _emit_expansion(args, payload: dict, title: str, coeffs: dict, basis: str, tail=()) -> None:
    """Emit payload with coeffs as its terms, or coeffs as text under title and above tail."""
    ordered = sorted(coeffs.items(), key=lambda t: (degree(t[0]), t[0]))
    if args.format == "json":
        payload["terms"] = [{"partition": list(lam), "coeff": c} for lam, c in ordered if c]
        _emit(args, payload, "")
        return
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
    elif k is not None:
        raise InputError(f"family {family} takes no --k")
    if series:
        if deg_max is None:
            deg_max = degree(lam) + 4
        if deg_max < degree(lam):
            raise InputError(f"--deg-max {deg_max} is below the degree of {lam}")
    basis = args.basis or default_basis
    # the affine families read in m (Gk, dks) live in the quotient, decided before any build
    if affine and default_basis == "m" and basis != "m":
        raise InputError(f"family {family} lives in the quotient; only the m basis applies")
    # a cached matrix serves the affine series; the finite families need only
    # weights up to |lam|, which sweep faster than a whole matrix loads
    if series and affine and (cache_dir := _cache_dir(args, k, deg_max)):
        kostka.build_affine_kostka(k, deg_max, cache_dir)
    f = member(lam, k, deg_max)
    if not series and deg_max is not None:
        f = f.truncate(deg_max)
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
    payload = {"shape": list(lam), "weight": list(alpha), "k": k}
    lines = []
    if args.list:
        fillings = [ch.to_filling(alpha) for ch in enumerate_tableaux(lam, alpha, k)]
        fillings.sort(key=lambda t: sorted((c, tuple(sorted(s))) for c, s in t.cells.items()))
        payload["count"] = len(fillings)
        if args.format == "json":
            payload["tableaux"] = [t.to_json_dict() for t in fillings]
        else:
            for idx, t in enumerate(fillings):
                lines.append(f"[{idx + 1}]")
                lines.append(t.render(k=k, show_residues=args.residues))
    else:
        # a bare count is the DP count: no tableau is built only to be counted
        payload["count"] = count_kostka(lam, alpha, k)
    _emit(args, payload, "\n".join([f"count: {payload['count']}", *lines]))
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
        value = count_kostka(lam, alpha, k)
        payload = {"k": k, "shape": list(lam), "weight": list(alpha), "count": value}
        _emit(args, payload, f"kostka k={k} shape={list(lam)} weight={list(alpha)}: {value}")
        return 0
    deg_max = args.deg_max
    matrix = kostka.build_affine_kostka(k, deg_max, _cache_dir(args, k, deg_max))
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

# the options more than one verb reads; each verb lists those its cmd_* reads
_K = ("--k", dict(type=int, help="level parameter k"))
_DEG_MAX = ("--deg-max", dict(type=int))
_FORMAT = ("--format", dict(choices=("json", "text"), default="text"))
_CACHE_DIR = ("--cache-dir", dict())

# verb -> (help, arguments, defaults).  Each argument is its name and the
# keywords of its add_argument call, in the order the parser adds them; the
# defaults are the verb's set_defaults, where fn names the cmd_* function
VERBS = {
    "expand": ("expand a family member in a classical basis", (
        ("--family", dict(choices=FAMILIES, required=True)),
        ("--partition", dict(required=True)),
        ("--basis", dict(choices=("m", "h", "e", "s"))),
        _K, _DEG_MAX, _FORMAT, _CACHE_DIR,
    ), dict(fn="cmd_expand")),
    "tableaux": ("count or list tableaux of a shape", (
        ("--shape", dict(required=True)),
        ("--weight", dict()),
        ("--standard-degree", dict(type=int)),
        ("--list", dict(action="store_true", help="list the fillings")),
        ("--residues", dict(action="store_true", help="show residue subscripts in text output")),
        _K, _FORMAT,
    ), dict(fn="cmd_tableaux")),
    "pieri": ("strip expansion of a product", (
        ("direction", dict(choices=("row", "col"))),
        ("--partition", dict(required=True)),
        ("--r", dict(type=int, required=True)),
        ("--strips", dict(action="store_true", help="include the raw strip multiset")),
        _K, _FORMAT,
    ), dict(fn="cmd_pieri")),
    "verify": ("run an identity suite", (
        ("check", dict(choices=sorted(families.VERIFY_CHECKS))),
        _K, _DEG_MAX, _FORMAT,
    ), dict(fn="cmd_verify", k=2, deg_max=6)),
    "scan": ("scan an open positivity question, reporting findings", (
        ("conjecture", dict(choices=sorted(families.SCANS))),
        _K, _DEG_MAX, _FORMAT,
    ), dict(fn="cmd_scan", k=2, deg_max=6)),
    "kostka": ("tableau-count matrices and entries", (
        ("--shape", dict()),
        ("--weight", dict()),
        _K, _DEG_MAX, _FORMAT, _CACHE_DIR,
    ), dict(fn="cmd_kostka", deg_max=4)),
}


def _dest(name: str) -> str:
    """The attribute argparse stores an argument under."""
    return name.lstrip("-").replace("-", "_")


def _verb_defaults(defaults: dict) -> dict:
    """A verb's set_defaults, its fn looked up now, so a rebound cmd_* is the one called."""
    return dict(defaults, fn=globals()[defaults["fn"]])


def _parse_plain(argv) -> SimpleNamespace | None:
    """What build_parser().parse_args(argv) returns for a plain line, else None.

    A plain line is a verb, then that verb's arguments, each given once: its
    positional, if it has one, and options by their exact names, every
    required one among them.  Each option but a store_true flag takes one
    value that does not start with "-".  Every other line (help,
    abbreviations, --opt=value, a value starting with "-", a bad choice or
    integer, a missing, repeated or unknown argument) returns None, and
    argparse reads it, with its own messages and exit codes.
    """
    if not argv or argv[0] not in VERBS:
        return None
    _, arguments, defaults = VERBS[argv[0]]
    spec = dict(arguments)
    positional = next((name for name in spec if not name.startswith("-")), None)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, value = token, True
        if not token.startswith("-"):
            name, value = positional, token
        elif token not in spec:
            return None
        elif spec[token].get("action") != "store_true":
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        if name is None or name in given:
            return None
        keywords = spec[name]
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[name] = value
    if any(name not in given for name, keywords in arguments
           if keywords.get("required") or name == positional):
        return None
    values = {"command": argv[0]}
    for name, keywords in arguments:
        flag = keywords.get("action") == "store_true"
        values[_dest(name)] = False if flag else keywords.get("default")
    values.update(_verb_defaults(defaults))
    values.update((_dest(name), value) for name, value in given.items())
    return SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the VERBS table; it reads every line _parse_plain does not."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="kgroth",
        description="Exact combinatorics of cores, affine set-valued tableaux and their polynomial families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (summary, arguments, defaults) in VERBS.items():
        p = sub.add_parser(verb, help=summary)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(**_verb_defaults(defaults))
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
