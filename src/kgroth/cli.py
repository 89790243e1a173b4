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
from .symfunc import convert
from .tableaux import enumerate_tableaux

FAMILIES = ("G", "g", "Gk", "gk", "ks", "dks", "s")
AFFINE_FAMILIES = ("Gk", "gk", "ks", "dks")
INFINITE_FAMILIES = ("G", "Gk")
DEFAULT_BASIS = {"G": "m", "g": "h", "Gk": "m", "gk": "h", "ks": "h", "dks": "m", "s": "m"}


class InputError(Exception):
    """Invalid command-line input; mapped to exit code 2."""


def parse_partition(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse partition {text!r}") from exc
    try:
        return check_partition(parts)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_composition(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse composition {text!r}") from exc
    if any(v < 0 for v in parts):
        raise InputError(f"composition parts must be nonnegative: {parts}")
    return parts


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


def _terms_payload(coeffs: dict[tuple[int, ...], int]) -> list[dict]:
    ordered = sorted(coeffs.items(), key=lambda t: (degree(t[0]), t[0]))
    return [{"partition": list(lam), "coeff": c} for lam, c in ordered if c]


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _expansion_text(title: str, coeffs: dict[tuple[int, ...], int], basis: str) -> str:
    lines = [title]
    ordered = sorted(coeffs.items(), key=lambda t: (degree(t[0]), t[0]))
    if not ordered:
        lines.append("  0")
    width = max((len(str(c)) for _, c in ordered), default=1)
    for lam, c in ordered:
        lines.append(f"  {str(c).rjust(width)}  {basis}[{','.join(map(str, lam))}]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args) -> int:
    lam = parse_partition(args.partition)
    family = args.family
    k = args.k
    if family in AFFINE_FAMILIES:
        if k is None:
            raise InputError(f"family {family} needs --k")
        if not is_k_bounded(lam, k):
            raise InputError(f"{lam} is not {k}-bounded")
    deg_max = args.deg_max
    if family in INFINITE_FAMILIES and deg_max is None:
        deg_max = degree(lam) + 4
    if family in INFINITE_FAMILIES and deg_max < degree(lam):
        raise InputError(f"--deg-max {deg_max} is below the degree of {lam}")
    # the finite families need only weights up to |lam|, which sweep faster
    # than a whole matrix loads
    if args.cache_dir and family == "Gk":
        kostka.build_affine_kostka(k, deg_max, _cache_dir(args))

    if family == "G":
        f = families.grothendieck(lam, deg_max)
    elif family == "g":
        f = families.dual_grothendieck(lam)
    elif family == "Gk":
        f = families.affine_grothendieck(lam, k, deg_max)
    elif family == "gk":
        f = families.kkschur(lam, k)
    elif family == "ks":
        f = families.k_schur(lam, k)
    elif family == "dks":
        f = families.dual_k_schur(lam, k)
    else:
        from .symfunc import s as schur

        f = schur(lam)

    if family not in INFINITE_FAMILIES and args.deg_max is not None:
        f = f.truncate(args.deg_max)
    basis = args.basis or DEFAULT_BASIS[family]
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
        "terms": _terms_payload(f.coeffs),
    }
    bound = "" if f.deg_max is None else f" truncated at degree {f.deg_max}"
    title = f"{family}[{','.join(map(str, lam))}]"
    if k is not None:
        title += f" (k={k})"
    _emit(args, payload, _expansion_text(f"{title}{bound}, {basis} basis:", f.coeffs, basis))
    return 0


def cmd_tableaux(args) -> int:
    lam = parse_partition(args.shape)
    k = args.k
    if k is None:
        raise InputError("tableaux needs --k")
    if not is_k_bounded(lam, k):
        raise InputError(f"{lam} is not {k}-bounded")
    if (args.weight is None) == (args.standard_degree is None):
        raise InputError("give exactly one of --weight or --standard-degree")
    if args.standard_degree is not None:
        alpha = (1,) * args.standard_degree
    else:
        alpha = parse_composition(args.weight)
        if any(v > k for v in alpha):
            raise InputError(f"weight must be {k}-bounded: {alpha}")
    chains = enumerate_tableaux(lam, alpha, k)
    fillings = [ch.to_filling(alpha) for ch in chains]
    fillings.sort(key=lambda t: sorted((c, tuple(sorted(s))) for c, s in t.cells.items()))
    payload = {
        "shape": list(lam),
        "weight": list(alpha),
        "k": k,
        "count": len(fillings),
    }
    if args.list:
        payload["tableaux"] = [t.to_json_dict() for t in fillings]
        blocks = []
        for idx, t in enumerate(fillings):
            blocks.append(f"[{idx + 1}]")
            blocks.append(t.render(k=k, show_residues=args.residues))
        text = "\n".join([f"count: {len(fillings)}"] + blocks)
    else:
        text = f"count: {len(fillings)}"
    _emit(args, payload, text)
    return 0


def cmd_pieri(args) -> int:
    lam = parse_partition(args.partition)
    k = args.k
    if k is None:
        raise InputError("pieri needs --k")
    if not is_k_bounded(lam, k):
        raise InputError(f"{lam} is not {k}-bounded")
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
        "terms": _terms_payload(result.terms),
    }
    title = f"{args.direction} pieri: r={args.r} on gk[{','.join(map(str, lam))}], k={k}:"
    text = _expansion_text(title, result.terms, "gk")
    if args.strips:
        payload["strips"] = [
            {"mu": list(mu), "rho": list(rho)} for mu, rho in result.strips
        ]
        lines = [text, "strips:"]
        lines.extend(
            f"  mu=[{','.join(map(str, mu))}] rho=[{','.join(map(str, rho))}]"
            for mu, rho in result.strips
        )
        text = "\n".join(lines)
    _emit(args, payload, text)
    return 0


def cmd_verify(args) -> int:
    if args.check not in families.VERIFY_CHECKS:
        raise InputError(f"unknown check {args.check!r}")
    k = args.k if args.k is not None else 2
    deg_max = args.deg_max if args.deg_max is not None else 6
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
    if args.conjecture not in families.SCANS:
        raise InputError(f"unknown conjecture {args.conjecture!r}")
    k = args.k if args.k is not None else 2
    deg_max = args.deg_max if args.deg_max is not None else 6
    if deg_max < 1:
        report = families._report(args.conjecture, k, deg_max, [], [])
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
    k = args.k
    if k is None:
        raise InputError("kostka needs --k")
    if (args.shape is None) != (args.weight is None):
        raise InputError("give both --shape and --weight, or neither")
    if args.shape is not None:
        lam = parse_partition(args.shape)
        alpha = parse_composition(args.weight)
        if not is_k_bounded(lam, k):
            raise InputError(f"{lam} is not {k}-bounded")
        if any(v > k for v in alpha):
            raise InputError(f"weight must be {k}-bounded: {alpha}")
        from .tableaux import count_kostka

        value = count_kostka(lam, alpha, k)
        payload = {"k": k, "shape": list(lam), "weight": list(alpha), "count": value}
        _emit(args, payload, f"kostka k={k} shape={list(lam)} weight={list(alpha)}: {value}")
        return 0
    deg_max = args.deg_max if args.deg_max is not None else 4
    rows = kostka.build_affine_kostka(k, deg_max, _cache_dir(args)).entries
    # a matrix can have over 10^5 entries, so only the requested output is built
    if args.format == "json":
        entries = [{"shape": list(lam), "weight": list(mu), "count": v} for lam, mu, v in rows]
        print(json.dumps({"k": k, "deg_max": deg_max, "entries": entries}, sort_keys=True))
    else:
        lines = [f"kostka matrix k={k} deg-max={deg_max}: {len(rows)} nonzero entries"]
        lines.extend(
            f"  K[{','.join(map(str, lam))} | {','.join(map(str, mu))}] = {v}"
            for lam, mu, v in rows
        )
        print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgroth",
        description="Exact combinatorics of cores, affine set-valued tableaux and their polynomial families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--k", type=int, default=None, help="level parameter k")
        p.add_argument("--deg-max", type=int, default=None, dest="deg_max")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--cache-dir", default=None, dest="cache_dir")

    p = sub.add_parser("expand", help="expand a family member in a classical basis")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--basis", choices=("m", "h", "e", "s"), default=None)
    common(p)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("tableaux", help="count or list tableaux of a shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--weight", default=None)
    p.add_argument("--standard-degree", type=int, default=None, dest="standard_degree")
    p.add_argument("--count", action="store_true", help="count only (default)")
    p.add_argument("--list", action="store_true", help="list the fillings")
    p.add_argument("--residues", action="store_true", help="show residue subscripts in text output")
    common(p)
    p.set_defaults(fn=cmd_tableaux)

    p = sub.add_parser("pieri", help="strip expansion of a product")
    p.add_argument("direction", choices=("row", "col"))
    p.add_argument("--partition", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--strips", action="store_true", help="include the raw strip multiset")
    common(p)
    p.set_defaults(fn=cmd_pieri)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("check", choices=sorted(families.VERIFY_CHECKS))
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="scan an open positivity question, reporting findings")
    p.add_argument("conjecture", choices=sorted(families.SCANS))
    common(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("kostka", help="tableau-count matrices and entries")
    p.add_argument("--shape", default=None)
    p.add_argument("--weight", default=None)
    common(p)
    p.set_defaults(fn=cmd_kostka)

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
