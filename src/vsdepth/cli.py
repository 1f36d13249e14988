"""Command-line frontend; ``python -m vsdepth`` runs it too.

Exit codes: 0 success / valid / proved; 1 invalid certificate, disproved
claim or scan discrepancy, and for ``sdepth`` also ``budget-exhausted``
and ``member-limit``; 2 usage error (bad arguments, parameters out of
range, a malformed or unreadable file); 3 internal error (any other
exception, whose traceback goes to stderr).  All output is deterministic.
"""
from __future__ import annotations

import argparse
import sys
import traceback
from typing import Optional

from . import blocks as blocks_mod
from . import construct as construct_mod
from . import solver as solver_mod
from .errors import VsdepthError
from .intervals import (
    Certificate,
    format_certificate,
    parse_certificate,
    render_stanley,
    verify_certificate,
)
from .setcore import PointSet, format_masks, parse_masks


def _write_output(data: bytes, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _cmd_blocks(args: argparse.Namespace) -> int:
    n = args.n
    A = PointSet(n, int(parse_masks([args.set], n)[0]))
    delta = blocks_mod.Density.parse(args.density)
    bs = blocks_mod.block_structure(n, A, delta)
    blocks = format_masks([b.mask for b in bs.blocks])
    gaps = format_masks([g.mask if g is not None else 0 for g in bs.gaps])
    print(f"blocks {','.join(blocks)}")
    print(f"gaps {','.join(gaps)}")
    print(f"f {A | bs.gap_set()}")
    return 0


def _read_certificate(path: str) -> Certificate:
    with open(path, "rb") as fh:
        return parse_certificate(fh.read())


def _cmd_construct(args: argparse.Namespace) -> int:
    cert = construct_mod.construct_general(args.n, args.d)
    _write_output(format_certificate(cert), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cert = _read_certificate(args.cert)
    report = verify_certificate(cert)
    if report.valid:
        print(f"VALID depth={report.achieved_depth}")
        return 0
    print(f"INVALID {report.violation()}")
    return 1


def _cmd_render(args: argparse.Namespace) -> int:
    cert = _read_certificate(args.cert)
    print(render_stanley(cert))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    b = construct_mod.bounds(args.n, args.d)
    exact = str(b.known_exact) if b.known_exact is not None else "unknown"
    print(
        f"lower={b.lower_certified} upper={b.upper} "
        f"exact={exact} conjectured={b.conjectured}"
    )
    return 0


def _cmd_sdepth(args: argparse.Namespace) -> int:
    budget = solver_mod.SearchBudget(wall_time_limit=args.budget_secs)
    if args.k is None:
        result = solver_mod.exact_sdepth(args.n, args.d, budget)
        label = "sdepth" if result.status == "proved" else "sdepth>="
        print(f"{label}{result.value_or_bound} status={result.status} "
              f"nodes={result.nodes_explored}")
    else:
        result = solver_mod.certify_at_least(args.n, args.d, args.k, budget)
        print(f"k={args.k} status={result.status} nodes={result.nodes_explored}")
    if result.certificate is not None and args.out is not None:
        _write_output(format_certificate(result.certificate), args.out)
    return 0 if result.status == "proved" else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    budget = solver_mod.SearchBudget(wall_time_limit=args.budget_secs)
    rows = solver_mod.conjecture_scan(args.max_n, budget)
    print(f"{'n':>3} {'d':>3} {'conjectured':>11} {'proved':>6} status")
    bad = False
    for row in rows:
        flag = " DISCREPANCY" if row.discrepancy else ""
        print(f"{row.n:>3} {row.d:>3} {row.conjectured:>11} "
              f"{row.proved:>6} {row.status}{flag}")
        bad = bad or row.discrepancy
    return 1 if bad else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsdepth",
        description="Interval-partition certificates for the Stanley depth "
        "of squarefree Veronese ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("blocks", help="block structure of a set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, metavar="{a,b,...}")
    p.add_argument("--density", required=True, metavar="p/q")
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("construct", help="emit a lower-bound certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("--cert", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="print the Stanley decomposition")
    p.add_argument("--cert", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("bounds", help="closed-form bounds at (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sdepth", help="exact search at (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    target = p.add_mutually_exclusive_group()
    target.add_argument("--exact", action="store_true")
    target.add_argument("--k", type=int, default=None)
    p.add_argument("--budget-secs", type=float, default=60.0)
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_sdepth)

    p = sub.add_parser("scan", help="exact solve for all d <= n <= max-n")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--budget-secs", type=float, default=60.0)
    p.set_defaults(func=_cmd_scan)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (VsdepthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is a verdict, so a crash must never end with it
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
