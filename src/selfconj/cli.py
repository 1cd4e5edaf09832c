"""Command-line front end: check suites and spinor tables.

Two subcommands.  `run` executes any subset of the check suites over a
configurable momentum grid and prints a text or JSON report; the exit code
is 0 when nothing failed, 1 on any check failure, 2 on a usage error.
`tabulate` prints one fixed-precision component table (12 significant
digits, real and imaginary columns per component).  Neither consults the
environment, so identical invocations give byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import re
import sys

import numpy as np

from . import checks, halfspin, spin1
from .halfspin import FourMomentum, PhaseConvention

_H3 = {+1: "up", 0: "lng", -1: "dn"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfconj",
        description="verify conjugate-spinor identities and tabulate the objects",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run check suites over a momentum grid")
    run.add_argument(
        "--mass",
        type=float,
        action="append",
        help="grid mass, repeatable (default 1.0)",
    )
    run.add_argument(
        "--grid",
        default="3x6",
        help="momentum grid as MAGNITUDESxDIRECTIONS (default 3x6)",
    )
    run.add_argument("--tol", type=float, default=1e-12)
    run.add_argument("--theta1", type=float, default=0.0)
    run.add_argument("--theta2", type=float, default=0.0)
    run.add_argument("--thetac", type=float, default=0.0)
    run.add_argument("--norm", type=float, default=None)
    run.add_argument(
        "--suite",
        action="append",
        choices=list(checks.KNOWN_SUITES),
        help="suite to run, repeatable (default: all)",
    )
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--out", default=None, help="write the report to a file")

    tab = sub.add_parser("tabulate", help="print one spinor component table")
    tab.add_argument("--what", choices=("lambda", "rho", "dirac", "mr"), default="lambda")
    tab.add_argument("--momentum", default="0,0,0", help='cartesian "px,py,pz"')
    tab.add_argument("--mass", type=float, default=1.0)
    tab.add_argument("--theta1", type=float, default=0.0)
    tab.add_argument("--theta2", type=float, default=0.0)
    tab.add_argument("--norm", type=float, default=None)
    tab.add_argument("--out", default=None)
    return parser


def _parse_grid(text: str) -> tuple[int, int]:
    # ASCII digits only: int() would also take "1_0", " 2 " and other scripts' digits
    match = re.fullmatch("([0-9]+)x([0-9]+)", text.lower())
    if match is None:
        raise ValueError("grid must look like 3x6")
    return int(match[1]), int(match[2])


def _parse_momentum(text: str, mass: float) -> FourMomentum:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise ValueError('momentum must be "px,py,pz"')
    if not all(math.isfinite(x) for x in parts):
        raise ValueError("momentum components must be finite")
    pvec = np.array(parts)
    with np.errstate(over="ignore"):  # an overflow reads inf, which FourMomentum refuses
        pmag = float(np.linalg.norm(pvec))
    if pmag == 0.0:
        return FourMomentum(mass, 0.0)
    theta = math.acos(min(max(pvec[2] / pmag, -1.0), 1.0))
    phi = math.atan2(pvec[1], pvec[0])
    return FourMomentum(mass, pmag, theta, phi)


def _rows_to_table(title: str, rows: list[tuple[str, np.ndarray]]) -> str:
    ncomp = len(rows[0][1])
    header = ["spinor"] + [f"c{k + 1}.{part}" for k in range(ncomp) for part in ("re", "im")]
    body = []
    for name, vec in rows:
        cells = [name]
        for z in vec:
            # normalize -0.0 so the tables read cleanly
            cells.append(f"{z.real if z.real != 0 else 0.0:.12g}")
            cells.append(f"{z.imag if z.imag != 0 else 0.0:.12g}")
        body.append(cells)
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for cells in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"


def _tabulate(args) -> str:
    p = _parse_momentum(args.momentum, args.mass)
    conv = PhaseConvention(args.theta1, args.theta2, 0.0, args.norm)
    head = (
        f"{args.what} at mass={args.mass:.12g} momentum=({args.momentum}) "
        f"theta1={args.theta1:.12g} theta2={args.theta2:.12g}"
    )
    if args.what == "dirac":
        uv = halfspin.build_spinor_basis(p, conv).uv_stack()[0]
        rows = list(zip(("u_up", "u_dn", "v_up", "v_dn"), uv))
    elif args.what in ("lambda", "rho"):
        family = halfspin.build_spinor_basis(p, conv).family[0]
        # lambda (or rho) members in FAMILY order: s_up, s_dn, a_up, a_dn
        rows = [(n, v) for n, v in zip(halfspin.FAMILY, family) if n[:3] == args.what[:3]]
    else:
        s = spin1.mr_spinor(p)
        parts = ("u", "v", "u_re", "u_im", "v_re", "v_im")
        rows = [
            (f"{part}_{_H3[h]}", getattr(s, part)[k].astype(complex))
            for k, h in enumerate(spin1.HELICITIES)
            for part in parts
        ]
    return _rows_to_table(head, rows)


def _cannot_write(exc: OSError) -> int:
    print(f"selfconj: cannot write the report: {exc}", file=sys.stderr)
    return 2


def _is_number_list(text: str) -> bool:
    """True for one float, or several joined by commas as in --momentum."""
    try:
        for part in text.split(","):
            float(part)
    except ValueError:
        return False
    return True


def _join_negative_numbers(argv: list[str]) -> list[str]:
    """`--opt -1e-3` -> `--opt=-1e-3`, and `--momentum -1,0,0` likewise.

    argparse reads only -N and -N.N as negative numbers, so a value such as
    -1e-3 or -1,0,0 after a space would be taken for an unknown option.
    `--help` takes no value and `--` ends the options, so neither is joined.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        takes_value = prev.startswith("--") and "=" not in prev and prev not in ("--", "--help")
        if takes_value and tok.startswith("-") and _is_number_list(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_numbers(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "run":
            n_mag, n_dir = _parse_grid(args.grid)
            cfg = checks.SuiteConfig(
                masses=tuple(args.mass or (1.0,)),
                n_magnitudes=n_mag,
                n_directions=n_dir,
                tolerance=args.tol,
                theta1=args.theta1,
                theta2=args.theta2,
                thetac=args.thetac,
                norm=args.norm,
                suites=tuple(args.suite) if args.suite else checks.KNOWN_SUITES,
            )
        else:
            report = _tabulate(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"selfconj: {exc}", file=sys.stderr)
        return 2

    with contextlib.ExitStack() as stack:
        # an unwritable --out is a usage error found before any check runs;
        # opening only after validation leaves the file alone on other errors
        try:
            fh = None if args.out is None else stack.enter_context(open(args.out, "w"))
        except OSError as exc:
            return _cannot_write(exc)
        code = 0
        if args.command == "run":
            results = checks.run_checks(cfg)
            render = checks.render_json if args.format == "json" else checks.render_text
            report = render(cfg, results)
            code = 1 if any(r.status == "fail" for r in results) else 0
        if fh is None:
            sys.stdout.write(report)
            return code
        try:
            fh.write(report)
            fh.flush()
        except OSError as exc:
            return _cannot_write(exc)
    return code


def entry() -> int:
    """The process entry: `main()`, then a frozen collector.

    Interpreter finalization would otherwise collect every object numpy
    and the package leave, memory the OS takes back at exit anyway.
    gc.freeze() moves them where the collector never looks, and unlike
    os._exit it still runs atexit handlers and flushes the streams.
    `main()` itself leaves the collector alone, as it runs in-process too.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
