"""Command-line interface.

One executable, nine subcommands::

    msnlib msn 3 2 1                 # single b value
    msnlib msn1 2 1 1                # single c value
    msnlib table 6 1/2 --format csv  # triangle dump
    msnlib invcheck 10 1 1/2         # b x c inverse product + verdict
    msnlib gf-check --which ogf --jmax 5 --kset -1,0,1/2 --order 12
    msnlib identity-suite --imax 12  # the full identity battery
    msnlib markov --chain chain.json --var N --k 2 --m 3 --method convolved
    msnlib dist --spec '{"type":"negbinomial","p":"1/2","k":3}' --m 4 --central
    msnlib simulate --chain chain.json --var N --k 2 --reps 100000 --seed 42

Every subcommand accepts ``--format json`` and then emits a stable envelope
{"command", "inputs", "result", "status"}.  Exit codes: 0 ok; 1 a failed
verification (``invcheck``, ``identity-suite``) or an internal error, any
exception but the one below; 2 a usage error, from argparse; 3 a failed
precondition, exactly :class:`msnlib.exact.PreconditionError` and its
subclasses (a malformed chain file or spec, a chain or law outside a
method's hypotheses, too many truncated walks).  Rational arguments accept
only exact literals ("a/b" or an integer); decimals would need a rounding
policy, which this tool refuses to have.

Only :func:`main`, the console script, calls ``gc.freeze()``: it owns its
process, and the tens of thousands of objects that the imports (numpy's,
mostly) leave tracked hold no garbage (a full collection right after them
frees nothing), so every later collection, the ones at exit included,
skips them.  :func:`run` is the in-process API that tests and embedding
callers use, and it freezes nothing: their heap stays collectable.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import re
import sys
from fractions import Fraction
from functools import partial

from .exact import PreconditionError, as_rational, binom, format_rational
from .identities import (
    Context,
    K_SET,
    check_bgf,
    check_egf,
    check_ogf,
    run_identity_suite,
)
from .linalg import RationalMatrix, chain_from_json
from .markov import (
    moment_k_convolved,
    moment_n1_closed,
    moment_r1_closed,
    moment_nk_commutable,
    moment_recursive,
    moment_rk_commutable,
)
from .msn import msn_direct, msn_table
from .msn1 import inversion_matrix, msn1, msn1_table
from .simulate import SimConfig, simulate


class _CheckFailed(Exception):
    """A verification subcommand found a genuine inconsistency."""

    def __init__(self, payload: dict, text: str):
        super().__init__(text)
        self.payload = payload
        self.text = text


def _rational_arg(text: str) -> Fraction:
    try:
        return as_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _size_arg(text: str, minimum: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        word = "nonnegative" if minimum == 0 else "positive"
        raise argparse.ArgumentTypeError(f"must be {word}, got {value}")
    return value


_count_arg = partial(_size_arg, minimum=1)


def _kset_arg(text: str) -> tuple[Fraction, ...]:
    values = tuple(_rational_arg(part) for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msnlib", description="exact Stirling-family and Markov moment toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("msn", help="print b(i, j, k)")
    p.add_argument("i", type=_size_arg)
    p.add_argument("j", type=_size_arg)
    p.add_argument("k", type=_rational_arg)
    add_format(p)

    p = sub.add_parser("msn1", help="print c(i, j, k)")
    p.add_argument("i", type=_size_arg)
    p.add_argument("j", type=_size_arg)
    p.add_argument("k", type=_rational_arg)
    add_format(p)

    p = sub.add_parser("table", help="dump the b triangle for fixed k")
    p.add_argument("i_max", type=_size_arg)
    p.add_argument("k", type=_rational_arg)
    p.add_argument("--jmax", type=_size_arg, default=None)
    add_format(p, choices=("text", "json", "csv"))

    p = sub.add_parser("invcheck", help="verify the b/c inverse product matrix")
    p.add_argument("i_max", type=_size_arg)
    p.add_argument("k1", type=_rational_arg)
    p.add_argument("k2", type=_rational_arg)
    add_format(p)

    p = sub.add_parser("gf-check", help="verify generating-function coefficients")
    p.add_argument("--which", choices=("ogf", "egf", "bgf", "all"), default="all")
    p.add_argument("--jmax", type=_size_arg, default=5)
    p.add_argument("--kset", type=_kset_arg, default=None)
    p.add_argument("--order", type=_size_arg, default=12)
    add_format(p)

    p = sub.add_parser("identity-suite", help="run the full identity battery")
    p.add_argument("--imax", type=_size_arg, default=12)
    p.add_argument("--order", type=_size_arg, default=12)
    p.add_argument("--kset", type=_kset_arg, default=None)
    add_format(p)

    p = sub.add_parser("markov", help="passage/recurrence-time moment of a chain")
    p.add_argument("--chain", required=True, help="JSON file with P and M")
    p.add_argument("--var", choices=("N", "R", "Nbar", "Rbar"), required=True)
    p.add_argument("--k", type=_count_arg, required=True)
    p.add_argument("--m", type=_size_arg, required=True)
    p.add_argument(
        "--method",
        choices=("recursive", "closed", "commutable", "convolved"),
        default="convolved",
    )
    add_format(p)

    p = sub.add_parser("dist", help="raw or central moments of a named law")
    p.add_argument("--spec", required=True, help="JSON distribution spec")
    p.add_argument("--m", type=_size_arg, required=True)
    p.add_argument("--central", action="store_true")
    add_format(p)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the same moments")
    p.add_argument("--chain", required=True)
    p.add_argument("--var", choices=("N", "R", "Nbar", "Rbar"), required=True)
    p.add_argument("--k", type=_count_arg, required=True)
    p.add_argument("--reps", type=_count_arg, required=True)
    p.add_argument("--seed", type=_size_arg, required=True)
    p.add_argument("--max-steps", type=_count_arg, default=10_000)
    p.add_argument("--start", type=_kset_arg, default=None)
    add_format(p)

    # let bare negative rationals ("-1/2") and k-lists ("-1,0,1/2") pass as
    # positional/option values instead of being mistaken for option names
    negative_value = re.compile(r"^-\d+(/\d+)?(,.*)?$")
    parser._negative_number_matcher = negative_value
    for child in sub.choices.values():
        child._negative_number_matcher = negative_value

    return parser


def _cmd_msn(args):
    value = msn_direct(args.i, args.j, args.k)
    return {"value": format_rational(value)}, format_rational(value)


def _cmd_msn1(args):
    value = msn1(args.i, args.j, args.k)
    return {"value": format_rational(value)}, format_rational(value)


def _cmd_table(args):
    tab = msn_table(args.i_max, args.k, args.jmax)
    rows = [
        [format_rational(tab.value(i, j)) for j in range(min(i, tab.j_max) + 1)]
        for i in range(args.i_max + 1)
    ]
    payload = {
        "k": format_rational(args.k),
        "i_max": args.i_max,
        "j_max": tab.j_max,
        "rows": rows,
    }
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["i"] + [f"j{j}" for j in range(tab.j_max + 1)])
        for i, row in enumerate(rows):
            writer.writerow([i] + row)
        return payload, buf.getvalue().rstrip("\n")
    text = "\n".join(f"i={i}: " + " ".join(row) for i, row in enumerate(rows))
    return payload, text


def _cmd_invcheck(args):
    n = args.i_max + 1
    product = inversion_matrix(
        msn_table(args.i_max, args.k1), msn1_table(args.i_max, args.k2), n
    )
    expected = RationalMatrix(
        [
            [binom(i, j) * (args.k1 - args.k2) ** (i - j) if i >= j else 0 for j in range(n)]
            for i in range(n)
        ]
    )
    ok = product == expected
    product_strings = product.to_strings()
    payload = {
        "product": product_strings,
        "expected": expected.to_strings(),
        "pass": ok,
    }
    lines = ["\n".join(" ".join(row) for row in product_strings)]
    lines.append("PASS" if ok else "FAIL")
    if not ok:
        raise _CheckFailed(payload, "\n".join(lines))
    return payload, "\n".join(lines)


def _cmd_gf_check(args):
    kset = args.kset or K_SET
    order = args.order
    ctx = Context(i_max=order, k_set=kset, order=order)
    checks = []
    if args.which in ("ogf", "all"):
        checks.append(("ogf", check_ogf(ctx, j_max=args.jmax, k_set=kset, order=order)))
    if args.which in ("egf", "all"):
        int_ks = [int(k) for k in kset if k.denominator == 1]
        checks.append(
            ("egf", check_egf(ctx, j_max=args.jmax, k_range=int_ks, order=order))
        )
    if args.which in ("bgf", "all"):
        checks.append(("bgf", check_bgf(ctx, i_max=order, k_set=kset)))
    payload = {"checks": [{"which": w, "ok": True, "cases": c} for w, c in checks]}
    text = "\n".join(f"{w}: PASS ({c} cases)" for w, c in checks)
    return payload, text


def _cmd_identity_suite(args):
    results = run_identity_suite(
        i_max=args.imax, k_set=args.kset or K_SET, order=args.order
    )
    all_pass = all(r.ok for r in results)
    payload = {
        "identities": [
            {"label": r.label, "ok": r.ok, "cases": r.cases, "detail": r.detail}
            for r in results
        ],
        "all_pass": all_pass,
    }
    width = max(len(r.label) for r in results)
    lines = [
        f"{r.label:<{width}}  {'PASS' if r.ok else 'FAIL'}  "
        + (f"({r.cases} cases)" if r.ok else r.detail)
        for r in results
    ]
    lines.append("ALL PASS" if all_pass else "FAILURES PRESENT")
    if not all_pass:
        raise _CheckFailed(payload, "\n".join(lines))
    return payload, "\n".join(lines)


def _cmd_markov(args):
    chain = chain_from_json(args.chain)
    var, k, m = args.var, args.k, args.m
    target = chain.swapped() if var.endswith("bar") else chain
    passage = var[0] == "N"
    if args.method in ("recursive", "closed") and k != 1:
        raise PreconditionError(f"method {args.method!r} covers k = 1 only")
    if args.method == "recursive":
        value = moment_recursive(chain, f"{var}1", m)
    elif args.method == "closed":
        value = (moment_n1_closed if passage else moment_r1_closed)(target, m)
    elif args.method == "commutable":
        value = (moment_nk_commutable if passage else moment_rk_commutable)(target, k, m)
    else:
        value = moment_k_convolved(chain, var, k, m)
    strings = value.to_strings()
    payload = {
        "variable": var,
        "k": k,
        "m": m,
        "method": args.method,
        "moment": strings,
    }
    text = "\n".join(" ".join(row) for row in strings)
    return payload, text


def _cmd_dist(args):
    # imported here, not at the top: only this subcommand reads a law, so
    # no other call imports the laws' module
    from .distributions import central_closed, raw_moments, spec_from_dict

    try:
        obj = json.loads(args.spec)
    except json.JSONDecodeError as exc:
        raise PreconditionError(str(exc)) from None
    spec = spec_from_dict(obj)
    if args.central:
        values = [central_closed(spec, m) for m in range(args.m + 1)]
    else:
        values = raw_moments(spec, args.m)
    payload = {
        "kind": "central" if args.central else "raw",
        "moments": [format_rational(v) for v in values],
    }
    text = "\n".join(
        f"m={m}: {format_rational(v)}" for m, v in enumerate(values)
    )
    return payload, text


def _cmd_simulate(args):
    chain = chain_from_json(args.chain)
    cfg = SimConfig(
        chain=chain,
        variable=args.var,
        k=args.k,
        replications=args.reps,
        seed=args.seed,
        max_steps=args.max_steps,
        start=args.start,
    )
    result = simulate(cfg)
    payload = {
        "estimates": [
            {"order": e.order, "mean": e.mean, "std_error": e.std_error}
            for e in result.estimates
        ],
        "replications": result.replications,
        "completed": result.completed,
        "truncated": result.truncated,
        "backend": "numpy",
    }
    lines = [
        f"m={e.order}: {e.mean:.6f} +- {e.std_error:.6f}" for e in result.estimates
    ]
    lines.append(
        f"completed {result.completed}/{result.replications}"
        f" (truncated {result.truncated}), backend=numpy"
    )
    return payload, "\n".join(lines)


_HANDLERS = {
    "msn": _cmd_msn,
    "msn1": _cmd_msn1,
    "table": _cmd_table,
    "invcheck": _cmd_invcheck,
    "gf-check": _cmd_gf_check,
    "identity-suite": _cmd_identity_suite,
    "markov": _cmd_markov,
    "dist": _cmd_dist,
    "simulate": _cmd_simulate,
}


def _echo_inputs(args: argparse.Namespace) -> dict:
    skip = {"command", "format"}
    out = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        if isinstance(value, Fraction):
            out[key] = format_rational(value)
        elif isinstance(value, tuple):
            out[key] = [format_rational(v) for v in value]
        else:
            out[key] = value
    return out


def _emit(args, payload: dict, text: str, status: str, message: str) -> None:
    if getattr(args, "format", "text") == "json":
        envelope = {
            "command": args.command,
            "inputs": _echo_inputs(args),
            "result": payload,
            "status": {"code": status, "message": message},
        }
        print(json.dumps(envelope, sort_keys=True))
    else:
        print(text)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        payload, text = handler(args)
    except _CheckFailed as exc:
        _emit(args, exc.payload, exc.text, "error", "verification failed")
        return 1
    except PreconditionError as exc:
        _emit(args, {}, f"precondition failed: {exc}", "precondition-failed", str(exc))
        return 3
    except Exception as exc:  # noqa: BLE001 - report, then nonzero exit
        _emit(args, {}, f"error: {exc}", "error", str(exc))
        return 1
    _emit(args, payload, text, "ok", "")
    return 0


def main() -> None:
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()
