"""Command-line interface.

Every subcommand prints a human-readable report by default, the same data
as JSON with --json, and can mirror the JSON payload to a file with --out.
Output is deterministic (sorted keys, fixed iteration orders).  Exit codes:
0 success, 1 a verification failed, 2 usage or value errors.
"""

import argparse
import functools
import sys
from _json import encode_basestring_ascii as _quote

from . import __version__
from .cf import VerificationError, complementary_expansions, neg_cf, torus_knot_params
from .checks import check_names, run_all
from .classify import classify_level, transverse_classes
from .diagram import chain_tbs
from .floer import hfk_minus, match_invariants
from .invariants import presentations_with_invariants
from .lens import surjectivity_check

_INFINITY = float("inf")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


# JSON text of each scalar type.  bool comes before its base class int for
# the isinstance scan of _render_into.
_SCALARS = {
    bool: {True: "true", False: "false"}.__getitem__,
    str: _quote,
    int: int.__repr__,
    type(None): lambda _: "null",
    float: _float,
}


def _render_into(pieces: list, value, newline: str) -> None:
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        opening = "{"
        for key in sorted(value):
            item = value[key]
            encode = _SCALARS.get(type(item))
            if encode is None:
                pieces.append(f"{opening}{inner}{_quote(key)}: ")
                _render_into(pieces, item, inner)
            else:
                pieces.append(f"{opening}{inner}{_quote(key)}: {encode(item)}")
            opening = ","
        pieces.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        opening = "["
        for item in value:
            encode = _SCALARS.get(type(item))
            if encode is None:
                pieces.append(opening + inner)
                _render_into(pieces, item, inner)
            else:
                pieces.append(f"{opening}{inner}{encode(item)}")
            opening = ","
        pieces.append(newline + "]")
    else:  # a scalar at the top, or a subclass of a scalar type
        for kind, encode in _SCALARS.items():
            if isinstance(value, kind):
                pieces.append(encode(value))
                return
        raise TypeError(f"not JSON serializable: {value!r}")


def _render(payload) -> str:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True), built in
    one pass; dict keys must be strings.  With ``indent`` set, CPython's json
    falls back to its pure-Python encoder, which is about twice as slow."""
    pieces: list = []
    _render_into(pieces, payload, "\n")
    return "".join(pieces)


def _emit(args, payload, report) -> None:
    """Write the JSON payload to --out, then print it (--json) or the text
    report, the list of lines ``report()`` returns.  Each is built only
    when it is used: the JSON for --json or --out, the report for neither
    --json nor --quiet."""
    rendered = _render(payload) if args.json or args.out else None
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
    if args.quiet:
        return
    print(rendered if args.json else "\n".join(report()))


def _format_class(index: int, cls) -> str:
    inv = cls.invariants
    if cls.ambient_tight:
        kind = "tight ambient"
    elif cls.strongly_nonloose:
        kind = "strongly non-loose" + (", transverse" if cls.transverse else "")
    else:
        kind = "loose"
    return (
        f"#{index}: size {cls.size:3d}  [{kind}]  tb = {inv.tb}, rot = {inv.rot}, "
        f"d3 = {inv.d3}, (A, M) = ({inv.alexander}, {inv.maslov})"
    )


# ---- subcommands


def cmd_cf(args) -> int:
    entries = neg_cf(args.num, args.den)
    payload = {"num": args.num, "den": args.den, "entries": list(entries)}
    _emit(args, payload, lambda: [f"{args.num}/{args.den} = {list(entries)}"])
    return 0


def cmd_params(args) -> int:
    params = torus_knot_params(args.p, args.q)
    chains = [
        {"coefficient": "%d/%d" % coeff, "entries": list(cf), "tb": list(chain_tbs(cf))}
        for coeff, cf in zip(
            (params.chain1_coefficient, params.chain2_coefficient),
            complementary_expansions(params),
        )
    ]
    s1, s2 = ("%d/%d" % ratio for ratio in params.seifert_constants)
    payload = {
        **params._asdict(),
        "genus": params.genus,
        "seifert_constants": [s1, s2],
        "chains": chains,
    }
    # the text drops a denominator of 1
    _emit(args, payload, lambda: [
        f"T({params.p}, -{params.q}):  q = {params.n}p - {params.k}",
        f"  c = {params.c}, d = {params.d}, p' = {params.p_prime}, q' = {params.q_prime}",
        f"  genus = {params.genus}",
        f"  Seifert constants {s1}, {s2}",
    ] + [
        f"  chain {i}: coefficient {c['coefficient'].removesuffix('/1')} -> entries "
        f"{c['entries']}, tb {c['tb']}"
        for i, c in enumerate(chains, 1)
    ])
    return 0


def cmd_enumerate(args) -> int:
    found = list(presentations_with_invariants(args.p, args.q, args.level))
    items = [{"presentation": pres.to_dict(), "invariants": inv.to_dict()} for pres, inv in found]
    payload = {"p": args.p, "q": args.q, "level": args.level, "presentations": items}
    _emit(args, payload, lambda: [
        f"rots {list(pres.rots1)} {list(pres.rots2)} stabs (+{pres.stab_pos}, -{pres.stab_neg})"
        f"  tb = {inv.tb}, rot = {inv.rot}, d3 = {inv.d3}, (A, M) = ({inv.alexander}, {inv.maslov})"
        for pres, inv in found
    ] + [f"{len(found)} presentations of T({args.p}, -{args.q}) at level {args.level}"])
    return 0


def cmd_classify(args) -> int:
    classes = classify_level(args.p, args.q, args.level)
    payload = {
        "p": args.p,
        "q": args.q,
        "level": args.level,
        "classes": [cls.to_dict() for cls in classes],
    }
    _emit(args, payload, lambda: [_format_class(i, cls) for i, cls in enumerate(classes)] + [
        f"{len(classes)} classes of T({args.p}, -{args.q}) at level {args.level} "
        f"({sum(cls.size for cls in classes)} presentations)"
    ])
    return 0


def cmd_transverse(args) -> int:
    classes = transverse_classes(args.p, args.q)
    payload = {"p": args.p, "q": args.q, "classes": [cls.to_dict() for cls in classes]}
    _emit(args, payload, lambda: [_format_class(i, cls) for i, cls in enumerate(classes)] + [
        f"{len(classes)} strongly non-loose transverse classes of T({args.p}, -{args.q})"
    ])
    return 0


def cmd_hfk(args) -> int:
    module = hfk_minus(args.p, args.q)
    payload = {"p": args.p, "q": args.q, **module.to_dict()}
    _emit(args, payload, lambda: [
        f"{'F[U]' if t.order is None else f'F[U]/U^{t.order}'} tower with bottom at "
        f"({t.bottom_alexander}, {t.bottom_maslov})"
        for t in module.towers
    ] + [f"HFK-minus of T({args.p}, {args.q}): {len(module.towers) - 1} torsion towers + 1 free"])
    return 0


def cmd_match(args) -> int:
    report = match_invariants(args.p, args.q)
    _emit(args, report, lambda: [
        f"T({args.p}, -{args.q}): {report['transverse_count']} transverse classes on "
        f"{report['bottom_count']} torsion-tower bottoms",
        "realized:   " + ", ".join(f"({a}, {m})" for a, m in report["realized"]),
        "unrealized: " + (", ".join(f"({a}, {m})" for a, m in report["unrealized"]) or "(none)"),
    ])
    return 0


def cmd_lens(args) -> int:
    report = surjectivity_check(args.p, args.q)
    u = args.p * args.q + 1
    _emit(args, report, lambda: [
        f"L({u}, {args.p * args.p % u}): Honda count {report['honda_count']}, "
        f"image size {report['image_size']} -> {'surjective' if report['ok'] else 'NOT surjective'}",
        "fiber sizes: " + ",".join(str(len(f)) for f in report["fibers"]),
    ])
    if not report["ok"]:
        raise VerificationError(f"lens reduction not surjective for T({args.p}, -{args.q})")
    return 0


def cmd_verify(args) -> int:
    results = run_all(args.only or None)
    payload = [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in results]
    failed = [name for name, ok, _ in results if not ok]
    _emit(args, payload, lambda: [
        f"[{'PASS' if ok else 'FAIL'}] {name} - {detail}" for name, ok, detail in results
    ] + [f"{len(results) - len(failed)}/{len(results)} checks passed"])
    return 1 if failed else 0


# ---- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the program, built on first use and shared by every
    later ``main`` call; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="legknots",
        description="Legendrian and transverse negative torus knots: presentations, "
        "invariants, classification, knot Floer towers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print the JSON payload")
    common.add_argument("--out", metavar="FILE", help="also write the JSON payload to FILE")
    common.add_argument("--quiet", action="store_true", help="suppress stdout output")
    sub = parser.add_subparsers(dest="command", required=True)

    def knot_command(name, func, help_text, level=None, operands=("p", "q")):
        """A subcommand on int operands; `level` is the --level default, or None for none."""
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        for operand in operands:
            cmd.add_argument(operand, type=int)
        if level is not None:
            cmd.add_argument("--level", type=int, default=level)
        cmd.set_defaults(func=func)

    knot_command("cf", cmd_cf, "negative continued fraction of num/den", operands=("num", "den"))
    knot_command("params", cmd_params, "numerical data attached to T(p, -q)")
    knot_command("enumerate", cmd_enumerate, "all presentations at one stabilization level, with invariants",
                 level=0)
    knot_command("classify", cmd_classify, "equivalence classes of the level-l presentations", level=1)
    knot_command("transverse", cmd_transverse, "strongly non-loose transverse classes")
    knot_command("hfk", cmd_hfk, "tower decomposition of HFK-minus of T(p, q)")
    knot_command("match", cmd_match, "locate transverse classes at tower bottoms")
    knot_command("lens", cmd_lens, "lens-space reduction surjectivity report")

    verify_cmd = sub.add_parser("verify", parents=[common], help="run the verification suite")
    verify_cmd.add_argument(
        "--only",
        action="append",
        metavar="CHECK",
        choices=check_names(),
        help="run just this check (repeatable)",
    )
    verify_cmd.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
