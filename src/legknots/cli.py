"""Command-line interface.

Every subcommand prints a human-readable report by default, the same data
as JSON with --json, and can mirror the JSON payload to a file with --out.
Output is deterministic (sorted keys, fixed iteration orders).  Exit codes:
0 success, 1 a verification failed, 2 usage or value errors.

The output format lives here alone: the math layers return namedtuples and
plain values, and this module spells out every JSON key.  Each subcommand
hands _emit a function that builds the payload (a presentation with its
invariants, a class with its flags, hfk's towers, ...) and renders it, so
the JSON is built only when --json or --out prints it.
"""

import argparse
import functools
import sys
from _json import encode_basestring_ascii as _quote

from . import __version__
from .cf import VerificationError, complementary_expansions, neg_cf, torus_knot_params
from .checks import check_names, run_all
from .classify import classify_level, transverse_classes
from .diagram import chain_tbs, chains_for
from .floer import hfk_minus, match_invariants
from .invariants import presentations_with_invariants
from .lens import surjectivity_check

# JSON text of each scalar type.  bool comes before its base class int for
# the isinstance scan of _render_into.
_SCALARS = {
    bool: {True: "true", False: "false"}.__getitem__,
    str: _quote,
    int: int.__repr__,
    type(None): lambda _: "null",
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


def _tower_json(tower, newline: str) -> str:
    """_render's text of a Tower's {"bottom_A", "bottom_M", "order"} object
    at the indent of ``newline``."""
    inner = newline + "  "
    order = "null" if tower.order is None else tower.order
    return (f'{{{inner}"bottom_A": {tower.bottom_alexander},{inner}"bottom_M": {tower.bottom_maslov},'
            f'{inner}"order": {order}{newline}}}')


def _emit(args, payload, report) -> None:
    """Write the JSON text ``payload()`` returns to --out, then print it
    (--json) or the text report, the list of lines ``report()`` returns.
    Each is built only when it is used: the JSON for --json or --out, the
    report for neither --json nor --quiet."""
    rendered = payload() if args.json or args.out else None
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
    if args.quiet:
        return
    print(rendered if args.json else "\n".join(report()))


def _records(p: int, q: int, role: str, rows) -> list:
    """The JSON records of T(p, -q)'s (presentation, invariants, fields) rows:
    the presentation under `role`, its "invariants", and the other fields."""
    tbs1, tbs2 = chains_for(p, q)
    return [{
        role: {"p": p, "q": q, "stab_pos": pres.stab_pos, "stab_neg": pres.stab_neg, "chains": [
            {"tb": list(tbs1), "rot": list(pres.rots1)}, {"tb": list(tbs2), "rot": list(pres.rots2)}]},
        "invariants": {"tb": inv.tb, "rot": inv.rot, "d3": inv.d3, "A": inv.alexander, "M": inv.maslov},
        **fields,
    } for pres, inv, fields in rows]


def _invariants_text(inv) -> str:
    return f"tb = {inv.tb}, rot = {inv.rot}, d3 = {inv.d3}, (A, M) = ({inv.alexander}, {inv.maslov})"


def _format_class(index: int, cls) -> str:
    kind = {"tight": "tight ambient", "loose": "loose"}.get(cls.verdict, "strongly non-loose")
    if cls.transverse:
        kind += ", transverse"
    return f"#{index}: size {cls.size:3d}  [{kind}]  {_invariants_text(cls.invariants)}"


# ---- subcommands


def cmd_cf(args) -> int:
    entries = neg_cf(args.num, args.den)
    _emit(args, lambda: _render({"num": args.num, "den": args.den, "entries": entries}),
          lambda: [f"{args.num}/{args.den} = {list(entries)}"])
    return 0


def cmd_params(args) -> int:
    params = torus_knot_params(args.p, args.q)
    chains = [("%d/%d" % coeff, cf, chain_tbs(cf)) for coeff, cf in zip(
        (params.chain1_coefficient, params.chain2_coefficient), complementary_expansions(params))]
    s1, s2 = ("%d/%d" % ratio for ratio in params.seifert_constants)
    _emit(args, lambda: _render({
        "p": params.p, "q": params.q, "n": params.n, "k": params.k, "c": params.c, "d": params.d,
        "p_prime": params.p_prime, "q_prime": params.q_prime, "genus": params.genus,
        "seifert_constants": [s1, s2],
        "chains": [{"coefficient": coeff, "entries": cf, "tb": tbs} for coeff, cf, tbs in chains],
    }), lambda: [
        f"T({params.p}, -{params.q}):  q = {params.n}p - {params.k}",
        f"  c = {params.c}, d = {params.d}, p' = {params.p_prime}, q' = {params.q_prime}",
        f"  genus = {params.genus}",
        f"  Seifert constants {s1}, {s2}",
    ] + [  # the text drops a denominator of 1
        f"  chain {i}: coefficient {coeff.removesuffix('/1')} -> entries {list(cf)}, tb {list(tbs)}"
        for i, (coeff, cf, tbs) in enumerate(chains, 1)
    ])
    return 0


def cmd_enumerate(args) -> int:
    found = list(presentations_with_invariants(args.p, args.q, args.level))

    def payload() -> str:
        items = _records(args.p, args.q, "presentation", ((pres, inv, {}) for pres, inv in found))
        return _render({"p": args.p, "q": args.q, "level": args.level, "presentations": items})

    _emit(args, payload, lambda: [
        f"rots {list(pres.rots1)} {list(pres.rots2)} stabs (+{pres.stab_pos}, -{pres.stab_neg})"
        f"  {_invariants_text(inv)}"
        for pres, inv in found
    ] + [f"{len(found)} presentations of T({args.p}, -{args.q}) at level {args.level}"])
    return 0


def _emit_classes(args, fields, classes, summary: str) -> int:
    """Emit `fields` with a "classes" list, or one line per class and `summary`."""

    def payload() -> str:
        rows = ((cls.representative, cls.invariants, {"size": cls.size, "flags": {
            "tight_ambient": cls.verdict == "tight", "loose": cls.verdict == "loose",
            "strongly_nonloose": cls.verdict == "strongly_nonloose", "transverse": cls.transverse,
        }}) for cls in classes)
        return _render({**fields, "classes": _records(args.p, args.q, "representative", rows)})

    _emit(args, payload, lambda: [_format_class(i, cls) for i, cls in enumerate(classes)] + [summary])
    return 0


def cmd_classify(args) -> int:
    classes = classify_level(args.p, args.q, args.level)
    return _emit_classes(args, {"p": args.p, "q": args.q, "level": args.level}, classes,
                         f"{len(classes)} classes of T({args.p}, -{args.q}) at level {args.level} "
                         f"({sum(cls.size for cls in classes)} presentations)")


def cmd_transverse(args) -> int:
    classes = transverse_classes(args.p, args.q)
    return _emit_classes(args, {"p": args.p, "q": args.q}, classes,
                         f"{len(classes)} strongly non-loose transverse classes of T({args.p}, -{args.q})")


def cmd_hfk(args) -> int:
    module = hfk_minus(args.p, args.q)

    def payload() -> str:  # _render's text of {"p", "q", "towers"}
        towers = ",\n    ".join(_tower_json(t, "\n    ") for t in module.towers)
        return (f'{{\n  "p": {args.p},\n  "q": {args.q},\n  "towers": '
                + (f"[\n    {towers}\n  ]" if towers else "[]") + "\n}")

    _emit(args, payload, lambda: [
        f"{'F[U]' if t.order is None else f'F[U]/U^{t.order}'} tower with bottom at "
        f"({t.bottom_alexander}, {t.bottom_maslov})"
        for t in module.towers
    ] + [f"HFK-minus of T({args.p}, {args.q}): {len(module.towers) - 1} torsion towers + 1 free"])
    return 0


def cmd_match(args) -> int:
    realized, unrealized = match_invariants(args.p, args.q)
    bottoms = len(realized) + len(unrealized)
    _emit(args, lambda: _render({
        "p": args.p, "q": args.q, "transverse_count": len(realized), "bottom_count": bottoms,
        "realized": realized, "unrealized": unrealized,
    }), lambda: [
        f"T({args.p}, -{args.q}): {len(realized)} transverse classes on {bottoms} torsion-tower bottoms",
        "realized:   " + ", ".join(f"({a}, {m})" for a, m in realized),
        "unrealized: " + (", ".join(f"({a}, {m})" for a, m in unrealized) or "(none)"),
    ])
    return 0


def cmd_lens(args) -> int:
    count, fibers = surjectivity_check(args.p, args.q)
    ok = len(fibers) == count
    u = args.p * args.q + 1
    _emit(args, lambda: _render({
        "p": args.p, "q": args.q, "honda_count": count, "image_size": len(fibers), "ok": ok, "fibers": fibers,
    }), lambda: [
        f"L({u}, {args.p * args.p % u}): Honda count {count}, "
        f"image size {len(fibers)} -> {'surjective' if ok else 'NOT surjective'}",
        "fiber sizes: " + ",".join(str(len(f)) for f in fibers),
    ])
    if not ok:
        raise VerificationError(f"lens reduction not surjective for T({args.p}, -{args.q})")
    return 0


def cmd_verify(args) -> int:
    results = run_all(args.only or None)
    failed = [name for name, ok, _ in results if not ok]
    _emit(args, lambda: _render([{"name": name, "ok": ok, "detail": detail} for name, ok, detail in results]),
          lambda: [f"[{'PASS' if ok else 'FAIL'}] {name} - {detail}" for name, ok, detail in results]
          + [f"{len(results) - len(failed)}/{len(results)} checks passed"])
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
