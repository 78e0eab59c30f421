"""Command-line surface: reports and verification commands.

Subcommands
    block       normalize a weight and describe its integral block
    kl          one Kazhdan-Lusztig polynomial, ambient or per-block
    layers      Jantzen/radical layer table of M(nu), plus sum formula
    sumcheck    sum-formula verification for one weight or the whole suite
    conjecture  layer domination over all Bruhat pairs in a block
    parabolic   parabolic Verma layer tables with built-in cross-checks
    oracle      contravariant-form recomputation of filtration dimensions

Weights are comma-separated rationals in the pairing basis ("1,-1/2").
Words are space-separated 1-based generator indices of the block's
integral system ("2 1"), with "e" or the empty string for the identity.
Kazhdan-Lusztig tables are built in memory by ``kl.table_for``.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error,
3 internal error (the program broke; no verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from jantzen.blocks import Block, DefectError, normalize
from jantzen.filtration import domination_check, layers, sum_formula_check
from jantzen.kl import table_for
from jantzen.parabolic import (
    enumerate_IWJ,
    parabolic_character_check,
    parabolic_layers,
    parabolic_layers_dual_path,
)
from jantzen.roots import (
    LieType,
    RootSystem,
    Weight,
    build_root_system,
    check_box_limit,
    plain_text,
)
from jantzen.shapovalov import oracle_compare
from jantzen.suite import suite_weights
from jantzen.weyl import CoxeterSystem, format_word, parse_word, weyl_group

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    """Bad input found by the command line itself.  Like every ValueError
    (the parse errors of types, weights and words included), it exits 2."""


def _weight(rs: RootSystem, text: str) -> Weight:
    w = Weight.parse(text)
    if len(w.num) != rs.rank:
        raise UsageError(
            f"weight has {len(w.num)} coordinates; {rs.lie_type} needs {rs.rank}"
        )
    return w


def _integer(text: str) -> int:
    """An option's integer, read as strictly as every other number."""
    try:
        return int(plain_text(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse integer {text!r}") from None


def _element(sys: CoxeterSystem, text: str):
    return sys.element_from_word(parse_word(text))


def _word_str(sys: CoxeterSystem, w) -> str:
    return format_word(sys.word(w)) or "e"


def _normalized(args):
    """Parse --type and --weight and normalize the weight: (nu, block, w)
    with nu = w mu."""
    rs = build_root_system(LieType.parse(args.type))
    nu = _weight(rs, args.weight)
    block, w = normalize(rs, nu)
    return nu, block, w


def _head(nu: Weight, block: Block) -> dict:
    return {
        "type": str(block.rs.lie_type),
        "weight": nu.serialize(),
        "mu": block.mu.serialize(),
    }


def _emit(args, report: dict, text_lines, passed: bool = True) -> int:
    """Print the report as JSON or text; return the exit code of its verdict."""
    if args.json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _simples(system: CoxeterSystem, row: dict) -> list:
    """The simples of one layer or level, in (length, word) order."""
    return [
        {"z_word": _word_str(system, z), "mult": row[z]}
        for z in sorted(row)
    ]


def _layers(system: CoxeterSystem, rows) -> list:
    return [{"j": j, "simples": _simples(system, row)} for j, row in enumerate(rows)]


def _layer_lines(layers) -> list:
    """Text rendering of the JSON from ``_layers``."""
    lines = []
    for layer in layers:
        parts = [f"{s['z_word']} x{s['mult']}" for s in layer["simples"]]
        lines.append(f"  layer {layer['j']}: " + ("; ".join(parts) if parts else "-"))
    return lines


def _sum_columns(system: CoxeterSystem, per_column) -> list:
    return [
        {"z_word": _word_str(system, z), "lhs": lhs, "rhs": rhs}
        for z, lhs, rhs in per_column
    ]


def cmd_block(args) -> int:
    nu, block, w = _normalized(args)
    sys_ = block.system
    report = {
        **_head(nu, block),
        "w_word": _word_str(sys_, w),
        "J": [j + 1 for j in block.J],
        "delta": [list(v) for v in block.delta_roots],
        "group_order": sys_.order(),
        "coset_reps": len(block.coset_reps()),
    }
    text = [
        f"type {report['type']}  weight {report['weight']}",
        f"antidominant mu = {report['mu']}, nu = w mu with w = {report['w_word']}",
        f"integral simple roots: {report['delta']}",
        f"singular set J (generator indices): {report['J'] or '-'}",
        f"integral Weyl group order {report['group_order']}, "
        f"{report['coset_reps']} coset representatives",
    ]
    return _emit(args, report, text)


def cmd_kl(args) -> int:
    rs = build_root_system(LieType.parse(args.type))
    if args.block_of is not None:
        block, _ = normalize(rs, _weight(rs, args.block_of))
        sys_ = block.system
    else:
        sys_ = weyl_group(rs)
    table = table_for(sys_)
    x = _element(sys_, args.x)
    w = _element(sys_, args.w)
    poly = table.polynomial(x, w)
    report = {
        "type": str(rs.lie_type),
        "block_of": args.block_of,
        "x_word": _word_str(sys_, x),
        "w_word": _word_str(sys_, w),
        "polynomial": poly.render(),
        "value_at_1": sum(poly.coeffs),
    }
    return _emit(
        args,
        report,
        [f"P({report['x_word']}, {report['w_word']}) = {report['polynomial']}"],
    )


def cmd_layers(args) -> int:
    nu, block, w = _normalized(args)
    sum_res = sum_formula_check(block.rs, nu)
    table = sum_res.table
    table.validate()
    sys_ = block.system
    report = {
        **_head(nu, block),
        "w_word": _word_str(sys_, w),
        "J": [j + 1 for j in block.J],
        "loewy_length": table.loewy_length,
        "layers": _layers(sys_, table.rows),
        "sum_formula": "pass" if sum_res.passed else "fail",
        "details": {
            "levels": [
                {"i": i, "simples": _simples(sys_, lvl)}
                for i, lvl in enumerate(table.level_multiplicities())
            ],
            "sum_formula_columns": _sum_columns(sys_, sum_res.per_column),
        },
    }
    text = [
        f"M(nu) for nu = {report['weight']} in type {report['type']}",
        f"mu = {report['mu']}, w = {report['w_word']}, J = {report['J'] or '-'}",
        f"Loewy length {report['loewy_length']}",
        *_layer_lines(report["layers"]),
        f"sum formula: {report['sum_formula']}",
    ]
    return _emit(args, report, text, sum_res.passed)


def cmd_sumcheck(args) -> int:
    if args.weight is not None:
        if args.seed is not None:
            raise UsageError("--seed applies only to --suite")
        nu, block, _ = _normalized(args)
        res = sum_formula_check(block.rs, nu)
        report = {
            **_head(nu, block),
            "passed": res.passed,
            "columns": _sum_columns(block.system, res.per_column),
        }
        text = [
            f"sum formula for nu = {report['weight']} ({report['type']}): "
            + ("pass" if res.passed else "FAIL")
        ]
        for col in report["columns"]:
            text.append(
                f"  {col['z_word']}: lhs {col['lhs']} rhs {col['rhs']}"
            )
        return _emit(args, report, text, res.passed)

    rs = build_root_system(LieType.parse(args.type))
    cases = []
    all_passed = True
    for label, mu in suite_weights(rs, seed=args.seed or 0):
        block, _ = normalize(rs, mu)
        checked = 0
        failed = []
        for w in block.coset_reps():
            res = sum_formula_check(rs, block.apply(w))
            checked += 1
            if not res.passed:
                failed.append(_word_str(block.system, w))
        ok = not failed
        all_passed = all_passed and ok
        cases.append(
            {
                "label": label,
                "mu": mu.serialize(),
                "checked": checked,
                "passed": ok,
                "failed_words": failed,
            }
        )
    report = {
        "type": str(rs.lie_type),
        "suite": True,
        "passed": all_passed,
        "cases": cases,
    }
    text = [f"sum-formula suite for {report['type']}:"]
    for case in cases:
        text.append(
            f"  {case['label']:<24} mu = {case['mu']:<16} "
            f"{case['checked']:>3} modules  "
            + ("pass" if case["passed"] else "FAIL " + ",".join(case["failed_words"]))
        )
    text.append("overall: " + ("pass" if all_passed else "FAIL"))
    return _emit(args, report, text, all_passed)


def cmd_conjecture(args) -> int:
    nu, block, _ = _normalized(args)
    table = table_for(block.system)
    sys_ = block.system
    reps = block.coset_reps()
    tables = {w: layers(block, w, table) for w in reps}
    pairs = 0
    violations = []
    for w in reps:
        for x in reps:
            if not sys_.bruhat_leq(x, w):
                continue
            pairs += 1
            res = domination_check(tables[x], tables[w])
            for j, z, lower, upper in res.violations:
                violations.append(
                    {
                        "x_word": _word_str(sys_, x),
                        "w_word": _word_str(sys_, w),
                        "j": j,
                        "z_word": _word_str(sys_, z),
                        "lower": lower,
                        "upper": upper,
                    }
                )
    passed = not violations
    report = {
        **_head(nu, block),
        "J": [j + 1 for j in block.J],
        "pairs": pairs,
        "violations": violations,
        "passed": passed,
    }
    text = [
        f"layer domination in the block of {report['weight']} ({report['type']}): "
        f"{pairs} Bruhat pairs, "
        + ("no violations" if passed else f"{len(violations)} violations")
    ]
    return _emit(args, report, text, passed)


def cmd_parabolic(args) -> int:
    if args.depth < 0:
        raise UsageError(f"depth must be nonnegative, got {args.depth}")
    nu, block, _ = _normalized(args)
    check_box_limit(block.rs, args.depth)  # even when no module asks for a table
    table = table_for(block.system)
    sys_ = block.system
    try:
        # "" (or spaces) is the empty set; no item of a list may be empty
        parts = plain_text(args.I).split(",")
        ambient_I = sorted({int(part) - 1 for part in parts}) if args.I.strip() else []
    except ValueError:
        raise UsageError(f"cannot parse I list {args.I!r}") from None
    pb = enumerate_IWJ(block, ambient_I)
    if args.w is not None:
        chosen = [_element(sys_, args.w)]  # parabolic_layers checks it is in pb.reps
    else:
        chosen = list(pb.reps)

    modules = []
    all_passed = True
    for w in chosen:
        tab = parabolic_layers(pb, w, table)
        tab.validate()
        dual = parabolic_layers_dual_path(pb, w, table)
        dual_ok = dual.rows == tab.rows
        cc = parabolic_character_check(pb, w, args.depth)
        ok = dual_ok and cc.passed
        all_passed = all_passed and ok
        modules.append(
            {
                "w_word": _word_str(sys_, w),
                "loewy_length": tab.loewy_length,
                "layers": _layers(sys_, tab.rows),
                "dual_path": "pass" if dual_ok else "fail",
                "char_check": "pass" if cc.passed else "fail",
            }
        )
    report = {
        **_head(nu, block),
        "J": [j + 1 for j in block.J],
        "I": [i + 1 for i in pb.ambient_I],
        "wI_word": _word_str(sys_, pb.wI),
        "modules": modules,
        "passed": all_passed,
    }
    text = [
        f"parabolic modules for I = {report['I']} in the block of "
        f"{report['weight']} ({report['type']}); w_I = {report['wI_word']}",
        f"{len(modules)} parameter(s) in the double-coset set",
    ]
    for mod in modules:
        text.append(
            f"w = {mod['w_word']}  loewy {mod['loewy_length']}  "
            f"dual-path {mod['dual_path']}  characters {mod['char_check']}"
        )
        text.extend(_layer_lines(mod["layers"]))
    return _emit(args, report, text, all_passed)


def cmd_oracle(args) -> int:
    nu, block, _ = _normalized(args)
    rep = oracle_compare(block.rs, nu, args.depth)
    report = {
        "type": str(rep.lie_type),
        "weight": nu.serialize(),
        "depth": rep.depth,
        "passed": rep.passed,
        "spaces": rep.spaces,
        "comparisons": rep.comparisons,
        "failures": list(rep.failures),
    }
    text = [
        f"contravariant-form oracle for nu = {report['weight']} "
        f"({report['type']}), depth {rep.depth}: "
        + ("pass" if rep.passed else "FAIL"),
        f"{rep.spaces} weight spaces, {rep.comparisons} level comparisons",
    ]
    text.extend(f"  {f}" for f in rep.failures)
    return _emit(args, report, text, rep.passed)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of text"
    )
    common.add_argument("--type", required=True)

    parser = argparse.ArgumentParser(
        prog="jantzen",
        description="Exact Jantzen filtrations of Verma and parabolic "
        "Verma modules for possibly singular, possibly nonintegral weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("block", parents=[common], help="describe an integral block")
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("kl", parents=[common], help="one Kazhdan-Lusztig polynomial")
    p.add_argument("--block-of", default=None, metavar="W",
                   help="compute inside the integral system of this weight")
    p.add_argument("--x", required=True, help="word for the lower element")
    p.add_argument("--w", required=True, help="word for the upper element")
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("layers", parents=[common], help="Jantzen layer table")
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_layers)

    p = sub.add_parser("sumcheck", parents=[common], help="Jantzen sum formula")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weight")
    group.add_argument("--suite", action="store_true")
    p.add_argument("--seed", type=_integer, help="suite generation seed (default 0)")
    p.set_defaults(func=cmd_sumcheck)

    p = sub.add_parser(
        "conjecture", parents=[common], help="layer domination over Bruhat pairs"
    )
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser(
        "parabolic", parents=[common], help="parabolic Verma layer tables"
    )
    p.add_argument("--I", required=True, metavar="LIST",
                   help="comma-separated 1-based ambient simple indices")
    p.add_argument("--weight", required=True)
    p.add_argument("--w", default=None, help="single double-coset word")
    p.add_argument("--depth", type=_integer, default=4,
                   help="height bound for the character check")
    p.set_defaults(func=cmd_parabolic)

    p = sub.add_parser(
        "oracle", parents=[common], help="contravariant-form dimension check"
    )
    p.add_argument("--weight", required=True)
    p.add_argument("--depth", type=_integer, default=None)
    p.set_defaults(func=cmd_oracle)
    return parser


def _value_flags(parser: argparse.ArgumentParser) -> frozenset:
    """Every option string, over all subcommands, that takes a value."""
    subcommands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return frozenset(
        flag
        for sub in subcommands.choices.values()
        for action in sub._actions
        if action.nargs != 0
        for flag in action.option_strings
    )


def _merge_flag_values(argv, flags):
    """Join "--flag value" into "--flag=value" for the value-taking flags,
    so values may start with "-"."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in flags and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_flag_values(list(argv), _value_flags(parser))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input, or an OSError of the host
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DefectError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
