"""Command-line surface: reports, verification commands, cache control.

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
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error,
3 internal error (the program broke; no verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from jantzen.blocks import Block, DefectError, normalize
from jantzen.filtration import (
    domination_check,
    jantzen_filtration,
    layers,
    sum_formula_check,
)
from jantzen.kl import table_for
from jantzen.parabolic import (
    enumerate_IWJ,
    parabolic_character_check,
    parabolic_layers,
    parabolic_layers_dual_path,
)
from jantzen.roots import LieType, RootSystem, Weight, build_root_system
from jantzen.shapovalov import oracle_compare
from jantzen.suite import suite_weights
from jantzen.weyl import CoxeterSystem, format_word, parse_word, weyl_group

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


def _lie_type(text: str) -> LieType:
    try:
        return LieType.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _weight(rs: RootSystem, text: str) -> Weight:
    try:
        w = Weight.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if len(w.coords) != rs.rank:
        raise UsageError(
            f"weight has {len(w.coords)} coordinates; {rs.lie_type} needs {rs.rank}"
        )
    return w


def _element(sys: CoxeterSystem, text: str):
    try:
        word = parse_word(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for i in word:
        if not 0 <= i < sys.num_gens:
            raise UsageError(
                f"generator index {i + 1} out of range; the system has "
                f"{sys.num_gens} generators"
            )
    return sys.element_from_word(word)


def _word_str(sys: CoxeterSystem, w) -> str:
    return format_word(sys.word(w)) or "e"


def _prime_table(sys: CoxeterSystem, args):
    return table_for(sys, cache_dir=args.cache, use_disk=not args.no_cache)


def _emit(args, report: dict, text_lines) -> None:
    if args.json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _layer_json(system: CoxeterSystem, rows) -> list:
    out = []
    for j, row in enumerate(rows):
        simples = [
            {"z_word": _word_str(system, z), "mult": row[z]}
            for z in sorted(row, key=system.sort_key)
        ]
        out.append({"j": j, "simples": simples})
    return out


def _layer_text(system: CoxeterSystem, rows) -> list:
    lines = []
    for j, row in enumerate(rows):
        parts = [
            f"{_word_str(system, z)} x{row[z]}"
            for z in sorted(row, key=system.sort_key)
        ]
        lines.append(f"  layer {j}: " + ("; ".join(parts) if parts else "-"))
    return lines


def _block_header(lt: LieType, nu: Weight, block: Block, w) -> dict:
    sys_ = block.system
    return {
        "type": str(lt),
        "weight": nu.serialize(),
        "mu": block.mu.serialize(),
        "w_word": _word_str(sys_, w),
        "J": [j + 1 for j in block.J],
    }


def cmd_block(args) -> int:
    lt = _lie_type(args.type)
    rs = build_root_system(lt)
    nu = _weight(rs, args.weight)
    block, w = normalize(rs, nu)
    sys_ = block.system
    _prime_table(sys_, args)
    report = _block_header(lt, nu, block, w)
    report["delta"] = [list(v) for v in block.delta_roots]
    report["group_order"] = sys_.order()
    report["coset_reps"] = len(block.coset_reps())
    text = [
        f"type {report['type']}  weight {report['weight']}",
        f"antidominant mu = {report['mu']}, nu = w mu with w = {report['w_word']}",
        f"integral simple roots: {report['delta']}",
        f"singular set J (generator indices): {report['J'] or '-'}",
        f"integral Weyl group order {report['group_order']}, "
        f"{report['coset_reps']} coset representatives",
    ]
    _emit(args, report, text)
    return EXIT_OK


def cmd_kl(args) -> int:
    lt = _lie_type(args.type)
    rs = build_root_system(lt)
    if args.block_of is not None:
        block, _ = normalize(rs, _weight(rs, args.block_of))
        sys_ = block.system
    else:
        sys_ = weyl_group(rs)
    table = _prime_table(sys_, args)
    x = _element(sys_, args.x)
    w = _element(sys_, args.w)
    poly = table.polynomial(x, w)
    report = {
        "type": str(lt),
        "block_of": args.block_of,
        "x_word": _word_str(sys_, x),
        "w_word": _word_str(sys_, w),
        "polynomial": poly.render("q"),
        "value_at_1": poly(1),
    }
    _emit(
        args,
        report,
        [f"P({report['x_word']}, {report['w_word']}) = {report['polynomial']}"],
    )
    return EXIT_OK


def cmd_layers(args) -> int:
    lt = _lie_type(args.type)
    rs = build_root_system(lt)
    nu = _weight(rs, args.weight)
    block, _ = normalize(rs, nu)
    _prime_table(block.system, args)
    rep = jantzen_filtration(rs, nu)
    rep.table.validate()
    sum_res = sum_formula_check(rs, nu)
    sys_ = block.system
    report = _block_header(lt, nu, block, rep.w)
    report["loewy_length"] = rep.loewy_length
    report["layers"] = _layer_json(sys_, rep.table.rows)
    report["sum_formula"] = "pass" if sum_res.passed else "fail"
    report["details"] = {
        "levels": [
            {
                "i": i,
                "simples": [
                    {"z_word": _word_str(sys_, z), "mult": lvl[z]}
                    for z in sorted(lvl, key=sys_.sort_key)
                ],
            }
            for i, lvl in enumerate(rep.levels)
        ],
        "sum_formula_columns": [
            {"z_word": _word_str(sys_, z), "lhs": lhs, "rhs": rhs}
            for z, lhs, rhs in sum_res.per_column
        ],
    }
    text = [
        f"M(nu) for nu = {report['weight']} in type {report['type']}",
        f"mu = {report['mu']}, w = {report['w_word']}, J = {report['J'] or '-'}",
        f"Loewy length {report['loewy_length']}",
    ]
    text.extend(_layer_text(sys_, rep.table.rows))
    text.append(f"sum formula: {report['sum_formula']}")
    _emit(args, report, text)
    return EXIT_OK if sum_res.passed else EXIT_CHECK_FAILED


def cmd_sumcheck(args) -> int:
    lt = _lie_type(args.type)
    rs = build_root_system(lt)
    if args.weight is not None:
        nu = _weight(rs, args.weight)
        block, _ = normalize(rs, nu)
        _prime_table(block.system, args)
        res = sum_formula_check(rs, nu)
        sys_ = block.system
        report = {
            "type": str(lt),
            "weight": nu.serialize(),
            "mu": block.mu.serialize(),
            "passed": res.passed,
            "columns": [
                {"z_word": _word_str(sys_, z), "lhs": lhs, "rhs": rhs}
                for z, lhs, rhs in res.per_column
            ],
        }
        text = [
            f"sum formula for nu = {report['weight']} ({report['type']}): "
            + ("pass" if res.passed else "FAIL")
        ]
        for col in report["columns"]:
            text.append(
                f"  {col['z_word']}: lhs {col['lhs']} rhs {col['rhs']}"
            )
        _emit(args, report, text)
        return EXIT_OK if res.passed else EXIT_CHECK_FAILED

    cases = []
    all_passed = True
    for label, mu in suite_weights(rs, seed=args.seed):
        block, _ = normalize(rs, mu)
        _prime_table(block.system, args)
        checked = 0
        failed = []
        for w in block.coset_reps():
            res = sum_formula_check(rs, w.apply(mu))
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
    report = {"type": str(lt), "suite": True, "passed": all_passed, "cases": cases}
    text = [f"sum-formula suite for {report['type']}:"]
    for case in cases:
        text.append(
            f"  {case['label']:<24} mu = {case['mu']:<16} "
            f"{case['checked']:>3} modules  "
            + ("pass" if case["passed"] else "FAIL " + ",".join(case["failed_words"]))
        )
    text.append("overall: " + ("pass" if all_passed else "FAIL"))
    _emit(args, report, text)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_conjecture(args) -> int:
    lt = _lie_type(args.type)
    rs = build_root_system(lt)
    nu = _weight(rs, args.weight)
    block, _ = normalize(rs, nu)
    sys_ = block.system
    table = _prime_table(sys_, args)
    reps = block.coset_reps()
    tables = {w: layers(block, w, table) for w in reps}
    pairs = 0
    violations = []
    for w in reps:
        for x in reps:
            if not sys_.bruhat_leq(x, w):
                continue
            pairs += 1
            res = domination_check(block, x, w, tables[x], tables[w])
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
        "type": str(lt),
        "weight": nu.serialize(),
        "mu": block.mu.serialize(),
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
    _emit(args, report, text)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_parabolic(args) -> int:
    lt = _lie_type(args.type)
    rs = build_root_system(lt)
    nu = _weight(rs, args.weight)
    block, _ = normalize(rs, nu)
    sys_ = block.system
    table = _prime_table(sys_, args)
    try:
        ambient_I = sorted(
            {int(part) - 1 for part in args.I.split(",") if part.strip()}
        )
    except ValueError:
        raise UsageError(f"cannot parse I list {args.I!r}") from None
    try:
        pb = enumerate_IWJ(block, ambient_I)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.w is not None:
        w = _element(sys_, args.w)
        if w not in pb.reps:
            raise UsageError("w is not an upper coset representative for (I, J)")
        chosen = [w]
    else:
        chosen = list(pb.reps)

    modules = []
    all_passed = True
    for w in chosen:
        tab = parabolic_layers(pb, w, table)
        dual = parabolic_layers_dual_path(pb, w, table)
        dual_ok = dual.rows == tab.rows
        cc = parabolic_character_check(pb, w, args.depth)
        ok = dual_ok and cc.passed
        all_passed = all_passed and ok
        modules.append(
            {
                "w_word": _word_str(sys_, w),
                "loewy_length": tab.loewy_length,
                "layers": _layer_json(sys_, tab.rows),
                "dual_path": "pass" if dual_ok else "fail",
                "char_check": "pass" if cc.passed else "fail",
            }
        )
    report = {
        "type": str(lt),
        "weight": nu.serialize(),
        "mu": block.mu.serialize(),
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
        for layer in mod["layers"]:
            parts = [f"{s['z_word']} x{s['mult']}" for s in layer["simples"]]
            text.append(
                f"  layer {layer['j']}: " + ("; ".join(parts) if parts else "-")
            )
    _emit(args, report, text)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_oracle(args) -> int:
    lt = _lie_type(args.type)
    rs = build_root_system(lt)
    nu = _weight(rs, args.weight)
    block, _ = normalize(rs, nu)
    _prime_table(block.system, args)
    rep = oracle_compare(rs, nu, args.depth)
    report = {
        "type": str(lt),
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
    _emit(args, report, text)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of text"
    )
    common.add_argument(
        "--cache", metavar="PATH", default=None, help="KL cache directory"
    )
    common.add_argument(
        "--no-cache", action="store_true", help="do not read or write the disk cache"
    )

    parser = argparse.ArgumentParser(
        prog="jantzen",
        description="Exact Jantzen filtrations of Verma and parabolic "
        "Verma modules for possibly singular, possibly nonintegral weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("block", parents=[common], help="describe an integral block")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("kl", parents=[common], help="one Kazhdan-Lusztig polynomial")
    p.add_argument("--type", required=True)
    p.add_argument("--block-of", default=None, metavar="W",
                   help="compute inside the integral system of this weight")
    p.add_argument("--x", required=True, help="word for the lower element")
    p.add_argument("--w", required=True, help="word for the upper element")
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("layers", parents=[common], help="Jantzen layer table")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_layers)

    p = sub.add_parser("sumcheck", parents=[common], help="Jantzen sum formula")
    p.add_argument("--type", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weight")
    group.add_argument("--suite", action="store_true")
    p.add_argument("--seed", type=int, default=0, help="suite generation seed")
    p.set_defaults(func=cmd_sumcheck)

    p = sub.add_parser(
        "conjecture", parents=[common], help="layer domination over Bruhat pairs"
    )
    p.add_argument("--type", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser(
        "parabolic", parents=[common], help="parabolic Verma layer tables"
    )
    p.add_argument("--type", required=True)
    p.add_argument("--I", required=True, metavar="LIST",
                   help="comma-separated 1-based ambient simple indices")
    p.add_argument("--weight", required=True)
    p.add_argument("--w", default=None, help="single double-coset word")
    p.add_argument("--depth", type=int, default=4,
                   help="height bound for the character check")
    p.set_defaults(func=cmd_parabolic)

    p = sub.add_parser(
        "oracle", parents=[common], help="contravariant-form dimension check"
    )
    p.add_argument("--type", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=cmd_oracle)
    return parser


_VALUE_FLAGS = frozenset(
    {"--type", "--weight", "--block-of", "--x", "--w", "--I", "--cache",
     "--depth", "--seed"}
)


def _merge_flag_values(argv):
    """Join "--flag value" into "--flag=value" so values may start with "-"."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
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
    argv = _merge_flag_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:  # UsageError included
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
