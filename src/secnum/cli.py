"""Command-line interface.

Subcommands: compute, relative, check, census, suite.  Exit codes: 0 success,
2 violation found, 3 inconclusive (budget exhausted on a gated question),
4 input error.  The SECNUM_BUDGET environment variable overrides the default
search-node budget; a value that is not a positive integer is an input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import coincidence as coin
from .fileio import Document, ParseError, format_space, load_document
from .homotopy import cat
from .resources import BudgetExhausted, LimitExceeded, default_node_budget
from .sectional import relative_sec, relative_secat, relative_tc_bounds, sec, secat


class InputError(Exception):
    pass


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _load_into(doc: Document, path: str) -> list[str]:
    """Parse a file into the shared registry; returns the map names it added."""
    before = set(doc.maps)
    try:
        load_document(path, into=doc)
    except FileNotFoundError as exc:
        raise InputError(str(exc)) from exc
    except ParseError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return [name for name in doc.maps if name not in before]


def _single_map(doc: Document, path: str) -> "CMap":
    names = _load_into(doc, path)
    if len(names) != 1:
        raise InputError(f"{path}: expected exactly one map, found {len(names)}")
    return doc.maps[names[0]]


def _single_space(path: str):
    doc = Document()
    _load_into(doc, path)
    if len(doc.spaces) != 1:
        raise InputError(f"{path}: expected exactly one space, found {len(doc.spaces)}")
    return doc, next(iter(doc.spaces.values()))


def _cmd_compute(args) -> int:
    invariant = args.invariant
    if invariant in ("sec", "secat"):
        if not args.map:
            raise InputError(f"--map is required for --invariant {invariant}")
        doc = Document()
        _load_into(doc, args.input)
        f = _single_map(doc, args.map)
        result = sec(f) if invariant == "sec" else secat(f)
        _emit({"invariant": invariant} | result.to_json_dict())
        return 0
    doc, space = _single_space(args.input)
    if invariant == "cat":
        result = cat(space)
        _emit({
            "invariant": "cat",
            "value": result.value.to_json(),
            "degenerate": result.degenerate,
            "cover": [o.mask for o in result.cover],
        })
        return 0
    verdict = coin.has_fpp(space)
    _emit({
        "invariant": "fpp",
        "holds": verdict.holds,
        "witness": None if verdict.witness is None else list(verdict.witness.assignment),
    })
    return 0


def _cmd_relative(args) -> int:
    if args.route is not None and args.invariant != "sec":
        raise InputError(f"--route applies to --invariant sec only, not {args.invariant}")
    p = _single_map(Document(), args.p)
    g = _single_map(Document(), args.g)
    if p.target != g.target:
        raise InputError("p and g must share their target space")
    if args.invariant == "sec":
        route = args.route or "both"
        result = relative_sec(p, g, route=route)
        _emit({"invariant": "relative-sec", "route": route} | result.to_json_dict())
        return 0
    if args.invariant == "secat":
        result = relative_secat(p, g)
        _emit({"invariant": "relative-secat", "route": "pullback"} | result.to_json_dict())
        return 0
    bounds = relative_tc_bounds(p, g)
    _emit({"invariant": "relative-tc-bounds"} | bounds.to_json_dict())
    return 0


_CHECKS = {
    "remark": lambda X, Y, g, k: coin.check_remark(X, Y, g),
    "key-lemma": lambda X, Y, g, k: coin.check_key_lemma(X, Y, g, k),
    "main-theorem": lambda X, Y, g, k: coin.check_main_theorem(X, Y, g),
    "cp-implies-fpp": lambda X, Y, g, k: coin.check_cp_implies_fpp(X, Y, g),
}


def _cmd_check(args) -> int:
    if args.claim == "key-lemma" and args.k < 2:
        raise InputError("--k must be >= 2")
    _, X = _single_space(args.x)
    _, Y = _single_space(args.y)
    doc = Document()
    g = _single_map(doc, args.g)
    if g.source != X or g.target != Y:
        raise InputError("g must be a map from the space in --x to the space in --y")
    report = _CHECKS[args.claim](X, Y, g, args.k)
    _emit(report.to_json_dict())
    return 2 if report.conclusion is False else 0


def _cmd_census(args) -> int:
    from .census import CENSUS_HARD_MAX, census_spaces

    if args.max_points < 1:
        raise InputError("--max-points must be >= 1")
    # checked before the smaller censuses are printed
    if args.max_points > CENSUS_HARD_MAX:
        raise InputError(f"--max-points must be <= {CENSUS_HARD_MAX}, got {args.max_points}")
    total = 0
    for n in range(1, args.max_points + 1):
        spaces = census_spaces(n, posets_only=args.posets_only)
        kind = "posets" if args.posets_only else "spaces"
        print(f"# {kind} on {n} points up to isomorphism: {len(spaces)}")
        for index, space in enumerate(spaces):
            sys.stdout.write(format_space(f"n{n}_{index}", space))
        total += len(spaces)
    print(f"# total: {total}")
    return 0


def _cmd_suite(args) -> int:
    from .suite import SuiteConfig, run_suite

    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                cfg = SuiteConfig.from_json_dict(json.load(handle))
        except FileNotFoundError as exc:
            raise InputError(str(exc)) from exc
        except (ValueError, TypeError) as exc:
            raise InputError(f"{args.config}: {exc}") from exc
    else:
        cfg = SuiteConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    try:
        cfg = replace(cfg, **overrides)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        report = run_suite(cfg)
    except OSError as exc:
        raise InputError(f"cannot write report: {exc}") from exc
    if not cfg.out:
        sys.stdout.write(report.to_json_bytes().decode())
        print(json.dumps(report.sidecar()), file=sys.stderr)
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secnum",
        description="Sectional numbers, LS-category and coincidence properties "
        "of finite topological spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="one invariant of a space or map")
    compute.add_argument("--input", required=True, help=".finsp file with the space")
    compute.add_argument("--map", help=".fmap file with the map (sec/secat)")
    compute.add_argument("--invariant", required=True, choices=["sec", "secat", "cat", "fpp"])
    compute.set_defaults(func=_cmd_compute)

    relative = sub.add_parser("relative", help="relative invariants of p along g")
    relative.add_argument("--p", required=True, help=".fmap file with p: E -> B")
    relative.add_argument("--g", required=True, help=".fmap file with g: X -> B")
    relative.add_argument("--invariant", required=True, choices=["sec", "secat", "tc-bounds"])
    relative.add_argument("--route", choices=["pullback", "lift", "both"],
                          help="route of --invariant sec (default: both)")
    relative.set_defaults(func=_cmd_relative)

    check = sub.add_parser("check", help="verify one theorem instance")
    check.add_argument("--claim", required=True,
                       choices=["remark", "key-lemma", "main-theorem", "cp-implies-fpp"])
    check.add_argument("--x", required=True, help=".finsp file with the source space")
    check.add_argument("--y", required=True, help=".finsp file with the target space")
    check.add_argument("--g", required=True, help=".fmap file with g: X -> Y")
    check.add_argument("--k", type=int, default=2, help="tuple length for key-lemma")
    check.set_defaults(func=_cmd_check)

    census = sub.add_parser("census", help="emit all spaces up to isomorphism")
    census.add_argument("--max-points", type=int, required=True)
    census.add_argument("--posets-only", action="store_true")
    census.set_defaults(func=_cmd_census)

    suite = sub.add_parser("suite", help="run the full property suite")
    suite.add_argument("--config", help="suite-config JSON file")
    suite.add_argument("--seed", type=int, help="overrides the config seed")
    suite.add_argument("--out", help="report path (timings go to a sidecar)")
    suite.set_defaults(func=_cmd_suite)
    return parser


def _check_budget_env() -> None:
    """Read SECNUM_BUDGET once up front, so a bad value is an input error."""
    try:
        default_node_budget()
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_budget_env()
        return args.func(args)
    except (InputError, LimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BudgetExhausted as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
