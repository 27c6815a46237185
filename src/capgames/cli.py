"""Command-line front end.

Exit codes: 0 on success or PASS, 1 when a checked property fails
(non-equilibrium input, empty solve result, violated convexity scan,
oracle deviation out of bounds), 2 on usage, parse, or validation
errors. Reports are JSON with a fixed field order; the only varying
field between identical runs is the generated_at timestamp. The tensor
command instead emits a plain capacity file so its output can feed back
into any command that reads capacities.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from fractions import Fraction
from typing import Sequence

# The modules every command loads (io needs the other three). The rest
# are imported inside the commands that run them, so that a cold process
# compiles no module its command does not use.
from .capacity import DENSE_DOMAIN_CAP, BudgetExceeded, CapacityError, Domain
from .io import (
    ParseError,
    ValidationError,
    canonical_game_hash,
    parse_capacity,
    parse_function,
    parse_game,
    serialize_capacity,
)
from .rational import format_rational, parse_rational
from .sugeno import (
    CorrectionMap,
    default_correction,
    logit_correction,
    sugeno_integral,
    sugeno_oracle,
)

__all__ = ["main"]

FAIL = 1
USAGE = 2


def _parse_psi(text: str) -> CorrectionMap:
    if text == "default":
        return default_correction()
    if text == "logit":
        return logit_correction()
    if text.startswith("logit:"):
        return logit_correction(parse_rational(text.split(":", 1)[1]))
    raise ValueError(
        f"unknown correction {text!r}; use default, logit, or logit:SCALE")


def _parse_grid(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",")]


def _parse_supports(text: str, domains: Sequence[Domain]) -> list[list[str]]:
    """Per-player strategy groups: players split by ";", strategies by ","
    (empty items skipped). A label may hold ";", so the text is read
    against the players' own labels; exactly one reading with one
    nonempty group per player is used, several are an error. With none,
    the plain split is returned, for the profile check to name what is
    wrong."""
    readings = _support_readings(text, domains)
    if len(readings) > 1:
        raise ValueError(f"supports {text!r} can be read {len(readings)} ways: "
                         + " or ".join(map(str, readings)))
    if readings:
        return readings[0]
    return [[lab for lab in group.split(",") if lab] for group in text.split(";")]


def _support_readings(text: str, domains: Sequence[Domain]) -> list[list[list[str]]]:
    """Every way to read `text` as one nonempty ","-joined group of labels
    per domain, the groups joined by ";"; empty items are skipped. Sorted."""
    last = len(domains) - 1
    readings: list[list[list[str]]] = []
    # (pos, groups, group): text[pos:] starts an item of player
    # len(groups)'s group, which holds `group` so far; the item is empty
    # or one of the player's labels.
    stack: list[tuple[int, list[list[str]], list[str]]] = [(0, [], [])]
    while stack:
        pos, groups, group = stack.pop()
        j = len(groups)
        for item in ["", *(lab for lab in domains[j].labels
                           if text.startswith(lab, pos))]:
            end = pos + len(item)
            items = group + [item] if item else group
            if end == len(text):
                if items and j == last:
                    readings.append(groups + [items])
            elif text[end] == ",":
                stack.append((end + 1, groups, items))
            elif text[end] == ";" and items and j < last:
                stack.append((end + 1, groups + [items], []))
    return sorted(readings)


def cmd_integrate(args) -> tuple[int, dict | str]:
    corr = _parse_psi(args.psi)
    cap = parse_capacity(args.capacity, args.allow_decimal)
    func = parse_function(args.function, args.allow_decimal)
    value = sugeno_integral(func, cap, corr)
    return 0, {
        "config": {"capacity": args.capacity, "function": args.function,
                   "psi": corr.name},
        "value": format_rational(value),
    }


def cmd_tensor(args) -> tuple[int, dict | str]:
    from .tensor import tensor_many

    caps = [parse_capacity(p, args.allow_decimal) for p in args.capacities]
    if len(caps) < 2:
        raise ValueError("tensor needs at least two capacity files")
    return 0, serialize_capacity(tensor_many(caps))


def cmd_best_response(args) -> tuple[int, dict | str]:
    from .game import best_response, expected_payoff

    corr = _parse_psi(args.psi)
    game = parse_game(args.game, args.allow_decimal)
    belief = parse_capacity(args.belief, args.allow_decimal)
    responses = best_response(game, args.player, belief, corr)
    labels = game.strategy_domains[args.player].labels
    scores = {lab: format_rational(
        expected_payoff(game, args.player, lab, belief, corr))
        for lab in labels}
    return 0, {
        "config": {"game": args.game, "belief": args.belief,
                   "player": args.player, "psi": corr.name},
        "game_hash": canonical_game_hash(game),
        "expected_payoffs": scores,
        "best_responses": list(responses),
    }


def cmd_check_eq(args) -> tuple[int, dict | str]:
    from .equilibrium import SupportProfile, check_support_profile

    corr = _parse_psi(args.psi)
    game = parse_game(args.game, args.allow_decimal)
    profile = SupportProfile.from_labels(
        game, _parse_supports(args.supports, game.strategy_domains))
    cert = check_support_profile(game, profile, corr)
    report = {
        "config": {"game": args.game, "supports": args.supports,
                   "psi": corr.name},
        "game_hash": canonical_game_hash(game),
    }
    report.update(cert.to_dict())
    return (0 if cert.holds else FAIL), report


def cmd_solve(args) -> tuple[int, dict | str]:
    from .equilibrium import (
        DEFAULT_PROFILE_BUDGET,
        find_equilibria_supports,
        support_profile_count,
    )

    budget = DEFAULT_PROFILE_BUDGET if args.budget is None else args.budget
    corr = _parse_psi(args.psi)
    game = parse_game(args.game, args.allow_decimal)
    hits = find_equilibria_supports(game, corr, budget=budget)
    report = {
        "config": {"game": args.game, "psi": corr.name, "budget": budget},
        "game_hash": canonical_game_hash(game),
        "profiles_scanned": support_profile_count(game),
        "equilibrium_count": len(hits),
        "equilibria": [cert.to_dict() for _, cert in hits],
    }
    return (0 if hits else FAIL), report


def cmd_verify_convexity(args) -> tuple[int, dict | str]:
    from .convexity import check_binarity, check_t2, enumerate_capacities
    from .generate import _letters

    if not 1 <= args.domain_size <= DENSE_DOMAIN_CAP:
        raise ValueError(f"--domain-size must lie in 1..{DENSE_DOMAIN_CAP}, "
                         f"got {args.domain_size}")
    grid = _parse_grid(args.grid)
    domain = Domain(_letters(args.domain_size))
    space = enumerate_capacities(domain, grid)
    binarity = check_binarity(space, full_family=args.full_family)
    t2 = check_t2(space)
    passed = binarity.passed and t2.passed
    # Measured seconds stay on the library reports; the CLI report must
    # be byte-identical across reruns apart from its timestamp.
    binarity_dict = binarity.to_dict()
    t2_dict = t2.to_dict()
    binarity_dict.pop("seconds")
    t2_dict.pop("seconds")
    report = {
        "config": {"domain_size": args.domain_size, "grid": args.grid,
                   "full_family": args.full_family},
        "capacities": len(space),
        "binarity": binarity_dict,
        "t2": t2_dict,
        "passed": passed,
    }
    return (0 if passed else FAIL), report


def cmd_oracle_compare(args) -> tuple[int, dict | str]:
    from .generate import SplitMix64, _letters, random_capacity, random_payoff_function

    corr = _parse_psi(args.psi)
    resolution = parse_rational(args.resolution)
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    rng = SplitMix64(args.seed)
    sizes = (2, 3, 4)
    max_dev = Fraction(0)
    worst = None
    for k in range(args.trials):
        domain = Domain(_letters(sizes[k % len(sizes)]))
        cap = random_capacity(domain, rng)
        func = random_payoff_function(domain, rng)
        closed = sugeno_integral(func, cap, corr)
        scanned = sugeno_oracle(func, cap, corr, resolution)
        dev = abs(closed - scanned)
        if dev > max_dev:
            max_dev = dev
            worst = k
    passed = max_dev <= resolution
    report = {
        "config": {"trials": args.trials, "seed": args.seed,
                   "resolution": args.resolution, "psi": corr.name},
        "max_deviation": format_rational(max_dev),
        "worst_trial": worst,
        "passed": passed,
    }
    return (0 if passed else FAIL), report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capgames",
        description="Capacity beliefs, corrected Sugeno payoffs, "
                    "equilibrium search, and convexity scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, psi: bool = True, files: bool = True) -> None:
        p.add_argument("--out", help="write the report to this path")
        if files:
            p.add_argument("--allow-decimal", action="store_true",
                           help="convert decimal literals in input files exactly")
        if psi:
            p.add_argument("--psi", default="default",
                           help="correction map: default, logit, or logit:SCALE")

    p = sub.add_parser("integrate",
                       help="corrected Sugeno integral of a function file "
                            "against a capacity file")
    p.add_argument("capacity")
    p.add_argument("function")
    common(p)
    p.set_defaults(handler=cmd_integrate)

    p = sub.add_parser("tensor",
                       help="tensor product of capacity files, written as a "
                            "capacity file")
    p.add_argument("capacities", nargs="+")
    common(p, psi=False)
    p.set_defaults(handler=cmd_tensor)

    p = sub.add_parser("best-response",
                       help="best responses of one player against a belief "
                            "capacity on the others' joint strategies")
    p.add_argument("game")
    p.add_argument("--player", type=int, required=True)
    p.add_argument("--belief", required=True)
    common(p)
    p.set_defaults(handler=cmd_best_response)

    p = sub.add_parser("check-eq",
                       help="check the possibility beliefs built from the "
                            "given supports; exit 1 if not an equilibrium")
    p.add_argument("game")
    p.add_argument("--supports", required=True,
                   help='per-player strategy groups, e.g. "a,b;c"')
    common(p)
    p.set_defaults(handler=cmd_check_eq)

    p = sub.add_parser("solve",
                       help="exhaustive support-profile equilibrium scan; "
                            "exit 1 if none found")
    p.add_argument("game")
    # None stands for equilibrium.DEFAULT_PROFILE_BUDGET, which cmd_solve
    # reads, so that building the parser does not import the search.
    p.add_argument("--budget", type=int)
    common(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("verify-convexity",
                       help="binarity and pair-separation scans over all "
                            "grid capacities on a small domain")
    p.add_argument("--domain-size", type=int, default=2)
    p.add_argument("--grid", default="0,1/2,1")
    p.add_argument("--full-family", action="store_true",
                   help="also count every linked family, tiny spaces only")
    common(p, psi=False, files=False)
    p.set_defaults(handler=cmd_verify_convexity)

    p = sub.add_parser("oracle-compare",
                       help="closed-form integral vs definition-scan oracle "
                            "on seeded random instances")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--resolution", default="1/1000")
    common(p, files=False)
    p.set_defaults(handler=cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        code, payload = args.handler(args)
    except (ParseError, ValidationError, CapacityError, BudgetExceeded,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE

    if isinstance(payload, str):
        text = payload if payload.endswith("\n") else payload + "\n"
    else:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        envelope = {"command": args.command, "generated_at": stamp}
        envelope.update(payload)
        text = json.dumps(envelope, indent=2) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
