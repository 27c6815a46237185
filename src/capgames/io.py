"""File formats: capacities, games, and point functions as JSON.

Rationals travel as strings ("p/q" or a bare integer). Float literals
are rejected by default so no value silently loses exactness; an opt-in
flag converts decimal literals exactly instead (0.25 becomes 1/4).

Capacity files:  {"domain": [labels], "values": {"a,b": "p/q", ...}}
with the empty string keying the empty set and each key listing its
members comma-joined in sorted order (parsing accepts any order).
Game files:  {"players": n, "strategies": [[labels], ...],
"payoffs": {"0": nested arrays, ...}} with player keys "0".."n-1" and
axis k of each nested array indexed by player k's strategy order.
Function files:  {"domain": [labels], "values": {label: "p/q", ...}}.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .capacity import CapacityError, Domain, FiniteCapacity, _check_domain_size, _ranked
from .rational import format_rational, parse_rational
from .sugeno import PayoffFunction

if TYPE_CHECKING:
    from .game import GameSpec

__all__ = [
    "ParseError",
    "ValidationError",
    "parse_capacity",
    "parse_game",
    "parse_function",
    "serialize_capacity",
    "serialize_game",
    "serialize_function",
    "canonical_game_hash",
    "loads_capacity",
    "loads_game",
    "loads_function",
]


class ParseError(Exception):
    """Input text is not well-formed (JSON syntax, bad rational, float)."""


class ValidationError(Exception):
    """Well-formed input describing an invalid object."""


def _loads(text: str, allow_decimal: bool, where: str) -> Any:
    def handle_float(literal: str):
        if not allow_decimal:
            raise ParseError(
                f"{where}: float literal {literal!r} rejected; write it as "
                "a rational string, or opt into exact decimal conversion"
            )
        return Fraction(literal)

    try:
        return json.loads(text, parse_float=handle_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from None


def _as_rational(raw: Any, where: str) -> Fraction:
    if isinstance(raw, bool):
        raise ParseError(f"{where}: boolean is not a rational")
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return parse_rational(raw)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from None
    raise ParseError(f"{where}: expected a rational, got {type(raw).__name__}")


def _expect_dict(node: Any, where: str) -> dict:
    if not isinstance(node, dict):
        raise ValidationError(f"{where}: expected an object")
    return node


def _domain_from(node: Any, where: str) -> Domain:
    if not isinstance(node, list) or not all(isinstance(x, str) for x in node):
        raise ValidationError(f"{where}: 'domain' must be a list of strings")
    try:
        return Domain(tuple(node))
    except (ValueError, CapacityError) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def loads_capacity(text: str, allow_decimal: bool = False,
                   where: str = "capacity") -> FiniteCapacity:
    """Parse a capacity file. Each distinct value string is parsed once,
    and the capacity is built and validated on ranks into the sorted
    distinct values (`FiniteCapacity._from_ranks`, with the checks and
    messages of the constructor). Subset keys may list their labels in
    any order. A domain beyond the dense cap is refused before any of
    the values is read."""
    data = _expect_dict(_loads(text, allow_decimal, where), where)
    if "domain" not in data or "values" not in data:
        raise ValidationError(f"{where}: needs 'domain' and 'values'")
    domain = _domain_from(data["domain"], where)
    try:
        _check_domain_size(domain)
    except CapacityError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    values = _expect_dict(data["values"], f"{where}: 'values'")

    # In a complete file, keys as serialize_capacity writes them are found
    # in one lookup; the key table is never larger than the file.
    canonical = ({key: mask for mask, key in enumerate(_subset_keys(domain))}
                 if len(values) == domain.subset_count else {})
    # Each subset's token: its raw value string, or the parsed value of
    # a non-string literal, which is never looked up before it is parsed.
    parsed: dict[Any, Fraction] = {}
    table: dict[int, Any] = {}
    for key, raw in values.items():
        mask = canonical.get(key)
        if mask is None:
            labels = [] if key == "" else key.split(",")
            try:
                mask = domain.as_mask(labels)
            except CapacityError as exc:
                raise ValidationError(f"{where}: subset key {key!r}: {exc}") from None
        if mask in table:
            raise ValidationError(
                f"{where}: subset key {key!r} repeats an earlier subset")
        if not (isinstance(raw, str) and raw in parsed):
            value = _as_rational(raw, f"{where}: value for {key!r}")
            if not isinstance(raw, str):
                raw = value
            parsed[raw] = value
        table[mask] = raw

    missing = [m for m in range(domain.subset_count) if m not in table]
    if missing:
        shown = ",".join(domain.labels_of(missing[0])) or "<empty set>"
        raise ValidationError(
            f"{where}: missing {len(missing)} subset value(s), first is "
            f"{shown!r}")
    levels, (ranks,) = _ranked(list(parsed.values()))
    rank_of = dict(zip(parsed, ranks))
    try:
        return FiniteCapacity._from_ranks(
            domain, levels, [rank_of[table[m]] for m in range(domain.subset_count)])
    except CapacityError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def loads_game(text: str, allow_decimal: bool = False,
               where: str = "game") -> GameSpec:
    data = _expect_dict(_loads(text, allow_decimal, where), where)
    for field in ("players", "strategies", "payoffs"):
        if field not in data:
            raise ValidationError(f"{where}: needs '{field}'")
    n = data["players"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValidationError(f"{where}: 'players' must be an integer >= 2")
    strategies = data["strategies"]
    if not isinstance(strategies, list) or len(strategies) != n:
        raise ValidationError(f"{where}: 'strategies' must list {n} label lists")
    domains = [_domain_from(labels, f"{where}: player {j} strategies")
               for j, labels in enumerate(strategies)]

    payoffs = _expect_dict(data["payoffs"], f"{where}: 'payoffs'")
    nested = []
    for j in range(n):
        key = str(j)
        if key not in payoffs:
            raise ValidationError(f"{where}: missing payoffs for player {key}")
        nested.append(_rationalize(payoffs[key], f"{where}: payoffs[{key}]",
                                   [d.size for d in domains]))
    from .game import GameSpec  # only game files need the game module

    try:
        return GameSpec.from_nested(domains, nested)
    except (ValueError, CapacityError) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _rationalize(node: Any, where: str, shape: list[int]) -> Any:
    if not shape:
        return _as_rational(node, where)
    if not isinstance(node, list) or len(node) != shape[0]:
        raise ValidationError(
            f"{where}: expected a list of length {shape[0]}")
    return [_rationalize(sub, f"{where}[{k}]", shape[1:])
            for k, sub in enumerate(node)]


def loads_function(text: str, allow_decimal: bool = False,
                   where: str = "function") -> PayoffFunction:
    data = _expect_dict(_loads(text, allow_decimal, where), where)
    if "domain" not in data or "values" not in data:
        raise ValidationError(f"{where}: needs 'domain' and 'values'")
    domain = _domain_from(data["domain"], where)
    values = _expect_dict(data["values"], f"{where}: 'values'")
    unknown = [k for k in values if k not in domain.labels]
    if unknown:
        raise ValidationError(f"{where}: unknown labels {unknown}")
    missing = [lab for lab in domain.labels if lab not in values]
    if missing:
        raise ValidationError(f"{where}: missing values for {missing}")
    return PayoffFunction(domain, tuple(
        _as_rational(values[lab], f"{where}: value for {lab!r}")
        for lab in domain.labels))


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def parse_capacity(path: str | Path, allow_decimal: bool = False) -> FiniteCapacity:
    return loads_capacity(_read(path), allow_decimal, where=str(path))


def parse_game(path: str | Path, allow_decimal: bool = False) -> GameSpec:
    return loads_game(_read(path), allow_decimal, where=str(path))


def parse_function(path: str | Path, allow_decimal: bool = False) -> PayoffFunction:
    return loads_function(_read(path), allow_decimal, where=str(path))


def _subset_keys(domain: Domain) -> list[str]:
    """Every subset's key, indexed by mask: its labels comma-joined in
    sorted order. The labels are sorted once, and each key extends the
    key of the subset without its last label by that label."""
    keys = [""] * domain.subset_count
    done = [0]
    for label in sorted(domain.labels):
        bit = 1 << domain.index_of(label)
        for mask in done:
            keys[mask | bit] = f"{keys[mask]},{label}" if mask else label
        done += [mask | bit for mask in done]
    return keys


def serialize_capacity(cap: FiniteCapacity, indent: int | None = 2) -> str:
    # Each level is formatted once, and each subset takes its rank's text.
    texts = list(map(format_rational, cap._levels))
    body = {
        "domain": list(cap.domain.labels),
        "values": dict(zip(_subset_keys(cap.domain), map(texts.__getitem__, cap._ranks))),
    }
    return json.dumps(body, indent=indent)


def _game_body(game: GameSpec) -> dict:
    def nest(player: int, prefix: list[int], axis: int):
        if axis == game.n_players:
            return format_rational(game.payoff(player, prefix))
        return [nest(player, prefix + [k], axis + 1)
                for k in range(game.sizes[axis])]

    return {
        "players": game.n_players,
        "strategies": [list(d.labels) for d in game.strategy_domains],
        "payoffs": {str(i): nest(i, [], 0) for i in range(game.n_players)},
    }


def serialize_game(game: GameSpec, indent: int | None = 2) -> str:
    return json.dumps(_game_body(game), indent=indent)


def serialize_function(func: PayoffFunction, indent: int | None = 2) -> str:
    body = {
        "domain": list(func.domain.labels),
        "values": {lab: format_rational(func.value_of(lab))
                   for lab in func.domain.labels},
    }
    return json.dumps(body, indent=indent)


def canonical_game_hash(game: GameSpec) -> str:
    """sha256 over a whitespace-free, key-sorted serialization."""
    import hashlib  # only game hashes need it

    canonical = json.dumps(_game_body(game), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
