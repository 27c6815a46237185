"""JSON file formats and the command-line front end."""

import functools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from capgames import (
    Domain,
    FiniteCapacity,
    PayoffFunction,
    ParseError,
    ValidationError,
    canonical_game_hash,
    default_correction,
    dirac_capacity,
    format_rational,
    loads_capacity,
    loads_function,
    loads_game,
    parse_capacity,
    serialize_capacity,
    serialize_function,
    serialize_game,
    sugeno_integral,
    tensor2,
    tensor_many,
    top_capacity,
)
import capgames
from capgames.cli import main
from capgames.generate import (
    SplitMix64,
    random_capacity,
    random_game,
    random_payoff_function,
)
from capgames.game import opponent_domain
from capgames.tensor import product_domain

from helpers import (
    coordination_game,
    init_loads_capacity,
    no_support_equilibrium_game,
    seeded_capacity,
    subset_key_serialize_capacity,
)

F = Fraction

AB = Domain(("a", "b"))


class TestCapacityFormat:
    def test_round_trip(self):
        cap = seeded_capacity(1, 3)
        assert loads_capacity(serialize_capacity(cap)) == cap

    def test_empty_set_keyed_by_empty_string(self):
        text = serialize_capacity(seeded_capacity(2, 2))
        data = json.loads(text)
        assert data["values"][""] == "0"

    def test_keys_are_sorted_label_joins(self):
        cap = seeded_capacity(3, 3)
        data = json.loads(serialize_capacity(cap))
        assert "a,b,c" in data["values"]
        assert data["values"]["a,b,c"] == "1"

    def test_boolean_rejected_after_an_equal_integer(self):
        # true == 1 and hash(true) == hash(1): a value parsed once per
        # distinct literal must still reject the boolean.
        text = json.dumps({"domain": ["a", "b"],
                           "values": {"": 0, "a": 1, "b": True, "a,b": 1}})
        with pytest.raises(ParseError, match="boolean is not a rational"):
            loads_capacity(text)

    def test_accepts_keys_in_any_member_order(self):
        text = json.dumps({
            "domain": ["a", "b"],
            "values": {"": "0", "a": "1/2", "b": "1/2", "b,a": "1"},
        })
        cap = loads_capacity(text)
        assert cap.value(("a", "b")) == 1

    def test_rejects_floats_by_default(self):
        text = '{"domain": ["a", "b"], "values": {"": 0.0}}'
        with pytest.raises(ParseError):
            loads_capacity(text)

    def test_decimal_opt_in_is_exact(self):
        text = json.dumps({
            "domain": ["a", "b"],
            "values": {"": 0, "a": 0.25, "b": 0.1, "a,b": 1},
        })
        cap = loads_capacity(text, allow_decimal=True)
        assert cap.value(("a",)) == F(1, 4)
        assert cap.value(("b",)) == F(1, 10)

    def test_zero_denominator_rejected(self):
        text = json.dumps({
            "domain": ["a", "b"],
            "values": {"": "0", "a": "1/0", "b": "0", "a,b": "1"},
        })
        with pytest.raises(ParseError):
            loads_capacity(text)

    def test_missing_subset_is_named(self):
        text = json.dumps({
            "domain": ["a", "b"],
            "values": {"": "0", "b": "1/2", "a,b": "1"},
        })
        with pytest.raises(ValidationError) as err:
            loads_capacity(text)
        assert "'a'" in str(err.value)

    def test_missing_empty_set_is_named(self):
        text = json.dumps({
            "domain": ["a", "b"],
            "values": {"a": "1/2", "b": "1/2", "a,b": "1"},
        })
        with pytest.raises(ValidationError) as err:
            loads_capacity(text)
        assert "empty set" in str(err.value)

    def test_duplicate_subset_rejected(self):
        text = json.dumps({
            "domain": ["a", "b"],
            "values": {"": "0", "a": "1/2", "b": "1/2", "a,b": "1", "b,a": "1"},
        })
        with pytest.raises(ValidationError) as err:
            loads_capacity(text)
        assert "repeats" in str(err.value)

    def test_unknown_label_in_key(self):
        text = json.dumps({
            "domain": ["a", "b"],
            "values": {"": "0", "a": "1", "b": "1", "a,b": "1", "c": "1"},
        })
        with pytest.raises(ValidationError):
            loads_capacity(text)

    def test_non_monotone_table_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            loads_capacity(json.dumps({
                "domain": ["a", "b", "c"],
                "values": {"": "0", "a": "3/4", "b": "0", "c": "0",
                           "a,b": "1/2", "a,c": "3/4", "b,c": "1/2",
                           "a,b,c": "1"},
            }))

    def test_oversized_domain_is_refused_before_the_values_are_read(self):
        # Listing the 2^22 missing subsets took 0.5 s and 176 MiB.
        text = json.dumps({"domain": [chr(ord("a") + k) for k in range(22)],
                           "values": {"": "0"}})
        with pytest.raises(ValidationError,
                           match="^f.json: domain has 22 points; dense tables "
                                 "stop at 20$"):
            loads_capacity(text, where="f.json")

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            loads_capacity("{nope")
        assert "line 1" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_capacity(tmp_path / "nothing.json")


@functools.cache
def _valid_values(size: int, seed: int) -> tuple[Domain, tuple[Fraction, ...]]:
    cap = seeded_capacity(seed, size)
    return cap.domain, cap.values


def _spelled(value: Fraction):
    """The value as a file may also hold it: a JSON integer for 0 and 1,
    an unreduced p/q otherwise."""
    if value.denominator == 1:
        return value.numerator
    return f"{2 * value.numerator}/{2 * value.denominator}"


class TestRankFilePath:
    """The rank-based loader and the writer against the old per-entry
    loader (validated by FiniteCapacity.__init__) and the per-subset
    writer, kept in helpers as references."""

    @pytest.mark.parametrize("size", [3, 4, 12])
    @pytest.mark.parametrize("kind", ["valid", "range", "normalization", "cover"])
    @settings(max_examples=6)
    @given(data=st.data())
    def test_loader_matches_the_init_loader(self, size, kind, data):
        domain, table = _valid_values(size, data.draw(st.integers(0, 2)))
        values = list(table)
        full = domain.full_mask
        if kind == "range":
            values[data.draw(st.integers(0, full))] = data.draw(
                st.sampled_from([F(-1, 2), F(-1, 8), F(9, 8), F(2)]))
        elif kind == "normalization":
            mask = data.draw(st.sampled_from([0, full]))
            values[mask] = data.draw(st.sampled_from(
                [F(1, 8), F(1, 2), F(1)] if mask == 0 else [F(0), F(1, 2), F(7, 8)]))
        elif kind == "cover":
            # A cover pair (small, big) below the full set, small > big.
            small = data.draw(st.sampled_from(
                [m for m in range(1, full) if m.bit_count() <= size - 2]))
            big = small | 1 << data.draw(st.sampled_from(
                [k for k in range(size) if not small >> k & 1]))
            values[big] = data.draw(st.sampled_from([F(0), F(1, 8), F(1, 2)]))
            values[small] = data.draw(st.sampled_from([F(5, 8), F(7, 8), F(1)]))
        # Not plain: every third subset keyed in reverse label order, with
        # its value spelled another way.
        plain = data.draw(st.booleans())
        items = []
        for m, v in enumerate(values):
            labels = domain.labels_of(m)
            if plain or m % 3:
                items.append((",".join(labels), format_rational(v)))
            else:
                items.append((",".join(reversed(labels)), _spelled(v)))
        random.Random(data.draw(st.integers(0, 1 << 16))).shuffle(items)
        text = json.dumps({"domain": list(domain.labels), "values": dict(items)})

        try:
            want = init_loads_capacity(text, where="f.json")
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                loads_capacity(text, where="f.json")
            assert str(got.value) == str(exc)
            phrase = {"range": "outside [0, 1]", "normalization": "must get",
                      "cover": "monotonicity violated"}[kind]
            assert phrase in str(exc)
        else:
            assert kind == "valid"
            got = loads_capacity(text, where="f.json")
            assert got == want
            assert got.values == table

    @settings(max_examples=30)
    @given(data=st.data())
    def test_writer_matches_the_reference(self, data):
        # Labels drawn in any order, so keys need sorting; tensor products
        # (built on ranks, values shared) have unsorted flat labels too.
        pool = ["b", "a", "c10", "c2", "Z", "x_y", "\u00e9", "10", "9"]
        rng = SplitMix64(data.draw(st.integers(0, 1 << 16)))
        labels = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6,
                                    unique=True))
        cap = random_capacity(Domain(tuple(labels)), rng)
        if data.draw(st.booleans()):
            right = data.draw(st.permutations(["q", "p", "r", "s"]))
            right = right[:data.draw(st.integers(1, 4))]
            cap = tensor2(random_capacity(Domain(tuple(labels[:3])), rng),
                          random_capacity(Domain(tuple(right)), rng))
        indent = data.draw(st.sampled_from([2, None, 0]))
        assert (serialize_capacity(cap, indent=indent)
                == subset_key_serialize_capacity(cap, indent=indent))


class TestGameFormat:
    def test_round_trip(self):
        game = random_game(SplitMix64(4), (2, 3))
        assert loads_game(serialize_game(game)) == game

    def test_three_player_round_trip(self):
        game = random_game(SplitMix64(5), (2, 2, 2))
        assert loads_game(serialize_game(game)) == game

    def test_players_field_validation(self):
        base = json.loads(serialize_game(coordination_game()))
        for bad in (1, "2", True, None):
            data = dict(base)
            data["players"] = bad
            with pytest.raises(ValidationError):
                loads_game(json.dumps(data))

    def test_payoff_shape_validation(self):
        data = json.loads(serialize_game(coordination_game()))
        data["payoffs"]["0"] = [["1", "0"], ["0"]]
        with pytest.raises(ValidationError):
            loads_game(json.dumps(data))

    def test_missing_player_payoffs(self):
        data = json.loads(serialize_game(coordination_game()))
        del data["payoffs"]["1"]
        with pytest.raises(ValidationError):
            loads_game(json.dumps(data))

    def test_boolean_payoff_rejected(self):
        data = json.loads(serialize_game(coordination_game()))
        data["payoffs"]["0"][0][0] = True
        with pytest.raises(ParseError):
            loads_game(json.dumps(data))

    def test_strategy_count_mismatch(self):
        data = json.loads(serialize_game(coordination_game()))
        data["strategies"] = [["A", "B"]]
        with pytest.raises(ValidationError):
            loads_game(json.dumps(data))


class TestFunctionFormat:
    def test_round_trip(self):
        func = PayoffFunction(AB, (F(-1, 2), F(3)))
        assert loads_function(serialize_function(func)) == func

    def test_unknown_label(self):
        text = json.dumps({"domain": ["a"], "values": {"a": "1", "b": "2"}})
        with pytest.raises(ValidationError):
            loads_function(text)

    def test_missing_label(self):
        text = json.dumps({"domain": ["a", "b"], "values": {"a": "1"}})
        with pytest.raises(ValidationError):
            loads_function(text)

    def test_bare_integers_allowed(self):
        text = json.dumps({"domain": ["a", "b"], "values": {"a": 2, "b": "3/4"}})
        func = loads_function(text)
        assert func.values == (F(2), F(3, 4))


class TestCanonicalHash:
    def test_stable_across_parse_cycles(self):
        game = random_game(SplitMix64(6), (2, 2))
        again = loads_game(serialize_game(game))
        assert canonical_game_hash(game) == canonical_game_hash(again)

    def test_distinguishes_games(self):
        assert canonical_game_hash(coordination_game()) != \
            canonical_game_hash(no_support_equilibrium_game())

    @pytest.mark.parametrize("make, digest", [
        (coordination_game,
         "b71ea91cc68b44bdd35641ab2c9eebed04c8d29e4a3b0140ec93f21357909fab"),
        (no_support_equilibrium_game,
         "4377ed019766adb6aee97106d6d02911e58e6a27e2b8789f4a777c620925159f"),
        (lambda: random_game(SplitMix64(6), (2, 3, 2)),
         "8f0bde5147f5626a89834a4cdc0703e54770deee534b93a49126b7f2c6f2b31f"),
    ], ids=["coordination", "no-support-equilibrium", "random-2x3x2"])
    def test_pinned_digests(self, make, digest):
        assert canonical_game_hash(make()) == digest


def _write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def coord_game_file(tmp_path):
    return _write(tmp_path, "game.json", serialize_game(coordination_game()))


class TestCli:
    def test_integrate(self, tmp_path):
        cap = seeded_capacity(7, 3)
        func = PayoffFunction(cap.domain, (F(2), F(-1), F(1, 2)))
        cap_file = _write(tmp_path, "cap.json", serialize_capacity(cap))
        fn_file = _write(tmp_path, "fn.json", serialize_function(func))
        out = tmp_path / "report.json"
        code = main(["integrate", cap_file, fn_file, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "integrate"
        want = sugeno_integral(func, cap, default_correction())
        assert report["value"] == str(want)
        assert report["config"]["psi"] == "rational-default"

    def test_integrate_stdout(self, tmp_path, capsys):
        cap = seeded_capacity(8, 2)
        func = PayoffFunction(cap.domain, (F(1), F(0)))
        cap_file = _write(tmp_path, "cap.json", serialize_capacity(cap))
        fn_file = _write(tmp_path, "fn.json", serialize_function(func))
        assert main(["integrate", cap_file, fn_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "integrate"

    def test_integrate_logit_scale(self, tmp_path, capsys):
        cap = seeded_capacity(9, 2)
        func = PayoffFunction(cap.domain, (F(1), F(0)))
        cap_file = _write(tmp_path, "cap.json", serialize_capacity(cap))
        fn_file = _write(tmp_path, "fn.json", serialize_function(func))
        assert main(["integrate", cap_file, fn_file, "--psi", "logit:2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["psi"] == "logit-2"

    def test_integrate_logit_at_levels_beyond_the_float_range(self, tmp_path, capsys):
        abc = Domain(("a", "b", "c"))
        tiny = F(1, 10**400)
        # mu({a}) = tiny and mu({a, b}) = 1 - tiny, both reached by the integral.
        cap = FiniteCapacity(abc, [
            F(1) if m == 7 else 1 - tiny if m == 3 else tiny if m & 1 else F(0)
            for m in range(8)])
        func = PayoffFunction(abc, (F(2), F(1), F(0)))
        cap_file = _write(tmp_path, "cap.json", serialize_capacity(cap))
        fn_file = _write(tmp_path, "fn.json", serialize_function(func))
        assert main(["integrate", cap_file, fn_file, "--psi", "logit"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "1"

    @pytest.mark.parametrize("scale", [str(10**400), f"1/{10**400}"],
                             ids=["1e400", "1e-400"])
    def test_integrate_logit_scale_beyond_the_float_range(self, tmp_path, capsys, scale):
        cap = FiniteCapacity(AB, [F(0), F(3, 4), F(1, 4), F(1)])
        func = PayoffFunction(AB, (F(1), F(0)))
        cap_file = _write(tmp_path, "cap.json", serialize_capacity(cap))
        fn_file = _write(tmp_path, "fn.json", serialize_function(func))
        assert main(["integrate", cap_file, fn_file, "--psi", f"logit:{scale}"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["psi"] == f"logit-{scale}"
        # The value is min(1, scale * ln 3): 1 for the huge scale, and a
        # positive rational below 1 for the tiny one.
        value = F(report["value"])
        if scale == str(10**400):
            assert value == 1
        else:
            assert 0 < value < 1

    def test_bad_psi_is_a_usage_error(self, tmp_path, capsys):
        cap = seeded_capacity(9, 2)
        func = PayoffFunction(cap.domain, (F(1), F(0)))
        cap_file = _write(tmp_path, "cap.json", serialize_capacity(cap))
        fn_file = _write(tmp_path, "fn.json", serialize_function(func))
        assert main(["integrate", cap_file, fn_file, "--psi", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_oversized_capacity_file_is_a_usage_error(self, tmp_path, capsys):
        labels = [chr(ord("a") + k) for k in range(22)]
        cap_file = _write(tmp_path, "cap.json",
                          json.dumps({"domain": labels, "values": {"": "0"}}))
        fn_file = _write(tmp_path, "fn.json", json.dumps(
            {"domain": labels, "values": {lab: "0" for lab in labels}}))
        assert main(["integrate", cap_file, fn_file]) == 2
        assert "domain has 22 points" in capsys.readouterr().err

    def test_tensor_emits_a_plain_capacity_file(self, tmp_path, capsys):
        left = seeded_capacity(10, 2)
        right = seeded_capacity(11, 2)
        f1 = _write(tmp_path, "left.json", serialize_capacity(left))
        f2 = _write(tmp_path, "right.json", serialize_capacity(right))
        assert main(["tensor", f1, f2]) == 0
        text = capsys.readouterr().out
        data = json.loads(text)
        assert "command" not in data
        assert loads_capacity(text) == tensor_many([left, right])

    def test_tensor_output_feeds_back_in(self, tmp_path):
        left = seeded_capacity(12, 2)
        right = seeded_capacity(13, 2)
        f1 = _write(tmp_path, "left.json", serialize_capacity(left))
        f2 = _write(tmp_path, "right.json", serialize_capacity(right))
        prod = tmp_path / "prod.json"
        assert main(["tensor", f1, f2, "--out", str(prod)]) == 0
        assert parse_capacity(prod) == tensor_many([left, right])

    def test_tensor_names_colliding_product_labels(self, tmp_path, capsys):
        f1 = _write(tmp_path, "left.json",
                    serialize_capacity(top_capacity(Domain(("a|b", "a")))))
        f2 = _write(tmp_path, "right.json",
                    serialize_capacity(top_capacity(Domain(("b|c", "c")))))
        assert main(["tensor", f1, f2]) == 2
        assert ("error: factor points ('a|b', 'c') and ('a', 'b|c') join to the "
                "same product label 'a|b|c'") in capsys.readouterr().err

    def test_tensor_needs_two_files(self, tmp_path, capsys):
        f1 = _write(tmp_path, "one.json", serialize_capacity(seeded_capacity(14, 2)))
        assert main(["tensor", f1]) == 2
        assert "error:" in capsys.readouterr().err

    def test_best_response(self, tmp_path, capsys):
        belief = dirac_capacity(Domain(("A", "B")), "A")
        game_file = _write(tmp_path, "game.json",
                           serialize_game(coordination_game()))
        belief_file = _write(tmp_path, "belief.json", serialize_capacity(belief))
        code = main(["best-response", game_file, "--player", "0",
                     "--belief", belief_file])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best_responses"] == ["A"]
        assert report["expected_payoffs"] == {"A": "1", "B": "0"}
        assert "game_hash" in report

    def test_check_eq_pass_and_fail(self, coord_game_file, capsys):
        assert main(["check-eq", coord_game_file, "--supports", "A;A"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["equilibrium"] is True
        assert report["supports"] == [["A"], ["A"]]

        assert main(["check-eq", coord_game_file, "--supports", "A;B"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["equilibrium"] is False

    def test_check_eq_reads_supports_against_the_labels(self, tmp_path, capsys):
        # Player 0's first strategy is labelled "x;y": the text has one
        # reading with a nonempty support per player.
        body = {"players": 2, "strategies": [["x;y", "z"], ["a", "b"]],
                "payoffs": {"0": [["1", "0"], ["0", "1"]],
                            "1": [["1", "0"], ["0", "1"]]}}
        game_file = _write(tmp_path, "semi.json", json.dumps(body))
        assert main(["check-eq", game_file, "--supports", "x;y;a"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["supports"] == [["x;y"], ["a"]]
        assert report["config"]["supports"] == "x;y;a"
        assert main(["check-eq", game_file, "--supports", "z,x;y;a,b"]) == 0
        assert json.loads(capsys.readouterr().out)["supports"] == [
            ["x;y", "z"], ["a", "b"]]
        # Text with no reading keeps the plain split's errors.
        assert main(["check-eq", game_file, "--supports", "z"]) == 2
        assert capsys.readouterr().err == "error: one support per player required\n"
        assert main(["check-eq", game_file, "--supports", "q;a"]) == 2
        assert "'q'" in capsys.readouterr().err

        # With "x" and "x;y" for player 0 and "y;a" and "a" for player 1,
        # "x;y;a" reads two ways; both are named.
        body["strategies"] = [["x", "x;y"], ["y;a", "a"]]
        game_file = _write(tmp_path, "ambiguous.json", json.dumps(body))
        assert main(["check-eq", game_file, "--supports", "x;y;a"]) == 2
        assert capsys.readouterr().err == (
            "error: supports 'x;y;a' can be read 2 ways: "
            "[['x'], ['y;a']] or [['x;y'], ['a']]\n")
        assert main(["check-eq", game_file, "--supports", "x;a"]) == 1

    def test_solve_coordination(self, coord_game_file, capsys):
        assert main(["solve", coord_game_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["profiles_scanned"] == 9
        assert report["equilibrium_count"] == 3
        assert [e["supports"] for e in report["equilibria"]] == [
            [["A"], ["A"]], [["B"], ["B"]], [["A", "B"], ["A", "B"]],
        ]

    def test_solve_exits_one_when_nothing_passes(self, tmp_path, capsys):
        game_file = _write(tmp_path, "hard.json",
                           serialize_game(no_support_equilibrium_game()))
        assert main(["solve", game_file]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["equilibrium_count"] == 0
        assert report["equilibria"] == []

    def test_solve_budget_usage_error(self, coord_game_file, capsys):
        assert main(["solve", coord_game_file, "--budget", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_convexity_defaults(self, capsys):
        assert main(["verify-convexity"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["capacities"] == 9
        assert report["passed"] is True
        assert report["binarity"]["passed"] is True
        assert report["t2"]["passed"] is True

    def test_verify_convexity_full_family(self, capsys):
        assert main(["verify-convexity", "--grid", "0,1", "--full-family"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["binarity"]["full_family_sets"] == 40

    def test_verify_convexity_four_value_three_point_space(self, capsys):
        # 571 members and 56,801 intervals: inside both budgets, and
        # answered from the lattice's cubes, with no walk over linked pairs.
        assert main(["verify-convexity", "--domain-size", "3",
                     "--grid", "0,1/3,2/3,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        binarity, t2 = report["binarity"], report["t2"]
        assert (report["capacities"], binarity["intervals"], binarity["linked_pairs"],
                binarity["triples_checked"], t2["pairs_checked"]) == (
                    571, 56_801, 470_110_828, 1_721_881_725_680, 162_735)
        assert report["passed"] and binarity["passed"] and t2["passed"]

    def test_verify_convexity_bad_grid(self, capsys):
        assert main(["verify-convexity", "--grid", "1/2,1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_convexity_member_budget_is_a_usage_error(self, capsys):
        assert main(["verify-convexity", "--domain-size", "4",
                     "--grid", "0,1/4,1/2,3/4,1"]) == 2
        assert "exhaustive budget" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-3", "21", "28", "1000000", "2000000"])
    def test_verify_convexity_refuses_a_domain_size_before_any_label(
            self, size, capsys, monkeypatch):
        from capgames import generate

        def no_labels(count):
            raise AssertionError("labels built")

        monkeypatch.setattr(generate, "_letters", no_labels)
        assert main(["verify-convexity", "--domain-size", size]) == 2
        assert capsys.readouterr().err == (
            f"error: --domain-size must lie in 1..20, got {size}\n")

    def test_verify_convexity_names_the_binarity_scan_it_refuses(self, capsys):
        # The 4-point {0, 1/2, 1} space fits the member budget (7,246) but
        # has more intervals than the binarity scan's budget.
        assert main(["verify-convexity", "--domain-size", "4"]) == 2
        err = capsys.readouterr().err
        assert "binarity scan" in err
        assert "exceed budget 60000" in err

    def test_oracle_compare(self, capsys):
        code = main(["oracle-compare", "--trials", "25", "--seed", "3",
                     "--resolution", "1/64"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["config"]["trials"] == 25

    def test_allow_decimal_only_on_commands_that_read_files(self, tmp_path, capsys):
        cap_file = _write(tmp_path, "cap.json", json.dumps(
            {"domain": ["a", "b"], "values": {"": 0, "a": 0.25, "b": 0.5, "a,b": 1}}))
        fn_file = _write(tmp_path, "fn.json", serialize_function(
            PayoffFunction(AB, (F(1), F(0)))))
        assert main(["integrate", cap_file, fn_file, "--allow-decimal"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "0"
        for argv in (["verify-convexity", "--domain-size", "1"],
                     ["oracle-compare", "--trials", "1"]):
            assert main(argv + ["--allow-decimal"]) == 2
            assert "unrecognized arguments: --allow-decimal" in capsys.readouterr().err

    def test_oracle_compare_zero_resolution_is_a_usage_error(self, capsys):
        assert main(["oracle-compare", "--trials", "1", "--resolution", "0"]) == 2
        assert "resolution must be positive" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "ghost.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_reports_differ_only_in_timestamp(self, coord_game_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", coord_game_file, "--out", str(a)]) == 0
        assert main(["solve", coord_game_file, "--out", str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("generated_at")
        db.pop("generated_at")
        assert da == db


def test_import_leaves_numpy_unloaded():
    # No module imports numpy, the convexity scans included.
    src = str(Path(capgames.__file__).resolve().parent.parent)
    code = ("import capgames, capgames.cli, sys; "
            "space = capgames.enumerate_capacities(capgames.Domain(('a', 'b')), (0, 1)); "
            "assert capgames.check_binarity(space).passed and capgames.check_t2(space).passed; "
            "assert 'numpy' not in sys.modules")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr


def test_error_text_does_not_follow_the_hash_seed(tmp_path):
    # {'a'} exceeds {'a', 'c'}; a set's repr would order the two labels
    # by the string hash seed, which differs from process to process.
    values = {"": "0", "a": "1/2", "b": "0", "a,b": "1/2", "c": "0", "a,c": "0",
              "b,c": "0", "a,b,c": "1"}
    cap = _write(tmp_path, "cap.json",
                 json.dumps({"domain": ["a", "b", "c"], "values": values}))
    fn = _write(tmp_path, "fn.json", serialize_function(
        PayoffFunction(Domain(("a", "b", "c")), (F(1), F(2), F(3)))))
    src = str(Path(capgames.__file__).resolve().parent.parent)
    outcomes = set()
    for seed in ("1", "2", "3", "4"):
        run = subprocess.run(
            [sys.executable, "-m", "capgames.cli", "integrate", cap, fn],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        outcomes.add((run.returncode, run.stderr))
    assert outcomes == {(2, f"error: {cap}: monotonicity violated: value 1/2 on "
                            "{'a'} exceeds value 0 on {'a', 'c'}\n")}


# Modules a cold command could load for nothing: `dataclasses` (which
# imports `inspect`) and `numpy.ma` each cost 8-16 ms with no bytecode
# cache, and numpy, which imports `inspect` itself, more.
WATCHED = ("numpy", "numpy.ma", "dataclasses", "inspect")


def _cold_run(args: list[str], cwd) -> tuple[int, set[str]]:
    """Run one command through `main` in a fresh interpreter; return its
    exit code and the capgames modules it loaded, with those of WATCHED."""
    src = str(Path(capgames.__file__).resolve().parent.parent)
    code = ("import json, sys; from capgames.cli import main; "
            f"code = main({args!r}); "
            "print(json.dumps([code, sorted(m for m in sys.modules "
            f"if m.startswith('capgames.') or m in {WATCHED!r})]))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    exit_code, modules = json.loads(run.stdout.splitlines()[-1])
    return exit_code, {m.removeprefix("capgames.") for m in modules}


def test_tensor_command_leaves_numpy_unloaded(tmp_path):
    # The rank kernel of tensor2 is plain Python: a cold `tensor` command
    # never pays for numpy.
    left, right = seeded_capacity(15, 3), seeded_capacity(16, 4)
    f1 = _write(tmp_path, "left.json", serialize_capacity(left))
    f2 = _write(tmp_path, "right.json", serialize_capacity(right))
    out = str(tmp_path / "product.json")
    code, modules = _cold_run(["tensor", f1, f2, "--out", out], tmp_path)
    assert code == 0
    assert "numpy" not in modules, "numpy was imported"
    assert parse_capacity(out) == tensor_many([left, right])


# Every command loads these: the modules `main` needs to report any error,
# and the Sugeno layer, which every command evaluates or builds on.
BASE = {"cli", "capacity", "io", "rational", "sugeno"}
GAME = BASE | {"game", "tensor"}

# The command shapes of the benchmark's cli workload, in its order, with
# the exit code and the modules each one loads.
COLD_COMMANDS = [
    (["integrate", "cap4.json", "fun4.json"], 0, BASE),
    (["integrate", "cap5.json", "fun5.json", "--psi", "logit"], 0, BASE),
    (["tensor", "left.json", "right.json", "--out", "product.json"], 0, BASE | {"tensor"}),
    (["integrate", "product.json", "fprod.json"], 0, BASE),
    (["best-response", "game1.json", "--player", "0", "--belief", "belief1.json"], 0, GAME),
    (["best-response", "game3.json", "--player", "0", "--belief", "belief3.json"], 0, GAME),
    (["check-eq", "coord.json", "--supports", "A;A"], 0, GAME | {"equilibrium"}),
    (["check-eq", "coord.json", "--supports", "A,B;B"], 1, GAME | {"equilibrium"}),
    (["solve", "coord.json"], 0, GAME | {"equilibrium"}),
    (["solve", "empty.json"], 1, GAME | {"equilibrium"}),
    (["verify-convexity", "--domain-size", "2"], 0, BASE | {"convexity", "generate"}),
    (["oracle-compare", "--trials", "5", "--seed", "7"], 0, BASE | {"generate"}),
]


@pytest.fixture(scope="module")
def cold_inputs(tmp_path_factory):
    where = tmp_path_factory.mktemp("cold")
    rng = SplitMix64(7)
    for size in (4, 5):
        dom = Domain(tuple("abcde"[:size]))
        _write(where, f"cap{size}.json", serialize_capacity(random_capacity(dom, rng)))
        _write(where, f"fun{size}.json",
               serialize_function(random_payoff_function(dom, rng)))
    left, right = Domain(("a", "b", "c")), Domain(("p", "q", "r", "s"))
    _write(where, "left.json", serialize_capacity(random_capacity(left, rng)))
    _write(where, "right.json", serialize_capacity(random_capacity(right, rng)))
    flat = product_domain([left, right]).flat
    _write(where, "fprod.json", serialize_function(random_payoff_function(flat, rng)))
    for k, sizes in ((1, (2, 3)), (3, (2, 2, 2))):
        game = random_game(rng, sizes)
        _write(where, f"game{k}.json", serialize_game(game))
        opp = opponent_domain(game, 0).flat
        _write(where, f"belief{k}.json", serialize_capacity(random_capacity(opp, rng)))
    _write(where, "coord.json", serialize_game(coordination_game()))
    _write(where, "empty.json", serialize_game(no_support_equilibrium_game()))
    return where


def test_each_command_loads_only_the_modules_it_runs(cold_inputs):
    # In command order, so that `integrate` reads the product `tensor` wrote.
    # Only verify-convexity loads the convexity scans, only check-eq and
    # solve the equilibrium search, and no command but the game commands
    # loads the game layer. No command loads numpy, dataclasses or
    # inspect.
    for args, want_code, want in COLD_COMMANDS:
        code, modules = _cold_run(args, cold_inputs)
        assert (code, modules) == (want_code, want), args
