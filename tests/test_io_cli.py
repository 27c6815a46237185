"""JSON file formats and the command-line front end."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from capgames import (
    Domain,
    FiniteCapacity,
    PayoffFunction,
    ParseError,
    ValidationError,
    canonical_game_hash,
    default_correction,
    dirac_capacity,
    loads_capacity,
    loads_function,
    loads_game,
    parse_capacity,
    serialize_capacity,
    serialize_function,
    serialize_game,
    sugeno_integral,
    tensor_many,
)
import capgames
from capgames.cli import main
from capgames.generate import SplitMix64, random_game

from helpers import (
    coordination_game,
    no_support_equilibrium_game,
    seeded_capacity,
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

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            loads_capacity("{nope")
        assert "line 1" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_capacity(tmp_path / "nothing.json")


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

    def test_verify_convexity_bad_grid(self, capsys):
        assert main(["verify-convexity", "--grid", "1/2,1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_convexity_member_budget_is_a_usage_error(self, capsys):
        assert main(["verify-convexity", "--domain-size", "4",
                     "--grid", "0,1/4,1/2,3/4,1"]) == 2
        assert "exhaustive budget" in capsys.readouterr().err

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
    # numpy is imported only inside the convexity scans.
    src = str(Path(capgames.__file__).resolve().parent.parent)
    code = "import capgames, capgames.cli, sys; assert 'numpy' not in sys.modules"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr


def test_tensor_command_leaves_numpy_unloaded(tmp_path):
    # The rank kernel of tensor2 is plain Python: a cold `tensor` command
    # never pays for numpy.
    left, right = seeded_capacity(15, 3), seeded_capacity(16, 4)
    f1 = _write(tmp_path, "left.json", serialize_capacity(left))
    f2 = _write(tmp_path, "right.json", serialize_capacity(right))
    out = str(tmp_path / "product.json")
    src = str(Path(capgames.__file__).resolve().parent.parent)
    code = ("import sys; from capgames.cli import main; "
            f"assert main(['tensor', {f1!r}, {f2!r}, '--out', {out!r}]) == 0; "
            "assert 'numpy' not in sys.modules, 'numpy was imported'")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert parse_capacity(out) == tensor_many([left, right])
