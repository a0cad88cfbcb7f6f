import copy
import hashlib
import json
import time

import pytest
from click.testing import CliRunner

from ringmpc.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


class TestRun:
    def test_sum_config(self, runner, tmp_path):
        cfg = write_config(tmp_path, "sum.json",
                           {"protocol": "secure_sum", "inputs": [3, 5, 7], "seed": 7})
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 0
        assert json.loads(result.output)["outcome"] == {"sum": "15"}

    def test_modular_product_config(self, runner, tmp_path):
        cfg = write_config(tmp_path, "prod.json", {
            "protocol": "secure_product", "inputs": [2, 3, 4],
            "ring": {"ring": "Zm", "m": 7}, "seed": 1,
        })
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 0
        assert json.loads(result.output)["outcome"] == {"product": "3"}

    def test_seed_option_overrides_the_config_seed(self, runner, tmp_path):
        cfg = write_config(tmp_path, "sum.json",
                           {"protocol": "secure_sum", "inputs": [3, 5, 7], "seed": 7})
        out = str(tmp_path / "sum.jsonl")
        result = runner.invoke(main, ["run", cfg, "--seed", "42", "--out", out])
        assert result.exit_code == 0, result.output
        header = json.loads(open(out).readline())
        assert header["meta"]["seed"] == 42

    def test_path_topology_exits_3(self, runner, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {
            "protocol": "secure_sum", "inputs": [1, 2, 3],
            "topology": {"k": 3, "edges": [[0, 1, "secure"], [1, 2, "secure"]]},
        })
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 3

    def test_unknown_protocol_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"protocol": "nope", "inputs": []})
        assert runner.invoke(main, ["run", cfg]).exit_code == 2

    def test_invalid_json_exits_2(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert runner.invoke(main, ["run", str(path)]).exit_code == 2

    def test_big_integers_survive_the_decimal_encoding(self, runner, tmp_path):
        big = 10**40 + 7
        cfg = write_config(tmp_path, "big.json", {
            "protocol": "secure_sum", "inputs": [str(big), "1", "2"],
            "ring": {"ring": "Z", "noise_bound": 1000000}, "seed": 3,
        })
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 0
        assert json.loads(result.output)["outcome"]["sum"] == str(big + 3)


class TestReplay:
    def make_transcript(self, runner, tmp_path, body=None):
        cfg = write_config(tmp_path, "sum.json", body or {
            "protocol": "secure_sum", "inputs": [3, 5, 7], "seed": 7,
        })
        out = str(tmp_path / "t.jsonl")
        result = runner.invoke(main, ["run", cfg, "--out", out])
        assert result.exit_code == 0
        return out

    def test_untouched_transcript_verifies(self, runner, tmp_path):
        out = self.make_transcript(runner, tmp_path)
        result = runner.invoke(main, ["replay", out])
        assert result.exit_code == 0 and "verified" in result.output

    def test_flipped_payload_pinpointed(self, runner, tmp_path):
        out = self.make_transcript(runner, tmp_path)
        lines = open(out).read().strip().split("\n")
        record = json.loads(lines[2])
        record["payload"] = str(int(record["payload"]) + 1)
        lines[2] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        open(out, "w").write("\n".join(lines) + "\n")
        result = runner.invoke(main, ["replay", out])
        assert result.exit_code == 4
        assert f"seq {record['seq']}" in result.output

    @pytest.mark.parametrize("seq", ["true", "1.0"])
    def test_a_seq_that_is_not_an_integer_exits_4(self, runner, tmp_path, seq):
        out = self.make_transcript(runner, tmp_path)
        text = open(out).read()
        open(out, "w").write(text.replace('"seq":1,', f'"seq":{seq},'))
        result = runner.invoke(main, ["replay", out])
        assert result.exit_code == 4
        assert "first divergence at line 3" in result.output

    def test_line_that_is_not_an_object_exits_2(self, runner, tmp_path):
        out = self.make_transcript(runner, tmp_path)
        with open(out, "a") as f:
            f.write("5\n")
        result = runner.invoke(main, ["replay", out])
        assert result.exit_code == 2
        assert "line" in result.output and "not an object" in result.output

    def test_truncated_file_is_an_error_not_a_divergence(self, runner, tmp_path):
        out = self.make_transcript(runner, tmp_path)
        text = open(out).read()
        open(out, "w").write(text[: len(text) // 2].rsplit("\n", 1)[0][:-4])
        result = runner.invoke(main, ["replay", out])
        assert result.exit_code == 2

    @pytest.mark.parametrize("body", [
        {"protocol": "secure_rating", "inputs": [2, 4, 6], "seed": 5},
        {"protocol": "sum_of_powers", "inputs": [1, 2, 3], "seed": 5,
         "params": {"exponent": 2}},
        {"protocol": "example_f2", "inputs": [2, 3, 4], "seed": 5,
         "params": {"g": "square"}, "ring": {"ring": "Zm", "m": 11}},
        {"protocol": "millionaires_bitwise", "inputs": [5, 3], "seed": 5,
         "params": {"bit_width": 4}},
        {"protocol": "commit3", "inputs": [1, 0, 1], "seed": 5,
         "ring": {"ring": "Zm", "m": 2}},
        {"protocol": "ot_dummy", "seed": 5,
         "inputs": {"messages": [10, 20, 30], "indices": [1, 3]}},
        {"protocol": "card_deal", "seed": 5, "inputs": [],
         "params": {"r": 8, "k": 3, "N": 3, "with_labels": True}},
        {"protocol": "share_secret_kk", "inputs": [100], "seed": 5,
         "params": {"k": 3}},
    ])
    def test_round_trip_for_each_protocol(self, runner, tmp_path, body):
        out = self.make_transcript(runner, tmp_path, body)
        result = runner.invoke(main, ["replay", out])
        assert result.exit_code == 0, result.output


class TestVerify:
    def test_named_check_passes(self, runner, tmp_path):
        spec = write_config(tmp_path, "spec.json", {
            "checks": ["commit2_dummy/Z_2/D learns only n1+n2"],
        })
        result = runner.invoke(main, ["verify", "--spec", spec])
        assert result.exit_code == 0
        assert result.output.startswith("PASS")

    def test_unknown_check_exits_2(self, runner, tmp_path):
        spec = write_config(tmp_path, "spec.json", {"checks": ["bogus"]})
        assert runner.invoke(main, ["verify", "--spec", spec]).exit_code == 2

    def test_list_mode(self, runner):
        result = runner.invoke(main, ["verify", "--list"])
        assert result.exit_code == 0
        assert len(result.output.strip().split("\n")) == 24

    def test_budget_option_too_small_exits_2_naming_the_check(self, runner):
        result = runner.invoke(main, ["verify", "--budget", "10"])
        assert result.exit_code == 2, result.output
        [error] = [ln for ln in result.output.split("\n") if ln.startswith("error:")]
        assert "secure_sum/Z_2/k=3/P1 learns only the others' total" in error
        assert "64 runs" in error

    def test_budget_in_spec_file_too_small_exits_2(self, runner, tmp_path):
        spec = write_config(tmp_path, "spec.json", {"budget": 5})
        result = runner.invoke(main, ["verify", "--spec", spec])
        assert result.exit_code == 2, result.output
        [error] = [ln for ln in result.output.split("\n") if ln.startswith("error:")]
        assert "64 runs" in error and "budget is 5" in error

    @pytest.mark.parametrize("budget", [True, 16.9, "64"])
    def test_budget_that_is_not_a_json_integer_exits_2(self, runner, tmp_path, budget):
        spec = write_config(tmp_path, "spec.json", {
            "checks": ["commit2_dummy/Z_2/D learns only n1+n2"], "budget": budget})
        result = runner.invoke(main, ["verify", "--spec", spec])
        assert result.exit_code == 2, result.output
        [error] = [ln for ln in result.output.split("\n") if ln.startswith("error:")]
        assert "'budget'" in error

    def test_empty_selection_exits_2(self, runner, tmp_path):
        spec = write_config(tmp_path, "spec.json", {"checks": []})
        result = runner.invoke(main, ["verify", "--spec", spec])
        assert result.exit_code == 2, result.output
        [error] = [ln for ln in result.output.split("\n") if ln.startswith("error:")]
        assert "'checks'" in error

    def test_failed_check_exits_1_naming_both_targets(self, runner, monkeypatch):
        from dataclasses import replace

        from ringmpc import analysis

        [spec] = analysis.suite_by_name(["commit2_dummy/Z_2/D learns only n1+n2"])
        leak = replace(spec, given=None)  # D sees n1+n2, which the claim no longer concedes
        ce = analysis.secrecy_enumeration_check(leak).counterexample
        monkeypatch.setattr(analysis, "suite_by_name", lambda names, budget: [leak])
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 1, result.output
        [line] = result.output.strip().split("\n")
        assert line.startswith(f"FAIL  {spec.name}  (16 runs): ")
        assert f"targets {ce.target_a!r} vs {ce.target_b!r}" in line

    @pytest.mark.parametrize("checks", [[["a"]], [{"x": 1}], "abc", 5, ["ok", 1]])
    def test_checks_that_are_not_a_list_of_strings_exit_2(self, runner, tmp_path, checks):
        spec = write_config(tmp_path, "spec.json", {"checks": checks})
        result = runner.invoke(main, ["verify", "--spec", spec])
        assert result.exit_code == 2, result.output
        [error] = [ln for ln in result.output.split("\n") if ln.startswith("error:")]
        assert "'checks'" in error and "list of strings" in error


class TestDeal:
    def test_52_cards(self, runner):
        result = runner.invoke(main, ["deal", "--cards", "52", "--players", "3",
                                      "--seed", "2"])
        assert result.exit_code == 0
        body = json.loads(result.output)
        assert sorted(len(h) for h in body["hands"]) == [17, 17, 18]
        assert sorted(int(c) for c in body["labels"]) == list(range(1, 53))

    def test_two_player_mode(self, runner):
        result = runner.invoke(main, ["deal", "--cards", "6", "--players", "2",
                                      "--counter-bound", "4", "--seed", "1",
                                      "--dummies", "two-player"])
        assert result.exit_code == 0
        body = json.loads(result.output)
        assert len(body["real_hands"]) == 2
        assert len(body["discarded"]) == 2

    def test_dealer_mode(self, runner):
        result = runner.invoke(main, ["deal", "--cards", "52", "--players", "2",
                                      "--per-player", "17", "--seed", "1"])
        assert result.exit_code == 0
        body = json.loads(result.output)
        assert len(body["residual"]) == 18

    def test_an_unknown_dummies_mode_exits_2(self, runner):
        result = runner.invoke(main, ["deal", "--cards", "6", "--players", "3",
                                      "--dummies", "bogus", "--seed", "1"])
        assert result.exit_code == 2
        assert "Invalid value for '--dummies'" in result.output

    def test_auto_dummies_without_a_hand_size_exits_2(self, runner):
        result = runner.invoke(main, ["deal", "--cards", "6", "--players", "3",
                                      "--dummies", "auto", "--seed", "1"])
        assert result.exit_code == 2
        assert "--dummies auto needs --per-player" in result.output

    def test_a_two_player_deal_to_seven_players_exits_2(self, runner):
        result = runner.invoke(main, ["deal", "--cards", "6", "--players", "7",
                                      "--dummies", "two-player", "--seed", "1"])
        assert result.exit_code == 2
        assert "deals to 2 players, not --players 7" in result.output

    def test_a_two_player_deal_with_a_hand_size_exits_2(self, runner):
        # --per-player was ignored: the deal exited 0 with 2 cards each.
        result = runner.invoke(main, ["deal", "--cards", "6", "--players", "2",
                                      "--dummies", "two-player", "--per-player", "3"])
        assert result.exit_code == 2
        assert "--dummies two-player deals even hands; it takes no --per-player" in result.output


class TestShareReconstruct:
    def test_round_trip(self, runner, tmp_path):
        shares = str(tmp_path / "shares.json")
        result = runner.invoke(main, ["share", "--secret", "12345", "--players", "4",
                                      "--seed", "3", "--out", shares])
        assert result.exit_code == 0
        result = runner.invoke(main, ["reconstruct", "--shares", shares])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"secret": "12345"}

    def test_modular_round_trip(self, runner, tmp_path):
        shares = str(tmp_path / "shares.json")
        runner.invoke(main, ["share", "--secret", "5", "--players", "3",
                             "--modulus", "7", "--out", shares])
        result = runner.invoke(main, ["reconstruct", "--shares", shares])
        assert json.loads(result.output) == {"secret": "5"}

    def test_bad_shares_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert runner.invoke(main, ["reconstruct", "--shares", str(path)]).exit_code == 2


class TestCommitFlow:
    def test_commit_then_decommit(self, runner, tmp_path):
        state = str(tmp_path / "c3.json")
        result = runner.invoke(main, ["commit3", "--values", "3,4,5",
                                      "--modulus", "10", "--seed", "1",
                                      "--state", state])
        assert result.exit_code == 0
        assert json.loads(result.output)["phase"] == "committed"
        result = runner.invoke(main, ["decommit3", "--state", state])
        assert result.exit_code == 0
        assert json.loads(result.output)["P1"] == ["3", "4", "5"]

    def test_tampered_reveal_exits_4(self, runner, tmp_path):
        state = str(tmp_path / "c3.json")
        runner.invoke(main, ["commit3", "--values", "1,0,1", "--modulus", "2",
                             "--seed", "2", "--state", state])
        # one of the two bit values differs from the honest reveal and must
        # trigger detection; the other is the honest value and passes
        codes = set()
        for value in ("0", "1"):
            result = runner.invoke(main, ["decommit3", "--state", state,
                                          "--tamper", f"s2+s3 reveal={value}"])
            codes.add(result.exit_code)
        assert codes == {0, 4}

    def test_edited_state_rejected(self, runner, tmp_path):
        state = str(tmp_path / "c3.json")
        runner.invoke(main, ["commit3", "--values", "3,4,5", "--modulus", "10",
                             "--seed", "1", "--state", state])
        body = json.loads(open(state).read())
        body["values"] = ["9", "4", "5"]
        open(state, "w").write(json.dumps(body))
        assert runner.invoke(main, ["decommit3", "--state", state]).exit_code == 2

    def test_commit2(self, runner):
        result = runner.invoke(main, ["commit2", "--values", "1,0", "--modulus", "2"])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"A learns n2": "0", "B learns n1": "1"}
        result = runner.invoke(main, ["commit2", "--values", "1,0", "--modulus", "2",
                                      "--tamper", "n1+n2 to A=0"])
        assert result.exit_code == 4


class TestOT:
    def test_retrieval(self, runner):
        result = runner.invoke(main, ["ot", "--messages", "10,20,30",
                                      "--indices", "1,3", "--seed", "1"])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"retrieved": ["10", "30"]}

    def test_bad_index_exits_2(self, runner):
        result = runner.invoke(main, ["ot", "--messages", "10,20", "--indices", "5"])
        assert result.exit_code == 2


class TestConfigErrors:
    @pytest.mark.parametrize("body, field", [
        ([1, 2], "JSON object"),
        ({"protocol": "secure_sum", "inputs": [1, 2, 3], "ring": "Z"}, "'ring'"),
        ({"protocol": "card_deal", "inputs": [], "params": {"r": 8, "k": 3}},
         "'params' is missing 'N'"),
        ({"protocol": "ot_dummy", "inputs": [10, 20]}, "'inputs'"),
    ], ids=["not an object", "ring string", "card_deal without N", "ot_dummy list inputs"])
    def test_exit_2_naming_the_field(self, runner, tmp_path, body, field):
        result = runner.invoke(main, ["run", write_config(tmp_path, "bad.json", body)])
        assert result.exit_code == 2
        assert field in result.output

    def test_consolidation_at_a_real_player_exits_3(self, runner, tmp_path):
        cfg = write_config(tmp_path, "deal.json", {
            "protocol": "card_deal", "inputs": [],
            "params": {"r": 8, "k": 3, "N": 3, "consolidate_to": 1},
        })
        assert runner.invoke(main, ["run", cfg]).exit_code == 3

    def test_deal_with_a_huge_counter_bound_exits_2_at_once(self, runner, tmp_path):
        from test_view_digests import CONFIGS

        body = copy.deepcopy(CONFIGS["card_deal"])
        body["params"]["N"] = 10**30
        start = time.perf_counter()
        result = runner.invoke(main, ["run", write_config(tmp_path, "deal.json", body)])
        assert result.exit_code == 2
        assert time.perf_counter() - start < 1
        assert "N=" in result.output and "k=3" in result.output and "r=8" in result.output

    def test_a_comparison_wider_than_the_bound_exits_2_at_once_on_run_and_replay(
            self, runner, tmp_path):
        from ringmpc.arithmetic import MAX_BIT_WIDTH

        body = {"protocol": "millionaires_bitwise", "inputs": ["0", "0"],
                "params": {"bit_width": 4}}
        out = tmp_path / "bits.jsonl"
        assert runner.invoke(main, ["run", write_config(tmp_path, "bits.json", body),
                                    "--out", str(out)]).exit_code == 0
        text = out.read_text().replace('"bit_width":"4"', f'"bit_width":"{MAX_BIT_WIDTH + 1}"')
        (tmp_path / "wide.jsonl").write_text(text)
        body["params"]["bit_width"] = MAX_BIT_WIDTH + 1
        wide = write_config(tmp_path, "wide.json", body)
        for args in (["run", wide], ["replay", str(tmp_path / "wide.jsonl")]):
            start = time.perf_counter()
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert time.perf_counter() - start < 1
            assert f"bit_width {MAX_BIT_WIDTH + 1} is above the bound" in result.output

    @pytest.mark.parametrize("case", ["sum parties", "distribute_shares k", "share_secret_kk k"])
    def test_a_config_above_a_size_bound_exits_2_at_once_on_run_and_replay(
            self, runner, tmp_path, case):
        from ringmpc.sharing import MAX_SHARE_PLAYERS
        from ringmpc.topology import MAX_PARTIES

        def parties_k(meta):  # a graph of default parties: the protocol's own, of k players
            meta["params"]["k"] = MAX_PARTIES + 1
            del meta["topology"]

        body, edit, message = {
            "sum parties": ({"protocol": "secure_sum", "inputs": ["1", "2", "3"]},
                            lambda meta: meta.update(topology={"cycle": MAX_PARTIES + 1}),
                            f"a graph of {MAX_PARTIES + 1} parties is above the bound"),
            "distribute_shares k": ({"protocol": "distribute_shares", "inputs": ["5"]},
                                    parties_k,
                                    f"a graph of {MAX_PARTIES + 1} parties is above the bound"),
            "share_secret_kk k": ({"protocol": "share_secret_kk", "inputs": ["5"]},
                                  lambda meta: meta["params"].update(k=MAX_SHARE_PLAYERS + 1),
                                  f"k={MAX_SHARE_PLAYERS + 1} is above the bound"),
        }[case]
        out = tmp_path / "small.jsonl"
        assert runner.invoke(main, ["run", write_config(tmp_path, "small.json", body),
                                    "--out", str(out)]).exit_code == 0
        header, body_lines = out.read_text().split("\n", 1)
        meta = json.loads(header)["meta"]
        edit(meta)
        (tmp_path / "big.jsonl").write_text(json.dumps({"meta": meta}) + "\n" + body_lines)
        for args in (["run", write_config(tmp_path, "big.json", meta)],
                     ["replay", str(tmp_path / "big.jsonl")]):
            start = time.perf_counter()
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert time.perf_counter() - start < 1
            assert message in result.output

    def test_a_post_draw_to_a_dummy_exits_3_before_the_deal(self, runner, tmp_path):
        from ringmpc.poker import dealer_graph

        cfg = write_config(tmp_path, "deal.json", {
            "protocol": "card_deal", "inputs": [],
            "params": {"r": 10, "k": 5, "N": 2, "quotas": [2, 2, 2, 2, 2],
                       "counter_contributors": [0, 1], "consolidate_to": 3,
                       "post_draws": [[4, 1]]},
            "topology": dealer_graph(3, 2).to_config(),
        })
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 3
        assert result.output == ("error: post draw to party 4: the dealer serves real players "
                                 "only\n")

    def test_more_post_draws_than_the_residual_exit_2_before_the_deal(self, runner, tmp_path,
                                                                      monkeypatch):
        from ringmpc.poker import CardDeal, dealer_graph

        cfg = write_config(tmp_path, "deal.json", {
            "protocol": "card_deal", "inputs": [],
            "params": {"r": 10, "k": 5, "N": 2, "quotas": [2, 2, 2, 2, 2],
                       "counter_contributors": [0, 1], "consolidate_to": 3,
                       "post_draws": [[0, 99]]},
            "topology": dealer_graph(3, 2).to_config(),
        })
        monkeypatch.setattr(CardDeal, "program", lambda self, run: pytest.fail("the deal ran"))
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 2
        assert result.output == "error: dealer has no residual cards left\n"

    def test_post_draws_without_a_dealer_exit_2(self, runner, tmp_path):
        # Only a dealer serves post draws; without consolidate_to none would be served.
        cfg = write_config(tmp_path, "deal.json", {
            "protocol": "card_deal", "inputs": [],
            "params": {"r": 3, "k": 3, "N": 2, "post_draws": [[0, 1]]},
        })
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 2
        assert "post_draws" in result.output and "consolidate_to" in result.output

    def test_odd_party_names_run_and_replay(self, runner, tmp_path):
        body = {"protocol": "secure_sum", "inputs": [1, 2, 3], "seed": 1,
                "topology": {"k": 3, "parties": [{"name": n} for n in ("P%d", 'P"2\\', "Pé%s")],
                             "edges": [[0, 1, "secure"], [1, 2, "secure"], [0, 2, "secure"]]}}
        out = str(tmp_path / "t.jsonl")
        assert runner.invoke(main, ["run", write_config(tmp_path, "names.json", body),
                                    "--out", out]).exit_code == 0
        result = runner.invoke(main, ["replay", out])
        assert result.exit_code == 0, result.output

    NAMES = {"protocol": "secure_sum", "inputs": [1, 2, 3], "seed": 1,
             "topology": {"k": 3, "parties": [{"name": 1}, {"name": 2.5}, {"name": None}],
                          "edges": [[0, 1, "secure"], [1, 2, "secure"], [0, 2, "secure"]]}}

    def test_non_string_party_names_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["run", write_config(tmp_path, "names.json", self.NAMES)])
        assert result.exit_code == 2
        assert "party 0 is named 1" in result.output

    def test_replaying_a_header_that_names_a_party_1_exits_2(self, runner, tmp_path):
        body = copy.deepcopy(self.NAMES)
        for i, party in enumerate(body["topology"]["parties"]):
            party["name"] = f"P{i + 1}"
        out = str(tmp_path / "t.jsonl")
        assert runner.invoke(main, ["run", write_config(tmp_path, "sum.json", body),
                                    "--out", out]).exit_code == 0
        lines = open(out).read().split("\n")
        head = json.loads(lines[0])
        head["meta"]["topology"]["parties"][0]["name"] = 1
        lines[0] = json.dumps(head, sort_keys=True, separators=(",", ":"))
        open(out, "w").write("\n".join(lines))
        result = runner.invoke(main, ["replay", out])
        assert result.exit_code == 2
        assert "party 0 is named 1" in result.output

    def test_replaying_a_custom_g_run_exits_2(self, runner, tmp_path):
        from ringmpc.arithmetic import ExampleF2
        from ringmpc.engine import run
        from ringmpc.ring import mod_ring

        _, t = run(ExampleF2(mod_ring(11), lambda x: x + 1), None, (2, 3, 4), seed=1)
        path = tmp_path / "custom.jsonl"
        path.write_text(t.serialize())
        result = runner.invoke(main, ["replay", str(path)])
        assert result.exit_code == 2
        assert "caller-supplied g" in result.output


class TestValuesTooLongToWrite:
    NINES = "9" * 4300  # the longest int Python writes as a decimal by default

    @pytest.mark.parametrize("body, fault", [
        ({"protocol": "secure_sum", "inputs": [NINES, NINES, "1"]}, "too long to write"),
        ({"protocol": "secure_product", "inputs": [NINES, NINES, "1"]}, "too long to write"),
        ({"protocol": "sum_of_powers", "inputs": ["3", "1", "2"], "params": {"exponent": 10000}},
         "too long to write"),
        ({"protocol": "sum_of_powers", "inputs": ["3", "1", "2"],
          "params": {"exponent": 1000000000}},
         "exponent 1000000000 on inputs of 2 bits gives powers above the bound"),
    ], ids=["sum", "product", "powers 10^4", "powers 10^9"])
    def test_run_exits_2(self, runner, tmp_path, body, fault):
        start = time.perf_counter()
        result = runner.invoke(main, ["run", write_config(tmp_path, "big.json", body)])
        assert result.exit_code == 2, result.output
        assert time.perf_counter() - start < 1
        assert fault in result.output

    def test_a_transcript_too_long_to_write_exits_2_and_writes_no_file(self, runner, tmp_path):
        # The sum, 1, writes; P1's masked input, the nines plus its noise, has 4,301 digits.
        cfg = write_config(tmp_path, "sum.json", {
            "protocol": "secure_sum", "inputs": [self.NINES, "-" + self.NINES, "1"], "seed": 1})
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 0
        assert json.loads(result.output)["outcome"] == {"sum": "1"}
        out = tmp_path / "sum.jsonl"
        result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 2
        assert result.output.startswith("error: a value too long to write as a decimal: ")
        assert not out.exists()


class TestCommandInputErrors:
    def test_verify_budget_that_is_not_an_integer(self, runner, tmp_path):
        spec = write_config(tmp_path, "spec.json", {"checks": [], "budget": "x"})
        result = runner.invoke(main, ["verify", "--spec", spec])
        assert result.exit_code == 2
        assert "'budget'" in result.output

    def test_shares_that_are_not_a_list(self, runner, tmp_path):
        path = write_config(tmp_path, "shares.json", {"shares": 5})
        result = runner.invoke(main, ["reconstruct", "--shares", path])
        assert result.exit_code == 2
        assert "'shares'" in result.output

    def test_tamper_without_a_value(self, runner, tmp_path):
        state = str(tmp_path / "c3.json")
        runner.invoke(main, ["commit3", "--values", "1,0,1", "--state", state])
        result = runner.invoke(main, ["decommit3", "--state", state, "--tamper", "r1 reveal"])
        assert result.exit_code == 2

    def test_share_modulus_0_is_not_the_integers(self, runner):
        result = runner.invoke(main, ["share", "--secret", "5", "--modulus", "0"])
        assert result.exit_code == 2
        assert "modulus" in result.output

    def test_ot_modulus_0_is_not_the_integers(self, runner):
        result = runner.invoke(main, ["ot", "--messages", "10,20,30", "--indices", "1",
                                      "--modulus", "0"])
        assert result.exit_code == 2
        assert "modulus" in result.output

    def test_tamper_with_an_unknown_label(self, runner):
        result = runner.invoke(main, ["commit2", "--values", "1,0", "--tamper", "bogus=1"])
        assert result.exit_code == 2
        assert "n1+n2 to A" in result.output

    @pytest.mark.parametrize("number", ["--5", "\u00b2"])
    def test_tamper_with_a_value_that_is_not_an_integer(self, runner, tmp_path, number):
        state = str(tmp_path / "c3.json")
        runner.invoke(main, ["commit3", "--values", "1,0,1", "--state", state])
        for args in (["decommit3", "--state", state, "--tamper", f"r1 reveal={number}"],
                     ["commit2", "--values", "1,0", "--tamper", f"n1+n2 to A={number}"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert "label=integer" in result.output

    # A string or an object where a list is expected would be read a digit or a key at a time.
    @pytest.mark.parametrize("inputs", ["123", {"1": 0, "2": 0, "3": 0}])
    def test_inputs_that_are_not_a_list(self, runner, tmp_path, inputs):
        cfg = write_config(tmp_path, "sum.json", {"protocol": "secure_sum", "inputs": inputs})
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 2
        assert "'inputs'" in result.output

    @pytest.mark.parametrize("inputs", [
        {"messages": "345", "indices": "13"},
        {"messages": [3, 4, 5], "indices": "13"},
        {"messages": {"3": 0, "4": 0, "5": 0}, "indices": [1]},
        "34",
    ])
    def test_ot_inputs_that_are_not_lists(self, runner, tmp_path, inputs):
        cfg = write_config(tmp_path, "ot.json", {"protocol": "ot_dummy", "inputs": inputs})
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 2
        assert "'inputs'" in result.output

    @pytest.mark.parametrize("shares", ["12", {"1": 0, "2": 0}])
    def test_shares_that_are_a_string_or_an_object(self, runner, tmp_path, shares):
        path = write_config(tmp_path, "shares.json", {"shares": shares})
        result = runner.invoke(main, ["reconstruct", "--shares", path])
        assert result.exit_code == 2
        assert "'shares'" in result.output

    def test_state_values_that_are_a_string(self, runner, tmp_path):
        state = tmp_path / "c3.json"
        runner.invoke(main, ["commit3", "--values", "1,0,1", "--state", str(state)])
        body = json.loads(state.read_text())
        state.write_text(json.dumps(dict(body, values="101")))
        result = runner.invoke(main, ["decommit3", "--state", str(state)])
        assert result.exit_code == 2
        assert "'values'" in result.output


@pytest.mark.parametrize("values, recovered", [
    ("12,4,5", ["2", "4", "5"]),
    ("-1,4,5", ["9", "4", "5"]),
])
def test_values_outside_the_ring_decommit(runner, tmp_path, values, recovered):
    state = str(tmp_path / "c3.json")
    result = runner.invoke(main, ["commit3", f"--values={values}", "--modulus", "10",
                                  "--state", state])
    assert result.exit_code == 0
    assert json.loads(open(state).read())["values"] == values.split(",")
    result = runner.invoke(main, ["decommit3", "--state", state])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["P1"] == recovered


def test_replaying_a_header_whose_cycle_was_cut_exits_3(runner, tmp_path):
    cfg = write_config(tmp_path, "sum.json", {"protocol": "secure_sum", "inputs": [3, 5, 7],
                                              "seed": 7})
    out = str(tmp_path / "t.jsonl")
    assert runner.invoke(main, ["run", cfg, "--out", out]).exit_code == 0
    head, body = open(out).read().split("\n", 1)
    meta = json.loads(head)
    meta["meta"]["topology"]["edges"] = meta["meta"]["topology"]["edges"][:2]
    open(out, "w").write(json.dumps(meta) + "\n" + body)
    result = runner.invoke(main, ["replay", out])
    assert result.exit_code == 3
    assert "error:" in result.output


# Each hand-written subcommand, run at fixed seeds: a list of steps, each an argv and
# the files that step writes.  The pins are the SHA-256 of every step's stdout, then
# of every file it wrote, in order.
SUBCOMMAND_STEPS = {
    "deal": [(["deal", "--cards", "52", "--players", "3", "--seed", "2", "--out", "d.jsonl"],
              ["d.jsonl"])],
    "deal --per-player": [(["deal", "--cards", "12", "--players", "2", "--per-player", "3",
                            "--seed", "7", "--out", "d.jsonl"], ["d.jsonl"])],
    "deal --dummies two-player": [(["deal", "--cards", "6", "--players", "2",
                                    "--counter-bound", "4", "--seed", "1",
                                    "--dummies", "two-player", "--out", "d.jsonl"],
                                   ["d.jsonl"])],
    "share": [(["share", "--secret", "12345", "--players", "4", "--seed", "3",
                "--out", "s.json"], ["s.json"])],
    "share --modulus 101": [(["share", "--secret", "57", "--players", "3", "--seed", "3",
                              "--modulus", "101", "--out", "s.json"], ["s.json"])],
    "commit3, decommit3": [
        (["commit3", "--values", "3,4,5", "--modulus", "10", "--seed", "1",
          "--state", "c3.json"], ["c3.json"]),
        (["decommit3", "--state", "c3.json", "--out", "c3.jsonl"], ["c3.jsonl"]),
    ],
    "commit2": [(["commit2", "--values", "7,4", "--modulus", "10", "--seed", "3",
                  "--out", "c2.jsonl"], ["c2.jsonl"])],
    "ot": [(["ot", "--messages", "10,20,30", "--indices", "1,3", "--seed", "1",
             "--out", "ot.jsonl"], ["ot.jsonl"])],
    "ot --modulus 101": [(["ot", "--messages", "10,200,-3", "--indices", "3,2", "--seed", "1",
                           "--modulus", "101", "--out", "ot.jsonl"], ["ot.jsonl"])],
}

SUBCOMMAND_PINS = {
    "commit2": [
        "e39af9fb112cc86b7bd793cf919705a6ddb94efff13512e2596d0d3b164bc877",
        "05520261bdcb69dad2bde9cb0f64650bfd10b4897f455231133285d73cd48178",
    ],
    "commit3, decommit3": [
        "894cac87a9c7fade1e925dd0f4115e518d353dbcd474760630134032d15563f5",
        "f2ea1b6008fcdad11c3faf1390af3454246220ce9e41c2bc0a593df6175d1af6",
        "55b6c61b0f1d4a59ff4c434895f20cf439c507b95afc08e71975b101a7bf312c",
        "59b28486181aba8784d4fc27ac5b68adfa62891068ff60ffbb1453b4bd6089de",
    ],
    "deal": [
        "2cbfa269656d076aa4cf25d6e7d4d7420a283e6a5ec56eea0ddb43a687ba1a61",
        "9181c7fdb7338f4dd265a50d9f5e105c13ca2ceca610a8e19d13cd2613a49fb4",
    ],
    "deal --dummies two-player": [
        "3d05311ccb1cc5e306a1780bc41268936fcdc2f36bd0dd1b04013fdee9372855",
        "4b37fe9f01ddc516972154f9c39b557045815ea4bc594b367ea4bf82c0b9c885",
    ],
    "deal --per-player": [
        "32c01988df5104befe082c8856c3d01c5997737dd481ab113bd094a048cdc2a5",
        "1191daa26001f869de3b4d846a3325ca4a42ef707de778e4501338f4954c1bba",
    ],
    "ot": [
        "890d7dc797c7d0b095b1acd187a0ffe0062a998f7fe912b987bc8efbe4e0d8c9",
        "86098da7df0c07923d257da924cba44aaf2c7996c44791a1f7e70665608474fe",
    ],
    "ot --modulus 101": [
        "541d1714e8fcaca04c5a62c4940c1554e12d074c3c56079a3ae4c1222aa5bbe6",
        "6d75425777de7af92a6ee02bd16770787e95ec2e556a60775de8effb258d6162",
    ],
    "share": [
        "2587fad241c6592e53818bdbc23244cc0434eed689649f364652467331b1af9e",
        "705422c55cae2ef2c15beeb98212427ea885bffc8697152f8c700b82e472fcaf",
    ],
    "share --modulus 101": [
        "be37e6f2bce74d019986693bab6a3fb332acccd9d656542287f889574805877f",
        "890a8dd2c76b29881b4c73b4c8b7c65f2ae5b66afc8b1533840edaf4ab974863",
    ],
}


@pytest.mark.parametrize("case", sorted(SUBCOMMAND_STEPS))
def test_subcommand_output_is_pinned(runner, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    digests = []
    for argv, written in SUBCOMMAND_STEPS[case]:
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        digests.append(hashlib.sha256(result.output.encode()).hexdigest())
        digests += [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in written]
    assert digests == SUBCOMMAND_PINS[case]


class TestRingTopologyAndParamsAreJsonObjects:
    """A list or a string in place of an object is exit 2 naming the field, not an empty object."""

    SUM = {"protocol": "secure_sum", "inputs": [1, 2, 3], "seed": 7}
    CASES = [("params", [], "list"), ("params", "abc", "str"), ("ring", "Z", "str"),
             ("ring", ["Z"], "list"), ("topology", [3], "list"), ("topology", "cycle", "str")]

    @pytest.mark.parametrize("field, value, kind", CASES)
    def test_run_exits_2_and_writes_no_transcript(self, runner, tmp_path, field, value, kind):
        out = tmp_path / "sum.jsonl"
        body = dict(self.SUM, **{field: value})
        result = runner.invoke(main, ["run", write_config(tmp_path, "sum.json", body),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert f"bad '{field}': expected a JSON object, not {kind}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("field, value, kind", CASES)
    def test_replaying_such_a_header_exits_2(self, runner, tmp_path, field, value, kind):
        out = tmp_path / "sum.jsonl"
        assert runner.invoke(main, ["run", write_config(tmp_path, "sum.json", self.SUM),
                                    "--out", str(out)]).exit_code == 0
        lines = out.read_text().split("\n")
        head = json.loads(lines[0])
        head["meta"][field] = value
        lines[0] = json.dumps(head, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines))
        result = runner.invoke(main, ["replay", str(out)])
        assert result.exit_code == 2
        assert f"bad '{field}': expected a JSON object, not {kind}" in result.output


class TestUnknownFields:
    """A config field that the decoder does not read is exit 2 naming it, not ignored."""

    CASES = {
        "bitwidth": ({"protocol": "millionaires_bitwise", "inputs": [3, 2],
                      "params": {"bitwidth": 2}}, "'bitwidth' in 'params'"),
        "withlabels": ({"protocol": "card_deal", "inputs": [],
                        "params": {"r": 3, "k": 3, "N": 2, "withlabels": True}},
                       "'withlabels' in 'params'"),
        "rating K": ({"protocol": "secure_rating", "inputs": [1, 2, 3], "params": {"K": 3}},
                     "'K' in 'params'"),
        "example_f2 G": ({"protocol": "example_f2", "inputs": [3, 5, 7],
                          "params": {"g": "square", "G": "square"}}, "'G' in 'params'"),
        "Zm noise_bound": ({"protocol": "secure_sum", "inputs": [1, 2, 3],
                            "ring": {"ring": "Zm", "m": 7, "noise_bound": 3}},
                           "'noise_bound' in 'ring'"),
        "seeds": ({"protocol": "secure_sum", "inputs": [1, 2, 3], "seeds": 5}, "'seeds'"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_run_exits_2_naming_the_field_and_writes_no_transcript(self, runner, tmp_path, case):
        body, field = self.CASES[case]
        out = tmp_path / "run.jsonl"
        result = runner.invoke(main, ["run", write_config(tmp_path, "run.json", body),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert result.output == f"error: unknown field {field}\n"
        assert not out.exists()

    def test_a_params_field_of_a_protocol_without_its_own_decoder_exits_2(self, runner,
                                                                          tmp_path):
        body = {"protocol": "secure_sum", "inputs": [1, 2, 3], "params": {"k": 3}}
        result = runner.invoke(main, ["run", write_config(tmp_path, "run.json", body)])
        assert result.exit_code == 2
        assert "'k'" in result.output

    def test_every_field_a_header_writes_is_known(self, runner, tmp_path):
        out = tmp_path / "deal.jsonl"
        assert runner.invoke(main, ["deal", "--cards", "12", "--players", "2",
                                    "--per-player", "3", "--seed", "7",
                                    "--out", str(out)]).exit_code == 0
        meta = json.loads(out.read_text().split("\n")[0])["meta"]
        assert runner.invoke(main, ["run", write_config(tmp_path, "deal.json", meta)]
                             ).exit_code == 0
        assert runner.invoke(main, ["replay", str(out)]).exit_code == 0

    def test_replaying_a_header_with_an_unknown_field_exits_2(self, runner, tmp_path):
        out = tmp_path / "sum.jsonl"
        body = {"protocol": "secure_sum", "inputs": [1, 2, 3], "seed": 7}
        assert runner.invoke(main, ["run", write_config(tmp_path, "sum.json", body),
                                    "--out", str(out)]).exit_code == 0
        lines = out.read_text().split("\n")
        head = json.loads(lines[0])
        head["meta"]["seeds"] = 5
        lines[0] = json.dumps(head, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines))
        result = runner.invoke(main, ["replay", str(out)])
        assert result.exit_code == 2
        assert "unknown field 'seeds'" in result.output


def test_a_negative_post_draw_count_exits_2(runner, tmp_path):
    from ringmpc.poker import dealer_graph

    cfg = write_config(tmp_path, "deal.json", {
        "protocol": "card_deal", "inputs": [],
        "params": {"r": 10, "k": 5, "N": 2, "counter_contributors": [0, 1],
                   "consolidate_to": 3, "post_draws": [[0, -5]]},
        "topology": dealer_graph(3, 2).to_config(),
    })
    result = runner.invoke(main, ["run", cfg])
    assert result.exit_code == 2
    assert "a post draw count must be at least 0" in result.output


class TestPartySpecsAreJsonObjects:
    """Each listed party is a JSON object: anything else is exit 2 naming ``parties``.

    Before the specs were decoded, each of these exited 2 with "'str' object
    has no attribute 'get'" (or 'list', 'int'), which named neither the field
    nor what it expects.
    """

    SUM = {"protocol": "secure_sum", "inputs": [1, 2, 3], "seed": 7}
    TRIANGLE = [[0, 1, "secure"], [1, 2, "secure"], [0, 2, "secure"]]
    CASES = [(["a", "b", "c"], "str"), ([[], {}, {}], "list"), ([{}, {}, 3], "int")]
    MESSAGE = "bad 'topology': 'parties': expected a JSON object, not {}"

    @pytest.mark.parametrize("parties, kind", CASES)
    def test_run_exits_2_naming_parties(self, runner, tmp_path, parties, kind):
        out = tmp_path / "sum.jsonl"
        body = dict(self.SUM, topology={"k": 3, "parties": parties, "edges": self.TRIANGLE})
        result = runner.invoke(main, ["run", write_config(tmp_path, "sum.json", body),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert self.MESSAGE.format(kind) in result.output
        assert not out.exists()

    @pytest.mark.parametrize("parties, kind", CASES)
    def test_replaying_a_header_carrying_such_parties_exits_2(self, runner, tmp_path, parties,
                                                              kind):
        out = tmp_path / "sum.jsonl"
        assert runner.invoke(main, ["run", write_config(tmp_path, "sum.json", self.SUM),
                                    "--out", str(out)]).exit_code == 0
        lines = out.read_text().split("\n")
        head = json.loads(lines[0])
        head["meta"]["topology"]["parties"] = parties
        lines[0] = json.dumps(head, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines))
        result = runner.invoke(main, ["replay", str(out)])
        assert result.exit_code == 2
        assert self.MESSAGE.format(kind) in result.output


class TestIntegersAreJsonIntegersOrDecimalStrings:
    """A float is not truncated and a bool is not read as 0 or 1: either is exit 2."""

    SUM = {"protocol": "secure_sum", "inputs": [1, 2, "3"], "seed": 7}

    @pytest.mark.parametrize("field, value", [
        ("inputs", [1.9, 2, "3"]), ("inputs", [1, True, "3"]), ("inputs", [1, 2, 3.0]),
        ("inputs", [1, 2, None]), ("seed", 1.7), ("seed", True), ("seed", 7.0), ("seed", [7]),
    ])
    def test_run_exits_2_naming_the_field(self, runner, tmp_path, field, value):
        body = dict(self.SUM, **{field: value})
        result = runner.invoke(main, ["run", write_config(tmp_path, "sum.json", body)])
        assert result.exit_code == 2
        assert f"bad '{field}'" in result.output and "decimal string" in result.output

    def test_floats_and_a_bool_exit_2_and_write_no_transcript(self, runner, tmp_path):
        body = {"protocol": "secure_sum", "inputs": [1.9, True, "3"], "seed": 1.7}
        out = tmp_path / "sum.jsonl"
        result = runner.invoke(main, ["run", write_config(tmp_path, "sum.json", body),
                                      "--out", str(out)])
        assert result.exit_code == 2 and not out.exists()

    def test_a_decimal_string_seed_is_the_integer_seed(self, runner, tmp_path):
        texts = []
        for seed in (7, "7"):
            out = tmp_path / "sum.jsonl"
            body = dict(self.SUM, seed=seed)
            assert runner.invoke(main, ["run", write_config(tmp_path, "sum.json", body),
                                        "--out", str(out)]).exit_code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert json.loads(texts[0].split("\n")[0])["meta"]["seed"] == 7

    @pytest.mark.parametrize("inputs", [{"messages": [10, 20.5, 30], "indices": [1, 3]},
                                        {"messages": [10, 20, 30], "indices": [True, 3]}])
    def test_ot_messages_and_indices(self, runner, tmp_path, inputs):
        body = {"protocol": "ot_dummy", "inputs": inputs, "seed": 1}
        result = runner.invoke(main, ["run", write_config(tmp_path, "ot.json", body)])
        assert result.exit_code == 2
        assert "'inputs'" in result.output

    def test_replaying_a_header_with_a_float_seed_exits_2(self, runner, tmp_path):
        out = tmp_path / "sum.jsonl"
        assert runner.invoke(main, ["run", write_config(tmp_path, "sum.json", self.SUM),
                                    "--out", str(out)]).exit_code == 0
        text = out.read_text()
        assert '"seed":7,' in text
        out.write_text(text.replace('"seed":7,', '"seed":7.0,', 1))
        result = runner.invoke(main, ["replay", str(out)])
        assert result.exit_code == 2
        assert "'seed'" in result.output

    @pytest.mark.parametrize("share", [2.5, True, None])
    def test_shares_file(self, runner, tmp_path, share):
        path = write_config(tmp_path, "shares.json", {"shares": ["4", share, "1"]})
        result = runner.invoke(main, ["reconstruct", "--shares", path])
        assert result.exit_code == 2
        assert "'shares'" in result.output

    def test_a_shares_file_of_integers_and_decimal_strings_reconstructs(self, runner, tmp_path):
        path = write_config(tmp_path, "shares.json", {"shares": ["4", 5, "-1"]})
        result = runner.invoke(main, ["reconstruct", "--shares", path])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"secret": "8"}

    @pytest.mark.parametrize("field, value", [("seed", 1.0), ("modulus", 10.0), ("seed", True)])
    def test_a_commit3_state_file(self, runner, tmp_path, field, value):
        state = tmp_path / "c3.json"
        assert runner.invoke(main, ["commit3", "--values", "3,4,5", "--modulus", "10",
                                    "--seed", "1", "--state", str(state)]).exit_code == 0
        body = json.loads(state.read_text())
        body[field] = value
        state.write_text(json.dumps(body))
        result = runner.invoke(main, ["decommit3", "--state", str(state)])
        assert result.exit_code == 2
        assert f"'{field}'" in result.output


def _dealer_config():
    """The header of a dummy dealer's deal: two dummies, a consolidation and one served draw."""
    from ringmpc.poker import dummy_dealer_fixed_hands

    _, t = dummy_dealer_fixed_hands(12, 2, 3, seed=7, post_draws=[(0, 1)])
    return json.loads(t.serialize().split("\n")[0])["meta"]


class TestConfigFieldsAreJsonIntegersAndBooleans:
    """No field of a ring, topology or protocol config truncates a float or reads a string as true.

    Each value below ran with exit 0 when the fields were read with int() and
    bool(): "r": 6.5 dealt 6 cards and "with_labels": "no" dealt with labels.
    """

    DEAL = {"protocol": "card_deal", "inputs": [], "seed": 3, "params": {"r": 6, "k": 3, "N": 2}}
    SUM = {"protocol": "secure_sum", "inputs": [3, 5, 7], "seed": 7}
    TRIANGLE = [[0, 1, "secure"], [1, 2, "secure"], [0, 2, "secure"]]

    CASES = {
        "r": (DEAL, "params", {"r": 6.5}),
        "k": (DEAL, "params", {"k": 3.0}),
        "N": (DEAL, "params", {"N": True}),
        "quotas": (DEAL, "params", {"quotas": [2.5, 2, 2]}),
        "with_labels": (DEAL, "params", {"with_labels": "no"}),
        "counter_contributors": (None, "params", {"counter_contributors": [0, 1.0]}),
        "consolidate_to": (None, "params", {"consolidate_to": 2.0}),
        "post_draws": (None, "params", {"post_draws": [[0, 1.5]]}),
        "m": (SUM, "ring", {"ring": "Zm", "m": 7.5}),
        "noise_bound": (SUM, "ring", {"ring": "Z", "noise_bound": 100.5}),
        "topology k": (SUM, "topology", {"k": 3.0, "edges": TRIANGLE}),
        "cycle": (SUM, "topology", {"cycle": 3.5}),
        "full": (SUM, "topology", {"k": 3, "edges": TRIANGLE,
                                   "parties": [{"name": "P1", "full": "no"}, {}, {}]}),
        "share_secret_kk k": ({"protocol": "share_secret_kk", "inputs": [5]}, "params",
                              {"k": 3.5}),
        "distribute_shares initiator": ({"protocol": "distribute_shares", "inputs": [5]},
                                        "params", {"initiator": True}),
        "bit_width": ({"protocol": "millionaires_bitwise", "inputs": [5, 3]}, "params",
                      {"bit_width": 4.5}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_exits_2_naming_the_field(self, runner, tmp_path, case):
        base, section, fields = self.CASES[case]
        body = copy.deepcopy(base) if base is not None else {**_dealer_config(), "seed": 7}
        body[section] = {**body.get(section, {}), **fields} if section == "params" else fields
        result = runner.invoke(main, ["run", write_config(tmp_path, "cfg.json", body)])
        assert result.exit_code == 2, result.output
        assert f"bad '{section}'" in result.output
        assert f"'{case.split()[-1]}'" in result.output

    def test_the_dealer_config_runs_as_written(self, runner, tmp_path):
        body = _dealer_config()
        assert body["params"]["post_draws"] == [["0", "1"]]
        result = runner.invoke(main, ["run", write_config(tmp_path, "cfg.json", body)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["outcome"]["served"][0][0] == "P1"


class TestTopologyEdgesAndPartyCount:
    """A topology's edges are two integer endpoints and a security, and its k counts its parties.

    Before edges were decoded, the 1.0 endpoint ended in a TypeError traceback
    (exit 1), and every other config below ran with exit 0: true was read as
    1, the fourth field was ignored, and "k": 7 ran on three parties.  A
    "bogus" security was a topology rejection (exit 3) that named no field.
    """

    SUM = {"protocol": "secure_sum", "inputs": [3, 5, 7], "seed": 7}
    TRIANGLE = [[0, 1, "secure"], [1, 2, "secure"], [0, 2, "secure"]]

    CASES = {
        "float endpoint": ([[0, 1.0, "secure"], *TRIANGLE[1:]], {}, "'edges'"),
        "bool endpoint": ([TRIANGLE[0], [True, 2, "secure"], TRIANGLE[2]], {}, "'edges'"),
        "fourth field": ([[0, 1, "secure", 9], *TRIANGLE[1:]], {}, "'edges'"),
        "edge as a string": (["0,1,secure", *TRIANGLE[1:]], {}, "'edges'"),
        "bogus security": ([TRIANGLE[0], [1, 2, "bogus"], TRIANGLE[2]], {}, "'edges'"),
        "k beside three parties": (TRIANGLE, {"k": 7, "parties": [{}, {}, {}]}, "'k'"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_exits_2_naming_the_field(self, runner, tmp_path, case):
        edges, fields, named = self.CASES[case]
        body = dict(self.SUM, topology={"k": 3, "edges": edges, **fields})
        result = runner.invoke(main, ["run", write_config(tmp_path, "sum.json", body)])
        assert result.exit_code == 2, result.output
        assert "bad 'topology'" in result.output and named in result.output

    def test_decimal_string_endpoints_and_k_are_the_integers(self, runner, tmp_path):
        texts = []
        strings = [[str(i), str(j), security] for i, j, security in self.TRIANGLE]
        for k, edges in ((3, self.TRIANGLE), ("3", strings)):
            out = tmp_path / "sum.jsonl"
            body = dict(self.SUM, topology={"k": k, "parties": [{}, {}, {}], "edges": edges})
            result = runner.invoke(main, ["run", write_config(tmp_path, "sum.json", body),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            texts.append(out.read_text())
        assert texts[0] == texts[1]


class TestInputsAgainstTheGraph:
    """A protocol without a fixed arity takes one input per party of the graph it accepted.

    Each config below got past the gate before: four inputs on a 3-cycle summed
    to 6, a topology of no parties summed three inputs to 0, and three inputs on
    two disjoint triangles ended in an IndexError traceback.
    """

    TRIANGLES = [[0, 1, "secure"], [1, 2, "secure"], [0, 2, "secure"],
                 [3, 4, "secure"], [4, 5, "secure"], [3, 5, "secure"]]
    CASES = {
        "four inputs on a 3-cycle": (["1", "2", "3", "4"], {"cycle": 3}, 3),
        "no parties": (["1", "2", "3"], {"k": 0}, 0),
        "two disjoint triangles": (["1", "2", "3"], {"k": 6, "edges": TRIANGLES}, 6),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_exits_2(self, runner, tmp_path, case):
        inputs, topology, k = self.CASES[case]
        body = {"protocol": "secure_sum", "inputs": inputs, "topology": topology}
        out = tmp_path / "sum.jsonl"
        result = runner.invoke(main, ["run", write_config(tmp_path, "sum.json", body),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"takes {k} inputs, one per party, got {len(inputs)}" in result.output
        assert not out.exists()


def test_commit3_on_parties_named_x_y_z_runs_reveals_and_replays(runner, tmp_path):
    """The reveal used to look its ledger roles P1, P2, P3 up as party names: exit 3 at
    ``unknown party 'P1'``.  The outcome keeps the roles as its keys."""
    body = {"protocol": "commit3", "inputs": [1, 2, 3], "seed": 3,
            "ring": {"ring": "Zm", "m": 5},
            "topology": {"k": 3, "parties": [{"name": "X"}, {"name": "Y"}, {"name": "Z"}],
                         "edges": [[0, 1, "secure"], [1, 2, "secure"], [0, 2, "secure"]]}}
    out = str(tmp_path / "xyz.jsonl")
    result = runner.invoke(main, ["run", write_config(tmp_path, "xyz.json", body), "--out", out])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["outcome"] == {p: ["1", "2", "3"] for p in ("P1", "P2", "P3")}
    result = runner.invoke(main, ["replay", out])
    assert result.exit_code == 0 and "verified" in result.output


class TestSecureRatingK:
    """``secure_rating``'s ``k`` counts its inputs: a ``k`` of 7 beside three inputs used to
    run on k = 3 with exit 0 and write ``"k": "3"`` into the header."""

    RATING = {"protocol": "secure_rating", "inputs": ["1", "2", "3"], "seed": 4}

    def _run(self, runner, tmp_path, params):
        body = dict(self.RATING, **({} if params is None else {"params": params}))
        out = tmp_path / "rating.jsonl"
        result = runner.invoke(main, ["run", write_config(tmp_path, "rating.json", body),
                                      "--out", str(out)])
        return result, out

    def test_a_k_that_disagrees_with_the_inputs_exits_2_naming_k(self, runner, tmp_path):
        result, out = self._run(runner, tmp_path, {"k": 7})
        assert result.exit_code == 2, result.output
        assert "'k' is 7, but 3 inputs are given" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("params", [{"k": 3}, {"k": "3"}, None, {}],
                             ids=["integer", "decimal string", "no params", "no k"])
    def test_a_matching_k_or_none_runs_as_before(self, runner, tmp_path, params):
        result, out = self._run(runner, tmp_path, params)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["outcome"] == {"total": "6"}
        assert json.loads(out.read_text().split("\n")[0])["meta"]["params"] == {"k": "3"}
        result = runner.invoke(main, ["replay", str(out)])
        assert result.exit_code == 0 and "verified" in result.output
