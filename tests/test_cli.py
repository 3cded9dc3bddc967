import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import ts_groups
from ts_groups import testers, tours
from ts_groups.cli import ball_limit_from_env, main
from ts_groups.groups import make_oracle
from ts_groups.words import first_aperiodic_word, format_word


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


def test_seq_thue(runner):
    result = invoke(runner, ["seq", "thue", "--n", "12"])
    assert result.exit_code == 0
    assert result.output.strip() == "ABCACBABCBAC"


def test_usage_error_exit_code(runner):
    result = runner.invoke(main, ["seq", "thue"])
    assert result.exit_code == 2


def test_tsp_text_and_json(runner, tmp_path):
    words = tmp_path / "set.words"
    words.write_text("a\nb\na B\n")
    result = invoke(runner, ["tsp", "--group", "free:2", "--set", str(words)])
    assert result.exit_code == 0
    assert "L: 6" in result.output
    out = tmp_path / "r.json"
    result = invoke(
        runner,
        ["tsp", "--group", "free:2", "--set", str(words), "--format", "json",
         "--out", str(out)],
    )
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["L"] == 6 and data["schema"] == 1
    assert data["config"]["subcommand"] == "tsp"
    assert "seed" in data["config"]


@pytest.mark.parametrize("descriptor, element", [
    ("prod(f2xz:n=2,abelian:1)", "a a|1|3"),
    ("prod(prod(free:2,abelian:1),abelian:1)", "a|1|2"),
])
def test_tsp_reads_nested_product_elements(runner, tmp_path, descriptor, element):
    words = tmp_path / "set.words"
    words.write_text(element + "\n")
    result = invoke(runner, ["tsp", "--group", descriptor, "--set", str(words),
                             "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["order"] == [element]


def test_tsp_unknown_group_exit_code(runner, tmp_path):
    words = tmp_path / "set.words"
    words.write_text("a\n")
    result = runner.invoke(main, ["tsp", "--group", "nope:1", "--set", str(words)])
    assert result.exit_code == 2


def test_experiment_reports_and_replay(runner, tmp_path):
    out = tmp_path / "rep.json"
    args = [
        "experiment", "ts-lambda", "--group", "abelian:2", "--xi", "2,3",
        "--lambda", "2", "--samples", "5", "--seed", "3", "--style", "box-pairs",
        "--out", str(out),
    ]
    assert invoke(runner, args).exit_code == 0
    data = json.loads(out.read_text())
    assert data["violations"]
    result = invoke(runner, ["replay", str(out)])
    assert result.exit_code == 0 and "ok" in result.output


@pytest.mark.parametrize("lam", ["1", "6"])
def test_free_experiment_passes_the_held_karp_cap(runner, tmp_path, lam):
    # free sets past 15 points get the closed-form exact tour and L'
    out = tmp_path / "rep.json"
    args = ["experiment", "ts-lambda", "--group", "free:2", "--xi", "a b a",
            "--lambda", lam, "--samples", "5", "--max-size", "40", "--seed", "1",
            "--lprime", "--out", str(out)]
    assert invoke(runner, args).exit_code == 0
    data = json.loads(out.read_text())
    assert max(row["size"] for row in data["per_sample"]) > 15
    assert all(row["Lprime"] < row["L"] for row in data["per_sample"])
    # at lambda 6 the 34- and 38-point sets are among the violations replay re-solves
    assert [v["size"] for v in data["violations"]] == ([] if lam == "1" else [34, 4, 38, 14])
    result = invoke(runner, ["replay", str(out)])
    assert result.exit_code == 0 and "ok" in result.output


def test_experiment_byte_identical_modulo_timestamp(runner, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        args = [
            "experiment", "ts-lambda", "--group", "free:2", "--xi", "a b a B a b A b a",
            "--lambda", "1.5", "--samples", "4", "--seed", "9", "--out", str(out),
        ]
        assert invoke(runner, args).exit_code == 0
        text = out.read_text()
        text = re.sub(r'"generated_at": "[^"]*"', '"generated_at": "X"', text)
        text = re.sub(r'"elapsed_seconds": [0-9.]*', '"elapsed_seconds": 0', text)
        outs.append(text)
    assert outs[0] == outs[1]


def test_experiment_csv_projection(runner, tmp_path):
    out = tmp_path / "rep.csv"
    args = [
        "experiment", "ts-lambda", "--group", "free:2", "--xi", "a b a B a b A b a",
        "--lambda", "2", "--samples", "3", "--seed", "1", "--format", "csv",
        "--out", str(out),
    ]
    assert invoke(runner, args).exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("size,L,ratio")
    assert len(lines) == 4


def test_xi_construct_and_lemma5(runner, tmp_path):
    xi_file = tmp_path / "xi.word"
    result = invoke(
        runner,
        ["xi", "construct", "--seed", "1", "--desk-scale", "--out", str(xi_file)],
    )
    assert result.exit_code == 0
    xs_file = tmp_path / "xs.words"
    xs_file.write_text("a b a\nB a\n")
    out = tmp_path / "l5.json"
    result = invoke(
        runner,
        ["lemma5", "verify", "--xi", str(xi_file), "--xs", str(xs_file),
         "--eps", "+-", "--desk-scale", "--out", str(out)],
    )
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["aperiodic"] is True


def test_lemma5_bad_eps(runner, tmp_path):
    xi_file = tmp_path / "xi.word"
    invoke(runner, ["xi", "construct", "--seed", "0", "--desk-scale", "--out", str(xi_file)])
    xs_file = tmp_path / "xs.words"
    xs_file.write_text("a\n")
    result = runner.invoke(
        main,
        ["lemma5", "verify", "--xi", str(xi_file), "--xs", str(xs_file), "--eps", "+?"],
    )
    assert result.exit_code == 2


def test_lemma5_precondition_exit_code(runner, tmp_path):
    xi_file = tmp_path / "xi.word"
    invoke(runner, ["xi", "construct", "--seed", "0", "--desk-scale", "--out", str(xi_file)])
    xs_file = tmp_path / "xs.words"
    xs_file.write_text("\n".join(["a b"] * 11) + "\n")
    result = runner.invoke(
        main,
        ["lemma5", "verify", "--xi", str(xi_file), "--xs", str(xs_file),
         "--eps", "+" * 11, "--desk-scale"],
    )
    assert result.exit_code == 4


def test_lemma5_desk_scale_checks_xi_aperiodicity(runner, tmp_path):
    # desk scale skips only the length floor, not the 3-aperiodicity check
    xi_file = tmp_path / "xi.word"
    xi_file.write_text(" ".join(["a"] * 10) + "\n")
    xs_file = tmp_path / "xs.words"
    xs_file.write_text("b\n")
    for scale in ([], ["--desk-scale"]):
        result = runner.invoke(main, ["lemma5", "verify", "--xi", str(xi_file),
                                      "--xs", str(xs_file), "--eps", "+", *scale])
        assert result.exit_code == 4
        assert "xi is not 3-aperiodic" in result.output


def test_property_cli_and_replay(runner, tmp_path):
    out = tmp_path / "prop.json"
    args = [
        "property", "test", "--family", "P'", "--r", "2", "--group", "abelian:2",
        "--xi", "1,1", "--k-max", "2", "--out", str(out),
    ]
    assert invoke(runner, args).exit_code == 0
    data = json.loads(out.read_text())
    assert data["outcome"] == "counterexample-found"
    assert invoke(runner, ["replay", str(out)]).exit_code == 0


def test_forest_cli_build_and_verify(runner, tmp_path):
    oracle = make_oracle("free:2")
    xi = first_aperiodic_word(2, 49)
    g = oracle.parse_element("b a")
    h = oracle.parse_element("a a b")
    els = [g, oracle.multiply(g, xi), h, oracle.multiply(h, xi)]
    set_file = tmp_path / "set.words"
    set_file.write_text("\n".join(format_word(e) for e in els) + "\n")
    out = tmp_path / "forest.json"
    args = [
        "forest", "build", "--mode", "P", "--r", "12", "--set", str(set_file),
        "--xi", format_word(xi), "--out", str(out),
    ]
    assert invoke(runner, args).exit_code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 1 and data["mode"] == "P"
    args = [
        "forest", "verify", "--mode", "P", "--r", "12", "--set", str(set_file),
        "--xi", format_word(xi),
    ]
    result = invoke(runner, args)
    assert result.exit_code == 0
    assert '"ok": true' in result.output


def test_tree_label_tsv(runner):
    result = invoke(runner, ["tree", "label", "--mode", "3letter", "--vertices", "10", "--seed", "1"])
    assert result.exit_code == 0
    for line in result.output.strip().splitlines():
        parts = line.split("\t")
        assert len(parts) == 3
        assert parts[2] in "ABC"


def test_folner_cli(runner):
    result = invoke(runner, ["folner", "demo", "--box", "0:9,0:9", "--xi", "3,0"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["chain_ok"] is True and data["F"] == 100


def test_burnside_cli_desk(runner, tmp_path):
    out = tmp_path / "pipe.json"
    result = invoke(
        runner,
        ["burnside", "pipeline", "--samples", "2", "--seed", "1", "--desk-scale",
         "--out", str(out)],
    )
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["ok"] is True
    assert data["external_assumptions"]


def test_resource_limit_exit_code(runner, tmp_path):
    words = tmp_path / "big.words"
    oracle = make_oracle("abelian:2")
    pts = [f"{i},{j}" for i in range(5) for j in range(4)]
    words.write_text("\n".join(pts) + "\n")
    result = runner.invoke(main, ["tsp", "--group", "abelian:2", "--set", str(words)])
    assert result.exit_code == 3


@pytest.mark.parametrize("far", [2**56, 2**64])
def test_exact_tour_cost_overflow_exits_3(runner, tmp_path, far):
    # the exact solver packs costs into 55 bits; 2**56 used to print
    # "L: 2", 2**64 to overflow numpy's int64 with a traceback
    words = tmp_path / "far.words"
    words.write_text(f"0,0\n{far},0\n0,1\n")
    args = ["tsp", "--group", "abelian:2", "--set", str(words)]
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert "Traceback" not in result.output
    heuristic = invoke(runner, args + ["--heuristic"])
    assert heuristic.exit_code == 0
    assert f"L: {2 * far + 2}" in heuristic.output


_TIMED_MAIN = """
import sys, time
from ts_groups.cli import main
start = time.perf_counter()
try:
    main(sys.argv[1:])
finally:
    print(f"cli seconds {time.perf_counter() - start:.3f}", file=sys.stderr)
"""


def _run_in_two_gib(args):
    """Run the CLI in a separate process with 2 GiB of address space, so
    a command that would run out of memory fails without harm (one BLAS
    thread, whose buffers then fit on any core count)."""
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(ts_groups.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, *args], capture_output=True, text=True,
        timeout=60, preexec_fn=limit_memory,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1"},
    )
    assert "Traceback" not in result.stdout + result.stderr
    return result, float(re.search(r"cli seconds ([0-9.]+)", result.stderr).group(1))


@pytest.mark.parametrize("args", [
    ["seq", "thue", "--n", "99999999999999"],
    ["experiment", "ts-lambda", "--group", "free:99999999999", "--xi", "a", "--lambda", "1",
     "--samples", "1"],
    ["property", "test", "--family", "P", "--r", "2", "--group", "free:99999999999",
     "--xi", "a", "--k-max", "1", "--samples", "1"],
    ["tree", "label", "--mode", "3letter", "--vertices", "99999999999"],
    ["property", "test", "--family", "P", "--r", "1000000000", "--xi", "a b", "--k-max", "1",
     "--samples", "1"],
    ["property", "test", "--family", "P", "--r", "2", "--xi", "a b", "--k-max", "1000000000",
     "--samples", "1"],
    ["experiment", "ts-lambda", "--xi", "a b", "--lambda", "1", "--samples", "1",
     "--max-size", "99999999999"],
    ["folner", "demo", "--box", "0:99999,0:99999", "--xi", "3,0"],
    ["experiment", "ts-lambda", "--group", "f2xz:n=99999999999", "--xi", "a|1", "--lambda", "1",
     "--samples", "1", "--lprime"],
], ids=["seq-n", "experiment-free-rank", "property-free-rank", "tree-vertices", "property-r",
        "property-k-max", "experiment-max-size", "folner-box", "experiment-f2xz-n"])
def test_inputs_past_their_caps_exit_3_at_once(args):
    # each ran out of memory or hung before its cap
    result, seconds = _run_in_two_gib(args)
    assert result.returncode == 3
    assert "exceeds cap" in result.stderr
    assert seconds < 1.0


@pytest.mark.parametrize("args, lprimes", [
    (["--group", "abelian:2", "--xi", "100000000,0", "--samples", "2", "--style", "pairs",
      "--max-size", "2"], [199_999_997, 199_999_997]),
    (["--group", "f2xz:n=2", "--xi", "a b a|0", "--samples", "1", "--max-size", "6"], [13]),
], ids=["abelian-far-pair", "f2xz-six-points"])
def test_lprime_on_sets_whose_walk_region_was_too_big(args, lprimes):
    # the abelian box of the far pair ran out of memory, and the f2xz
    # hull of radius 8 exited 3 past 200,000 elements
    result, seconds = _run_in_two_gib(["experiment", "ts-lambda", "--lambda", "1", "--lprime",
                                       "--seed", "1", *args])
    assert result.returncode == 0
    assert [row["Lprime"] for row in json.loads(result.stdout)["per_sample"]] == lprimes
    assert seconds < 5.0


def test_forest_xi_as_file(runner, tmp_path):
    oracle = make_oracle("free:2")
    xi = first_aperiodic_word(2, 49)
    g = oracle.parse_element("b a")
    els = [g, oracle.multiply(g, xi)]
    set_file = tmp_path / "set.words"
    set_file.write_text("\n".join(format_word(e) for e in els) + "\n")
    xi_file = tmp_path / "xi.word"
    xi_file.write_text(format_word(xi) + "\n")
    result = invoke(
        runner,
        ["forest", "build", "--mode", "P10", "--r", "12", "--set", str(set_file),
         "--xi", str(xi_file)],
    )
    assert result.exit_code == 0


def test_budget_env_var(runner, monkeypatch):
    monkeypatch.setenv("TS_GROUPS_BUDGET_MB", "1")
    result = invoke(
        runner,
        ["property", "test", "--family", "P", "--r", "2", "--group", "abelian:2",
         "--xi", "1,1", "--k-max", "1"],
    )
    assert result.exit_code == 0


@pytest.mark.parametrize("value, limit", [(None, 20_000), ("1", 10_000), ("2", 20_000),
                                          ("7", 20_000), ("0", 10_000)])
def test_budget_env_var_is_an_element_count(monkeypatch, value, limit):
    if value is None:
        monkeypatch.delenv("TS_GROUPS_BUDGET_MB", raising=False)
    else:
        monkeypatch.setenv("TS_GROUPS_BUDGET_MB", value)
    assert ball_limit_from_env() == limit


def test_bad_budget_env_var_exits_2(runner, monkeypatch):
    monkeypatch.setenv("TS_GROUPS_BUDGET_MB", "lots")
    result = runner.invoke(
        main,
        ["property", "test", "--family", "P", "--r", "2", "--group", "abelian:2",
         "--xi", "1,1", "--k-max", "1"],
    )
    assert result.exit_code == 2
    assert "Traceback" not in result.output


def test_forest_verify_from_report_file(runner, tmp_path):
    oracle = make_oracle("free:2")
    xi = first_aperiodic_word(2, 49)
    g = oracle.parse_element("b a")
    h = oracle.parse_element("a a b")
    els = [g, oracle.multiply(g, xi), h, oracle.multiply(h, xi)]
    set_file = tmp_path / "set.words"
    set_file.write_text("\n".join(format_word(e) for e in els) + "\n")
    out = tmp_path / "forest.json"
    args = [
        "forest", "build", "--mode", "P", "--r", "12", "--set", str(set_file),
        "--xi", format_word(xi), "--out", str(out),
    ]
    assert invoke(runner, args).exit_code == 0
    result = invoke(runner, ["forest", "verify", str(out)])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["ok"] is True and data["matches_stored"] is True


def test_forest_verify_echoes_tour(runner, tmp_path):
    oracle = make_oracle("free:2")
    xi = first_aperiodic_word(2, 49)
    g = oracle.parse_element("b a")
    h = oracle.parse_element("a a b")
    set_file = tmp_path / "set.words"
    set_file.write_text(
        "\n".join(format_word(e) for e in (g, g * xi, h, h * xi)) + "\n"
    )
    out = tmp_path / "forest.json"
    args = [
        "forest", "build", "--mode", "P", "--r", "12", "--set", str(set_file),
        "--xi", format_word(xi), "--tour", "heuristic", "--out", str(out),
    ]
    assert invoke(runner, args).exit_code == 0
    assert json.loads(out.read_text())["config"]["tour"] == "heuristic"
    result = invoke(runner, ["forest", "verify", str(out)])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["config"]["tour"] == "heuristic"
    assert data["matches_stored"] is True


def test_property_replay_failure_exits_5(runner, monkeypatch):
    monkeypatch.setattr(testers, "_replay_witness", lambda spec, witness: False)
    result = runner.invoke(
        main,
        ["property", "test", "--family", "P", "--r", "2", "--group", "abelian:2",
         "--xi", "1,1", "--k-max", "1"],
    )
    assert result.exit_code == 5
    assert "witness failed replay" in result.output


def test_sampler_failure_exits_5(runner, monkeypatch):
    # every draw of a nontrivial xi coincides: an internal failure
    monkeypatch.setattr(tours, "_draw_pairs", lambda *args, **kwargs: None)
    result = runner.invoke(
        main, ["experiment", "ts-lambda", "--xi", "a b", "--lambda", "1", "--samples", "1"])
    assert result.exit_code == 5
    assert "sampler failed" in result.output
    assert "Traceback" not in result.output


def test_parallel_experiment_matches_sequential(runner, tmp_path):
    outs = []
    for jobs, name in (("1", "seq.json"), ("2", "par.json")):
        out = tmp_path / name
        args = [
            "experiment", "ts-lambda", "--group", "free:2",
            "--xi", "abaB", "--lambda", "2", "--samples", "4",
            "--seed", "5", "--jobs", jobs, "--out", str(out),
        ]
        assert invoke(runner, args).exit_code == 0
        data = json.loads(out.read_text())
        del data["generated_at"], data["elapsed_seconds"], data["config"]["jobs"]
        outs.append(data)
    assert outs[0]["xi"] == "a b a B"
    assert outs[0] == outs[1]


def test_experiment_max_size_below_two_is_malformed(runner):
    result = runner.invoke(
        main,
        ["experiment", "ts-lambda", "--xi", "a b", "--lambda", "1", "--samples", "1",
         "--max-size", "1"],
    )
    assert result.exit_code == 2
    assert "Traceback" not in result.output


@pytest.mark.parametrize("family, n_args, n", [("P10", [], 10), ("Pn'", ["--n", "3"], 3)])
def test_property_replay_keeps_family_aperiodicity(runner, tmp_path, family, n_args, n):
    out = tmp_path / "prop.json"
    args = [
        "property", "test", "--family", family, *n_args, "--r", "3",
        "--group", "abelian:1", "--xi", "1", "--k-max", "2", "--out", str(out),
    ]
    assert invoke(runner, args).exit_code == 0
    data = json.loads(out.read_text())
    assert data["config"]["n"] == n
    # x-sequence (-1, -1) is a square: n-aperiodic for n >= 2, not 1-aperiodic
    data["witness"] = {"k": 2, "eps": [1, 1], "xs": ["-1", "-1"], "length": 0}
    out.write_text(json.dumps(data))
    assert invoke(runner, ["replay", str(out)]).exit_code == 0
    data["witness"]["length"] = 1
    out.write_text(json.dumps(data))
    assert runner.invoke(main, ["replay", str(out)]).exit_code == 5


def test_tree_label_from_file(runner, tmp_path):
    from ts_groups.trees import PlaneTernaryTree

    tree = PlaneTernaryTree.random(30, 2)
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text(tree.serialize())
    result = invoke(
        runner,
        ["tree", "label", "--mode", "adversarial", "--seed", "4",
         "--tree-file", str(tree_file)],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == tree.n_vertices - 1


def test_tampered_forest_report_exit_code(runner, tmp_path):
    oracle = make_oracle("free:2")
    xi = first_aperiodic_word(2, 49)
    g = oracle.parse_element("b a")
    els = [g, oracle.multiply(g, xi)]
    set_file = tmp_path / "set.words"
    set_file.write_text("\n".join(format_word(e) for e in els) + "\n")
    out = tmp_path / "forest.json"
    args = [
        "forest", "build", "--mode", "P", "--r", "12", "--set", str(set_file),
        "--xi", format_word(xi), "--out", str(out),
    ]
    assert invoke(runner, args).exit_code == 0
    data = json.loads(out.read_text())
    data["trees"][0]["vertices"][0]["elements"] = ["a a a"]
    out.write_text(json.dumps(data))
    result = runner.invoke(main, ["forest", "verify", str(out)])
    assert result.exit_code == 5


@pytest.mark.parametrize("options, code", [
    ([], 0), (["--mode", "P", "--r", "12", "--tour", "exact", "--seed", "0"], 0),
    (["--r", "2"], 2), (["--mode", "P10"], 2), (["--tour", "heuristic"], 2),
    (["--group", "free:3"], 2),
])
def test_forest_verify_options_may_not_contradict_the_report(runner, tmp_path, options, code):
    # a rebuild from other inputs than the stored ones would not match
    # the stored trees, which is the tampered-report exit 5
    oracle = make_oracle("free:2")
    xi = first_aperiodic_word(2, 49)
    g = oracle.parse_element("b a")
    set_file = tmp_path / "set.words"
    set_file.write_text(f"{format_word(g)}\n{format_word(oracle.multiply(g, xi))}\n")
    out = tmp_path / "forest.json"
    assert invoke(runner, ["forest", "build", "--mode", "P", "--r", "12", "--set",
                           str(set_file), "--xi", format_word(xi), "--out", str(out)]).exit_code == 0
    result = runner.invoke(main, ["forest", "verify", str(out), *options])
    assert result.exit_code == code
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args", [
    ["experiment", "ts-lambda", "--group", "free:x", "--xi", "a", "--lambda", "1"],
    ["experiment", "ts-lambda", "--group", "abelian:x", "--xi", "1", "--lambda", "1"],
    ["experiment", "ts-lambda", "--group", "f2xz:n=x", "--xi", "a|0", "--lambda", "1"],
    ["experiment", "ts-lambda", "--xi", "a b", "--lambda", "abc", "--samples", "1"],
    ["folner", "demo", "--box", "0:x", "--xi", "1,0"],
    ["experiment", "ts-lambda", "--xi", "a b", "--lambda", "1", "--jobs", "0"],
    ["experiment", "ts-lambda", "--xi", "a b", "--lambda", "1", "--jobs", "-1"],
    # a search that tries nothing would report no counterexample
    ["property", "test", "--family", "P", "--r", "2", "--group", "abelian:2", "--xi", "1,1",
     "--k-max", "0"],
    ["property", "test", "--family", "P", "--r", "2", "--xi", "a b", "--samples", "-3"],
    ["property", "test", "--family", "P", "--r", "2", "--xi", "a b", "--budget", "-3"],
    ["property", "test", "--family", "P", "--r", "2", "--xi", "a b", "--budget", "0"],
    ["experiment", "ts-lambda", "--xi", "a b", "--lambda", "1", "--samples", "-1"],
    ["burnside", "pipeline", "--samples", "-1", "--desk-scale"],
    # no set is related through the identity
    ["experiment", "ts-lambda", "--group", "free:2", "--xi", "", "--lambda", "1", "--samples", "2"],
    ["experiment", "ts-lambda", "--group", "abelian:2", "--xi", "0,0", "--lambda", "1",
     "--samples", "2"],
    ["experiment", "ts-lambda", "--group", "f2xz:n=2", "--xi", "|0", "--lambda", "1",
     "--samples", "2"],
    # the smallest box and its translate do not fit in --max-size
    ["experiment", "ts-lambda", "--group", "abelian:2", "--xi", "2,3", "--lambda", "2",
     "--style", "box-pairs", "--max-size", "6", "--samples", "1"],
    ["experiment", "ts-lambda", "--group", "abelian:2", "--xi", "1,0", "--lambda", "2",
     "--style", "box-pairs", "--max-size", "3", "--samples", "1"],
    # no tree has at most 0 vertices
    ["tree", "label", "--mode", "3letter", "--vertices", "0"],
    ["tree", "label", "--mode", "3letter", "--vertices", "-3"],
], ids=["free", "abelian", "f2xz", "lambda", "box", "jobs-0", "jobs-neg", "k-max-0",
        "property-samples-neg", "property-budget-neg", "property-budget-0",
        "ts-lambda-samples-neg", "burnside-samples-neg", "identity-xi-free",
        "identity-xi-abelian", "identity-xi-f2xz", "box-pairs-floor-disjoint",
        "box-pairs-floor-overlap", "tree-vertices-0", "tree-vertices-neg"])
def test_malformed_input_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Traceback" not in result.output


_NOT_UTF8 = b"\xff\xfe"
_TS_LAMBDA = '{"config": {"subcommand": "experiment ts-lambda", "group": "free:2", "xi": "a b"'
_PROPERTY = ('{"config": {"subcommand": "property test", "family": "P", "r": 12, "group": "free:2",'
             ' "xi": "a b a"')
_WITNESS = ', "witness": {"k": 1, "eps": [1], "xs": ["a"], "length": 4}}'
_FOREST = '{"config": {"mode": "P", "r": 12, "group": "free:2", "xi": "a b"'


@pytest.mark.parametrize("content, args", [
    ("not json", ["replay", "{file}"]),
    (b"\xff\xfe\x00", ["replay", "{file}"]),
    ("[1, 2]", ["replay", "{file}"]),
    ('{"config": {"subcommand": "experiment ts-lambda", "xi": "a", "lambda": "1"}}',
     ["replay", "{file}"]),
    (_TS_LAMBDA + ', "lambda": "abc"}}', ["replay", "{file}"]),
    (_TS_LAMBDA + ', "lambda": "1"}, "violations": [{"L": 3}]}', ["replay", "{file}"]),
    ("not json", ["forest", "verify", "{file}"]),
    ('{"config": {}}', ["forest", "verify", "{file}"]),
    ("0 - 0\nx 0 1\n", ["tree", "label", "--mode", "3letter", "--tree-file", "{file}"]),
    ("", ["folner", "demo", "--box", "0:2,0:2", "--xi", "1,0", "--out", "{missing}"]),
    ("", ["tree", "label", "--mode", "3letter", "--vertices", "10", "--out", "{missing}"]),
    ("", ["tsp", "--group", "free:2", "--set", "{dir}"]),
    # every text reader, on a file that is not UTF-8
    (_NOT_UTF8, ["tsp", "--group", "free:2", "--set", "{file}"]),
    (_NOT_UTF8, ["forest", "build", "--mode", "P", "--r", "12", "--set", "{file}", "--xi", "a b"]),
    (_NOT_UTF8, ["forest", "verify", "--mode", "P", "--r", "12", "--set", "{file}",
                 "--xi", "a b"]),
    (_NOT_UTF8, ["forest", "build", "--mode", "P", "--r", "12", "--set", "{word}",
                 "--xi", "{file}"]),
    (_NOT_UTF8, ["lemma5", "verify", "--xi", "{file}", "--xs", "{word}", "--eps", "+"]),
    (_NOT_UTF8, ["lemma5", "verify", "--xi", "{word}", "--xs", "{file}", "--eps", "+"]),
    (_NOT_UTF8, ["tree", "label", "--mode", "3letter", "--tree-file", "{file}"]),
    # stored fields of the wrong type
    ('{"config": {"subcommand": "experiment ts-lambda", "group": 5, "xi": "a", "lambda": "1"}}',
     ["replay", "{file}"]),
    ('{"config": {"subcommand": "experiment ts-lambda", "group": "free:2", "xi": ["a"],'
     ' "lambda": "1"}}', ["replay", "{file}"]),
    (_TS_LAMBDA + ', "lambda": 2}}', ["replay", "{file}"]),
    (_TS_LAMBDA + ', "lambda": "1"}, "violations": 5}', ["replay", "{file}"]),
    (_TS_LAMBDA + ', "lambda": "1"}, "violations": [{"elements": "a b", "L": 2}]}',
     ["replay", "{file}"]),
    (_TS_LAMBDA + ', "lambda": "1"}, "violations": [{"elements": ["a", "b"], "L": "2"}]}',
     ["replay", "{file}"]),
    (_PROPERTY.replace('"P"', "5") + ', "n": 3}' + _WITNESS, ["replay", "{file}"]),
    (_PROPERTY.replace('"P"', '"Q"') + ', "n": 3}' + _WITNESS, ["replay", "{file}"]),
    (_PROPERTY.replace("12", '"12"') + "}" + _WITNESS, ["replay", "{file}"]),
    (_PROPERTY + ', "n": "3"}' + _WITNESS, ["replay", "{file}"]),
    (_PROPERTY + ', "seed": 0}, "witness": {"k": 1, "eps": [2], "xs": ["a"], "length": 4}}',
     ["replay", "{file}"]),
    (_PROPERTY + ', "seed": 0}, "witness": ["a"]}', ["replay", "{file}"]),
    (_FOREST + ', "set": "{word}", "r": "12"}}', ["forest", "verify", "{file}"]),
    (_FOREST + ', "set": 5}}', ["forest", "verify", "{file}"]),
    (_FOREST + ', "set": "{word}", "tour": 1}}', ["forest", "verify", "{file}"]),
], ids=["replay-not-json", "replay-not-utf8", "replay-list", "replay-no-group",
        "replay-bad-lambda", "replay-violation-no-elements", "forest-not-json", "forest-no-mode", "tree-bad-field",
        "folner-out-missing-dir", "tree-out-missing-dir", "tsp-set-is-dir",
        "tsp-set-not-utf8", "forest-build-set-not-utf8", "forest-verify-set-not-utf8",
        "forest-xi-not-utf8", "lemma5-xi-not-utf8", "lemma5-xs-not-utf8", "tree-file-not-utf8",
        "replay-group-int", "replay-xi-list", "replay-lambda-number", "replay-violations-int",
        "replay-elements-text", "replay-L-text", "replay-family-int", "replay-family-unknown",
        "replay-r-text", "replay-n-text", "replay-witness-bad-eps", "replay-witness-list",
        "forest-r-text", "forest-set-int", "forest-tour-int"])
def test_bad_files_exit_2(runner, tmp_path, content, args):
    path = tmp_path / "input"
    word = tmp_path / "ab.word"
    word.write_text("a b\n")
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content.replace("{word}", str(word)))
    names = {"file": path, "dir": tmp_path, "missing": tmp_path / "missing" / "out",
             "word": word}
    result = runner.invoke(main, [a.format(**names) for a in args])
    assert result.exit_code == 2
    assert "Traceback" not in result.output


@pytest.mark.parametrize("content", [
    "0 - 0\n1 0 1\n1 0 1\n",
    "0 - 0\n1 2 1\n2 1 2\n",
    "0 - 0\n1 0 1\n2 0 1\n3 0 1\n4 0 1\n",
], ids=["duplicate-vertex", "cycle-off-the-origin", "more-children-than-labels"])
def test_malformed_tree_file_exits_2(tmp_path, content):
    # a separate process, so a tree walk that never ends fails on the timeout
    path = tmp_path / "tree.txt"
    path.write_text(content)
    src = Path(ts_groups.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "ts_groups.cli", "tree", "label", "--mode", "adversarial",
         "--tree-file", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stdout + result.stderr


@pytest.mark.parametrize("descriptor, code", [("free:3", 2), (" free:2", 0)])
def test_xi_from_lemma4_needs_free_rank_2(runner, descriptor, code):
    # the check reads the parsed oracle, so a descriptor make_oracle
    # accepts for free:2 passes and another rank is refused up front
    result = runner.invoke(main, [
        "property", "test", "--family", "P", "--r", "12", "--group", descriptor,
        "--xi-from-lemma4", "--k-max", "1", "--budget", "2"])
    assert result.exit_code == code
    assert "Traceback" not in result.output
    if code:
        assert "free:2" in result.output


def test_burnside_pipeline_report_is_deterministic(runner, tmp_path):
    texts = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        result = invoke(runner, ["burnside", "pipeline", "--samples", "2", "--desk-scale",
                                 "--out", str(out)])
        assert result.exit_code == 0
        texts.append(re.sub(r'"(generated_at|elapsed_seconds)": [^,\n]*', r'"\1": _',
                            out.read_text()))
    assert texts[0] == texts[1]
    assert '"seconds"' not in texts[0]
