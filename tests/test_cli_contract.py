"""The CLI's exit-code contract under generated argv: every command ends
with 0, 2 (bad input), 3 (resource limit) or 4 (failed precondition),
never with a traceback, and with 5 (broken invariant) only when a stored
report it replays was tampered with."""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ts_groups.cli import main
from ts_groups.groups import make_oracle
from ts_groups.trees import PlaneTernaryTree
from ts_groups.words import first_aperiodic_word, format_word

# Option values, taken from the cases in test_cli.py: each option is
# mostly one of its valid values and sometimes a malformed or over-cap
# one, and a value of None leaves the option out.  Counts of work
# (samples, budgets, seeds) stay small so that every example ends.
# Over-cap values sit just past their caps, where a lost cap costs
# seconds, not all memory; test_cli.py runs the far ones in a process
# of bounded memory.  True stands for a flag that is given.


def _opt(name, valid, bad=()):
    return (name,), [(v,) for v in valid], [(v,) for v in bad]


_OUT = _opt("--out", [None, "{out}"], ["{missing}", "{dir}"])
_SEED = _opt("--seed", [None, "0", "1", "3"], ["-1", "x"])
_GROUP_BAD = ["free:0", "free:x", "free:1001", "abelian:0", "abelian:99999999999",
              "f2xz:n=0", "f2xz:2", "f2xz:n=1001", "prod(free:2)", "prod(", "nope:1", ""]
_GROUP_XI = (("--group", "--xi"), [
    (None, "a b"), ("free:2", "a b a B a b A b a"), ("free:2", "abaB"), (" free:2", "a"),
    ("free:3", "g3 a"), ("abelian:2", "2,3"), ("abelian:2", "1,0"), ("abelian:1", "1"),
    ("abelian:3", "1,0,0"), ("f2xz:n=2", "a|1"), ("f2xz:n=2", "a b|-2"),
    ("f2xz:n=3", "a|1"), ("prod(free:2,abelian:1)", "a|1"),
    ("prod(f2xz:n=2,abelian:1)", "a a|1|3"), ("prod(prod(free:2,abelian:1),abelian:1)", "a|1|2"),
    ("free:2", "{xi-word}"),
], [*((g, "a") for g in _GROUP_BAD),
    ("free:2", ""), ("free:2", None), ("free:2", "q"), ("free:2", "a|1"), ("free:2", "1,0"),
    ("free:2", "{not-utf8}"), ("abelian:2", "0,0"), ("abelian:2", "1,x"), ("abelian:2", "a"),
    ("abelian:2", "99999999999,0"), ("f2xz:n=2", "|0"), ("f2xz:n=2", "a"),
    ("f2xz:n=2", "a|99999999999"), ("prod(free:2,abelian:1)", "a|1|3")])
_GROUP_SET = (("--group", "--set"), [
    (None, "{set-free}"), ("free:2", "{set-free}"), ("abelian:2", "{set-abelian}"),
    ("f2xz:n=2", "{set-f2xz}"), ("abelian:2", "{set-16}"), ("free:2", "{set-forest}"),
], [*((g, "{set-free}") for g in _GROUP_BAD),
    ("free:2", None), ("free:2", "{set-abelian}"), ("abelian:2", "{set-free}"),
    ("free:2", "{empty}"), ("free:2", "{not-utf8}"), ("free:2", "{dir}"),
    ("free:2", "{missing}")])
_FOREST_INPUTS = (("--group", "--set", "--xi"), [
    (None, "{set-forest}", "{xi-word}"), ("free:2", "{set-forest}", "{xi-word}"),
], [("free:2", "{set-free}", "a b"), ("abelian:2", "{set-abelian}", "1,0"),
    ("free:2", "{set-forest}", "a"), ("free:2", "{set-forest}", None),
    ("free:2", None, "{xi-word}"), ("free:3", "{set-forest}", "{xi-word}"),
    ("free:2", "{empty}", "{xi-word}"), ("free:2", "{set-forest}", "{not-utf8}")])
_REPORTS = ["{forest}", "{forest-tampered}", "{property}", "{property-tampered}",
            "{experiment}", "{experiment-tampered}"]
_NOT_REPORTS = ["{garbage}", "{empty}", "{not-utf8}", "{no-config}", "{dir}", "{set-free}"]
_TAMPERED = ("{forest-tampered}", "{property-tampered}", "{experiment-tampered}")

_COMMANDS = [
    (["seq", "thue"], [
        _opt("--n", ["1", "12", "3000"], [None, "-1", "0", "10000001", "x"])]),
    (["tree", "label"], [
        _opt("--mode", ["3letter", "adversarial"], [None, "x"]),
        _SEED,
        _opt("--vertices", [None, "1", "4", "60", "500"],
             ["0", "-3", "100001", "x"]),
        _opt("--tree-file", [None, None, "{tree}", "{tree-ray}"],
             ["{tree-duplicate}", "{tree-cycle}", "{tree-crowded}", "{tree-bad-field}",
              "{empty}", "{not-utf8}", "{dir}"]),
        _OUT]),
    (["tsp"], [
        _GROUP_SET,
        _opt("--exact", [None, True]), _opt("--heuristic", [None, True]), _SEED, _OUT,
        _opt("--format", [None, "json", "text"], ["csv"])]),
    (["experiment", "ts-lambda"], [
        _GROUP_XI,
        _opt("--lambda", ["1", "2", "1.5", "3/2"], [None, "0", "-1", "abc", "1/0", "1e999"]),
        _opt("--samples", ["0", "1", "2"], ["-1", "x"]),
        _SEED,
        _opt("--style", [None, "pairs", "chains", "mixed", "box-pairs"], ["x"]),
        _opt("--max-size", ["2", "3", "6"],
             ["0", "1", "-1", "10001", "x"]),
        _opt("--lprime", [None, True]),
        _opt("--jobs", [None, "1"], ["0", "-1", "x"]),
        _OUT, _opt("--format", [None, "json", "csv", "text"], ["x"])]),
    (["forest", "build"], [
        _opt("--mode", ["P", "P10"], [None, "x"]),
        _opt("--r", ["12", "2", "0", "99999999999"], [None, "-1", "x"]),
        _FOREST_INPUTS,
        _opt("--tour", [None, "exact", "heuristic"], ["x"]),
        _SEED, _OUT]),
    (["forest", "verify"], [
        _opt("", [None, *_REPORTS], _NOT_REPORTS),
        _opt("--mode", [None, None, "P", "P10"], ["x"]),
        _opt("--r", [None, None, "12", "2"], ["-1", "x"]),
        (_FOREST_INPUTS[0], [(None, None, None)] * 2 + _FOREST_INPUTS[1], _FOREST_INPUTS[2]),
        _opt("--tour", [None, None, "exact", "heuristic"], ["x"]),
        _SEED, _OUT]),
    (["property", "test"], [
        (("--family", "--n"), [
            ("P", None), ("P'", None), ("P10", None), ("P10'", None), ("Pn'", "3"),
            ("Pn'", "1"), ("P", "3"),
        ], [("Pn'", None), ("Pn'", "0"), ("Pn'", "-1"), ("Pn'", "x"), ("x", None),
            (None, None)]),
        _opt("--r", ["0", "1", "2", "3", "12"], [None, "1001", "-1", "x"]),
        _GROUP_XI,
        _opt("--k-max", [None, "1", "2", "3"], ["0", "101", "x"]),
        _opt("--samples", ["1", "5", "50"], ["0", "-3", "x"]),
        # the constructed marker word has 10,005 letters, so it comes
        # with a budget: the default exhaustive limit of 200,000
        # candidates would take seconds to minutes
        (("--xi-from-lemma4", "--budget"), [
            (None, None), (None, None), (None, "2"), (None, "40"), (True, "2"), (True, "40"),
        ], [(None, "0"), (None, "-3"), (None, "x"), (True, "0")]),
        _SEED, _OUT]),
    (["xi", "construct"], [
        _SEED, _opt("--desk-scale", [None, True]),
        _opt("--out", ["{out}"], ["{missing}", "{dir}"]),
        _opt("--report", [None, "{out2}"], ["{missing}"])]),
    (["lemma5", "verify"], [
        _opt("--xi", ["{xi-word}", "{word}"], [None, "{empty}", "{not-utf8}", "{xs}"]),
        _opt("--xs", ["{xs}", "{word}"], [None, "{empty}", "{not-utf8}", "{set-abelian}"]),
        _opt("--eps", ["+", "-", "+-", "++"], [None, "", "x", "+-+"]),
        _opt("--desk-scale", [None, True]), _OUT]),
    (["burnside", "pipeline"], [
        _opt("--samples", ["0", "1", "2"], ["-1", "x"]),
        _SEED, _opt("--desk-scale", [None, True]), _OUT]),
    (["folner", "demo"], [
        (("--box", "--xi", "--group"), [
            ("0:9,0:9", "3,0", None), ("0:2,0:2", "1,0", "abelian:2"),
            ("0:3", "1", "abelian:1"), ("0:2,0:2,0:2", "1,0,0", "abelian:3"),
            ("-5:5,0:4", "0,2", None),
        ], [("5:0,0:1", "1,0", None), ("0:x", "1", "abelian:1"), ("", "1,0", None),
            ("0:316,0:316", "3,0", None), ("-99999:99999", "1", "abelian:1"),
            ("0:9,0:9", "0,0", None), ("0:9,0:9", "a", None), ("0:9,0:9", "3,0", "free:2"),
            ("0:9,0:9", "3,0", "abelian:0"), ("0:9", "3,0", None), (None, "3,0", None),
            ("0:9,0:9", None, None)]),
        _OUT]),
    (["replay"], [_opt("", _REPORTS, [None, *_NOT_REPORTS])]),
    ([], [_opt("", ["--version", "--help"], [None, "nope", "tree"])]),
]


def _option(names, valid, bad):
    pick = good = st.sampled_from(valid)
    if bad:
        # mostly valid, so that a command often gets past its checks
        pick = st.integers(0, 7).flatmap(lambda i: st.sampled_from(bad) if i == 0 else good)
    return pick.map(lambda values: [
        a for name, v in zip(names, values) if v is not None
        for a in ((name,) if v is True else (name, v) if name else (v,))])


_ARGV = st.one_of(*[
    st.tuples(*[_option(*option) for option in options]).map(
        lambda parts, path=path: path + [a for part in parts for a in part])
    for path, options in _COMMANDS
])


def _make_files(d):
    """Every file an example can name, made in the directory d: inputs,
    reports and their tampered copies, and files that are not what they
    claim."""
    names = {"dir": d, "missing": d / "missing" / "out", "out": d / "out",
             "out2": d / "out2"}
    oracle = make_oracle("free:2")
    xi = first_aperiodic_word(2, 49)
    g = oracle.parse_element("b a")
    texts = {
        "set-free": "a\nb\na B\n",
        "set-abelian": "0,0\n1,0\n0,1\n",
        "set-f2xz": "a|0\nb|1\n",
        "set-forest": f"{format_word(g)}\n{format_word(oracle.multiply(g, xi))}\n",
        "set-16": "".join(f"{i},{j}\n" for i in range(4) for j in range(4)),
        "xi-word": format_word(xi) + "\n",
        "word": "a b\n",
        "xs": "a b\nb a B\n",
        "empty": "",
        "garbage": "not json\n",
        "no-config": '{"config": {}}',
        "tree": PlaneTernaryTree.random(20, 1).serialize(),
        "tree-ray": PlaneTernaryTree.ray_tree(50).serialize(),
        "tree-duplicate": "0 - 0\n1 0 1\n1 0 1\n",
        "tree-cycle": "0 - 0\n1 2 1\n2 1 2\n",
        "tree-crowded": "0 - 0\n1 0 1\n2 0 1\n3 0 1\n4 0 1\n",
        "tree-bad-field": "0 - 0\nx 0 1\n",
    }
    for name, text in texts.items():
        names[name] = d / name
        names[name].write_text(text)
    names["not-utf8"] = d / "not-utf8"
    names["not-utf8"].write_bytes(b"\xff\xfe\x00")

    runner = CliRunner()
    reports = {
        "forest": ["forest", "build", "--mode", "P", "--r", "12", "--set",
                   str(names["set-forest"]), "--xi", str(names["xi-word"])],
        "property": ["property", "test", "--family", "P'", "--r", "2", "--group",
                     "abelian:2", "--xi", "1,1", "--k-max", "2"],
        "experiment": ["experiment", "ts-lambda", "--group", "abelian:2", "--xi", "2,3",
                       "--lambda", "2", "--samples", "5", "--seed", "3", "--style",
                       "box-pairs"],
    }
    for name, args in reports.items():
        names[name] = d / f"{name}.json"
        result = runner.invoke(main, args + ["--out", str(names[name])])
        assert result.exit_code == 0, result.output
        data = json.loads(names[name].read_text())
        if name == "forest":
            data["trees"][0]["vertices"][0]["elements"] = ["a a a"]
        elif name == "property":
            data["witness"]["length"] += 1
        else:
            data["violations"][0]["L"] += 1
        names[f"{name}-tampered"] = d / f"{name}-tampered.json"
        names[f"{name}-tampered"].write_text(json.dumps(data))
    return names


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return _make_files(tmp_path_factory.mktemp("contract"))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(argv=_ARGV)
def test_cli_exit_codes_hold_for_any_argv(files, argv):
    result = CliRunner().invoke(main, [a.format(**files) for a in argv])
    allowed = {0, 2, 3, 4}
    if any(t in argv for t in _TAMPERED):
        allowed.add(5)
    assert result.exit_code in allowed, (result.output, result.exception)
    assert "Traceback" not in result.output
