import gc
import json

import pytest

from jsnorm import cli
from jsnorm.core import FiniteTree, FinVector, SetFamily, dyadic_tree, tree_segments
from jsnorm.errors import InputFormatError, JsnormError, ResourceLimitError
from jsnorm.serialize import (
    canonical_json,
    family_to_dict,
    tree_to_dict,
    vector_to_dict,
)
from jsnorm.talagrand import SeqGrid, admissible_family

# JSON that json.load refuses although the grammar allows it: an integer of
# 4,400 digits (past CPython's limit for int() of a string), and arrays
# nested past the recursion limit
LONG_INTEGER = "9" * 4400
DEEP_NESTING = "[" * 5000 + "]" * 5000


@pytest.fixture
def inputs(tmp_path):
    tree = dyadic_tree(1)
    fam = tree_segments(tree)
    g = tree.ground_set()
    paths = {}

    def put(name, payload):
        p = tmp_path / name
        p.write_text(canonical_json(payload))
        paths[name] = str(p)

    put("family.json", family_to_dict(fam))
    put("tree.json", tree_to_dict(tree))
    put("vector.json", vector_to_dict(FinVector(g, {a: 1 for a in g.elements})))
    put("members.json", {"members": [["0:0", "1:0"], ["0:0", "1:1"]]})
    put("bad-vector.json", {"entries": {"0:0": "bogus"}})
    put(
        "weighted.json",
        {
            "ground": ["a", "b"],
            "weighted": [{"a": "1/1"}, {"b": "1/1"}, {"a": "1/2", "b": "1/2"}],
        },
    )
    put("wvec.json", {"entries": {"a": "1/1", "b": "1/1"}})
    adm, _ = admissible_family(SeqGrid(3, 1), max_size=2)
    put("adm.json", family_to_dict(adm))
    put("gd.json", {"blocks": [["0"], ["1"], ["2"]]})
    put("gn.json", {"blocks": [["0", "1", "2"]]})
    put(
        "supports.json",
        {"gamma": ["g1", "g2", "g3"], "supports": {"d1": ["g1", "g2"], "d2": ["g3"]}},
    )
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_check_ci_passes(capsys, inputs):
    code, payload = run(capsys, ["check-ci", "--family", inputs["family.json"]])
    assert code == 0
    assert payload["command"] == "check-ci"
    assert payload["passed"] is True


def test_check_ci_on_an_empty_family(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(canonical_json({"ground": ["a"], "members": []}))
    code, payload = run(capsys, ["check-ci", "--family", str(path)])
    assert code == 1
    assert payload["condition_a"] == {"passed": False, "witness": {"atom": "a"}}
    assert payload["condition_b"]["passed"] and payload["condition_c"]["passed"]
    assert payload["max_trace_size"] == 0


def test_norm_reports_golden(capsys, inputs):
    code, payload = run(
        capsys,
        ["norm", "--family", inputs["family.json"], "--vector", inputs["vector.json"]],
    )
    assert code == 0
    assert payload["norm_sq"] == "5/1"
    assert payload["method"] == "oracle"
    assert payload["witness"] == [["0:0", "1:0"], ["1:1"]]
    assert payload["norm_decimal"].startswith("2.2360679")


def test_norm_tree_variant(capsys, inputs):
    code, payload = run(
        capsys,
        ["norm", "--tree", inputs["tree.json"], "--vector", inputs["vector.json"]],
    )
    assert code == 0
    assert payload["norm_sq"] == "5/1"
    assert payload["method"] == "tree-dp"


def test_norm_tree_parent_must_be_an_object(capsys, tmp_path):
    vector = tmp_path / "vector.json"
    vector.write_text(canonical_json({"entries": {"a": "1/1", "b": "2/1"}}))
    tree = tmp_path / "tree.json"
    argv = ["norm", "--tree", str(tree), "--vector", str(vector)]
    tree.write_text(canonical_json({"parent": {"a": None, "b": "a"}}))
    code, payload = run(capsys, argv)
    assert (code, payload["norm_sq"]) == (0, "9/1")
    tree.write_text(canonical_json({"parent": [["a", None], ["b", "a"]]}))
    code, payload = run(capsys, argv)
    assert code == 2
    assert payload["error"]["code"] == "input-format"


def test_norm_requires_exactly_one_source(capsys, inputs):
    code, _ = run(
        capsys,
        [
            "norm",
            "--family",
            inputs["family.json"],
            "--tree",
            inputs["tree.json"],
            "--vector",
            inputs["vector.json"],
        ],
    )
    assert code == 2
    code, _ = run(capsys, ["norm", "--vector", inputs["vector.json"]])
    assert code == 2


def test_norm_malformed_vector_exits_2(capsys, inputs):
    code, payload = run(
        capsys,
        [
            "norm",
            "--family",
            inputs["family.json"],
            "--vector",
            inputs["bad-vector.json"],
        ],
    )
    assert code == 2
    assert payload["error"]["code"] == "input-format"


def test_norm_missing_file_exits_2(capsys, inputs):
    code, _ = run(
        capsys,
        ["norm", "--family", inputs["dir"] + "/nope.json", "--vector", inputs["vector.json"]],
    )
    assert code == 2


def test_norm_precision_flag(capsys, inputs):
    code, payload = run(
        capsys,
        [
            "norm",
            "--family",
            inputs["family.json"],
            "--vector",
            inputs["vector.json"],
            "--precision",
            "12",
        ],
    )
    assert code == 0
    assert payload["norm_decimal"] == "2.23606797750"
    code, _ = run(
        capsys,
        [
            "norm",
            "--family",
            inputs["family.json"],
            "--vector",
            inputs["vector.json"],
            "--precision",
            "5",
        ],
    )
    assert code == 2


def test_norm_re(capsys, inputs):
    code, payload = run(
        capsys,
        ["norm-re", "--weighted", inputs["weighted.json"], "--vector", inputs["wvec.json"]],
    )
    assert code == 0
    assert payload["norm_sq"] == "2/1"
    assert payload["witness"] == [{"weights": {"a": "1/1"}}, {"weights": {"b": "1/1"}}]


def test_disjointify_command(capsys, inputs):
    code, payload = run(
        capsys,
        [
            "disjointify",
            "--family",
            inputs["family.json"],
            "--members",
            inputs["members.json"],
        ],
    )
    assert code == 0
    assert payload["parts"] == [["0:0", "1:0"], ["1:1"]]


def test_disjointify_domain_failure_exits_1(capsys, tmp_path, inputs):
    fam = {"ground": ["a", "b", "c"], "members": [["a", "b"], ["b", "c"]]}
    f = tmp_path / "overlap.json"
    f.write_text(canonical_json(fam))
    m = tmp_path / "mm.json"
    m.write_text(canonical_json({"members": [["a", "b"], ["b", "c"]]}))
    code, payload = run(
        capsys, ["disjointify", "--family", str(f), "--members", str(m)]
    )
    assert code == 1
    assert payload["error"]["code"] == "condition-b-failure"
    assert "witness" in payload["error"]


def test_build_and_search_chain(capsys, tmp_path):
    out = tmp_path / "sys.json"
    code = cli.main(
        [
            "build-reznichenko",
            "--trees",
            "2",
            "--stages",
            "3",
            "--pool",
            "4",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    atoms = [f"{s}:{t}" for s in range(3) for t in range(4)]
    part = tmp_path / "part.json"
    part.write_text(canonical_json({"blocks": [atoms]}))
    code, payload = run(
        capsys,
        [
            "search-partition",
            "--system",
            str(out),
            "--partition",
            str(part),
            "--threshold",
            "2",
        ],
    )
    assert code == 0
    assert payload["witness"] is not None
    assert payload["witness"]["per_block_counts"]["0"] >= 2


def test_search_partition_reports_none(capsys, tmp_path):
    out = tmp_path / "sys.json"
    cli.main(
        ["build-reznichenko", "--trees", "2", "--stages", "2", "--pool", "4", "--seed", "0", "--out", str(out)]
    )
    capsys.readouterr()
    atoms = [f"{s}:{t}" for s in range(2) for t in range(4)]
    part = tmp_path / "part.json"
    part.write_text(canonical_json({"blocks": [[a] for a in atoms]}))
    code, payload = run(
        capsys,
        ["search-partition", "--system", str(out), "--partition", str(part), "--threshold", "2"],
    )
    assert code == 0
    assert payload["witness"] is None


@pytest.mark.parametrize("fault", ["cycle", "no-root", "tree-key"])
def test_search_partition_bad_tree_exits_2(capsys, tmp_path, fault):
    out = tmp_path / "sys.json"
    cli.main(
        ["build-reznichenko", "--trees", "2", "--stages", "3", "--pool", "4", "--seed", "7", "--out", str(out)]
    )
    capsys.readouterr()
    system = json.loads(out.read_text())["system"]
    tree = system["trees"]["1"]
    if fault == "cycle":
        tree["0:1"] = "1:0"
    elif fault == "no-root":
        tree["0:1"] = "0:1"
    else:
        system["trees"]["one"] = system["trees"].pop("1")
    out.write_text(canonical_json(system))
    part = tmp_path / "part.json"
    part.write_text(canonical_json({"blocks": [[f"{s}:{t}" for s in range(3) for t in range(4)]]}))
    code, payload = run(
        capsys,
        ["search-partition", "--system", str(out), "--partition", str(part), "--threshold", "2"],
    )
    assert code == 2
    assert payload["error"]["code"] == "input-format"


def test_qe_search_command(capsys, inputs):
    code, payload = run(
        capsys,
        [
            "qe-search",
            "--family",
            inputs["adm.json"],
            "--gamma-d",
            inputs["gd.json"],
            "--gamma-n",
            inputs["gn.json"],
            "--threshold",
            "2",
        ],
    )
    assert code == 0
    assert payload["witness"]["n0"] == 0
    assert payload["witness"]["s"] == ["0", "1"]


def test_qe_search_reports_none(capsys, inputs):
    # adm.json members hold at most two atoms, so no gamma_n block meets three
    argv = ["qe-search", "--family", inputs["adm.json"], "--gamma-d", inputs["gd.json"], "--gamma-n", inputs["gn.json"]]
    code = cli.main(argv + ["--threshold", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == '{"command":"qe-search","witness":null}'


@pytest.mark.parametrize("threshold", ["0", "-3"])
def test_qe_search_threshold_below_one_exits_1(capsys, inputs, threshold):
    argv = ["qe-search", "--family", inputs["adm.json"], "--gamma-d", inputs["gd.json"], "--gamma-n", inputs["gn.json"]]
    code, payload = run(capsys, argv + ["--threshold", threshold])
    assert code == 1
    assert payload["error"]["code"] == "invalid-partition"
    assert "threshold must be at least 1" in payload["error"]["message"]


def test_eberleinize_command(capsys, inputs):
    code, payload = run(capsys, ["eberleinize", "--family", inputs["adm.json"]])
    assert code == 0
    assert payload["ground"] == ["0", "1", "2"]
    assert {"0": "1/1"} in payload["weighted"]


def test_eberleinize_without_strata_weighs_a_plain_family_by_one(capsys, inputs):
    fam = tree_segments(dyadic_tree(1))
    code, payload = run(capsys, ["eberleinize", "--family", inputs["family.json"]])
    assert code == 0
    assert payload["weighted"] == [{a: "1/1" for a in m} for m in fam.members]


def test_eberleinize_strata_on_a_wide_digit_grid(capsys, tmp_path):
    # B = 11 pads digits to two characters: strata count digits, not characters.
    family, strata = admissible_family(SeqGrid(11, 2), max_size=2)
    path = tmp_path / "adm11.json"
    path.write_text(canonical_json(family_to_dict(family)))
    code, payload = run(capsys, ["eberleinize", "--family", str(path)])
    assert code == 0
    assert len(payload["weighted"]) == len(family.members) == 7381
    for m, row in zip(family.members, payload["weighted"]):
        assert row == {a: f"1/{strata[m]}" for a in m}


def test_eberleinize_admissible_family_off_a_digit_grid_exits_2(capsys, tmp_path):
    for ground in (["0", "1", "x"], ["00", "01", "10"], ["0", "1", "10", "11"]):
        path = tmp_path / "adm.json"
        path.write_text(canonical_json({"ground": ground, "members": [[a] for a in ground], "provenance": "admissible"}))
        code, payload = run(capsys, ["eberleinize", "--family", str(path)])
        assert code == 2
        assert payload["error"]["code"] == "input-format"


def test_eberleinize_on_an_ambiguous_digit_grid_exits_2(capsys, tmp_path):
    # SeqGrid(10, 2) and SeqGrid(100, 1) write the same family file at size 2.
    family, strata = admissible_family(SeqGrid(100, 1), max_size=2)
    path = tmp_path / "adm100.json"
    path.write_text(canonical_json(family_to_dict(family)))
    code, payload = run(capsys, ["eberleinize", "--family", str(path)])
    assert code == 2
    assert payload["error"]["code"] == "input-format"
    message = payload["error"]["message"]
    assert "SeqGrid(10, 2)" in message and "SeqGrid(100, 1)" in message and "--strata" in message
    strata_path = tmp_path / "strata.json"
    strata_path.write_text(canonical_json({"strata": [[list(m), n] for m, n in strata.items()]}))
    code, payload = run(capsys, ["eberleinize", "--family", str(path), "--strata", str(strata_path)])
    assert code == 0
    for m, row in zip(family.members, payload["weighted"]):
        assert row == {a: "1/1" for a in m}


def test_saturate_command(capsys, inputs):
    code, payload = run(capsys, ["saturate", "--supports", inputs["supports.json"]])
    assert code == 0
    assert payload["gamma_blocks"] == [["g1", "g2"], ["g3"]]
    assert payload["delta_blocks"] == [["d1"], ["d2"]]


def test_saturate_supports_without_gamma_atoms_exits_2(capsys, tmp_path):
    path = tmp_path / "supports.json"
    path.write_text(canonical_json({"d1": []}))
    code, payload = run(capsys, ["saturate", "--supports", str(path)])
    assert code == 2
    assert payload["error"]["code"] == "input-format"
    assert payload["error"]["message"] == "supports file names no gamma atoms"


def test_env_budget_override(capsys, inputs, monkeypatch):
    # this norm's DP visits 4 states (tests/test_norm.py::test_norm_oracle_limit)
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"state_budget": 3}')
    code, payload = run(
        capsys,
        ["norm", "--family", inputs["family.json"], "--vector", inputs["vector.json"]],
    )
    assert code == 3
    assert payload["error"]["code"] == "resource-limit"


def test_env_budget_unknown_key_exits_2(capsys, inputs, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"bogus": 5}')
    code, _ = run(capsys, ["check-ci", "--family", inputs["family.json"]])
    assert code == 2


def _reduced_depth2_family(tmp_path):
    """Dyadic depth-2 segments without the singleton {2:0}: the one family
    file here whose checks search, since only a target holding 2:0 does."""
    full = tree_segments(dyadic_tree(2))
    path = tmp_path / "reduced.json"
    path.write_text(canonical_json(family_to_dict(SetFamily(full.ground, [m for m in full.members if m != ("2:0",)]))))
    return str(path)


def test_env_trace_budget_reaches_condition_c(capsys, tmp_path, monkeypatch):
    # Only members holding 2:0 count unions; the first, {0:0, 1:0, 2:0}, has
    # more than one distinct trace.
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"trace_budget": 1}')
    code, payload = run(capsys, ["check-ci", "--family", _reduced_depth2_family(tmp_path)])
    assert code == 3
    assert "trace budget 1" in payload["error"]["message"]


def test_env_state_budget_reaches_condition_b(capsys, tmp_path, monkeypatch):
    # ({0:0, 1:0, 2:0}, {0:0}) gives the first difference that holds 2:0,
    # {1:0, 2:0}; its search adds 2 table entries and no other search of
    # check-ci adds any. With 2 the check runs to its report, which fails.
    path = _reduced_depth2_family(tmp_path)
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"state_budget": 1}')
    code, payload = run(capsys, ["check-ci", "--family", path])
    assert code == 3
    assert payload["error"]["code"] == "resource-limit"
    assert "state_budget = 1" in payload["error"]["message"]
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"state_budget": 2}')
    code, payload = run(capsys, ["check-ci", "--family", path])
    assert code == 1
    assert payload["condition_b"]["witness"] == {"s": ["0:0", "1:0", "2:0"], "t": ["0:0", "1:0"]}


def test_bad_envelope_on_intact_family_is_rejected(capsys, inputs, tmp_path):
    # Every atom has its singleton, so condition (c) has nothing to search,
    # but the envelope is still checked first.
    env = tmp_path / "envelope.json"
    env.write_text(canonical_json({"envelope": [[["0:0"], ["1:0"]]]}))
    code, payload = run(capsys, ["check-ci", "--family", inputs["family.json"], "--envelope", str(env)])
    assert code == 1
    assert payload["error"] == {"code": "invalid-envelope", "message": "envelope target ('1:0',) does not contain ('0:0',)"}


@pytest.mark.parametrize("key", ["oracle_limit", "cover_limit"])
def test_env_old_size_limits_are_unknown_keys(capsys, inputs, monkeypatch, key):
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, f'{{"{key}": 16}}')
    code, payload = run(capsys, ["norm", "--family", inputs["family.json"], "--vector", inputs["vector.json"]])
    assert code == 2
    assert f"unknown budget {key!r}" in payload["error"]["message"]


def _path_files(tmp_path, n):
    names = [f"n{i:02d}" for i in range(n)]
    tree = FiniteTree({a: (names[i - 1] if i else None) for i, a in enumerate(names)})
    phi = FinVector(tree.ground_set(), {a: (-1) ** i * (i % 3 + 1) for i, a in enumerate(names)})
    paths = {}
    for name, payload in (
        ("family", family_to_dict(tree_segments(tree))),
        ("tree", tree_to_dict(tree)),
        ("vector", vector_to_dict(phi)),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(canonical_json(payload))
    return paths


def test_norm_of_a_20_atom_support_counts_states(capsys, tmp_path, monkeypatch):
    # On a path named in chain order the trace DP peels the first atom, so
    # its states are the 20 suffixes of the chain, not 2^20.
    paths = _path_files(tmp_path, 20)
    _, tree = run(capsys, ["norm", "--tree", str(paths["tree"]), "--vector", str(paths["vector"])])
    family_argv = ["norm", "--family", str(paths["family"]), "--vector", str(paths["vector"])]
    code, payload = run(capsys, family_argv)
    assert code == 0
    assert (payload["norm_sq"], payload["witness"]) == (tree["norm_sq"], tree["witness"])
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"state_budget": 20}')
    assert run(capsys, family_argv)[0] == 0
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"state_budget": 19}')
    code, payload = run(capsys, family_argv)
    assert code == 3
    assert payload["error"]["code"] == "resource-limit"


def test_norm_re_counts_states_outside_the_support(capsys, tmp_path, monkeypatch):
    # |supp phi| = 2, but the sets {a, x01..x19} and {b, x01..x19} have the
    # disjoint traces {a} and {b} and share x01..x19, so those 19 outside
    # atoms stay in the DP: from all 21 atoms, covering a leaves {b}, skipping
    # a leaves {b, x01..x19}, and skipping b there leaves the chain
    # x01..x19, x02..x19, ..., x19: 3 + 19 = 22 states.
    xs = [f"x{i:02d}" for i in range(1, 20)]
    weighted = tmp_path / "weighted.json"
    rows = [{x: "1/1" for x in [a] + xs} for a in "ab"]
    weighted.write_text(canonical_json({"ground": ["a", "b"] + xs, "weighted": rows}))
    vector = tmp_path / "vector.json"
    vector.write_text(canonical_json({"entries": {"a": "1/1", "b": "1/1"}}))
    argv = ["norm-re", "--weighted", str(weighted), "--vector", str(vector)]
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"state_budget": 22}')
    code, payload = run(capsys, argv)
    assert (code, payload["norm_sq"]) == (0, "1/1")
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"state_budget": 21}')
    code, payload = run(capsys, argv)
    assert code == 3
    assert payload["error"]["code"] == "resource-limit"


def test_env_segment_budget_is_not_a_budget(capsys, inputs, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"segment_budget": 5}')
    code, _ = run(capsys, ["check-ci", "--family", inputs["family.json"]])
    assert code == 2


def test_env_budget_nonpositive_exits_2(capsys, inputs, monkeypatch):
    for value in ("0", "-1"):
        monkeypatch.setenv(cli.ENV_BUDGET_VAR, f'{{"state_budget": {value}}}')
        code, payload = run(capsys, ["check-ci", "--family", inputs["family.json"]])
        assert code == 2
        assert payload["error"]["code"] == "input-format"
        assert "state_budget must be a positive integer" in payload["error"]["message"]


@pytest.mark.parametrize("value", ["16.0", '"16"', "null", "[16]"])
def test_env_budget_non_integer_exits_2(capsys, inputs, monkeypatch, value):
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, f'{{"state_budget": {value}}}')
    code, payload = run(capsys, ["saturate", "--supports", inputs["supports.json"]])
    assert code == 2
    assert "state_budget must be a positive integer" in payload["error"]["message"]


def test_env_budget_bool_is_rejected(capsys, inputs, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"state_budget": true}')
    code, payload = run(
        capsys,
        ["norm", "--family", inputs["family.json"], "--vector", inputs["vector.json"]],
    )
    assert code == 2
    assert "state_budget must be a positive integer" in payload["error"]["message"]


def test_env_budget_malformed_json_exits_2(capsys, inputs, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, "{nope")
    code, _ = run(capsys, ["check-ci", "--family", inputs["family.json"]])
    assert code == 2


@pytest.mark.parametrize("value", [LONG_INTEGER, DEEP_NESTING], ids=["long-integer", "deep-nesting"])
def test_env_budget_unreadable_json_exits_2(capsys, inputs, monkeypatch, value):
    monkeypatch.setenv(cli.ENV_BUDGET_VAR, '{"state_budget": ' + value + "}")
    code, payload = run(capsys, ["check-ci", "--family", inputs["family.json"]])
    assert code == 2
    assert payload["error"]["message"].startswith(f"{cli.ENV_BUDGET_VAR} is not valid JSON: ")


def test_reports_are_byte_identical_across_reruns(tmp_path, inputs):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["check-ci", "--family", inputs["family.json"]]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_command_exits_2(capsys):
    code = cli.main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_parser_is_built_once_and_options_do_not_leak(capsys, inputs, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "first.json"
    first = [
        "norm",
        "--family",
        inputs["family.json"],
        "--vector",
        inputs["vector.json"],
        "--precision",
        "12",
        "--out",
        str(out),
    ]
    code, payload = run(capsys, first)
    assert code == 0 and payload is None
    assert json.loads(out.read_text())["norm_decimal"] == "2.23606797750"
    # Neither --out nor --precision carries over from the first call.
    code, payload = run(
        capsys,
        ["norm", "--family", inputs["family.json"], "--vector", inputs["vector.json"]],
    )
    assert code == 0
    assert payload["norm_sq"] == "5/1"
    assert len(payload["norm_decimal"].replace(".", "")) == 50
    code, payload = run(capsys, ["saturate", "--supports", inputs["supports.json"]])
    assert code == 0 and payload["command"] == "saturate"


def test_out_into_missing_directory_exits_2(capsys, inputs):
    target = inputs["dir"] + "/no-such-dir/out.json"
    code, payload = run(capsys, ["saturate", "--supports", inputs["supports.json"], "--out", target])
    assert code == 2
    assert payload["command"] == "saturate"
    assert payload["error"]["code"] == "input-format"


@pytest.mark.parametrize(
    "ground,members",
    [
        (["a", "b", "c"], ["abc"]),  # a string member used to read as the set of its characters
        (["a", "b", "c"], {"a": ["b"]}),  # an object used to read as the set of its keys
        (["a", "b", "c"], "ab"),
        (["a", "b", "c"], [["a", 1]]),
        (["a", "b", "c"], [["a", None]]),
        (["a", "b", "c"], [[["a"]]]),
        ("abc", [["a"]]),
    ],
    ids=["string-member", "object-members", "string-members", "int-atom", "null-atom", "list-atom", "string-ground"],
)
def test_family_schema_holes_exit_2(capsys, tmp_path, ground, members):
    fam = tmp_path / "family.json"
    fam.write_text(canonical_json({"ground": ground, "members": members}))
    vec = tmp_path / "vector.json"
    vec.write_text(canonical_json({"entries": {"a": "1/1"}}))
    code, payload = run(capsys, ["norm", "--family", str(fam), "--vector", str(vec)])
    assert code == 2
    assert payload["error"]["code"] == "input-format"


@pytest.mark.parametrize(
    "blocks",
    [[[0], [1], [2]], [["0", "1"], [2]], ["012"]],
    ids=["int-atoms", "one-int-atom", "string-block"],
)
def test_partition_non_string_atoms_exit_2(capsys, tmp_path, inputs, blocks):
    gd = tmp_path / "gd.json"
    gd.write_text(canonical_json({"blocks": blocks}))
    code, payload = run(
        capsys,
        ["qe-search", "--family", inputs["adm.json"], "--gamma-d", str(gd), "--gamma-n", inputs["gn.json"]],
    )
    assert code == 2
    assert payload["error"]["code"] == "input-format"


@pytest.mark.parametrize(
    "supports",
    [
        {"d1": [1, 2]},
        {"d1": "g1"},
        {"gamma": ["g1", 2], "supports": {"d1": ["g1"]}},
        {"gamma": "g1", "supports": {"d1": ["g1"]}},
        {"gamma": None, "supports": {"d1": ["g1"]}},
    ],
    ids=["int-atoms", "string-support", "int-gamma-atom", "string-gamma", "null-gamma"],
)
def test_supports_non_string_atoms_exit_2(capsys, tmp_path, supports):
    path = tmp_path / "supports.json"
    path.write_text(canonical_json(supports))
    code, payload = run(capsys, ["saturate", "--supports", str(path)])
    assert code == 2
    assert payload["error"]["code"] == "input-format"


def test_weighted_family_string_ground_exits_2(capsys, tmp_path, inputs):
    path = tmp_path / "weighted.json"
    path.write_text(canonical_json({"ground": "ab", "weighted": [{"a": "1/1"}]}))
    code, payload = run(capsys, ["norm-re", "--weighted", str(path), "--vector", inputs["wvec.json"]])
    assert code == 2
    assert payload["error"]["code"] == "input-format"


def test_search_partition_overlapping_request_segments_exit_2(capsys, tmp_path):
    out = tmp_path / "sys.json"
    cli.main(
        ["build-reznichenko", "--trees", "2", "--stages", "3", "--pool", "4", "--seed", "7", "--out", str(out)]
    )
    capsys.readouterr()
    system = json.loads(out.read_text())["system"]
    sat = system["stage_log"][1]["satisfied"][1]
    sat["segments"][1] = sat["segments"][1] + sat["segments"][0]  # tree 2's chain now meets tree 1's
    out.write_text(canonical_json(system))
    part = tmp_path / "part.json"
    part.write_text(canonical_json({"blocks": [[f"{s}:{t}" for s in range(3) for t in range(4)]]}))
    code, payload = run(
        capsys,
        ["search-partition", "--system", str(out), "--partition", str(part), "--threshold", "2"],
    )
    assert code == 2
    assert payload["error"]["code"] == "input-format"
    assert "pairwise disjoint" in payload["error"]["message"]
    assert payload["error"]["message"] == "request segments must be pairwise disjoint"


@pytest.mark.parametrize(
    "argv",
    [
        ["saturate", "--oracle-limit", "5"],
        ["norm", "--oracle-limit", "2"],
        ["check-ci", "--precision", "20"],
        ["disjointify", "--precision", "20"],
    ],
    ids=["saturate-oracle-limit", "norm-oracle-limit", "check-ci-precision", "disjointify-precision"],
)
def test_budget_flags_exist_only_where_read(capsys, inputs, argv):
    files = {
        "saturate": ["--supports", inputs["supports.json"]],
        "norm": ["--family", inputs["family.json"], "--vector", inputs["vector.json"]],
        "check-ci": ["--family", inputs["family.json"]],
        "disjointify": ["--family", inputs["family.json"], "--members", inputs["members.json"]],
    }
    assert cli.main(argv + files[argv[0]]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_norm_re_precision_out_of_range_exits_2(capsys, inputs):
    argv = ["norm-re", "--weighted", inputs["weighted.json"], "--vector", inputs["wvec.json"]]
    code, payload = run(capsys, argv + ["--precision", "201"])
    assert code == 2
    assert payload == {
        "command": "norm-re",
        "error": {"code": "input-format", "message": "precision must be in [10, 200]"},
    }
    code, payload = run(capsys, argv + ["--precision", "10"])
    assert code == 0 and payload["norm_decimal"] == "1.414213562"


def _ab_family(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(canonical_json({"ground": ["a", "b"], "members": [["a"], ["a", "b"], ["b"]]}))
    return str(path)


@pytest.mark.parametrize(
    "members",
    [{"members": ["ab", "b"]}, {"members": [5]}, {"members": [["0:0", 5]]}, ["0:0"], {"members": "ab"}],
    ids=["string-members", "int-member", "int-atom", "bare-string-member", "string"],
)
def test_disjointify_members_schema_holes_exit_2(capsys, tmp_path, members):
    path = tmp_path / "members.json"
    path.write_text(canonical_json(members))
    code, payload = run(capsys, ["disjointify", "--family", _ab_family(tmp_path), "--members", str(path)])
    assert code == 2
    assert payload["error"]["code"] == "input-format"


def test_envelope_of_lists_is_read(capsys, tmp_path):
    env = tmp_path / "envelope.json"
    env.write_text(canonical_json({"envelope": [[["a"], ["a", "b"]], [["b"], ["a", "b"]], [["a", "b"], ["a", "b"]]]}))
    code, payload = run(capsys, ["check-ci", "--family", _ab_family(tmp_path), "--envelope", str(env)])
    assert code == 0 and payload["envelope"] == "explicit"


@pytest.mark.parametrize(
    "envelope",
    [
        {"envelope": [["a", "ab"], ["b", "ab"], ["ab", "ab"]]},
        [[["a"], ["a", 1]]],
        [[["a"], ["a", "b"], ["b"]]],
        [["a"]],
        {"envelope": {"a": "ab"}},
    ],
    ids=["string-members", "int-atom", "triple", "not-a-pair", "object"],
)
def test_envelope_schema_holes_exit_2(capsys, tmp_path, envelope):
    env = tmp_path / "envelope.json"
    env.write_text(canonical_json(envelope))
    code, payload = run(capsys, ["check-ci", "--family", _ab_family(tmp_path), "--envelope", str(env)])
    assert code == 2
    assert payload["error"]["code"] == "input-format"


def test_strata_file_is_read(capsys, tmp_path):
    path = tmp_path / "strata.json"
    path.write_text(canonical_json({"strata": [[["a"], 1], [["a", "b"], 2], [["b"], 1]]}))
    code, payload = run(capsys, ["eberleinize", "--family", _ab_family(tmp_path), "--strata", str(path)])
    assert code == 0
    assert payload["weighted"] == [{"a": "1/1"}, {"a": "1/2", "b": "1/2"}, {"b": "1/1"}]


@pytest.mark.parametrize(
    "rows",
    [
        [[["a"], 1], ["ab", 2], [["b"], 1]],
        [[["a"], 1], [["a", "b"], 1.5], [["b"], 1]],
        [[["a"], 1], [["a", "b"], True], [["b"], 1]],
        [[["a"], 1], [["a", "b"], "2"], [["b"], 1]],
        [[["a"], 1], [["a", "b"], 2, 3], [["b"], 1]],
        [[[1], 1]],
    ],
    ids=["string-member", "float", "bool", "string", "triple", "int-atom"],
)
def test_strata_schema_holes_exit_2(capsys, tmp_path, rows):
    path = tmp_path / "strata.json"
    path.write_text(canonical_json({"strata": rows}))
    code, payload = run(capsys, ["eberleinize", "--family", _ab_family(tmp_path), "--strata", str(path)])
    assert code == 2
    assert payload["error"]["code"] == "input-format"


AB_ENVELOPE = [[["a"], ["a", "b"]], [["b"], ["a", "b"]], [["a", "b"], ["a", "b"]]]
AB_STRATA = [[["a"], 1], [["a", "b"], 2], [["b"], 1]]


@pytest.mark.parametrize(
    "option, rows, code, error",
    [
        ("--envelope", AB_ENVELOPE + [[["zz"], ["qq"]]], 1, "invalid-envelope"),
        ("--envelope", AB_ENVELOPE + [[["a"], ["a"]]], 2, "input-format"),
        ("--envelope", AB_ENVELOPE + [[["b", "a"], ["a", "b"]]], 2, "input-format"),
        ("--strata", AB_STRATA + [[["zz"], 3]], 1, "missing-stratum"),
        ("--strata", AB_STRATA + [[["a"], 2]], 2, "input-format"),
    ],
    ids=["envelope-non-member", "envelope-repeated", "envelope-repeated-respelled", "strata-non-member", "strata-repeated"],
)
def test_side_file_names_each_member_once(capsys, tmp_path, option, rows, code, error):
    path = tmp_path / "side.json"
    path.write_text(canonical_json(rows))
    command = "check-ci" if option == "--envelope" else "eberleinize"
    got, payload = run(capsys, [command, "--family", _ab_family(tmp_path), option, str(path)])
    assert got == code
    assert payload["error"]["code"] == error


# Stage-log fields that used to be coerced or left for verify_system to trip
# on: each is set on the last stage record or, failing that, on its last
# satisfied request.
_STAGE_LOG_FAULTS = {
    "float-tree-indices": ("trees", [1.0, 2.0]),
    "string-tree-indices": ("trees", "12"),
    "string-stage": ("stage", "1"),
    "float-stage": ("stage", 1.0),
    "null-stage": ("stage", None),
    "string-exceeded-pool": ("exceeded_pool", "no"),
    "int-exceeded-pool": ("exceeded_pool", 0),
    "float-total-requests": ("total_requests", 2.5),
    "bool-total-requests": ("total_requests", True),
    "bool-label": ("label", True),
    "string-label": ("label", "x"),
}

_TREES_KEYED = '\'trees\' must be an object keyed "1".."2"'
_STAGE_LOG_INTS = "stage-log stages, labels and tree indices must be integers"
_STAGE_LOG_FLAGS = "stage-log exceeded_pool must be a boolean, total_requests an integer or null"
# Each fault's message, as the eager stage-log decoder gave it.
_BAD_SYSTEM_MESSAGES = {
    "missing-tree": _TREES_KEYED,
    "extra-tree": _TREES_KEYED,
    "padded-key": _TREES_KEYED,
    "float-stages": "stages must be an integer, got 3.0",
    "bool-seed": "rng_seed must be an integer, got True",
    "list-trees": _TREES_KEYED,
    "list-tree": "each tree must be an object mapping node to parent",
    "stray-node": "tree node 'zz' is not a stage:label atom of the system",
    "string-segment": "bad stage-log segments: expected lists of atoms",
    "int-atom-segment": "bad stage-log segments: atoms must be strings",
    **{fault: _STAGE_LOG_INTS for fault in _STAGE_LOG_FAULTS if "pool" not in fault and "total" not in fault},
    **{fault: _STAGE_LOG_FLAGS for fault in _STAGE_LOG_FAULTS if "pool" in fault or "total" in fault},
}


@pytest.mark.parametrize(
    "fault",
    [
        "missing-tree",
        "extra-tree",
        "padded-key",
        "float-stages",
        "bool-seed",
        "list-trees",
        "list-tree",
        "stray-node",
        "string-segment",
        "int-atom-segment",
        *_STAGE_LOG_FAULTS,
    ],
)
def test_search_partition_bad_system_exits_2(capsys, tmp_path, fault):
    out = tmp_path / "sys.json"
    cli.main(
        ["build-reznichenko", "--trees", "2", "--stages", "3", "--pool", "4", "--seed", "7", "--out", str(out)]
    )
    capsys.readouterr()
    system = json.loads(out.read_text())["system"]
    if fault == "missing-tree":
        del system["trees"]["2"]
    elif fault == "extra-tree":
        system["trees"]["5"] = {"0:5": None}
    elif fault == "padded-key":
        system["trees"]["01"] = system["trees"].pop("1")
    elif fault == "float-stages":
        system["params"]["stages"] = 3.0
    elif fault == "bool-seed":
        system["params"]["rng_seed"] = True
    elif fault == "list-trees":
        system["trees"] = list(system["trees"].values())
    elif fault == "stray-node":
        system["trees"]["1"]["zz"] = "0:1"  # used to raise KeyError in the search
    elif fault == "string-segment":
        system["stage_log"][-1]["satisfied"][-1]["segments"][0] = "ab"  # was read as {a, b}
    elif fault == "int-atom-segment":
        system["stage_log"][-1]["satisfied"][-1]["segments"][0] = ["0:1", 5]
    elif fault in _STAGE_LOG_FAULTS:
        key, value = _STAGE_LOG_FAULTS[fault]
        record = system["stage_log"][-1]
        (record if key in record else record["satisfied"][-1])[key] = value
    else:
        system["trees"]["1"] = list(system["trees"]["1"].items())
    out.write_text(canonical_json(system))
    part = tmp_path / "part.json"
    part.write_text(canonical_json({"blocks": [[f"{s}:{t}" for s in range(3) for t in range(4)]]}))
    code, payload = run(
        capsys,
        ["search-partition", "--system", str(out), "--partition", str(part), "--threshold", "2"],
    )
    assert code == 2
    assert payload["error"]["code"] == "input-format"
    assert payload["error"]["message"] == _BAD_SYSTEM_MESSAGES[fault]


@pytest.mark.parametrize(
    "supports",
    [
        {},
        {"supports": {}},
        {"gamma": ["g1", "g1"], "supports": {"d1": ["g1"]}},
        {"gamma": [], "supports": {"d1": ["g1"]}},
    ],
    ids=["empty", "empty-wrapped", "repeated-gamma", "empty-gamma"],
)
def test_saturate_empty_or_repeated_ground_exits_2(capsys, tmp_path, supports):
    path = tmp_path / "supports.json"
    path.write_text(canonical_json(supports))
    code, payload = run(capsys, ["saturate", "--supports", str(path)])
    assert code == 2
    assert payload["error"]["code"] == "input-format"


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_each_command_runs_under_one_collector_pause(capsys, tmp_path, inputs, monkeypatch, enabled):
    overlap = tmp_path / "overlap.json"
    overlap.write_text(canonical_json({"ground": ["a", "b", "c"], "members": [["a", "b"], ["b", "c"]]}))
    pair = tmp_path / "pair.json"
    pair.write_text(canonical_json({"members": [["a", "b"], ["b", "c"]]}))
    seen = []

    def recording(payload, _decode=cli.family_from_dict):
        seen.append(gc.isenabled())
        return _decode(payload)

    monkeypatch.setattr(cli, "family_from_dict", recording)
    runs = [
        (["check-ci", "--family", inputs["family.json"]], None, 0),
        (["disjointify", "--family", str(overlap), "--members", str(pair)], None, 1),
        (["norm", "--family", inputs["family.json"], "--vector", inputs["bad-vector.json"]], None, 2),
        (["check-ci", "--family", inputs["family.json"]], '{"pair_budget": 1}', 3),
    ]
    was = gc.isenabled()
    try:
        for argv, budget, expected in runs:
            if budget is None:
                monkeypatch.delenv(cli.ENV_BUDGET_VAR, raising=False)
            else:
                monkeypatch.setenv(cli.ENV_BUDGET_VAR, budget)
            (gc.enable if enabled else gc.disable)()
            code, _ = run(capsys, argv)
            assert code == expected
            assert gc.isenabled() is enabled  # the state found is restored on every exit
            assert seen.pop() is False  # the handler decoded with the collector off
    finally:
        (gc.enable if was else gc.disable)()


def _error_classes(cls=JsnormError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", sorted(set(_error_classes()), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_every_error_class_carries_its_documented_exit_code(capsys, inputs, monkeypatch, cls):
    # README: 2 for input format, 3 for an exceeded budget, 1 for every other domain failure
    expected = 3 if issubclass(cls, ResourceLimitError) else 2 if issubclass(cls, InputFormatError) else 1
    assert cls.exit_code == expected

    def raising(args, budgets):
        raise cls("raised by the handler")

    monkeypatch.setitem(cli.HANDLERS, "saturate", raising)
    code, payload = run(capsys, ["saturate", "--supports", inputs["supports.json"]])
    assert code == expected
    assert payload["error"] == {"code": cls.code, "message": "raised by the handler"}


FAMILY_TEXT = canonical_json(family_to_dict(tree_segments(dyadic_tree(1)))).rstrip()


@pytest.mark.parametrize(
    "option,data",
    [
        ("--family", (FAMILY_TEXT[:-1] + f',"extra":{LONG_INTEGER}}}').encode()),
        ("--vector", f'{{"entries":{{"0:0":"1/1","1:0":{LONG_INTEGER}}}}}'.encode()),
        ("--family", b"\xff"),
        ("--family", (FAMILY_TEXT[:-1] + f',"extra":{DEEP_NESTING}}}').encode()),
    ],
    ids=["long-integer-in-family", "long-integer-in-vector", "not-utf8", "deep-nesting"],
)
def test_unreadable_input_file_exits_2_naming_it(capsys, tmp_path, inputs, option, data):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    if option == "--family":
        argv = ["check-ci", "--family", str(path)]
    else:
        argv = ["norm", "--family", inputs["family.json"], "--vector", str(path)]
    code, payload = run(capsys, argv)
    assert code == 2
    assert payload["error"]["code"] == "input-format"
    assert payload["error"]["message"].startswith(f"{path} is not valid JSON: ")


def _decimal(n: int) -> str:
    """``n`` >= 0 in decimal, from 1,000-digit chunks, so no one conversion
    passes CPython's digit limit."""
    chunks = []
    while True:
        n, low = divmod(n, 10**1000)
        chunks.append(low)
        if not n:
            break
    return str(chunks[-1]) + "".join(f"{c:01000d}" for c in reversed(chunks[:-1]))


@pytest.mark.parametrize("command", ["norm --family", "norm --tree", "norm-re"])
def test_norm_sq_past_the_digit_limit_is_printed_in_full(capsys, tmp_path, command):
    # {a}, {a, b}, {b} with phi(a) = 1/S: norm_sq = 1/S^2, of 5,000 digits
    sevens = "7" * 2500
    files = {
        "norm --family": {"ground": ["a", "b"], "members": [["a"], ["a", "b"], ["b"]]},
        "norm --tree": {"parent": {"a": None, "b": "a"}},
        "norm-re": {"ground": ["a", "b"], "weighted": [{"a": "1/1"}, {"b": "1/1"}]},
    }
    source = tmp_path / "source.json"
    source.write_text(canonical_json(files[command]))
    vector = tmp_path / "vector.json"
    vector.write_text(canonical_json({"entries": {"a": "1/" + sevens}}))
    option = {"norm --family": "--family", "norm --tree": "--tree", "norm-re": "--weighted"}[command]
    code, payload = run(capsys, [command.split()[0], option, str(source), "--vector", str(vector)])
    assert code == 0
    denominator = _decimal(int(sevens) ** 2)
    assert len(denominator) == 5000
    assert payload["norm_sq"] == "1/" + denominator
