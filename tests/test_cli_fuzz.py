"""Arbitrary JSON in every file option of every command.

Each example writes one JSON value into one file option, with valid files
in the others, and runs ``cli.main`` in process. Whatever the file holds,
the command must return one of the documented exit codes (0, 1, 2, 3) and
print a JSON report: a malformed file is rejected by its decoder with exit
2, never a traceback.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jsnorm import cli
from jsnorm.core import FinVector, dyadic_tree, tree_segments
from jsnorm.reznichenko import ReznParams, build, system_to_dict
from jsnorm.serialize import canonical_json, family_to_dict, tree_to_dict, vector_to_dict
from jsnorm.talagrand import SeqGrid, admissible_family

SYSTEM_ATOMS = [f"{s}:{t}" for s in range(3) for t in range(4)]

# Atoms of the valid inputs below, plus a few strangers, so fuzzed files
# often get past the first checks of their decoder.
ATOMS = ["0:0", "1:0", "1:1", "2:1", "0", "1", "2", "a", "b", "ab", "g1", "g2", "d1", ""]
KEYS = [
    "ground", "members", "provenance", "entries", "parent", "forest", "weighted",
    "blocks", "gamma", "supports", "envelope", "strata", "params", "trees",
    "stage_log", "n_trees", "stages", "label_pool", "rng_seed", "system",
]
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.sampled_from([1.5, 2.0, 1e300])
    | st.sampled_from(ATOMS + ["explicit", "admissible", "1/2", "1/1", "0/1"])
)
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS + ATOMS), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated(draw, payload):
    """``payload`` with one value somewhere inside it replaced or removed."""
    if not isinstance(payload, (list, dict)) or not payload or draw(st.integers(0, 3)) == 0:
        return draw(JSON)
    payload = copy.copy(payload)
    key = draw(st.sampled_from(list(payload) if isinstance(payload, dict) else range(len(payload))))
    if draw(st.integers(0, 4)) == 0:
        del payload[key]
    else:
        payload[key] = draw(mutated(payload[key]))
    return payload


# (command, fuzzed option, the file it mutates, the other options), one
# entry per file option.
CASES = [
    ("check-ci", "--family", "family", {}),
    ("check-ci", "--envelope", "envelope", {"--family": "family"}),
    ("norm", "--family", "family", {"--vector": "vector"}),
    ("norm", "--tree", "tree", {"--vector": "vector"}),
    ("norm", "--vector", "vector", {"--family": "family"}),
    ("norm-re", "--weighted", "weighted", {"--vector": "wvector"}),
    ("norm-re", "--vector", "wvector", {"--weighted": "weighted"}),
    ("disjointify", "--family", "family", {"--members": "members"}),
    ("disjointify", "--members", "members", {"--family": "family"}),
    ("search-partition", "--system", "system", {"--partition": "dpart"}),
    ("search-partition", "--partition", "dpart", {"--system": "system"}),
    ("search-partition", "--gamma-d", "dpart", {"--system": "system", "--partition": "dpart"}),
    ("qe-search", "--family", "adm", {"--gamma-d": "gd", "--gamma-n": "gn"}),
    ("qe-search", "--gamma-d", "gd", {"--family": "adm", "--gamma-n": "gn"}),
    ("qe-search", "--gamma-n", "gn", {"--family": "adm", "--gamma-d": "gd"}),
    ("eberleinize", "--family", "adm", {}),
    ("eberleinize", "--strata", "strata", {"--family": "adm"}),
    ("saturate", "--supports", "supports", {}),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    tree = dyadic_tree(1)
    ground = tree.ground_set()
    adm, strata = admissible_family(SeqGrid(3, 1), max_size=2)
    payloads = {
        "family": family_to_dict(tree_segments(tree)),
        "vector": vector_to_dict(FinVector(ground, {a: 1 for a in ground.elements})),
        "weighted": {"ground": ["a", "b"], "weighted": [{"a": "1/1"}, {"a": "1/2", "b": "1/2"}]},
        "wvector": {"entries": {"a": "1/1", "b": "1/1"}},
        "members": {"members": [["0:0", "1:0"], ["0:0", "1:1"]]},
        "system": system_to_dict(build(ReznParams(2, 3, 4, 7))),
        "dpart": {"blocks": [SYSTEM_ATOMS]},
        "adm": family_to_dict(adm),
        "gd": {"blocks": [["0"], ["1"], ["2"]]},
        "gn": {"blocks": [["0", "1", "2"]]},
        "tree": tree_to_dict(tree),
        "envelope": {"envelope": [[list(m), list(m)] for m in tree_segments(tree).members]},
        "strata": {"strata": [[list(m), strata[m]] for m in adm.members]},
        "supports": {"gamma": ["g1", "g2", "g3"], "supports": {"d1": ["g1", "g2"], "d2": ["g3"]}},
    }
    paths = {"payloads": payloads, "fuzz": str(root / "fuzz.json")}
    for name, payload in payloads.items():
        path = root / f"{name}.json"
        path.write_text(canonical_json(payload))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("command,option,base,others", CASES, ids=[f"{c}{o}" for c, o, _, _ in CASES])
@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_json_in_a_file_option_exits_with_a_report(files, command, option, base, others, data):
    value = data.draw(JSON | mutated(files["payloads"][base]))
    with open(files["fuzz"], "w", encoding="utf-8") as fh:
        json.dump(value, fh)
    argv = [command, option, files["fuzz"]]
    for flag, name in others.items():
        argv += [flag, files[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert json.loads(out.getvalue())["command"] == command


# Files that json.dump cannot write: the valid file with one more key holding
# an integer literal past CPython's 4,300-digit limit or arrays nested past
# the recursion limit, and the valid file behind a byte that is not UTF-8.
RAW = {
    "long-integer": lambda text: (text.rstrip()[:-1] + ',"extra":' + "9" * 4400 + "}").encode(),
    "deep-nesting": lambda text: (text.rstrip()[:-1] + ',"extra":' + "[" * 5000 + "]" * 5000 + "}").encode(),
    "not-utf8": lambda text: b"\xff" + text.encode(),
}


@pytest.mark.parametrize("raw", sorted(RAW))
@pytest.mark.parametrize("command,option,base,others", CASES, ids=[f"{c}{o}" for c, o, _, _ in CASES])
def test_unreadable_bytes_in_a_file_option_exit_2(files, command, option, base, others, raw):
    with open(files["fuzz"], "wb") as fh:
        fh.write(RAW[raw](canonical_json(files["payloads"][base])))
    argv = [command, option, files["fuzz"]]
    for flag, name in others.items():
        argv += [flag, files[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 2
    error = json.loads(out.getvalue())["error"]
    assert error["code"] == "input-format"
    assert error["message"].startswith(f"{files['fuzz']} is not valid JSON: ")
