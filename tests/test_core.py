from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsnorm import core
from jsnorm.core import (
    FiniteTree,
    FinVector,
    GroundSet,
    SetFamily,
    WeightedSet,
    canonical_member,
    dyadic_tree,
    sort_members,
    trace_set,
    tree_segments,
    unit_vector,
)
from jsnorm.errors import ResourceLimitError


def test_canonical_member_sorts_and_dedupes():
    assert canonical_member(["b", "a", "b"]) == ("a", "b")
    assert canonical_member([]) == ()


def test_sort_members_orders_lexicographically():
    ms = [("b",), ("a", "c"), ("a",)]
    assert sort_members(ms) == (("a",), ("a", "c"), ("b",))


def test_ground_set_basics():
    g = GroundSet(["b", "a"])
    assert g.elements == ("b", "a")  # construction order is kept
    assert "a" in g and "z" not in g
    assert g.covers(("a",)) and not g.covers(("z",))
    with pytest.raises(ValueError):
        GroundSet([])
    with pytest.raises(ValueError):
        GroundSet(["a", "a"])


def test_finvector_drops_zeros_and_checks_ground():
    g = GroundSet(["a", "b"])
    v = FinVector(g, {"a": Fraction(0), "b": "2/3"})
    assert v.support == ("b",)
    assert v.value("a") == 0 and v.value("b") == Fraction(2, 3)
    with pytest.raises(ValueError):
        FinVector(g, {"z": 1})


def test_finvector_arithmetic():
    g = GroundSet(["a", "b"])
    v = FinVector(g, {"a": 1, "b": 2})
    w = v.scale(Fraction(1, 2))
    assert w.value("a") == Fraction(1, 2)
    s = v + FinVector(g, {"a": -1})
    assert s.support == ("b",)
    assert unit_vector(g, "b").value("b") == 1


def test_set_family_membership_and_require():
    g = GroundSet(["a", "b"])
    fam = SetFamily(g, [("b", "a"), ("a",)])
    assert fam.members == (("a",), ("a", "b"))
    assert ("a", "b") in fam
    with pytest.raises(Exception):
        fam.require(("z",))


def test_set_family_rejects_foreign_atoms():
    g = GroundSet(["a"])
    with pytest.raises(ValueError):
        SetFamily(g, [("a", "q")])


def test_weighted_set():
    g = GroundSet(["a", "b"])
    w = WeightedSet(g, {"a": Fraction(1, 2)})
    assert w.support == ("a",)
    assert w.weight("b") == 0


def test_dyadic_tree_shape():
    t = dyadic_tree(2)
    assert len(t.nodes) == 7
    assert t.parent["1:1"] == "0:0"
    assert t.parent["2:3"] == "1:1"
    assert t.children("0:0") == ("1:0", "1:1")
    leaves = [n for n in t.nodes if not t.children(n)]
    assert len(leaves) == 4
    assert t.depth() == 2
    assert len(t.ancestors("2:3")) == 3


def test_dyadic_tree_node_limit(monkeypatch):
    # DYADIC_NODE_LIMIT is a module constant, not a Budgets field: depth 12
    # has 8,191 nodes, depth 13 raises before building anything.
    with pytest.raises(ResourceLimitError, match="16383 nodes > limit 8191"):
        dyadic_tree(13)
    monkeypatch.setattr(core, "DYADIC_NODE_LIMIT", 7)
    assert len(dyadic_tree(2).nodes) == 7
    with pytest.raises(ResourceLimitError, match="15 nodes > limit 7"):
        dyadic_tree(3)


def test_dyadic_tree_node_addressing():
    t = dyadic_tree(3)
    assert t.parent["3:5"] == "2:2"


def test_ancestors_and_segment():
    t = dyadic_tree(2)
    assert t.ancestors("2:3") == ["2:3", "1:1", "0:0"]
    assert "0:0" in t.ancestors("2:1")
    assert "1:0" not in t.ancestors("1:1") and "1:1" not in t.ancestors("1:0")


def test_tree_segments_counts():
    path = FiniteTree({"a": None, "b": "a", "c": "b"})
    fam = tree_segments(path)
    assert len(fam) == 6
    assert fam.members == (
        ("a",),
        ("a", "b"),
        ("a", "b", "c"),
        ("b",),
        ("b", "c"),
        ("c",),
    )
    assert len(tree_segments(dyadic_tree(1))) == 5
    assert len(tree_segments(dyadic_tree(2))) == 17
    assert tree_segments(dyadic_tree(2)).provenance == "tree-segments"


def test_forest_allows_multiple_roots():
    f = FiniteTree({"a": None, "b": None, "c": "b"}, forest=True)
    assert f.roots == ("a", "b")
    with pytest.raises(ValueError):
        FiniteTree({"a": None, "b": None})


def test_tree_rejects_cycles():
    with pytest.raises(ValueError):
        FiniteTree({"a": "b", "b": "a"})


def test_trace_set():
    g = GroundSet(["a", "b", "c"])
    fam = SetFamily(g, [("a", "b"), ("b", "c"), ("c",)])
    traces = trace_set(fam, ("a", "b"))
    assert traces == [(), ("a", "b"), ("b",)]
    assert ("a", "b") in traces  # s itself always appears
    with pytest.raises(Exception):
        trace_set(fam, ("a",))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4))
def test_segment_count_formula(depth):
    # level i contributes 2^i nodes, each ending i+1 root-anchored... every
    # segment is determined by its endpoints, the lower of depth d having
    # d+1 choices of upper endpoint on its root chain
    fam = tree_segments(dyadic_tree(depth))
    expected = sum((i + 1) * 2**i for i in range(depth + 1))
    assert len(fam) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_segments_are_chains(depth, data):
    t = dyadic_tree(depth)
    fam = tree_segments(t)
    m = data.draw(st.sampled_from(fam.members))
    nodes = sorted(m, key=lambda n: len(t.ancestors(n)))
    for lo, hi in zip(nodes, nodes[1:]):
        assert lo in t.ancestors(hi)
    assert canonical_member(t.ancestors(nodes[-1])[: len(m)]) == m


def _reference_tree(parent, forest=False):
    """The FiniteTree constructor before its bulk checks: a per-node cycle
    walk and a sort of every child list, and the old per-node ``depth()``
    walk. Returns (parent, roots, children, depth)."""
    nodes = tuple(parent)
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        raise ValueError("duplicate tree nodes")
    roots = []
    children = {n: [] for n in nodes}
    for node in nodes:
        p = parent[node]
        if p is None:
            roots.append(node)
        else:
            if p not in node_set:
                raise ValueError(f"parent {p!r} of {node!r} is not a node")
            children[p].append(node)
    if not roots:
        raise ValueError("tree has no root")
    if len(roots) > 1 and not forest:
        raise ValueError("multiple roots require the forest flag")
    seen_ok = set(roots)
    for node in nodes:
        chain = []
        cur = node
        while cur is not None and cur not in seen_ok:
            chain.append(cur)
            if len(chain) > len(nodes):
                raise ValueError("parent map contains a cycle")
            cur = parent[cur]
        seen_ok.update(chain)
    depths: dict = {}
    for node in nodes:
        stack = []
        cur = node
        while cur is not None and cur not in depths:
            stack.append(cur)
            cur = parent[cur]
        base = -1 if cur is None else depths[cur]
        for n in reversed(stack):
            base += 1
            depths[n] = base
    children = {n: tuple(sorted(c)) for n, c in children.items()}
    return dict(parent), tuple(sorted(roots)), children, max(depths.values())


@st.composite
def _parent_maps(draw):
    """A random tree over short "stage:label"-like names, then up to three
    edits, each hanging a node under any node (itself included), under None
    (a second root) or under a missing name; listed sorted or shuffled."""
    names = draw(st.lists(st.text("01:ab", min_size=1, max_size=3), min_size=1, max_size=12, unique=True))
    parent = {v: names[draw(st.integers(0, i - 1))] if i else None for i, v in enumerate(names)}
    for _ in range(draw(st.integers(0, 3))):
        parent[draw(st.sampled_from(names))] = draw(st.sampled_from([*names, None, "zz"]))
    order = sorted(parent) if draw(st.booleans()) else draw(st.permutations(list(parent)))
    return {v: parent[v] for v in order}


@settings(max_examples=300, deadline=None)
@given(_parent_maps(), st.booleans())
def test_finite_tree_matches_reference(parent, forest):
    try:
        expected = _reference_tree(parent, forest)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            FiniteTree(parent, forest=forest)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    tree = FiniteTree(parent, forest=forest)
    assert (tree.parent, tree.roots, {n: tree.children(n) for n in tree.nodes}, tree.depth()) == expected
    assert tree.nodes == tuple(parent)
