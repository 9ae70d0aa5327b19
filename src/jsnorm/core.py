"""Ground sets, finitely supported rational vectors, set families, finite trees.

Atoms are opaque strings ordered lexicographically; that order is the canonical
order used everywhere (member sorting, witness tie-breaking, report layout).
Tree nodes (n, k) are spelled as the atom "n:k".
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import ResourceLimitError, UnknownMemberError

Atom = str
Member = tuple[Atom, ...]

DYADIC_NODE_LIMIT = 8191


def canonical_member(atoms: Iterable[Atom]) -> Member:
    """Sorted, deduplicated atom tuple: the canonical spelling of a set."""
    return tuple(sorted(set(atoms)))


def sort_members(members: Iterable[Member]) -> tuple[Member, ...]:
    return tuple(sorted(set(members)))


@dataclass(frozen=True)
class GroundSet:
    """Finite ordered set of atoms. Element order is fixed at construction."""

    elements: tuple[Atom, ...]

    def __init__(self, elements: Iterable[Atom]):
        elems = tuple(elements)
        if not elems:
            raise ValueError("ground set must be nonempty")
        if len(set(elems)) != len(elems):
            raise ValueError("ground set elements must be distinct")
        for a in elems:
            if not isinstance(a, str):
                raise ValueError("atoms must be strings")
        object.__setattr__(self, "elements", elems)

    @cached_property
    def _index(self) -> frozenset[Atom]:
        return frozenset(self.elements)

    def __contains__(self, atom: object) -> bool:
        return atom in self._index

    def __len__(self) -> int:
        return len(self.elements)

    def covers(self, atoms: Iterable[Atom]) -> bool:
        return self._index.issuperset(atoms)


class FinVector:
    """Finitely supported rational vector over a ground set.

    Zero entries are dropped; all values are exact ``Fraction``s.
    """

    __slots__ = ("ground", "entries")

    def __init__(self, ground: GroundSet, entries: Mapping[Atom, Fraction | int | str]):
        clean: dict[Atom, Fraction] = {}
        for atom in sorted(entries):
            if atom not in ground:
                raise ValueError(f"entry atom {atom!r} not in ground set")
            value = Fraction(entries[atom])
            if value != 0:
                clean[atom] = value
        self.ground = ground
        self.entries = clean

    def value(self, atom: Atom) -> Fraction:
        return self.entries.get(atom, Fraction(0))

    @property
    def support(self) -> Member:
        return tuple(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, c: Fraction | int | str) -> "FinVector":
        c = Fraction(c)
        return FinVector(self.ground, {a: v * c for a, v in self.entries.items()})

    def __add__(self, other: "FinVector") -> "FinVector":
        if self.ground.elements != other.ground.elements:
            raise ValueError("vectors live on different ground sets")
        merged = dict(self.entries)
        for a, v in other.entries.items():
            merged[a] = merged.get(a, Fraction(0)) + v
        return FinVector(self.ground, merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinVector):
            return NotImplemented
        return self.ground.elements == other.ground.elements and self.entries == other.entries

    def __repr__(self) -> str:
        return f"FinVector({dict(self.entries)!r})"


def unit_vector(ground: GroundSet, atom: Atom) -> FinVector:
    """The coordinate vector e_atom."""
    return FinVector(ground, {atom: Fraction(1)})


def _is_canonical(ground: GroundSet, members: tuple[tuple, ...]) -> bool:
    """True when ``members`` is already the canonical family: nonempty sorted
    atom tuples without repeats, strictly increasing, all inside ``ground``.

    Each check runs in C over the whole family and streams; an unordered
    family fails the increasing check at its first descent.
    """
    try:
        return (
            all(members)
            and all(map(operator.lt, members, itertools.islice(members, 1, None)))
            and all(map(operator.eq, members, map(tuple, map(sorted, members))))
            and sum(map(len, map(set, members))) == sum(map(len, members))
            and ground._index.issuperset(itertools.chain.from_iterable(members))
        )
    except TypeError:  # unorderable or unhashable atoms: the general path reports them
        return False


def _typed_atoms(member: tuple) -> list[tuple[str, object]]:
    """Sort key that orders string members as usual and never compares atoms
    of different types."""
    return [(type(a).__name__, a) for a in member]


class SetFamily:
    """Finite family of nonempty subsets of a ground set.

    Members are stored canonically (sorted atom tuples, family sorted, no
    duplicates). The empty set is never a member.
    """

    __slots__ = ("ground", "members", "provenance", "_member_set", "_frozen")

    PROVENANCE_TAGS = ("explicit", "tree-segments", "admissible", "reznichenko", "eberleinized")

    def __init__(
        self,
        ground: GroundSet,
        members: Iterable[Iterable[Atom]],
        provenance: str = "explicit",
    ):
        if provenance not in self.PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance tag {provenance!r}")
        given = tuple(map(tuple, members))
        if not _is_canonical(ground, given):
            canon = {canonical_member(m) for m in given}
            if () in canon:
                raise ValueError("the empty set cannot be a family member")
            outside = [m for m in canon if not ground.covers(m)]
            if outside:
                # the least one, so the message does not hang on set order
                m = min(outside, key=_typed_atoms)
                raise ValueError(f"member {m!r} is not a subset of the ground set")
            given = tuple(sorted(canon))
        self.ground = ground
        self.members = given
        self.provenance = provenance
        self._member_set = frozenset(self.members)
        self._frozen: Optional[tuple[frozenset, ...]] = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, member: object) -> bool:
        if isinstance(member, (tuple, list, set, frozenset)):
            return canonical_member(member) in self._member_set
        return False

    def member_sets(self) -> tuple[frozenset, ...]:
        if self._frozen is None:
            self._frozen = tuple(frozenset(m) for m in self.members)
        return self._frozen

    def require(self, member: Iterable[Atom]) -> Member:
        """Canonical form of ``member``, or unknown-member error."""
        canon = canonical_member(member)
        if canon not in self._member_set:
            raise UnknownMemberError(f"{canon!r} is not a family member")
        return canon

    def __repr__(self) -> str:
        return f"SetFamily({len(self.members)} members, provenance={self.provenance!r})"


@dataclass(frozen=True)
class WeightedSet:
    """Rational weights in (0, 1] on a finite support."""

    ground: GroundSet
    weights: Mapping[Atom, Fraction] = field(hash=False)

    def __init__(self, ground: GroundSet, weights: Mapping[Atom, Fraction | int | str]):
        clean: dict[Atom, Fraction] = {}
        for atom in sorted(weights):
            if atom not in ground:
                raise ValueError(f"weight atom {atom!r} not in ground set")
            value = Fraction(weights[atom])
            if not 0 < value <= 1:
                raise ValueError(f"weight {value} at {atom!r} outside (0, 1]")
            clean[atom] = value
        if not clean:
            raise ValueError("weighted set must have nonempty support")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "weights", clean)

    @property
    def support(self) -> Member:
        return tuple(self.weights)

    def weight(self, atom: Atom) -> Fraction:
        return self.weights.get(atom, Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedSet):
            return NotImplemented
        return self.ground.elements == other.ground.elements and dict(self.weights) == dict(other.weights)


class FiniteTree:
    """Rooted finite tree (or forest) over string-named nodes."""

    __slots__ = ("parent", "forest", "nodes", "_children", "roots", "_depth")

    def __init__(self, parent: Mapping[Atom, Optional[Atom]], forest: bool = False):
        nodes = tuple(parent)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate tree nodes")
        roots = []
        children: dict[Atom, list[Atom]] = {n: [] for n in nodes}
        try:
            for node, p in zip(nodes, map(parent.__getitem__, nodes)):
                if p is None:
                    roots.append(node)
                else:
                    children[p].append(node)
        except KeyError:
            raise ValueError(f"parent {p!r} of {node!r} is not a node") from None
        if not roots:
            raise ValueError("tree has no root")
        if len(roots) > 1 and not forest:
            raise ValueError("multiple roots require the forest flag")
        # reject cycles: walking down from the roots must reach every node
        reached, level, depth = len(roots), roots, -1
        while level:
            level = list(itertools.chain.from_iterable(map(children.__getitem__, level)))
            reached += len(level)
            depth += 1
        if reached != len(nodes):
            raise ValueError("parent map contains a cycle")
        try:  # children gathered in sorted node order are already sorted
            in_order = all(map(operator.lt, nodes, itertools.islice(nodes, 1, None)))
        except TypeError:
            in_order = False
        self.parent = dict(parent)
        self.forest = forest
        self.nodes = nodes
        self.roots = tuple(sorted(roots))
        self._depth = depth
        lists = children.values() if in_order else map(sorted, children.values())
        self._children = dict(zip(children, map(tuple, lists)))

    def children(self, node: Atom) -> tuple[Atom, ...]:
        return self._children[node]

    def ancestors(self, node: Atom) -> list[Atom]:
        """Chain from ``node`` up to its root, inclusive."""
        chain = [node]
        cur = self.parent[node]
        while cur is not None:
            chain.append(cur)
            cur = self.parent[cur]
        return chain

    def depth(self) -> int:
        """Edges on the longest root-to-leaf chain."""
        return self._depth

    def ground_set(self) -> GroundSet:
        return GroundSet(sorted(self.nodes))


def dyadic_tree(depth: int) -> FiniteTree:
    """Complete binary tree with nodes (n, k), parent of (n+1, l) = (n, l // 2)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    total = 2 ** (depth + 1) - 1
    if total > DYADIC_NODE_LIMIT:
        raise ResourceLimitError(f"dyadic tree of depth {depth} has {total} nodes > limit {DYADIC_NODE_LIMIT}")
    parent: dict[Atom, Optional[Atom]] = {"0:0": None}
    for n in range(1, depth + 1):
        for k in range(2**n):
            parent[f"{n}:{k}"] = f"{n - 1}:{k // 2}"
    return FiniteTree(parent)


def tree_segments(tree: FiniteTree) -> SetFamily:
    """All nonempty chains [β, α] for comparable β ≤ α (includes singletons)."""
    members = set()
    for node in tree.nodes:
        chain = tree.ancestors(node)
        for i in range(len(chain)):
            members.add(canonical_member(chain[: i + 1]))
    return SetFamily(tree.ground_set(), members, provenance="tree-segments")


def trace_set(family: SetFamily, member: Iterable[Atom]) -> list[Member]:
    """L_s = distinct traces {s ∩ t : t ∈ family}, canonically sorted (may include ())."""
    s = set(family.require(member))
    traces = {tuple(sorted(s.intersection(t))) for t in family.member_sets()}
    return sorted(traces)
