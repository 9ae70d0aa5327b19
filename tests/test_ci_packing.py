"""Condition (b)/(c) packings from the shared kernel, against the
include-first coverage search they replaced."""

import random

from jsnorm import ci
from jsnorm.core import GroundSet, SetFamily, dyadic_tree, tree_segments
from jsnorm.errors import DecompositionError


def _max_coverage_packing(cands, target):
    """Include-first DFS over candidates (subsets of target) in list order,
    pruned on the suffix union; the first maximal packing found wins."""
    n = len(cands)
    full = target.bit_count()
    suffix_union = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_union[j] = suffix_union[j + 1] | cands[j][0]

    best_parts, best_mask, best_count = [], 0, 0
    stack_parts = []

    def rec(start, used, count):
        nonlocal best_parts, best_mask, best_count
        if count > best_count:
            best_count, best_parts, best_mask = count, list(stack_parts), used
            if count == full:
                return True
        for j in range(start, n):
            mask, member = cands[j]
            if count + (suffix_union[j] & ~used).bit_count() <= best_count:
                break
            if mask & used:
                continue
            stack_parts.append(member)
            done = rec(j + 1, used | mask, count + mask.bit_count())
            stack_parts.pop()
            if done:
                return True
        return False

    rec(0, 0, 0)
    return best_parts, best_mask


def _dfs_packing(masks, target):
    """The old per-call candidate scan feeding the include-first search."""
    cands = [(mask, member) for member, mask in masks.by_member.items() if mask and mask & ~target == 0]
    cands.sort(key=lambda c: (-len(c[1]), c[1]))
    parts, covered = _max_coverage_packing(cands, target)
    return tuple(parts), covered


def _random_family(rnd):
    k = rnd.randint(3, 10)
    atoms = [f"a{i}" for i in range(k)]
    members = [[a] for a in atoms if rnd.random() < 0.6]
    # Many members of equal size over few atoms, so optima tie often.
    for _ in range(rnd.randint(1, 30)):
        members.append(rnd.sample(atoms, rnd.randint(1, min(3, k))))
    return SetFamily(GroundSet(atoms), members)


def test_random_packings_match_coverage_search():
    rnd = random.Random(5)
    for _ in range(400):
        family = _random_family(rnd)
        masks = ci._Masks(family)
        full = (1 << len(masks.atoms)) - 1
        for _ in range(8):
            target = rnd.randint(1, full)
            expected = _dfs_packing(masks, target)
            assert masks.packing(target) == expected
            assert masks.packing(target) == expected  # memoised


def _reports(family, rnd, runs):
    out = []
    for _ in range(runs):
        env = {t: rnd.choice([s for s in family.members if set(t) <= set(s)]) for t in family.members}
        for envelope in (None, env):
            report = ci.check_ci(family, envelope, sample_bound=rnd.choice([1, 2, 3]))
            out.append(ci.report_to_dict(report))
        inputs = rnd.sample(family.members, min(len(family.members), rnd.randint(2, 6)))
        try:
            out.append(ci.disjointify(family, inputs).parts)
        except DecompositionError as exc:
            out.append(("fails", exc.pair))
    return out


def _families():
    rnd = random.Random(11)
    fams = []
    for depth in (3, 4):
        full = tree_segments(dyadic_tree(depth))
        fams.append(full)
        for _ in range(3):
            drop = set(rnd.sample(full.members, rnd.randint(1, 3)))
            fams.append(SetFamily(full.ground, [m for m in full.members if m not in drop]))
    fams.extend(_random_family(rnd) for _ in range(20))
    return fams


def test_reports_match_coverage_search(monkeypatch):
    # Dyadic depth 3/4 segment families, reduced ones, random families, each
    # with the identity and a random envelope.
    families = _families()
    new = [_reports(f, random.Random(i), 1) for i, f in enumerate(families)]
    monkeypatch.setattr(ci._Masks, "packing", _dfs_packing)
    old = [_reports(f, random.Random(i), 1) for i, f in enumerate(families)]
    assert new == old
    assert any(not r["passed"] for rs in new for r in rs if isinstance(r, dict))
