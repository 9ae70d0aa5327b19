import decimal
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsnorm.core import (
    FiniteTree,
    FinVector,
    GroundSet,
    SetFamily,
    WeightedSet,
    canonical_member,
    dyadic_tree,
    sort_members,
    tree_segments,
    unit_vector,
)
from jsnorm.errors import (
    GroundMismatchError,
    InvalidComboError,
    InvalidEpsilonError,
    ResourceLimitError,
)
from jsnorm.norm import (
    _overlap_masks,
    _scale_to_ints,
    DualCombination,
    NormResult,
    dual_eval,
    functional_eval,
    greedy_bound,
    greedy_extract,
    norm_oracle,
    norm_tree_dp,
    norm_weighted,
    sqrt_decimal,
    weighted_eval,
)
from jsnorm.suite import _int_sqrt_ceil


def depth1():
    tree = dyadic_tree(1)
    return tree, tree_segments(tree), tree.ground_set()


def rand_vector(rnd, ground, max_support=None):
    atoms = ground.elements
    if max_support is not None:
        atoms = rnd.sample(atoms, rnd.randint(0, min(max_support, len(atoms))))
    return FinVector(
        ground, {a: Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)) for a in atoms}
    )


def test_sqrt_decimal():
    assert str(sqrt_decimal(Fraction(4), 10)) == "2"
    assert str(sqrt_decimal(Fraction(1, 4), 10)) == "0.5"
    assert str(sqrt_decimal(Fraction(5), 10)) == "2.236067977"
    assert sqrt_decimal(Fraction(0)) == 0
    with pytest.raises(ValueError):
        sqrt_decimal(Fraction(-1))
    # Exact roots drop trailing zeros; small and large ones print in exponent form.
    assert str(sqrt_decimal(Fraction(1, 10**30), 10)) == "1E-15"
    assert str(sqrt_decimal(Fraction(10**60), 10)) == "1.000000000E+30"


def _rounded_root(value, precision):
    """√value rounded half-even to ``precision`` significant digits, as a
    Fraction: the decade by comparing squares, the digits by the suite's
    integer ceiling root."""
    e = 0
    while value >= Fraction(100) ** (e + precision):
        e += 1
    while value < Fraction(100) ** (e + precision - 1):
        e -= 1
    scaled = value / Fraction(100) ** e
    c = _int_sqrt_ceil(scaled)  # c - 1 < √scaled <= c
    if c * c != scaled:
        half = Fraction(2 * c - 1, 2) ** 2
        if scaled < half or scaled == half and c % 2:
            c -= 1
    return c * Fraction(10) ** e


def test_sqrt_decimal_is_correctly_rounded_where_decimal_rounds_twice():
    # Rounding the quotient and the root to 60 digits before rounding to 50
    # once gave ...24 and ...22 here.
    for x in ["1." + "2" * 48 + "34" + "9" * 29, "1." + "2" * 49 + "5" + "0" * 28 + "1"]:
        value = Fraction(x) ** 2
        assert str(sqrt_decimal(value, 50)) == "1." + "2" * 48 + "3"
        for precision in (10, 50, 200):
            assert Fraction(sqrt_decimal(value, precision)) == _rounded_root(value, precision)


def test_sqrt_decimal_near_halves():
    # Roots just below, at and just above the midpoint of two neighbours,
    # including the midpoint below a power of ten.
    rnd = random.Random(41)
    for _ in range(600):
        precision = rnd.choice([1, 2, 3, 10, 28, 50, 60])
        c = rnd.choice([10**precision - 1, rnd.randrange(10 ** (precision - 1), 10**precision)])
        scale = Fraction(10) ** rnd.randint(-30, 30)
        nudge = Fraction(rnd.choice([-1, 0, 1]), 10 ** rnd.randint(precision + 2, precision + 40))
        value = ((Fraction(2 * c + 1, 2) + nudge) * scale) ** 2
        assert Fraction(sqrt_decimal(value, precision)) == _rounded_root(value, precision)


def test_sqrt_decimal_seeded_sweep():
    rnd = random.Random(43)
    for _ in range(1500):
        value = Fraction(rnd.randrange(1, 10 ** rnd.randint(1, 60)), rnd.randrange(1, 10 ** rnd.randint(1, 60)))
        precision = rnd.choice([1, 5, 10, 50, 200])
        assert Fraction(sqrt_decimal(value, precision)) == _rounded_root(value, precision)


def test_functional_eval():
    g = GroundSet(["a", "b", "c"])
    phi = FinVector(g, {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)})
    assert functional_eval(("a", "b", "c"), phi) == 1
    psi = FinVector(g, {"a": 1, "b": -1})
    assert functional_eval(("a", "b"), psi) == 0
    with pytest.raises(GroundMismatchError):
        functional_eval(("z",), phi)


def test_norm_oracle_all_ones_depth1():
    _, fam, g = depth1()
    r = norm_oracle(fam, FinVector(g, {a: 1 for a in g.elements}))
    assert r.norm_sq == 5
    assert r.witness == (("0:0", "1:0"), ("1:1",))
    assert r.method == "oracle"
    assert r.norm_decimal(10) == "2.236067977"


def test_norm_oracle_cancellation():
    _, fam, g = depth1()
    r = norm_oracle(fam, FinVector(g, {"0:0": 1, "1:0": -1, "1:1": -1}))
    assert r.norm_sq == 3
    assert r.witness == (("0:0",), ("1:0",), ("1:1",))


def test_norm_oracle_unit_vector_and_zero():
    _, fam, g = depth1()
    assert norm_oracle(fam, unit_vector(g, "0:0")).norm_sq == 1
    z = norm_oracle(fam, FinVector(g, {}))
    assert z.norm_sq == 0 and z.witness == ()


def test_norm_oracle_witness_members_belong_to_family():
    _, fam, g = depth1()
    r = norm_oracle(fam, FinVector(g, {a: Fraction(1, 2) for a in g.elements}))
    for m in r.witness:
        assert m in fam


def test_norm_oracle_limit():
    # All ones on depth 1: the trace DP visits 4 states (all three atoms
    # free, then {1:0, 1:1}, {1:1} and {1:0}).
    _, fam, g = depth1()
    phi = FinVector(g, {a: 1 for a in g.elements})
    assert norm_oracle(fam, phi, state_budget=4).norm_sq == 5
    with pytest.raises(ResourceLimitError):
        norm_oracle(fam, phi, state_budget=3)


def test_norm_oracle_ground_mismatch():
    _, fam, _ = depth1()
    other = GroundSet(["q"])
    with pytest.raises(GroundMismatchError):
        norm_oracle(fam, FinVector(other, {"q": 1}))


def test_norm_oracle_respects_overlap_outside_support():
    g = GroundSet(["a", "b", "x"])
    fam = SetFamily(g, [("a", "x"), ("b", "x")])
    phi = FinVector(g, {"a": 2, "b": 3})
    r = norm_oracle(fam, phi)
    assert r.norm_sq == 9
    assert r.witness == (("b", "x"),)


def test_norm_oracle_prefers_minimal_representative():
    g = GroundSet(["a", "b", "x"])
    fam = SetFamily(g, [("a", "x"), ("a",), ("b", "x")])
    r = norm_oracle(fam, FinVector(g, {"a": 2, "b": 3}))
    assert r.norm_sq == 13
    assert r.witness == (("a",), ("b", "x"))


def test_norm_tree_dp_path():
    tree = FiniteTree({"a": None, "b": "a", "c": "b"})
    phi = FinVector(tree.ground_set(), {"a": 1, "b": 1, "c": 1})
    r = norm_tree_dp(tree, phi)
    assert r.norm_sq == 9
    assert r.witness == (("a", "b", "c"),)
    assert r.method == "tree-dp"


def test_norm_tree_dp_matches_oracle_golden():
    tree, fam, g = depth1()
    phi = FinVector(g, {a: 1 for a in g.elements})
    assert norm_tree_dp(tree, phi).norm_sq == 5
    assert norm_tree_dp(tree, FinVector(g, {})).norm_sq == 0


def test_norm_tree_dp_ground_mismatch():
    tree = dyadic_tree(1)
    with pytest.raises(GroundMismatchError):
        norm_tree_dp(tree, FinVector(GroundSet(["q"]), {"q": 1}))


def test_norm_weighted_prefers_singletons():
    g = GroundSet(["a", "b"])
    sets = [
        WeightedSet(g, {"a": 1}),
        WeightedSet(g, {"b": 1}),
        WeightedSet(g, {"a": Fraction(1, 2), "b": Fraction(1, 2)}),
    ]
    phi = FinVector(g, {"a": 1, "b": 1})
    r = norm_weighted(sets, phi)
    assert r.norm_sq == 2
    assert [w.weights for w in r.witness] == [{"a": 1}, {"b": 1}]


def test_norm_weighted_scales_quadratically():
    g = GroundSet(["a", "b", "c"])
    s = ("a", "b", "c")
    for n in (1, 2, 3):
        scaled = WeightedSet(g, {a: Fraction(1, n) for a in s})
        phi = FinVector(g, {a: 1 for a in s})
        assert norm_weighted([scaled], phi).norm_sq == Fraction(len(s), n) ** 2


def test_weighted_eval():
    g = GroundSet(["a", "b"])
    w = WeightedSet(g, {"a": Fraction(1, 2)})
    phi = FinVector(g, {"a": 2, "b": 5})
    assert weighted_eval(w, phi) == 1
    with pytest.raises(GroundMismatchError):
        weighted_eval(WeightedSet(GroundSet(["a"]), {"a": 1}), phi)


def test_dual_combination_validation():
    with pytest.raises(InvalidComboError):
        DualCombination([(Fraction(1), ("a", "b")), (Fraction(1, 2), ("b",))])
    with pytest.raises(InvalidComboError):
        DualCombination([(1, ("a",)), (1, ("b",))])
    combo = DualCombination([(Fraction(3, 5), ("a",)), (Fraction(4, 5), ("b",))])
    assert len(combo.terms) == 2


def test_dual_eval_and_cauchy_schwarz():
    _, fam, g = depth1()
    combo = DualCombination(
        [(Fraction(3, 5), ("0:0", "1:0")), (Fraction(4, 5), ("1:1",))]
    )
    phi = FinVector(g, {a: 1 for a in g.elements})
    val = dual_eval(combo, phi)
    assert val == Fraction(3, 5) * 2 + Fraction(4, 5)
    sumsq = sum((lam * lam for lam, _ in combo.terms), Fraction(0))
    assert val * val <= sumsq * norm_oracle(fam, phi).norm_sq


def test_greedy_bound_goldens():
    assert greedy_bound(Fraction(1, 2)) == 5
    assert greedy_bound(Fraction(1)) == 2


def test_greedy_extract_zero_vectors():
    _, fam, g = depth1()
    phis = [FinVector(g, {}) for _ in range(3)]
    cert = greedy_extract(fam, phis, Fraction(1, 2))
    assert cert.chosen_sets == ()
    assert cert.surviving_indices == (0, 1, 2)


def test_greedy_extract_picks_disjoint_certified_sets():
    _, fam, g = depth1()
    phis = [FinVector(g, {"1:0": Fraction(3, 5)}) for _ in range(4)]
    cert = greedy_extract(fam, phis, Fraction(1, 2))
    assert 1 <= len(cert.chosen_sets) <= cert.k_bound
    used = set()
    for s in cert.chosen_sets:
        assert not used.intersection(s)
        used.update(s)
    for n in cert.surviving_indices:
        for s in cert.chosen_sets:
            assert functional_eval(s, phis[n]) > Fraction(1, 2)


def test_greedy_extract_rejects_bad_epsilon_and_fat_vectors():
    _, fam, g = depth1()
    with pytest.raises(InvalidEpsilonError):
        greedy_extract(fam, [], 0)
    fat = FinVector(g, {a: 5 for a in g.elements})
    with pytest.raises(InvalidComboError):
        greedy_extract(fam, [fat], Fraction(1, 2))
    # trusted skips the unit-ball precheck
    greedy_extract(fam, [fat], Fraction(1, 2), trusted=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 3))
def test_oracle_dp_agree_on_random_vectors(seed, depth):
    rnd = random.Random(seed)
    tree = dyadic_tree(depth)
    fam = tree_segments(tree)
    phi = rand_vector(rnd, tree.ground_set())
    assert norm_oracle(fam, phi).norm_sq == norm_tree_dp(tree, phi).norm_sq


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_homogeneity_exact(seed):
    rnd = random.Random(seed)
    tree = dyadic_tree(2)
    fam = tree_segments(tree)
    phi = rand_vector(rnd, tree.ground_set())
    c = Fraction(rnd.choice([-3, -2, -1, 1, 2, 3]), rnd.randint(1, 4))
    assert norm_oracle(fam, phi.scale(c)).norm_sq == c * c * norm_oracle(fam, phi).norm_sq


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_triangle_inequality(seed):
    rnd = random.Random(seed)
    tree = dyadic_tree(2)
    fam = tree_segments(tree)
    g = tree.ground_set()
    phi, psi = rand_vector(rnd, g), rand_vector(rnd, g)
    lhs = sqrt_decimal(norm_oracle(fam, phi + psi).norm_sq)
    rhs = sqrt_decimal(norm_oracle(fam, phi).norm_sq) + sqrt_decimal(
        norm_oracle(fam, psi).norm_sq
    )
    assert lhs <= rhs + decimal.Decimal("1e-9")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_l2_lower_bound_and_witness_identity(seed):
    rnd = random.Random(seed)
    tree = dyadic_tree(2)
    fam = tree_segments(tree)
    phi = rand_vector(rnd, tree.ground_set())
    r = norm_oracle(fam, phi)
    assert r.norm_sq >= sum((v * v for v in phi.entries.values()), Fraction(0))
    recomputed = sum((functional_eval(s, phi) ** 2 for s in r.witness), Fraction(0))
    assert recomputed == r.norm_sq


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_monotone_in_members(seed):
    rnd = random.Random(seed)
    tree = dyadic_tree(2)
    fam = tree_segments(tree)
    g = tree.ground_set()
    keep = [m for m in fam.members if len(m) == 1 or rnd.random() < 0.5]
    small = SetFamily(g, keep)
    phi = rand_vector(rnd, g)
    assert norm_oracle(small, phi).norm_sq <= norm_oracle(fam, phi).norm_sq


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_functional_bound(seed):
    rnd = random.Random(seed)
    tree = dyadic_tree(2)
    fam = tree_segments(tree)
    phi = rand_vector(rnd, tree.ground_set())
    nsq = norm_oracle(fam, phi).norm_sq
    m = rnd.choice(fam.members)
    assert functional_eval(m, phi) ** 2 <= nsq


def test_overlap_masks_overlap_exactly_when_members_do():
    # Each mask holds its trace and lies inside its full mask, and an
    # all-pairs scan finds the same overlaps on the masks as on the members.
    rnd = random.Random(17)
    dropped = 0
    for _ in range(2000):
        k = rnd.randint(1, 8)
        off = rnd.randint(0, 6)
        tmasks = [rnd.randint(1, (1 << k) - 1) for _ in range(rnd.randint(0, 12))]
        fmasks = [tm | rnd.randint(0, (1 << off) - 1) << k for tm in tmasks]
        masks = _overlap_masks(fmasks, tmasks, k)
        assert len(masks) == len(fmasks)
        for m, fm, tm in zip(masks, fmasks, tmasks):
            assert m & ((1 << k) - 1) == tm
            assert m | fm == fm
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert bool(masks[i] & masks[j]) == bool(fmasks[i] & fmasks[j])
        dropped += masks != fmasks
    # Both kinds of case occur: some outside atoms dropped, and none.
    assert 100 < dropped < 1900


def _reference_tree_dp(tree, phi):
    """``norm_tree_dp`` as it was when it closed each child's frontier, and
    each root's, a second time on top of the node's own closed best."""
    supp = phi.support
    scaled, denom = _scale_to_ints([phi.entries[a] for a in supp])
    weight = dict(zip(supp, scaled))

    order = []
    stack = [(r, False) for r in reversed(tree.roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        stack.append((node, True))
        for c in reversed(tree.children(node)):
            stack.append((c, False))

    done = {}
    for v in order:
        phi_v = weight.get(v, 0)
        closed_best, closed_wit, child_frontiers = [], [], []
        for c in tree.children(v):
            b, bw, fr = done.pop(c)
            cb, cw = b, bw
            for sigma, (val, wit, chain) in fr.items():
                cand = val + sigma * sigma
                if cand > cb:
                    cb = cand
                    cw = wit + [canonical_member(chain)]
            closed_best.append(cb)
            closed_wit.append(cw)
            child_frontiers.append(fr)
        sum_closed = sum(closed_best)

        all_closed = [m for w in closed_wit for m in w]
        frontier = {phi_v: (sum_closed, all_closed, (v,))}
        for j, fr in enumerate(child_frontiers):
            others = [m for i, w in enumerate(closed_wit) if i != j for m in w]
            rest = sum_closed - closed_best[j]
            for sigma, (val, wit, chain) in fr.items():
                ns = phi_v + sigma
                nv = val + rest
                if ns not in frontier or nv > frontier[ns][0]:
                    frontier[ns] = (nv, wit + others, chain + (v,))

        b_v, bw_v = sum_closed, all_closed
        for sigma, (val, wit, chain) in frontier.items():
            cand = val + sigma * sigma
            if cand > b_v:
                b_v = cand
                bw_v = wit + [canonical_member(chain)]
        done[v] = (b_v, bw_v, frontier)

    total = 0
    witness = []
    for r in tree.roots:
        b, bw, fr = done[r]
        for sigma, (val, wit, chain) in fr.items():
            cand = val + sigma * sigma
            if cand > b:
                b = cand
                bw = wit + [canonical_member(chain)]
        total += b
        witness.extend(bw)
    return NormResult(Fraction(total, denom * denom), sort_members(witness), "tree-dp")


def test_tree_dp_matches_reference_norm_and_witness():
    rnd = random.Random(23)
    for _ in range(300):
        n = rnd.randint(1, 14)
        names = [f"v{i:02d}" for i in range(n)]
        rnd.shuffle(names)
        parent = {}
        for i, name in enumerate(names):
            parent[name] = None if i == 0 or rnd.random() < 0.1 else names[rnd.randrange(i)]
        tree = FiniteTree(parent, forest=True)
        # small integer entries make ties common, so tie-breaks are compared too
        phi = FinVector(tree.ground_set(), {a: rnd.randint(-2, 2) for a in names if rnd.random() < 0.8})
        assert norm_tree_dp(tree, phi) == _reference_tree_dp(tree, phi)
