"""Build a finite interlaced tree system and search its partitions.

Run with:  python demos/reznichenko_build.py
"""

from jsnorm import (
    build,
    levels_partition,
    partition_search,
    ReznParams,
    segment_family,
    verify_system,
)


def main() -> None:
    params = ReznParams(n_trees=2, stages=3, label_pool=4, rng_seed=7)
    sys = build(params)
    print(f"built {params.n_trees} interlaced trees over "
          f"{len(sys.gamma.elements)} labels")
    for i, tree in sorted(sys.trees.items()):
        print(f"  tree {i}: {len(tree.nodes)} nodes, depth {tree.depth()}")

    checks = verify_system(sys)
    print("\nverification: " + ", ".join(
        f"{k} {'passed' if v['passed'] else 'FAILED'}"
        for k, v in checks.items() if k != "passed"))
    assert checks["passed"]

    fam = segment_family(sys)
    print(f"pooled segment family: {len(fam.members)} members")

    # Level blocks of one tree meet each segment of that tree at most once.
    lvl = levels_partition(sys, [0])
    print(f"level-1 block of tree 1: {lvl}")

    # partition_search looks for a segment hitting one block >= threshold
    # times.  A single all-of-gamma block is hit 3 times by any full chain:
    grid = [f"{s}:{t}" for s in range(params.stages)
            for t in range(params.label_pool)]
    hit = partition_search(sys, [grid], threshold=3)
    print(f"\none-block partition, threshold 3: witness={hit.member if hit else None}")

    # Stage-by-stage blocks meet every chain at most once, so threshold 2
    # is unreachable and the search correctly reports no witness.
    by_stage = [[f"{s}:{t}" for t in range(params.label_pool)]
                for s in range(params.stages)]
    miss = partition_search(sys, by_stage, threshold=2)
    print(f"stage partition, threshold 2: witness={miss.member if miss else None}")


if __name__ == "__main__":
    main()
