"""Show which view-ring symmetries the global descriptor respects.

The first descriptor block pools an order-free relation sum, so shuffling
the views leaves it bitwise unchanged. The hierarchical blocks only survive
cyclic shifts that are multiples of the coarsening stride raised to the
level depth. Running the shape inside a batch changes no bit of it.
"""

import numpy as np

from hrgenet import HrgeModel, hrge_forward


def block_deltas(model, views, transformed):
    a = hrge_forward(model, views)
    b = hrge_forward(model, transformed)
    return [float(np.abs(x.data - y.data).max())
            for x, y in zip(a.blocks, b.blocks)]


def main():
    rng = np.random.default_rng(0)
    model = HrgeModel(num_views=12, width=8, variant="full", seed=1)
    views = rng.normal(size=(12, 8))

    perm = rng.permutation(12)
    deltas = block_deltas(model, views, views[perm])
    print("random permutation, per-block max |delta|:")
    print("  ", ["%.3e" % d for d in deltas])
    print("   F_0 is exactly invariant:", deltas[0] == 0.0)

    for shift in (4, 2, 1):
        deltas = block_deltas(model, views, np.roll(views, shift, axis=0))
        print(f"cyclic shift by {shift}: ", ["%.3e" % d for d in deltas])
    print("a shift of 4 respects every level of the 12/6/3 hierarchy;")
    print("shifts of 1 and 2 break the coarser levels.")

    batch = np.stack([rng.normal(size=(12, 8)) for _ in range(4)] + [views])
    row = hrge_forward(model, batch).concat.data[-1]
    alone = hrge_forward(model, views).concat.data
    print("descriptor as row 5 of a batch is bitwise the one computed "
          "alone:", np.array_equal(row, alone))


if __name__ == "__main__":
    main()
