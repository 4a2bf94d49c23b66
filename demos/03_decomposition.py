"""Weight factorization: reconstruction error against compression.

Decomposes one conv kernel with Tucker-2, CP, and tensor-train at a ladder of
ranks, and one fc matrix with SVD / pivoted QR / a TT-matrix reshape. Each
factorization can rebuild a dense tensor; the table shows how the rebuild
error falls as the rank budget (and parameter count) grows.
"""

import numpy as np

from lowrank import (LayerDesc, cost_original, decompose_layer,
                     default_input_shape, relative_error, t3f_plans)

rng = np.random.default_rng(11)

conv = LayerDesc(name="c", kind="conv2d", kernel=(3, 3), in_channels=16,
                 out_channels=32, padding="same")
fc = LayerDesc(name="f", kind="fc", in_channels=64, out_channels=36)

# low-rank-plus-noise targets so truncation has something to find
w_conv = np.einsum("ijc,cf->ijcf", rng.standard_normal((3, 3, 16)),
                   rng.standard_normal((16, 32)))
w_conv += 0.05 * rng.standard_normal(w_conv.shape)
w_fc = rng.standard_normal((64, 6)) @ rng.standard_normal((6, 36))
w_fc += 0.05 * rng.standard_normal(w_fc.shape)

cases = [
    (conv, w_conv, "tucker2", [(2, 4), (6, 12), (12, 24), (16, 32)], None),
    (conv, w_conv, "cp", [(4,), (16,), (64,), (128,)], None),
    (conv, w_conv, "tt", [(2, 4, 4), (6, 18, 12), (12, 36, 24),
                          (16, 48, 32)], None),
    (fc, w_fc, "svd", [(2,), (6,), (12,), (36,)], None),
    (fc, w_fc, "qr", [(2,), (6,), (12,), (36,)], None),
    (fc, w_fc, "t3f", [(2,), (4,)], t3f_plans(fc)[0]),
]

for layer, w, method, ladder, plan in cases:
    base = cost_original(layer, default_input_shape(layer)).params
    print(f"{layer.kind} {method}" + (f" plan={plan}" if plan else ""))
    for ranks in ladder:
        fact = decompose_layer(layer, w, method, ranks, plan=plan, seed=0)
        err = relative_error(fact.reconstruct(), w)
        params = sum(v.size for v in fact.weights.values())
        print(f"  ranks={str(ranks):>15} params {params:>6}/{base:<6} "
              f"rel err {err:.4f}")
    print()
