"""The encoder's forward pass equals an explicit algebraic expansion.

The stack unrolls into a sum over one (attention, value) choice per layer
of (attention products) @ input @ (value products).  A residual connection
adds one more choice to each layer, the identity pair (I_T, I_d_model), so
skip and no-skip stacks share the one expansion.  This demo certifies both
numerically on random models and shows what breaks when a nonlinearity is
inserted.

    python3 demos/03_unrolled_equivalence.py
"""

import numpy as np

from alorat import attention, star_verify

rng = np.random.default_rng(0)

print("=== single configuration, spelled out ===")
d_model, t_window, layers = 4, 8, 3
params = [attention.init_layer_params(d_model, 1, np.random.default_rng(10 + l))
          for l in range(layers)]
x = rng.normal(size=(t_window, d_model))

harvested, z_forward = star_verify.harvest_layers(params, x, skip=True)
z_unrolled = star_verify.unroll(harvested, x)
print(f"L={layers}, T={t_window}, d_model={d_model}, residual connections on")
print(f"choices per layer: {len(harvested[0])} (one head, then the identity pair)")
print(f"terms: 2^L = {np.prod([len(choices) for choices in harvested])}")
print(f"max |forward - unrolled| = {np.abs(z_forward - z_unrolled).max():.3e}")

no_skip_layers, z_ns = star_verify.harvest_layers(params, x, skip=False)
row = star_verify.unroll(no_skip_layers, x)[t_window - 1]
print(f"no-skip last-row product form error = {np.abs(row - z_ns[-1]).max():.3e}")

print("\n=== verification grid (the acceptance configuration) ===")
results = star_verify.run_grid(n=20, base_seed=0)
worst = 0.0
for config, reports in results:
    for mode in ("skip", "no_skip"):
        worst = max(worst, reports[mode].max_rel_error)
print(f"20 configurations x 2 modes, worst relative error {worst:.3e}")
print("sample lines:")
for config, reports in results[:3]:
    print(f"  {star_verify.describe(config)} {reports['skip'].line()}")

print("\n=== a nonlinearity voids the identity ===")
report = star_verify.verify_unrolled(params, x, skip=True, activation="gelu")
print(report.line())
print("(approximation mode reports the divergence and asserts nothing)")

print("\n=== folding a linear output map into the value side ===")
b = rng.normal(size=(3, 3))
w = rng.normal(size=(3, 3))
rep = star_verify.verify_ffn_regroup(b, w)
print(rep.line())
print("regrouped weights b~ = b @ w reproduce the post-map latent exactly,")
print("which is why a linear feed-forward stage adds nothing to this encoder.")
