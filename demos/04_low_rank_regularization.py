"""What the low-rank penalty does to the attention spectrum.

Trains the same model twice on the same data, once with the Geman penalty
(lambda = 10) and once without, then compares the singular values of the
final layer's attention matrix and the resulting rank scores on normal and
anomalous windows.

    python3 demos/04_low_rank_regularization.py
"""

import numpy as np

from alorat import data, linalg, model

SEED = 0


def smooth_frame(n, d, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    base = np.stack(
        [np.sin(2 * np.pi * t / p + rng.uniform(0, 2 * np.pi))
         for p in rng.uniform(20, 90, d)],
        axis=1,
    )
    mix = rng.normal(size=(d, d)) * 0.4 + np.eye(d)
    return data.TimeSeriesFrame(
        values=base @ mix + 0.3 * rng.normal(size=(n, d)),
        names=tuple(f"s{i}" for i in range(d)),
    )


train_frame, stats = data.normalize(smooth_frame(2000, 4, SEED))
configs = {
    lam: model.TrainConfig(t_window=16, d_model=8, heads=2, layers=2, lambda_reg=lam,
                           learning_rate=1e-3, max_epochs=8, patience=8, k_pairs=6,
                           seed=SEED, batch_size=128)
    for lam in (0.0, 10.0)
}
print("training twice (lambda = 0 and lambda = 10)...")
results = {lam: model.train(train_frame, cfg) for lam, cfg in configs.items()}

print("\n=== final-layer attention spectrum on one normal window ===")
window = train_frame.values[: configs[0.0].t_window]
for lam in (0.0, 10.0):
    _, s_layers = model.batch_forward(window[None], results[lam].params, configs[lam])
    sigma = linalg.spectrum(s_layers[-1][0])
    print(f"lambda={lam:>4}: sigma = {np.array2string(sigma[:8], precision=4)}")
print("(the penalty spares the leading singular value and pushes the tail down)")

print("\n=== rank score = count of singular values above the cutoff h1 ===")
h1 = results[10.0].thresholds.h1
print(f"h1 calibrated by the regularized run: {h1:.4g}")
test_frame, _ = data.normalize(smooth_frame(2000, 4, SEED + 1), stats)
for lam in (0.0, 10.0):
    series = model.score_frame(test_frame, results[lam].params, configs[lam], h1)
    print(f"lambda={lam:>4}: mean rank score on normal windows = "
          f"{series.alora_score.mean():.2f}")

print("\n=== anomalies raise the rank of the regularized model ===")
injected = data.inject_anomaly(test_frame, "level_shift", 0, (1000, 1100), 3.0, seed=SEED)
series = model.score_frame(injected, results[10.0].params, configs[10.0], h1)
t = np.arange(injected.n)
inside = series.alora_score[(t >= 1000) & (t < 1100)].mean()
outside = series.alora_score[(t < 984) | (t >= 1116)].mean()
print(f"mean rank score inside the injected segment: {inside:.2f}")
print(f"mean rank score far from it:                 {outside:.2f}")
print("the gap is the detection signal the anomaly score multiplies in.")
