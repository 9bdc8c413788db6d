"""End-to-end: long-tailed data, prior warmup and denoiser training, sampling, metrics.

Trains the full model on a synthetic six-class long tail (imbalance
ratio ~ 16), classifies the held-out split by running the reverse chain
per input, and compares against the lambda = 1 isotropic baseline
trained identically. Takes a few seconds on one CPU. Run as
`python demos/03_train_and_classify.py`.
"""

import dataclasses


from adpm import (LongTailSpec, TrainConfig, classification_metrics,
                  classify_dataset, fit, generate_longtail)
from adpm.data import split_fractions

spec = LongTailSpec(k=6, head_count=100, decay=0.57, d=8, separation=6.0,
                    spread=1.0, seed=0)
table = generate_longtail(spec)
print("class sizes:", table.class_counts().tolist())

train, test = split_fractions(table, (0.7, 0.3), seed=0)
cfg = TrainConfig(T=100, sample_steps=25, alpha=1.0 / 6.0, c=5.0,
                  beta1=1e-4, betaT=0.004, epochs=80, warmup_epochs=60, seed=0)

print("\ntraining the anisotropic model ...")
ckpt = fit(train, cfg)
out = classify_dataset(ckpt, test)
rep = classification_metrics(test.labels, out.predictions, test.k)

print("training the lambda = 1 baseline ...")
base_ckpt = fit(train, dataclasses.replace(cfg, lambda_override=1.0))
base_out = classify_dataset(base_ckpt, test)
base_rep = classification_metrics(test.labels, base_out.predictions, test.k)

print(f"\n{'':14s}{'anisotropic':>12s}{'baseline':>12s}")
print(f"{'accuracy':14s}{rep.accuracy:12.3f}{base_rep.accuracy:12.3f}")
print(f"{'macro F1':14s}{rep.macro_f1:12.3f}{base_rep.macro_f1:12.3f}")
print("\nper-class F1 (class 5 is the six-sample tail):")
for j in range(test.k):
    print(f"  class {j}: {rep.f1[j]:.3f}  vs baseline {base_rep.f1[j]:.3f}"
          f"   ({int(test.class_counts()[j])} test samples)")

lams = sorted({round(r.lam, 2) for r in out.results})
print("\nnoise levels chosen at inference (one per predicted class):", lams)
print("confusion matrix (rows true, cols predicted):")
print(rep.confusion)
