"""Train and evaluate the sandbox at the paper's class count, and hash each report.

    PYTHONPATH=src python tests/evaluate_sweep.py

The config is 1203 classes (LVIS's count), 40 000 samples, Zipf exponent 1.0
and 2 epochs, for each of the losses ecm, bce and focal_ecm at seeds 0 and
1.  For each config the script prints the sha256 of every per-class field of
``evaluate``'s report (``json.dumps`` of the records, so each float is its
repr), the mean AP, and the seconds that ``train`` and ``evaluate`` took.
Two source trees that print the same hashes give the same per-class records
bit for bit; run it on both to gate a change to ``evaluate`` or the trainer.

The trained weights depend on the BLAS thread count, so the script sets one
BLAS thread before numpy loads; a hash is comparable only between runs on
the same numpy and BLAS build.  The process peaks at about 420 MB, most of
it the 40 000 x 1203 logits, and the six configs take about 15 s on two
cores, so the sweep is not part of the test suite.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict

PAPER = {"num_classes": 1203, "total_samples": 40000, "zipf_exponent": 1.0}
LOSSES = ("ecm", "bce", "focal_ecm")
SEEDS = (0, 1)
EPOCHS = 2


def main() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy loads, below
    from ecmargin import (
        SyntheticConfig,
        TrainConfig,
        dataset_stats,
        default_margin_weights,
        evaluate,
        generate,
        train,
    )

    for seed in SEEDS:
        dataset = generate(SyntheticConfig(seed=seed, **PAPER))
        margins = default_margin_weights(dataset)
        alphas = {c: st.alpha for c, st in dataset_stats(dataset).items()}
        for loss in LOSSES:
            start = time.perf_counter()
            model = train(dataset, TrainConfig(loss=loss, seed=seed, epochs=EPOCHS), margins)
            trained = time.perf_counter()
            report = evaluate(model, dataset, alphas)
            evaluated = time.perf_counter()
            records = json.dumps([asdict(p) for p in report.per_class])
            digest = hashlib.sha256(records.encode()).hexdigest()
            print(
                f"{loss:9s} seed {seed}  classes {len(report.per_class)}  "
                f"mean_ap {report.mean_ap!r}  sha256 {digest}  "
                f"train {trained - start:.3f} s  evaluate {evaluated - trained:.3f} s",
                flush=True,
            )


if __name__ == "__main__":
    main()
