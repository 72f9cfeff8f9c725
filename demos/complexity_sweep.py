"""Walk through the static cost model: evaluate the per-mixer FLOPs and
parameter expressions across the four stages of a 768x768 input, then
check the kernel-mixer terms against the MACs the mixers execute (the
sweep's macs column). Exits 1 if any term and count disagree.

Run: python demos/complexity_sweep.py
"""

import sys

from mixerlab.complexity import flops_mixer_term, stage_sweep, sweep_to_csv
from mixerlab.metaformer import ModelConfig

config = ModelConfig(input_hw=(768, 768))
reports = stage_sweep(config, kernel=3)

print("stage sweep at 768x768 (kernel 3 for kernel-based mixers):\n")
print(sweep_to_csv(reports))

print("global attention dominates stage 0 by construction:")
stage0 = {r.kind: r.flops for r in reports if r.stage == 0}
for kind, flops in sorted(stage0.items(), key=lambda kv: kv[1]):
    print(f"  {kind:>13}: {flops:>16,} FLOPs")

print("\nexecuted MAC counts (the csv's macs column) match the formula terms:")
mismatched = []
for kind, factor in (("identity", 1), ("pooling", 1), ("grouped_conv", 2), ("conv", 2)):
    for r in reports:
        if r.kind != kind or r.empirical_macs is None:
            continue
        term = flops_mixer_term(kind, r.channels, r.positions, r.kernel)
        status = "==" if r.empirical_macs * factor == term else "!="
        if status == "!=":
            mismatched.append(f"{kind} (stage {r.stage})")
        print(f"  stage {r.stage} {kind:>13}: {r.empirical_macs:>13,} MACs x {factor} {status} {term:,}"
              " (formula mixer term)")

print("\nquadratic vs. local scaling at fixed channels:")
c, k = 512, 7
for n in (24 * 24, 48 * 48, 96 * 96):
    global_term = n * n * c
    local_term = n * k * k * c
    print(f"  N = {n:>5}: global/local attention term ratio = {global_term / local_term:,.1f} (= N/K^2 = {n / k**2:,.1f})")

if mismatched:
    sys.exit(f"formula/count mismatch for {', '.join(mismatched)}")
