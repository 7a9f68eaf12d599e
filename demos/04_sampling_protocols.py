"""Episodic task sampling: the two protocols and their statistics.

The variable protocol draws a way uniformly, reserves up to 10 query
examples per class first, draws a uniform shot from what remains, and
rescales shots proportionally when their sum would exceed the 500-example
support cap. The fixed protocol is the classic K-way L-shot setting.
Episode i is a pure function of (seed, i), so episodes can be drawn in
any order, skipped, redrawn, or split across workers.
"""

import numpy as np

from mahashot import (
    FixedSamplerConfig,
    SyntheticSpec,
    VariableSamplerConfig,
    generate_synthetic,
    sample_fixed,
    sample_variable,
)

ds = generate_synthetic(SyntheticSpec(n_classes=60, dim=4, per_class=130, seed=99))

# --- variable way/shot --------------------------------------------------
cfg = VariableSamplerConfig(seed=5)
ways, shots, sizes = [], [], []
for i in range(2000):
    task = sample_variable(ds, cfg, i)
    ways.append(task.way)
    shots.extend(task.class_counts().tolist())
    sizes.append(task.n_support)

print("variable protocol over 2000 episodes:")
print(f"  way range: {min(ways)}..{max(ways)}  (config allows 5..50)")
print(f"  mean way: {np.mean(ways):.1f}")
print(f"  support sizes: min {min(sizes)}, max {max(sizes)} (cap 500)")
print(f"  shot range: {min(shots)}..{max(shots)}")

hist, _ = np.histogram(shots, bins=[1, 2, 4, 8, 16, 32, 64, 101])
print("  shot histogram [1,2) [2,4) [4,8) [8,16) [16,32) [32,64) [64,100]:")
print("   ", hist.tolist())

# The cap binds exactly when the drawn shots were large; per-class floors
# keep every class represented.
capped = sum(1 for s in sizes if s == 500)
print(f"  episodes hitting the 500 cap: {capped}")

# --- fixed K-way L-shot -------------------------------------------------
fixed = FixedSamplerConfig(way=5, shot=3, query_per_class=10, seed=12)
task = sample_fixed(ds, fixed, 0)
print("\nfixed 5-way 3-shot episode:")
print(f"  support {task.n_support} rows, query {task.n_query} rows")
print(f"  classes: {task.class_names}")

# Any episode can be drawn directly, with no walk through the ones before it.
ahead = sample_fixed(ds, fixed, 11)
again = sample_fixed(ds, fixed, 11)
print(f"  episode 11 reproducible: {np.array_equal(ahead.support_z, again.support_z)}")
