"""Growth laws on a small ladder of chain sizes.

Storage grows linearly with transaction count; with verification inside
the timed region, batch cost grows with how much chain there is to check.
Absolute numbers are machine-specific; the shapes are the point.
"""

import tempfile
from pathlib import Path

from tcgw.bench import bench_batch_time, emit_csv, fit_storage

LEVELS = [0, 5, 10, 50, 100, 500, 1000, 5000, 10000]

points = bench_batch_time(LEVELS, verify_mode=True)

print(f"{'n_existing':>10}{'occupied_kb':>13}{'batch_ms':>10}")
for p in points:
    print(f"{p.n_existing:>10}{p.occupied_bytes / 1000:>13.1f}{p.batch_seconds * 1000:>10.2f}")

fit = fit_storage(points, min_level=100)
print(f"\nstorage fit over n >= 100: {fit.slope:.1f} bytes per transaction, "
      f"intercept {fit.intercept:.0f} bytes, R^2 = {fit.r_squared:.6f}")

medians = [p.batch_seconds for p in points if p.n_existing >= 100]
print("verify-mode batch time is non-decreasing in chain size:",
      all(a <= b for a, b in zip(medians, medians[1:])))

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "table2.csv"
    emit_csv(points, out)
    print(f"\nCSV written to {out}:")
    print(out.read_text().rstrip())
