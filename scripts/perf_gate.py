#!/usr/bin/env python3
"""CI perf gate over the two committed benchmark baselines.

Two checks, both against *fresh* JSON produced earlier in the same CI
job (same machine — absolute numbers are never compared across
machines):

1. **Pool scaling** (`BENCH_batch.json`, schema `tkdc-bench-batch/v3`):
   on the `"large"` dataset configuration, the persistent pool's
   4-thread speedup must reach `0.9 * min(4, threads_available)`. On a
   1-core runner that degenerates to "parallel dispatch costs at most
   10% over serial" — the pool must never make things worse; on a
   4-core runner it demands real scaling. Only `pool_speedup` is read.

2. **SoA leaf kernels** (`BENCH_leaf_sum.json`, schema
   `tkdc-bench-leaf-sum/v1`): `sum_block_soa` must not be slower than
   the per-point `eval_pair` fold at any (kernel, d, leaf) cell — the
   dimension-major layout has to pay for its 2x point storage
   everywhere, not just at the flattering corner. A small noise
   allowance (default 5%) absorbs criterion jitter on shared runners.

Usage:
    perf_gate.py [--batch BENCH_batch.json] [--leaf BENCH_leaf_sum.json]
                 [--threads N] [--factor 0.9] [--noise 0.05]

`--threads` overrides the thread count checked in the batch gate
(default 4, the acceptance point).
"""

import argparse
import json
import re
import sys


def fail(msg):
    print(f"perf_gate: FAIL: {msg}")
    return 1


def gate_batch(path, threads, factor):
    with open(path) as f:
        r = json.load(f)
    if r.get("schema") != "tkdc-bench-batch/v3":
        return fail(f"{path}: expected schema tkdc-bench-batch/v3, got {r.get('schema')}")
    avail = r["threads_available"]
    required = factor * min(threads, avail)
    if r.get("degraded"):
        print(
            f"perf_gate: note: degraded run ({avail} hardware thread(s) < requested) — "
            f"the bar degenerates to {required:.2f}x"
        )
    rc = 0
    large = [d for d in r["datasets"] if d.get("config") == "large"]
    if not large:
        return fail(f"{path}: no dataset with config == 'large'")
    for ds in large:
        points = [p for p in ds["parallel"] if p["threads"] == threads]
        if not points:
            rc |= fail(f"{ds['name']}: no parallel point at threads={threads}")
            continue
        for p in points:
            speedup = p["pool_speedup"]
            verdict = "ok" if speedup >= required else "FAIL"
            print(
                f"perf_gate: {ds['name']} pool {threads}-thread speedup {speedup:.3f}x "
                f"(required {required:.2f}x, {avail} thread(s) available) {verdict}"
            )
            if speedup < required:
                rc |= 1
    return rc


LEAF_CELL = re.compile(r"^(?P<group>leaf_sum_\w+_d\d+)/(?P<bench>\w+)/(?P<leaf>\d+)$")


def gate_leaf(path, noise):
    with open(path) as f:
        r = json.load(f)
    if r.get("schema") != "tkdc-bench-leaf-sum/v1":
        return fail(f"{path}: expected schema tkdc-bench-leaf-sum/v1, got {r.get('schema')}")
    cells = {}
    for label, secs in r["benches"].items():
        m = LEAF_CELL.match(label)
        if m:
            cells.setdefault((m.group("group"), m.group("leaf")), {})[m.group("bench")] = secs
    rc = 0
    checked = 0
    for (group, leaf), benches in sorted(cells.items()):
        if "sum_block_soa" not in benches or "eval_pair" not in benches:
            rc |= fail(f"{group}/{leaf}: missing sum_block_soa or eval_pair row")
            continue
        soa, ep = benches["sum_block_soa"], benches["eval_pair"]
        checked += 1
        if soa > ep * (1.0 + noise):
            rc |= fail(
                f"{group} leaf={leaf}: sum_block_soa {soa * 1e9:.1f} ns slower than "
                f"eval_pair {ep * 1e9:.1f} ns (allowed noise {noise:.0%})"
            )
    if checked == 0:
        rc |= fail(f"{path}: no (kernel, d, leaf) cells found")
    else:
        print(f"perf_gate: SoA vs eval_pair checked at {checked} cells")
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--batch", default="BENCH_batch.json")
    ap.add_argument("--leaf", default="BENCH_leaf_sum.json")
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--factor", type=float, default=0.9)
    ap.add_argument("--noise", type=float, default=0.05)
    args = ap.parse_args()
    rc = gate_batch(args.batch, args.threads, args.factor)
    rc |= gate_leaf(args.leaf, args.noise)
    if rc:
        sys.exit(1)
    print("perf_gate: ok")


if __name__ == "__main__":
    main()
