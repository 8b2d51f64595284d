#!/usr/bin/env python3
"""CI gate over the backend accuracy-vs-throughput sweep.

Validates `BENCH_backend.json` (schema `tkdc-bench-backend/v1`, written
by the `bench_backend` binary) and cross-checks it against
`BENCH_batch.json`:

1. **Tree parity.** The tree rows of the backend sweep are supposed to
   be *the same fits* the batch baseline records: same generator, same
   sizes, same seed, default bandwidth. For every dataset present in
   both files at `bandwidth_factor == 1.0`, the quantile threshold must
   be bit-equal — any drift means the trait refactor changed tree
   behavior, which the design forbids. (The d64 sweep widens the
   bandwidth and is excluded by construction.) The check only runs when
   the two files were produced at the same `scale` and `seed`;
   otherwise the fits differ legitimately and the gate says so.

2. **Self-consistency.** Every tree row must be certified with zero
   self-disagreement and unit self-speedup; estimated rows must carry
   probabilistic bound kinds.

3. **The headline claim.** At d = 64 the hashing estimator must reach
   `--speedup` (default 5x) times the tree's throughput while
   disagreeing on at most `--disagreement` (default 1%) of labels.
   Absolute qps is machine-specific; the *ratio* is measured on one
   machine inside one file, so it is safe to gate on.

Usage:
    backend_gate.py [--backend BENCH_backend.json]
                    [--batch BENCH_batch.json]
                    [--speedup 5.0] [--disagreement 0.01]
"""

import argparse
import json
import sys


def fail(msg):
    print(f"backend_gate: FAIL: {msg}")
    return 1


def load(path, schema):
    with open(path) as f:
        r = json.load(f)
    if r.get("schema") != schema:
        raise SystemExit(
            f"backend_gate: FAIL: {path}: expected schema {schema}, got {r.get('schema')}"
        )
    return r


def gate_tree_parity(backend, batch):
    if backend.get("scale") != batch.get("scale") or backend.get("seed") != batch.get("seed"):
        print(
            "backend_gate: note: skipping tree parity — "
            f"backend sweep at scale={backend.get('scale')} seed={backend.get('seed')}, "
            f"batch baseline at scale={batch.get('scale')} seed={batch.get('seed')}"
        )
        return 0
    batch_thresholds = {d["name"]: d["threshold"] for d in batch["datasets"]}
    rc = 0
    checked = 0
    for ds in backend["datasets"]:
        if ds.get("bandwidth_factor") != 1.0 or ds["name"] not in batch_thresholds:
            continue
        tree = [b for b in ds["backends"] if b["backend"] == "tree"]
        if not tree:
            rc |= fail(f"{ds['name']}: no tree row")
            continue
        got, want = tree[0]["threshold"], batch_thresholds[ds["name"]]
        checked += 1
        if got != want:
            rc |= fail(
                f"{ds['name']}: tree threshold {got!r} != batch baseline {want!r} "
                "(the trait refactor must not change tree fits)"
            )
        else:
            print(f"backend_gate: {ds['name']}: tree threshold matches batch baseline ({got})")
    if checked == 0:
        rc |= fail("no dataset overlapped the batch baseline at bandwidth_factor == 1.0")
    return rc


def gate_rows(backend):
    rc = 0
    for ds in backend["datasets"]:
        names = [b["backend"] for b in ds["backends"]]
        for want in ("tree", "hbe"):
            if want not in names:
                rc |= fail(f"{ds['name']}: missing {want} row")
        for b in ds["backends"]:
            tag = f"{ds['name']}/{b['backend']}"
            if b["backend"] == "tree":
                if b["bound_kind"] != "certified":
                    rc |= fail(f"{tag}: tree must be certified, got {b['bound_kind']!r}")
                if b["label_disagreement"] != 0.0:
                    rc |= fail(f"{tag}: tree disagrees with itself ({b['label_disagreement']})")
                if b["speedup_vs_tree"] != 1.0:
                    rc |= fail(f"{tag}: tree self-speedup is {b['speedup_vs_tree']}, not 1.0")
            elif b["bound_kind"] != "probabilistic":
                rc |= fail(f"{tag}: estimated row must be probabilistic, got {b['bound_kind']!r}")
    return rc


def gate_headline(backend, speedup, disagreement):
    d64 = [d for d in backend["datasets"] if d.get("d") == 64]
    if not d64:
        return fail("no d=64 dataset in the sweep")
    rc = 0
    for ds in d64:
        hbe = [b for b in ds["backends"] if b["backend"] == "hbe"]
        if not hbe:
            rc |= fail(f"{ds['name']}: no hbe row")
            continue
        h = hbe[0]
        ok_speed = h["speedup_vs_tree"] >= speedup
        ok_acc = h["label_disagreement"] <= disagreement
        print(
            f"backend_gate: {ds['name']}: hbe {h['speedup_vs_tree']:.2f}x tree qps "
            f"(required {speedup:.1f}x) at {100 * h['label_disagreement']:.3f}% disagreement "
            f"(cap {100 * disagreement:.1f}%) "
            f"{'ok' if ok_speed and ok_acc else 'FAIL'}"
        )
        if not (ok_speed and ok_acc):
            rc |= 1
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--backend", default="BENCH_backend.json")
    ap.add_argument("--batch", default="BENCH_batch.json")
    ap.add_argument("--speedup", type=float, default=5.0)
    ap.add_argument("--disagreement", type=float, default=0.01)
    args = ap.parse_args()
    backend = load(args.backend, "tkdc-bench-backend/v1")
    batch = load(args.batch, "tkdc-bench-batch/v3")
    rc = gate_tree_parity(backend, batch)
    rc |= gate_rows(backend)
    rc |= gate_headline(backend, args.speedup, args.disagreement)
    if rc:
        sys.exit(1)
    print("backend_gate: ok")


if __name__ == "__main__":
    main()
