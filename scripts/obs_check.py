#!/usr/bin/env python3
"""Validate tkdc observability artifacts in CI (stdlib only).

Three independent checks, each enabled by its flag:

  --prom FILE      Prometheus text exposition scraped from the serve
                   daemon's `--metrics-addr` endpoint: every sample is
                   `tkdc_`-prefixed and typed, the required serve /
                   engine / pool series are present, and histogram
                   buckets are cumulative with `+Inf` matching `_count`.
  --perfetto FILE  Chrome trace_event JSON written by `--span-out
                   FILE.json`: a non-empty `traceEvents` array of
                   complete ("X") events whose names come from the
                   closed span-stage vocabulary.
  --slowlog FILE   `tkdc-slowlog/v1` JSONL written by `--slow-log`:
                   every line carries op/points/elapsed_us plus a span
                   breakdown drawn from the same stage vocabulary.

Exits non-zero with one message per problem found.
"""

import argparse
import json
import re
import sys

# Mirrors STAGES in crates/obs/src/span.rs. Duplicated because this
# script must run before anything is built; the obs unit tests keep the
# Rust constant sorted, and CI runs this script over real span output,
# so a one-sided edit fails the obs-smoke job.
STAGES = {
    "classify.dispatch",
    "classify.leaf_sum",
    "classify.reassembly",
    "classify.traversal",
    "fit.bootstrap",
    "fit.threshold",
    "fit.tree_build",
    "serve.exec",
    "serve.request",
}

SLOWLOG_SCHEMA = "tkdc-slowlog/v1"

# Series every serve scrape must carry (crates/serve/src/server.rs
# renders them unconditionally, so absence means the exposition broke).
REQUIRED_PROM = [
    "tkdc_serve_requests_total",
    "tkdc_serve_classifies",
    "tkdc_serve_points_classified",
    "tkdc_engine_queries",
    "tkdc_engine_kernel_evals",
    "tkdc_labels_high",
    "tkdc_serve_request_latency_us_bucket",
    "tkdc_serve_request_latency_us_count",
    "tkdc_serve_request_latency_window_us_bucket",
    "tkdc_pool_tasks_run",
    "tkdc_pool_busy_ns",
    "tkdc_pool_utilization",
]

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)


def check_prom(path, errors):
    text = open(path, encoding="utf-8").read()
    typed = set()
    samples = []  # (name, labels_str, value)
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                errors.append(f"{path}:{lineno}: malformed TYPE line: {line!r}")
            else:
                typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"{path}:{lineno}: unparseable sample: {line!r}")
            continue
        name = m.group("name")
        if not name.startswith("tkdc_"):
            errors.append(f"{path}:{lineno}: sample without tkdc_ prefix: {name}")
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append(f"{path}:{lineno}: non-numeric value: {line!r}")
            continue
        samples.append((name, m.group("labels") or "", value))

    names = {n for n, _, _ in samples}
    for required in REQUIRED_PROM:
        if required not in names:
            errors.append(f"{path}: required series missing: {required}")
    for name, _, _ in samples:
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            errors.append(f"{path}: sample {name} has no # TYPE line")

    # Histogram sanity: within each label set, buckets are cumulative
    # (non-decreasing in le order) and the +Inf bucket equals _count.
    buckets = {}
    counts = {}
    for name, labels, value in samples:
        if name.endswith("_bucket"):
            le = None
            rest = []
            for part in labels.split(","):
                if part.startswith('le="'):
                    le = part[4:-1]
                else:
                    rest.append(part)
            if le is None:
                errors.append(f"{path}: bucket sample without le label: {name}")
                continue
            le_val = float("inf") if le == "+Inf" else float(le)
            buckets.setdefault((name[: -len("_bucket")], ",".join(rest)), []).append(
                (le_val, value)
            )
        elif name.endswith("_count"):
            counts[(name[: -len("_count")], labels)] = value
    for (hist, labels), series in buckets.items():
        series.sort(key=lambda p: p[0])
        last = 0.0
        for le, value in series:
            if value < last:
                errors.append(
                    f"{path}: {hist}{{{labels}}} bucket le={le} decreases ({value} < {last})"
                )
            last = value
        if series[-1][0] != float("inf"):
            errors.append(f"{path}: {hist}{{{labels}}} has no +Inf bucket")
        elif (hist, labels) in counts and series[-1][1] != counts[(hist, labels)]:
            errors.append(
                f"{path}: {hist}{{{labels}}} +Inf bucket {series[-1][1]} "
                f"!= _count {counts[(hist, labels)]}"
            )
    if not samples:
        errors.append(f"{path}: empty exposition")
    return len(samples)


def check_perfetto(path, errors):
    try:
        doc = json.load(open(path, encoding="utf-8"))
    except ValueError as e:
        errors.append(f"{path}: invalid JSON: {e}")
        return 0
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        errors.append(f"{path}: no traceEvents array")
        return 0
    if not events:
        errors.append(f"{path}: traceEvents is empty")
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if ev.get("ph") != "X":
            errors.append(f"{where}: ph must be X, got {ev.get('ph')!r}")
        if ev.get("name") not in STAGES:
            errors.append(f"{where}: unknown stage {ev.get('name')!r}")
        if ev.get("cat") != "tkdc":
            errors.append(f"{where}: cat must be tkdc")
        for field in ("pid", "tid", "ts", "dur"):
            v = ev.get(field)
            if not isinstance(v, (int, float)) or v < 0:
                errors.append(f"{where}: bad {field}: {v!r}")
    return len(events)


def check_slowlog(path, errors):
    lines = 0
    for lineno, line in enumerate(open(path, encoding="utf-8"), 1):
        if not line.strip():
            continue
        lines += 1
        where = f"{path}:{lineno}"
        try:
            entry = json.loads(line)
        except ValueError as e:
            errors.append(f"{where}: invalid JSON: {e}")
            continue
        if entry.get("schema") != SLOWLOG_SCHEMA:
            errors.append(f"{where}: schema must be {SLOWLOG_SCHEMA}")
        if not isinstance(entry.get("op"), str) or not entry["op"]:
            errors.append(f"{where}: missing op")
        for field in ("points", "elapsed_us"):
            v = entry.get(field)
            if not isinstance(v, int) or v < 0:
                errors.append(f"{where}: bad {field}: {v!r}")
        spans = entry.get("spans")
        if not isinstance(spans, list):
            errors.append(f"{where}: spans must be a list")
            continue
        for span in spans:
            if span.get("name") not in STAGES:
                errors.append(f"{where}: unknown span stage {span.get('name')!r}")
            dur = span.get("dur_us")
            if not isinstance(dur, int) or dur < 0:
                errors.append(f"{where}: bad dur_us: {dur!r}")
    if lines == 0:
        errors.append(f"{path}: empty slow-query log")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prom", help="Prometheus text exposition to validate")
    ap.add_argument("--perfetto", help="Chrome trace_event JSON to validate")
    ap.add_argument("--slowlog", help="tkdc-slowlog/v1 JSONL to validate")
    args = ap.parse_args()
    if not (args.prom or args.perfetto or args.slowlog):
        ap.error("nothing to check: pass --prom, --perfetto, and/or --slowlog")

    errors = []
    checked = []
    if args.prom:
        n = check_prom(args.prom, errors)
        checked.append(f"{n} prometheus samples")
    if args.perfetto:
        n = check_perfetto(args.perfetto, errors)
        checked.append(f"{n} trace events")
    if args.slowlog:
        n = check_slowlog(args.slowlog, errors)
        checked.append(f"{n} slowlog lines")

    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"obs_check: FAILED ({len(errors)} problems)", file=sys.stderr)
        return 1
    print(f"obs_check: ok ({', '.join(checked)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
