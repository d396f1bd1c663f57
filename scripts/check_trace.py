#!/usr/bin/env python3
"""Validate an a4nn trace file (--trace-out / A4NN_TRACE output).

Checks, in order:
  1. The file parses as JSON and has the Chrome-trace shape: a
     "traceEvents" list whose entries are complete spans ("ph":"X"),
     instants ("ph":"i"), or metadata ("ph":"M").
  2. Spans on each (pid, tid) lane nest properly: two spans on one lane
     either don't overlap or one fully contains the other. A partial
     overlap means a clock went backwards or a lane id is being shared.
  3. The embedded metrics block agrees with the span arguments:
     scheduler retries / wasted seconds summed off the virtual-timeline
     job spans equal the "sched.*" counters, per-record accounting
     instants equal the "nas.evaluations" counter, and their
     engine-overhead args sum to the "penguin.engine_overhead_seconds"
     counter. These are the same numbers RunSummary derives from the
     registry, so a mismatch means the trace and the summary disagree
     about what the run did.
  4. Every counter the trace lists under "counted" equals the number of
     instants of the same name, each in the category its name's prefix
     names. No instant may carry the name of an undeclared counter.
  5. Cluster remote results equal their job.remote spans and the
     scheduler's remote jobs; the stream trigger ladder is monotone.

Usage: check_trace.py TRACE_JSON

Exits 0 and prints a one-line summary per check on success; prints the
failure and exits 1 otherwise.
"""

import json
import sys

VIRTUAL_PID = 2
CLUSTER_PID = 3

# Everything crossing JSON is an IEEE-754 round-trippable double, so the
# sums should match exactly; the epsilon only absorbs the associativity of
# Python summing in event order vs C++ summing in placement order.
REL_EPS = 1e-9


def fail(message):
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def close(a, b):
    return abs(a - b) <= REL_EPS * max(1.0, abs(a), abs(b))


def check_shape(doc):
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("document is not an object with a traceEvents key")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("traceEvents is empty")
    for i, e in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                fail(f"event {i} is missing {key!r}: {e}")
        if e["ph"] == "X":
            if "ts" not in e or "dur" not in e:
                fail(f"complete span {i} is missing ts/dur: {e}")
            if e["dur"] < 0:
                fail(f"span {e['name']!r} has negative duration {e['dur']}")
        elif e["ph"] == "i":
            if "ts" not in e:
                fail(f"instant {i} is missing ts: {e}")
        elif e["ph"] != "M":
            fail(f"event {i} has unknown phase {e['ph']!r}")
    return events


def check_nesting(events):
    lanes = {}
    for e in events:
        if e["ph"] == "X":
            lanes.setdefault((e["pid"], e["tid"]), []).append(e)
    checked = 0
    for (pid, tid), spans in lanes.items():
        # Sort by start, widest first, so a parent precedes its children.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and start >= stack[-1] - 1e-6:
                stack.pop()
            if stack and end > stack[-1] + 1e-6:
                fail(
                    f"span {e['name']!r} on lane pid={pid} tid={tid} "
                    f"([{start}, {end}]) partially overlaps its enclosing "
                    f"span (ends at {stack[-1]})"
                )
            stack.append(end)
            checked += 1
    print(f"check_trace: ok: {checked} spans nest on {len(lanes)} lanes")


def check_metrics_agreement(doc, events):
    counters = doc.get("metrics", {}).get("counters")
    if counters is None:
        print("check_trace: ok: no embedded metrics block (skipping cross-check)")
        return

    span_retries = 0
    span_wasted = 0.0
    fault_events = 0
    accounting = 0
    overhead = 0.0
    for e in events:
        args = e.get("args", {})
        if (
            e["ph"] == "X"
            and e["pid"] == VIRTUAL_PID
            and e.get("cat") == "sched"
        ):
            span_retries += int(args["retries"])
            span_wasted += args["wasted_seconds"]
        if e["name"] in ("fault.transient", "fault.crash"):
            fault_events += 1
        if e["name"] == "record.accounting":
            accounting += 1
            overhead += args["engine_overhead_seconds"]

    expectations = [
        ("sched.retries", span_retries, "job-span retries args"),
        ("sched.wasted_virtual_seconds", span_wasted, "job-span wasted args"),
        (
            "sched.transient_faults+sched.job_crashes",
            fault_events,
            "fault events",
        ),
        ("nas.evaluations", accounting, "record.accounting instants"),
        (
            "penguin.engine_overhead_seconds",
            overhead,
            "record.accounting overhead args",
        ),
    ]
    for counter_name, observed, source in expectations:
        expected = sum(counters.get(part, 0.0) for part in counter_name.split("+"))
        if not close(expected, observed):
            fail(
                f"{source} sum to {observed} but the {counter_name} "
                f"counter says {expected}"
            )
        print(f"check_trace: ok: {source} match {counter_name} = {expected}")


def check_counted(doc, events):
    """Hold every declared counter equal to its same-named instants.

    Counted events come from one call (util::metrics::count) that bumps the
    counter and emits an instant named after it, with the name's prefix as
    category; components declare their counted names, and the trace lists
    them under "counted" even when a count stayed at zero.
    """
    counters = doc.get("metrics", {}).get("counters")
    if counters is None:
        print("check_trace: ok: no embedded metrics block (skipping counts)")
        return
    counted = doc.get("counted")
    if not isinstance(counted, list) or not counted:
        fail('metrics block present but no "counted" name list')

    instants = {}
    for e in events:
        if e["ph"] == "i":
            instants.setdefault(e["name"], []).append(e)

    for name in counted:
        expected = counters.get(name, 0.0)
        observed = instants.get(name, [])
        if not close(expected, len(observed)):
            fail(
                f"{name!r} instants number {len(observed)} but the counter "
                f"says {expected}"
            )
        category = name.split(".")[0]
        for e in observed:
            if e.get("cat") != category:
                fail(f"{name!r} instant has category {e.get('cat')!r}")
    # An instant named after a counter that nobody declared escaped the
    # cross-check above; refuse it rather than let it drift.
    undeclared = sorted(set(instants) & set(counters) - set(counted))
    if undeclared:
        fail(f"instants named after undeclared counters: {undeclared}")
    total = sum(len(instants.get(name, [])) for name in counted)
    print(
        f"check_trace: ok: {total} count instants match {len(counted)} "
        "declared counters"
    )


def check_invariants(doc, events):
    """Cross-checks that are not one counter against one instant name."""
    counters = doc.get("metrics", {}).get("counters")
    if counters is None:
        return
    # Every remote result closes one job.remote span on the cluster lanes,
    # and every remote job the scheduler handed out came back as a result.
    remote = counters.get("cluster.remote_results", 0.0)
    spans = sum(
        1
        for e in events
        if e["name"] == "job.remote" and e["ph"] == "X" and e["pid"] == CLUSTER_PID
    )
    if not close(remote, spans):
        fail(
            f"pid-3 job.remote spans number {spans} but the "
            f"cluster.remote_results counter says {remote}"
        )
    if "sched.remote_jobs" in counters and not close(
        counters["sched.remote_jobs"], remote
    ):
        fail(
            f"sched.remote_jobs ({counters['sched.remote_jobs']}) disagrees "
            f"with cluster.remote_results ({remote})"
        )
    # The trigger ladder only moves forward: a trigger must be fired
    # before it is acked, and acked before it completes.
    fired = counters.get("stream.triggers_fired", 0.0)
    acked = counters.get("stream.triggers_acked", 0.0)
    completed = counters.get("stream.triggers_completed", 0.0)
    if not (fired >= acked >= completed):
        fail(
            f"trigger ladder runs backwards: fired={fired} "
            f"acked={acked} completed={completed}"
        )
    print(
        f"check_trace: ok: {spans} job.remote spans match "
        "cluster.remote_results; trigger ladder monotone"
    )


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    try:
        with open(sys.argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {sys.argv[1]}: {e}")

    events = check_shape(doc)
    real = [e for e in events if e["ph"] != "M"]
    print(f"check_trace: ok: {len(real)} events parse as Chrome trace format")
    check_nesting(events)
    check_metrics_agreement(doc, real)
    check_counted(doc, real)
    check_invariants(doc, real)
    print("check_trace: PASS")


if __name__ == "__main__":
    main()
