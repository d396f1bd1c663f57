#!/usr/bin/env python3
"""Self-test for scripts/check_trace.py on synthetic traces.

Builds one consistent trace (scheduler spans, per-record accounting
instants, declared count instants on the host, cluster and stream lanes,
job.remote spans), checks that check_trace.py passes it, then breaks it in
ways the checker must catch and checks that each one fails.

Usage: check_trace_selftest.py [path/to/check_trace.py]
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = (
    sys.argv[1]
    if len(sys.argv) > 1
    else os.path.join(HERE, "..", "scripts", "check_trace.py")
)


def span(name, cat, ts, dur, pid, tid, args=None):
    e = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
         "pid": pid, "tid": tid}
    if args:
        e["args"] = args
    return e


def instant(name, ts, pid, tid, cat=None, args=None):
    e = {"name": name, "cat": cat or name.split(".")[0], "ph": "i",
         "s": "t", "ts": ts, "pid": pid, "tid": tid}
    if args:
        e["args"] = args
    return e


def consistent_trace():
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "a4nn host"}},
        span("workflow.run", "core", 0.0, 1000.0, 1, 0),
        span("job 0", "sched", 0.0, 5e6, 2, 0,
             {"job": 0, "retries": 1, "wasted_seconds": 2.5}),
        span("job 1", "sched", 0.0, 4e6, 2, 1,
             {"job": 1, "retries": 0, "wasted_seconds": 0.0}),
        instant("fault.transient", 1.0, 2, 0, cat="fault"),
    ]
    counters = {
        "sched.retries": 1.0,
        "sched.wasted_virtual_seconds": 2.5,
        "sched.transient_faults": 1.0,
        "sched.remote_jobs": 2.0,
        "nas.evaluations": 2.0,
        "penguin.engine_overhead_seconds": 0.75,
        "cluster.remote_results": 2.0,
        "stream.triggers_fired": 2.0,
        "stream.triggers_acked": 1.0,
        "stream.triggers_completed": 1.0,
    }
    for model, overhead in ((0, 0.25), (1, 0.5)):
        events.append(instant("record.accounting", 10.0 + model, 1, 0,
                              cat="nas",
                              args={"model_id": model,
                                    "engine_overhead_seconds": overhead}))
        events.append(span("job.remote", "cluster", 20.0 + model, 5.0, 3,
                           model + 1, {"model_id": model}))
    # Declared counters: some fired, some stayed at zero.
    fired = {
        ("nas.memo_hits", 1, 0): 2,
        ("nas.failed_evaluations", 1, 0): 1,
        ("cluster.dispatches", 3, 1): 3,
        ("cluster.worker_failures", 3, 2): 1,
        ("stream.windows", 4, 2): 4,
        ("stream.triggers_fired", 4, 2): 2,
        ("stream.triggers_acked", 4, 3): 1,
        ("stream.triggers_completed", 4, 3): 1,
    }
    ts = 100.0
    for (name, pid, tid), n in fired.items():
        for _ in range(n):
            events.append(instant(name, ts, pid, tid))
            ts += 1.0
        counters[name] = float(n)
    declared = sorted(
        {name for name, _, _ in fired} | {"nas.coalesced", "latency.probes"}
    )
    counters["nas.coalesced"] = 0.0
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "counted": declared,
        "metrics": {"counters": counters, "gauges": {}, "histograms": {}},
    }


def remove_one_instant(doc):
    events = doc["traceEvents"]
    i = next(k for k, e in enumerate(events) if e["name"] == "cluster.dispatches")
    del events[i]


def remove_all_instants_of_a_counter(doc):
    doc["traceEvents"] = [
        e for e in doc["traceEvents"] if e["name"] != "stream.windows"
    ]


def bump_counter_without_instant(doc):
    # nas.coalesced is declared, stayed at zero, and has no instants.
    doc["metrics"]["counters"]["nas.coalesced"] += 1.0


def drop_declared_list(doc):
    del doc["counted"]


def undeclare_a_fired_counter(doc):
    doc["counted"].remove("nas.memo_hits")


def instant_in_wrong_category(doc):
    e = next(e for e in doc["traceEvents"] if e["name"] == "nas.memo_hits")
    e["cat"] = "stream"


def remove_a_remote_span(doc):
    events = doc["traceEvents"]
    i = next(k for k, e in enumerate(events) if e["name"] == "job.remote")
    del events[i]


MUST_FAIL = [
    remove_one_instant,
    remove_all_instants_of_a_counter,
    bump_counter_without_instant,
    drop_declared_list,
    undeclare_a_fired_counter,
    instant_in_wrong_category,
    remove_a_remote_span,
]


def run_checker(doc, workdir, label):
    path = os.path.join(workdir, label + ".json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    proc = subprocess.run(
        [sys.executable, CHECKER, path], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        base = consistent_trace()
        code, out = run_checker(base, workdir, "consistent")
        if code != 0:
            failures.append(f"consistent trace rejected:\n{out}")
        for mutate in MUST_FAIL:
            doc = copy.deepcopy(base)
            mutate(doc)
            code, out = run_checker(doc, workdir, mutate.__name__)
            if code != 1 or "FAIL" not in out:
                failures.append(
                    f"{mutate.__name__}: expected a FAIL, got exit {code}:\n{out}"
                )
            else:
                print(f"ok: {mutate.__name__} is caught")
    if failures:
        for f in failures:
            print(f"check_trace_selftest: {f}", file=sys.stderr)
        sys.exit(1)
    print("check_trace_selftest: PASS")


if __name__ == "__main__":
    main()
