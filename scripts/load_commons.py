#!/usr/bin/env python3
"""Load an A4NN data commons into pandas DataFrames.

The paper's Dataverse commons ships with "a Python script demonstrating
how to load the data into a Pandas DataFrame and calculate and save
metrics of interest"; this is that script for the C++ reproduction's
commons layout (see src/lineage/tracker.hpp):

    <root>/search.json
    <root>/models/model_00042/record.json
    <root>/models/model_00042/epoch_0007.ckpt    (binary weights)
    <root>/models/model_00042/epoch_0007.state   (binary training state)

Only the JSON files (search.json, record.json) are read here.

Usage:
    python3 scripts/load_commons.py <commons_dir> [--out metrics.csv]

Produces one row per network with its genome key, fitness, FLOPs, epoch
counts and timings, prints summary metrics (mean accuracy, epoch savings,
early-termination share), and optionally saves the table as CSV.
"""
import argparse
import json
import sys
from pathlib import Path

try:
    import pandas as pd
except ImportError:  # pragma: no cover - pandas is optional
    pd = None


def genome_key(genome: dict) -> str:
    parts = []
    for phase in genome["phases"]:
        bits = "".join("1" if b else "0" for b in phase["bits"])
        bits += "S" if phase["skip"] else "s"
        for op in phase.get("node_ops", []):
            bits += chr(ord("a") + int(op))
        parts.append(bits)
    return "|".join(parts)


def load_records(root: Path) -> list:
    rows = []
    for record_path in sorted(root.glob("models/model_*/record.json")):
        r = json.loads(record_path.read_text())
        rows.append(
            {
                "model_id": int(r["model_id"]),
                "generation": int(r["generation"]),
                "genome": genome_key(r["genome"]),
                "fitness": r["fitness"],
                "measured_fitness": r["measured_fitness"],
                "flops": int(r["flops"]),
                "parameters": int(r["parameters"]),
                "epochs_trained": int(r["epochs_trained"]),
                "max_epochs": int(r["max_epochs"]),
                "early_terminated": bool(r["early_terminated"]),
                "virtual_seconds": r["virtual_seconds"],
                "wall_seconds": r["wall_seconds"],
                "device_id": int(r["device_id"]),
                "final_val_accuracy": r["fitness_history"][-1]
                if r["fitness_history"]
                else None,
                "num_predictions": len(r["prediction_history"]),
            }
        )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("commons", type=Path)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the per-network table as CSV")
    args = parser.parse_args()

    search_config = json.loads((args.commons / "search.json").read_text())
    rows = load_records(args.commons)
    if not rows:
        print(f"no record trails under {args.commons}", file=sys.stderr)
        return 1

    intensity = search_config.get("dataset", {}).get("intensity", "?")
    print(f"commons: {args.commons}  ({len(rows)} networks, "
          f"{intensity} intensity)")

    if pd is None:
        print("pandas not installed; printing plain summaries")
        mean_acc = sum(r["measured_fitness"] for r in rows) / len(rows)
        trained = sum(r["epochs_trained"] for r in rows)
        budget = sum(r["max_epochs"] for r in rows)
        early = sum(r["early_terminated"] for r in rows)
        print(f"mean accuracy      : {mean_acc:.2f}%")
        print(f"epochs trained     : {trained}/{budget} "
              f"({100 * (1 - trained / budget):.1f}% saved)")
        print(f"early terminated   : {early}/{len(rows)}")
        return 0

    df = pd.DataFrame(rows).set_index("model_id").sort_index()
    print(df[["fitness", "flops", "epochs_trained", "early_terminated"]]
          .describe(include="all"))
    print(f"\nmean accuracy      : {df.measured_fitness.mean():.2f}%")
    print(f"epoch savings      : "
          f"{100 * (1 - df.epochs_trained.sum() / df.max_epochs.sum()):.1f}%")
    print(f"early terminated   : {df.early_terminated.mean():.0%}")
    print(f"accuracy-vs-FLOPs corr: "
          f"{df.measured_fitness.corr(df.flops.astype(float)):.3f}")
    if args.out:
        df.to_csv(args.out)
        print(f"table written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
