#!/usr/bin/env python3
"""Record and compare e2ebench baselines.

    python3 e2ebench/baseline.py run [--commit SHA] [--out FILE]
    python3 e2ebench/baseline.py compare OLD.json NEW.json

`run` executes the benchmark command of BENCHMARK.json from the
repository root with its run_seconds, on every workload: the ones
BENCHMARK.json gates and the ungated ones (UNGATED). Each workload runs
once per seed in SEEDS with tracing off and once per seed in
TRACE_SEEDS with tracing on. For each end-to-end metric it records the
values, their median and quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound; for each
per-layer metric the median over the trace seeds; plus every drive's
protocol counters, the traced per-lane and per-tool breakdown, and the
host provenance the benchmark reports. Any incorrect run aborts the
recording.

`compare` prints, per workload and end-to-end metric, the two medians
and whether the new one is worse than the old by more than the bound.
It refuses to compare runs whose provenance differs (host core count,
worker count, OPUS iterations, elastic timing preset).
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNGATED = ["table2-single", "scale-sweep"]
SEEDS = list(range(1, 11))
TRACE_SEEDS = [1]
COMPARABLE = ("nproc", "workers", "opus_iterations", "stale_after_ms", "heartbeat_ms",
              "poll_ms", "trials", "scale_factors", "run_seconds")


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace} incorrect: {lines[-1]}")
    extra = {"drives": []}
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        if tag == "provenance":
            extra["provenance"] = json.loads(body)
        elif tag == "drive":
            extra["drives"].append(json.loads(body))
        elif tag == "breakdown":
            extra["breakdown"] = json.loads(body)
    return result, extra


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread <= bound / 3, "values": values}


def record(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    command, seconds = spec["command"], spec["run_seconds"]
    gated = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": seconds, "seeds": SEEDS, "trace_seeds": TRACE_SEEDS, "workloads": {}}
    provenance = None
    for name in gated + UNGATED:
        e2e, drives = {}, []
        for seed in SEEDS:
            result, extra = run_once(command, name, seed, seconds, 0)
            provenance = extra["provenance"]
            drives += extra["drives"]
            for metric, entry in result["metrics"].items():
                e2e.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v[-1]:.4g}" for m, v in e2e.items()), file=sys.stderr)
        layers, breakdowns = {}, []
        for seed in TRACE_SEEDS:
            result, extra = run_once(command, name, seed, seconds, 1)
            for metric, entry in result["metrics"].items():
                layers.setdefault(metric, []).append(entry["value"])
            breakdowns.append(extra.get("breakdown"))
        out["workloads"][name] = {
            "gated": name in gated,
            "end_to_end": {m: summarize(v, bounds[m]) for m, v in e2e.items()},
            "per_layer": {m: statistics.median(v) for m, v in layers.items()},
            "drives": drives,
            "breakdown": breakdowns,
        }
        for m, s in out["workloads"][name]["end_to_end"].items():
            flag = "" if s["steady"] else "  << spread above bound/3"
            print(f"{name:18} {m:14} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{flag}", file=sys.stderr)
    out["provenance"] = dict(provenance or {}, run_seconds=seconds,
                             commit=opts.get("--commit", "unknown"))
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if "--out" in opts:
        with open(opts["--out"], "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def compare(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    for key in COMPARABLE:
        if old["provenance"].get(key) != new["provenance"].get(key):
            sys.exit(f"refusing to compare: {key} differs "
                     f"({old['provenance'].get(key)} vs {new['provenance'].get(key)})")
    worse = 0
    for name, w in new["workloads"].items():
        for metric, s in w["end_to_end"].items():
            base = old["workloads"].get(name, {}).get("end_to_end", {}).get(metric)
            if base is None:
                continue
            delta = s["median"] / base["median"] - 1
            verdict = "worse" if delta > base["bound"] else "ok"
            worse += verdict == "worse"
            print(f"{name:18} {metric:14} {base['median']:.6g} -> {s['median']:.6g}"
                  f"  {delta:+.1%}  bound {base['bound']:.0%}  {verdict}")
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "run":
        record(sys.argv[2:])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        compare(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
