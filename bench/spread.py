"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --label first
    python3 bench/spread.py --seeds 11 12 13 14 15 16 17 18 19 20 \
        --label second --against bench/out/spread-first.json
    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline

Each (workload, seed) is one `bench/run.py` process, run one after another.
For every end-to-end metric it prints the median and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound in BENCHMARK.json, and flags each spread
above a third of its bound; `--against` also compares medians with an
earlier summary. The summary goes to
bench/out/spread-<label>.json. `--baseline` adds one traced run at seed 0
per workload and writes bench/baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no bytecode in the checkout

import jobs  # noqa: E402
import run  # noqa: E402


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(jobs.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=str(jobs.ROOT), capture_output=True,
                         text=True, timeout=600)
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n"
                         f"{res.stdout[-2000:]}\n{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--label", default="latest")
    ap.add_argument("--against", help="earlier spread summary to compare with")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()

    spec = json.loads((jobs.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    before = json.loads(open(args.against).read())["workloads"] if args.against else {}

    summary = {}
    ok = True
    for workload in jobs.WORKLOADS:
        runs = [bench_run(workload, seed, seconds, 0) for seed in args.seeds]
        summary[workload] = {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            summary[workload][name] = s
            line = (f"{workload:10s} {name:12s} median {s['median']:.6g} "
                    f"spread {s['spread']:.4f} bound {bound}")
            if s["spread"] > bound / 3:
                line += "  SPREAD ABOVE BOUND/3"
                ok = False
            prev = before.get(workload, {}).get(name)
            if prev:
                better = next(m["better"] for m in spec["end_to_end"]
                              if m["name"] == name)
                change = s["median"] / prev["median"] - 1.0
                worse = change if better == "lower" else -change
                line += f"  vs earlier {change:+.4f}"
                if worse > bound:
                    line += "  WORSE THAN BOUND"
                    ok = False
            print(line, flush=True)

    out = {"seconds": seconds, "seeds": args.seeds, "workloads": summary}
    jobs.OUT.mkdir(exist_ok=True)
    (jobs.OUT / f"spread-{args.label}.json").write_text(json.dumps(out, indent=1))

    if args.baseline:
        ctx = run.context(argparse.Namespace(workload="all", seed=args.seeds,
                                             seconds=seconds, trace=False))
        traced = {w: bench_run(w, 0, seconds, 1)["metrics"] for w in jobs.WORKLOADS}
        baseline = {
            "context": ctx,
            "end_to_end": {w: {m: {k: v for k, v in s.items() if k != "values"}
                               for m, s in summary[w].items()}
                           for w in summary},
            "per_layer_seed0": {w: {m: v["value"] for m, v in traced[w].items()}
                                for w in traced},
        }
        (jobs.BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
        print("wrote " + str(jobs.BENCH / "baseline.json"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
