#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent and a change.

usage: python3 perfbench/compare.py <parent> <change>
       python3 perfbench/compare.py --self-test

<parent> and <change> are run-record files or directories of them, as
run.py writes them to .bench_runs/. For every workload x end-to-end metric
of BENCHMARK.json it prints each side's median and quartiles, the ratio of
the medians with its base, and a verdict:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the spread of either side is wider than the bound, unless
              every change run reads better than every parent run
  same        none of the above: within the bound, on steady figures

Runs pair up by seed when both sides ran the same seeds, else in order.
Per-layer metrics (traced runs) are printed with their ratios, without a
verdict. Exits 1 when any verdict is worse, or when a workload's digests
disagree within one side (a run that is not reproducible).
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        rec = json.loads(f.read_text())
        records.append(rec.get("record", rec))
    if not records:
        raise SystemExit(f"compare.py: no run records in {arg}")
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(parent, change):
    """[(parent value, change value)], paired by seed where possible."""
    p_by_seed = {r["seed"]: r for r in parent}
    c_by_seed = {r["seed"]: r for r in change}
    common = sorted(set(p_by_seed) & set(c_by_seed))
    if len(common) == min(len(parent), len(change)):
        return [(p_by_seed[s], c_by_seed[s]) for s in common]
    return list(zip(parent, change))


def verdict(name, better, bound, parent, change):
    """Verdict and figures for one workload x metric."""
    pv = [r["metrics"][name]["value"] for r in parent]
    cv = [r["metrics"][name]["value"] for r in change]
    pm, cm = statistics.median(pv), statistics.median(cv)
    sign = 1.0 if better == "higher" else -1.0
    gain = lambda a, b: sign * (b - a)  # > 0 when b is better than a
    p_lo, p_hi = quartiles(pv)
    c_lo, c_hi = quartiles(cv)
    base = abs(pm) if pm else 1.0
    spread = max(p_hi - p_lo, c_hi - c_lo) / base
    matched = pairs(parent, change)
    value = lambda r: r["metrics"][name]["value"]
    wins = sum(gain(value(p), value(c)) > 0 for p, c in matched)
    all_better = min(sign * v for v in cv) > max(sign * v for v in pv)
    if -gain(pm, cm) / base > bound:
        v = "worse"
    elif wins >= 0.9 * len(matched) and abs(cm - pm) > p_hi - p_lo:
        v = "better"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "same"
    return v, {"parent_median": pm, "parent_q1": p_lo, "parent_q3": p_hi,
               "change_median": cm, "change_q1": c_lo, "change_q3": c_hi,
               "ratio": cm / pm if pm else float("nan"), "base": pm,
               "wins": wins, "pairs": len(matched), "spread": spread}


def digest_problems(records, side):
    """Digests must agree between runs of one workload and seed."""
    seen, problems = {}, []
    for r in records:
        key = (r["workload"], r["seed"])
        if seen.setdefault(key, r["digest"]) != r["digest"]:
            problems.append(f"{side}: {key[0]} seed {key[1]} digests "
                            f"{seen[key]} and {r['digest']} disagree")
    return problems


def row(workload, metric, f, v):
    """One printed comparison row."""
    def side(s):
        return (f"{f[s + '_median']:10.4g} "
                f"[{f[s + '_q1']:.4g}, {f[s + '_q3']:.4g}]")
    ratio = f"{f['ratio']:7.4f} ({f['base']:.4g} {metric['unit']})"
    return (f"{workload:15s} {metric['name']:26s} {side('parent'):34s} "
            f"{side('change'):34s} {ratio:22s} {v}")


def compare(parent, change, spec, out=print):
    problems = (digest_problems(parent, "parent")
                + digest_problems(change, "change"))
    regressions = 0
    workloads = sorted({r["workload"] for r in parent}
                       & {r["workload"] for r in change})
    out(f"{'workload':15s} {'metric':26s} {'parent median [q1, q3]':34s} "
        f"{'change median [q1, q3]':34s} {'ratio (base)':22s} verdict")
    for w in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            key = (w, trace)
            p, c = ([r for r in rs if (r["workload"], r["trace"]) == key]
                    for rs in (parent, change))
            if not p or not c:
                continue
            for m in spec[section]:
                v, f = verdict(m["name"], m["better"], m.get("bound", 0.0),
                               p, c)
                if section == "per_layer":
                    if f["parent_median"] == 0 and f["change_median"] == 0:
                        continue
                    v = "-"
                elif v == "worse":
                    regressions += 1
                out(row(w, m, f, v))
    for problem in problems:
        out(f"PROBLEM: {problem}")
    return 1 if regressions or problems else 0


def self_test():
    """A hand-injected regression must fail the comparison; identical sets
    must pass; a clear gain must read better."""
    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "efficiency", "unit": "fraction", "better": "higher",
         "bound": 0.05}],
        "per_layer": [{"name": "fit.self_s", "unit": "s", "better": "lower"}]}

    def runs(wall_scale, eff_scale=1.0):
        noise = [1.00, 1.02, 0.99, 1.01, 0.98, 1.03, 1.00, 0.97, 1.01, 0.99]
        return [{"workload": "paper-sweep", "seed": s, "trace": 0,
                 "digest": f"d{s}",
                 "metrics": {
                     "wall_s": {"value": 3.5 * n * wall_scale, "unit": "s"},
                     "efficiency": {"value": 0.66 * eff_scale,
                                    "unit": "fraction"}}}
                for s, n in enumerate(noise)]

    def expect(code, parent, change, verdict_of_wall=None):
        lines = []
        got = compare(parent, change, spec, lines.append)
        wall = [line for line in lines if " wall_s " in line]
        if got != code or (verdict_of_wall
                           and not wall[0].endswith(verdict_of_wall)):
            raise SystemExit("compare.py self-test failed:\n"
                             + "\n".join(lines))

    expect(0, runs(1.0), runs(1.0))                      # identical sets
    expect(1, runs(1.0), runs(1.3), "worse")             # injected regression
    expect(0, runs(1.0), runs(0.7), "better")            # clear gain
    expect(1, runs(1.0), runs(1.0, 0.9))                 # quality drop
    expect(1, runs(1.0) + [dict(runs(1.0)[0], digest="other")],
           runs(1.0))                                    # digest mismatch
    print("compare.py self-test passed")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load_records(argv[0]), load_records(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
