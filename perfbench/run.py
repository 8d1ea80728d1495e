#!/usr/bin/env python3
"""Build and run the two-plane Colibri benchmark (see README.md).

Run from the root of a Colibri checkout:

  python3 perfbench/run.py --workload fwd-min --seed 1 --seconds 10 --trace 0
      one measurement; the last line of output is the JSON result
  python3 perfbench/run.py --report [--seed N] [--seconds S]
      every end-to-end metric of every workload, with unit and sample
      count; exits non-zero when any output check fails
  python3 perfbench/run.py --selftest
      reduced-size runs that check the benchmark itself

The program is built from source with dune into _build/ of the
checkout; nothing is written outside it.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["fwd-min", "setup-churn", "mixed-lossy"]

# Metrics that depend only on (workload, seed, seconds): two runs with
# one seed must agree on them exactly.
DETERMINISTIC_E2E = [
    "pkt_delivered_ratio",
    "setup_granted_ratio",
    "setup_sim_p99_ms",
    "ctrl_msgs_per_setup",
]
DETERMINISTIC_LAYER = [
    "router.dropped_duplicate",
    "router.dropped_policed",
    "gateway.minor_words_per_pkt",
    "router.minor_words_per_pkt",
    "control_net.sent",
    "control_net.lost",
    "retry.attempts_per_request",
    "retry.useful_ratio",
    "renewal.ok",
    "renewal.late",
    "cserv.denied_total",
]

# Samples required beyond a percentile (mirrors Stats.tail_floor).
TAIL_FLOOR = 10


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no Colibri source tree (dune-project, lib/) next to perfbench/")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed", r.returncode or 1)


def run(workload, seed, seconds, trace):
    """One measurement: (exit code, result dict or None, samples, text)."""
    r = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    result = samples = None
    try:
        result = json.loads(lines[-1])
        samples = json.loads(lines[-2])["samples"]
    except (IndexError, ValueError, KeyError):
        pass
    return r.returncode, result, samples, r.stdout + r.stderr


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def percentile_of(name):
    """The quantile a metric name reports, if it is a percentile."""
    for tag, q in (("_p50_", 0.5), ("_p99_", 0.99)):
        if tag in name:
            return q
    return None


def selftest(seconds=1, seed=7):
    e2e_units, layer_units = contract()
    problems = []

    def check_run(workload, trace, units):
        code, res, samples, text = run(workload, seed, seconds, trace)
        where = f"{workload} --trace {trace}"
        if code != 0 or res is None or not res.get("correct"):
            problems.append(f"{where}: failed run\n{text[-2000:]}")
            return None
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(res)}")
        for name, unit in units.items():
            m = res["metrics"].get(name)
            if m is None:
                problems.append(f"{where}: {name} missing")
                continue
            if m.get("unit") != unit:
                problems.append(f"{where}: {name} unit {m.get('unit')} != {unit}")
            n = samples.get(name)
            if not isinstance(n, int) or n < 1:
                problems.append(f"{where}: {name} has no sample count")
                continue
            q = percentile_of(name)
            if q is not None and n - math.ceil(q * n) < TAIL_FLOOR:
                problems.append(
                    f"{where}: {name} from {n} samples, fewer than "
                    f"{TAIL_FLOOR} beyond the percentile")
        extra = set(res["metrics"]) - set(units)
        if extra:
            problems.append(f"{where}: unlisted metrics {sorted(extra)}")
        print(f"selftest: {where}: {len(res['metrics'])} metrics checked",
              flush=True)
        return res["metrics"]

    def same(workload, trace, names, a, b):
        for name in names:
            if a[name]["value"] != b[name]["value"]:
                problems.append(
                    f"{workload} --trace {trace}: {name} differs between two "
                    f"runs of seed {seed}: {a[name]['value']} vs "
                    f"{b[name]['value']}")

    for w in WORKLOADS:
        a = check_run(w, 0, e2e_units)
        b = check_run(w, 0, e2e_units)
        if a and b:
            same(w, 0, DETERMINISTIC_E2E, a, b)
        c = check_run(w, 1, layer_units)
        d = check_run(w, 1, layer_units)
        if c and d:
            same(w, 1, DETERMINISTIC_LAYER, c, d)
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: ok" if not problems else
          f"selftest: {len(problems)} problems")
    return 0 if not problems else 1


def report(seed, seconds):
    status = 0
    print(f"{'workload':12s} {'metric':22s} {'value':>14s} {'unit':7s} samples")
    for w in WORKLOADS:
        code, res, samples, text = run(w, seed, seconds, 0)
        if code != 0 or res is None or not res.get("correct"):
            status = 1
            print(f"{w}: output check failed\n{text[-2000:]}")
            if res is None:
                continue
        for name, m in res["metrics"].items():
            print(f"{w:12s} {name:22s} {m['value']:14.4f} {m['unit']:7s} "
                  f"{samples.get(name)}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not (a.report or a.selftest or a.workload):
        p.error("give --workload, --report or --selftest")
    build()
    if a.selftest:
        sys.exit(selftest())
    if a.report:
        sys.exit(report(a.seed, a.seconds))
    r = subprocess.run(
        [EXE, "--workload", a.workload, "--seed", str(a.seed), "--seconds",
         str(a.seconds), "--trace", str(a.trace)], cwd=ROOT)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
