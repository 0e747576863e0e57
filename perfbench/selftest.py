#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload in its reduced-size mode,
untraced and traced, and checks that each run passes its correctness gates
and reports exactly the metrics BENCHMARK.json lists, with their units.
Also checks that the same seed gives the same inputs and that a wrong
pinned verdict or injected index fails the run.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute after the build.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seed=1):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


def work_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def generate(exe, workload, seed, out):
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([exe, "gen", "--workload", workload, "--seed", str(seed),
                    "--size", "small", "--seconds", "2", "--out", out],
                   check=True, timeout=600)
    with open(os.path.join(out, "manifest.txt")) as f:
        return [l for l in f if l.startswith("input_digest ")][0]


def negative_checks(exe, problems):
    tmp = os.path.join(work_dir(), "selftest")
    a = generate(exe, "ota-fleet", 5, os.path.join(tmp, "a"))
    b = generate(exe, "ota-fleet", 5, os.path.join(tmp, "b"))
    c = generate(exe, "ota-fleet", 6, os.path.join(tmp, "c"))
    if a != b or a == c:
        problems.append("inputs are not a function of the seed")
    manifest = os.path.join(tmp, "a", "manifest.txt")
    with open(manifest) as f:
        text = f.read()
    with open(manifest, "w") as f:
        f.write(text.replace("expect PASS,PASS,PASS", "expect PASS,FAIL,PASS"))
    out = subprocess.run(
        [exe, "run", "--workload", "ota-fleet", "--inputs", os.path.join(tmp, "a"),
         "--seconds", "0.5", "--trace", "0",
         "--trace-file", os.path.join(tmp, "t.json")],
        capture_output=True, text=True, timeout=600)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 1 or last["correct"] or last["failed"] == 0:
        problems.append("a wrong pinned verdict did not fail the run")

    # A wrong injected index must fail the replay gates, in the measuring
    # process and in each replay-once process it starts for peak_rss_mb.
    r = os.path.join(tmp, "r")
    generate(exe, "replay-log", 5, r)
    manifest = os.path.join(r, "manifest.txt")
    with open(manifest) as f:
        lines = f.read().splitlines()
    with open(manifest, "w") as f:
        for line in lines:
            if line.startswith("injected_index "):
                line = "injected_index %d" % (int(line.split()[1]) + 1)
            f.write(line + "\n")
    once = subprocess.run([exe, "replay-once", "--inputs", r],
                          capture_output=True, text=True, timeout=600)
    if once.returncode != 1:
        problems.append("a wrong injected index did not fail replay-once")
    out = subprocess.run(
        [exe, "run", "--workload", "replay-log", "--inputs", r,
         "--seconds", "0.5", "--trace", "0",
         "--trace-file", os.path.join(tmp, "t.json")],
        capture_output=True, text=True, timeout=600)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 1 or last["correct"] or last["failed"] == 0:
        problems.append("a wrong injected index did not fail the run")
    shutil.rmtree(tmp, ignore_errors=True)
    print("ok  negative checks" if not problems else "... negative checks")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            code, lines = run(w, trace)
            label = "%s trace=%d" % (w, trace)
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json" % label)
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append("%s: gates failed" % label)
            if trace == 0 and any(result["metrics"][k]["value"] <= 0 for k in got):
                problems.append("%s: an end-to-end metric is not positive" % label)
            print("ok  " + label if not problems else "... " + label)
    negative_checks(os.path.join(work_dir(), "cmake", "ecubench"), problems)
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
