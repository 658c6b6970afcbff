#!/usr/bin/env python3
"""Repository benchmark: builds the repository from source and measures one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite the reference fingerprints

Run from the repository root. W is paper_eval, ps_lattice or ring_lattice
(NOTES.md says what each measures and why). paper_eval runs the
14 evaluation binaries as child processes from here; the other workloads run
in-process in perfbench_driver (driver.cc). Every operation is checked
against perfbench/reference/. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
JOBS_REFERENCE = os.path.join(BENCH_DIR, "reference", "jobs.txt")
EVAL_REFERENCE = os.path.join(BENCH_DIR, "reference", "eval.txt")

# The whole paper evaluation, in the order the ROADMAP lists it (CMakeLists.txt
# builds the same list).
EVAL_BINARIES = [
    "fig02_contrived", "fig04_partition_credit", "fig09_bo_trace", "fig10_vgg16",
    "fig11_resnet50", "fig12_transformer", "fig13_bandwidth", "fig14_search_cost",
    "fig15_volatility", "table1_best_params", "ablations", "async_ps", "coschedule",
    "extra_models",
]
IN_PROCESS = ["ps_lattice", "ring_lattice"]
WORKLOADS = ["paper_eval"] + IN_PROCESS


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the driver and the evaluation binaries."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        die("no repository source beside perfbench/; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                      "--target", "perfbench_all"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                die("build failed (log: %s)" % log_path)


def stamp():
    """nproc, compiler, build type and commit; refuses Debug and sanitizer builds."""
    proc = subprocess.run([DRIVER, "--stamp"], capture_output=True, text=True)
    if proc.returncode != 0:
        die("refusing to time this build: " + proc.stdout.strip(), 3)
    result = json.loads(proc.stdout)
    git = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    result["commit"] = git.stdout.strip() if git.returncode == 0 else "unknown"
    return result


def load_eval_reference():
    """binary -> (stdout sha256, simulated events)."""
    reference = {}
    with open(EVAL_REFERENCE) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                name, digest, events = line.split()
                reference[name] = (digest, int(events))
    return reference


class Spans:
    """In-memory spans of the traced run, written as Chrome trace events at exit."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []

    def add(self, name, start, end, parent):
        self.spans.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                           "ts": (start - self.origin) * 1e6, "dur": (end - start) * 1e6,
                           "args": {"id": len(self.spans), "parent": parent}})
        return len(self.spans) - 1

    def write(self, path):
        with open(path, "w") as f:
            json.dump(self.spans, f, indent=0)


def run_binary(path, run_dir):
    """One evaluation binary with default flags: (wall s, cpu s, maxrss KiB, status, stdout)."""
    out_path = os.path.join(run_dir, "stdout")
    with open(out_path, "wb") as out, open(os.path.join(run_dir, "stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([path], stdout=out, stderr=err, cwd=run_dir)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, stdout


def eval_setup():
    """What a user pays before the first binary runs: locating the binaries
    and loading their reference."""
    binaries = [(name, os.path.join(BUILD, "bench", name)) for name in EVAL_BINARIES]
    missing = [path for _, path in binaries if not os.access(path, os.X_OK)]
    reference = load_eval_reference()
    if missing or set(reference) != set(EVAL_BINARIES):
        die("evaluation binaries or their reference are missing: %s" % missing)
    return binaries, reference


def timed_eval_setup(setup_times):
    start = time.perf_counter()
    result = eval_setup()
    setup_times.append(time.perf_counter() - start)
    return result


def paper_eval(args, spans_path):
    # The first set-up precedes the first binary; the untraced run repeats it
    # after every binary, across the whole run, as the driver does.
    setup_times = []
    binaries, reference = timed_eval_setup(setup_times)
    run_dir = os.path.join(BUILD, "perfbench-run")
    os.makedirs(run_dir, exist_ok=True)

    rng = random.Random(args.seed)
    spans = Spans()
    attempted = failed = 0
    passes = []  # (wall, cpu, events, traced)
    per_binary = {}
    max_rss_kib = 0
    run_start = time.perf_counter()
    # Whole passes until the next would overrun the run; the traced run
    # alternates traced and untraced passes and needs one of each.
    while True:
        traced = args.trace and len(passes) % 2 == 0
        order = binaries[:]
        rng.shuffle(order)
        pass_start = time.perf_counter()
        cpu = events = 0.0
        children = []
        for name, path in order:
            start = time.perf_counter()
            wall, child_cpu, rss, code, stdout = run_binary(path, run_dir)
            children.append((name, start, start + wall))
            attempted += 1
            digest = hashlib.sha256(stdout).hexdigest()
            if code != 0 or digest != reference[name][0]:
                failed += 1
                print("perfbench: %s exit %d, stdout sha256 %s, want %s"
                      % (name, code, digest, reference[name][0]), file=sys.stderr)
            cpu += child_cpu
            events += reference[name][1]
            max_rss_kib = max(max_rss_kib, rss)
            if traced:
                per_binary[name] = (wall, child_cpu)
            if not args.trace:
                timed_eval_setup(setup_times)
        pass_end = time.perf_counter()
        if traced:
            pass_span = spans.add("pass", pass_start, pass_end, -1)
            for name, start, end in children:
                spans.add(name, start, end, pass_span)
        passes.append((pass_end - pass_start, cpu, events, traced))
        elapsed = time.perf_counter() - run_start
        if (len(passes) >= (2 if args.trace else 1)
                and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
            break

    total_wall = sum(p[0] for p in passes)
    print("paper_eval: %d binaries per pass, %d passes, %d recorded events per pass"
          % (len(binaries), len(passes), passes[0][2]))
    if args.trace:
        spans.write(spans_path)
        walls = {t: min(p[0] for p in passes if p[3] == t) for t in (True, False)}
        metrics = {"exec.cores_busy": (sum(p[1] for p in passes) / total_wall, "x"),
                   "perfbench.trace_overhead_x": (walls[True] / walls[False], "x")}
        for name, (wall, cpu) in per_binary.items():
            metrics["bench.%s.wall_s" % name] = (wall, "s")
            metrics["bench.%s.cpu_s" % name] = (cpu, "s")
    else:
        # As in the driver, timings are of the fastest pass (the outputs are
        # deterministic, so passes differ only by host interference), and
        # the one distinct job is the whole regeneration: the binaries are
        # too unlike each other for a percentile over them to be steady.
        pass_wall = min(p[0] for p in passes)
        metrics = {
            "eval_wall_s": (pass_wall, "s"),
            "eval_cpu_s": (min(p[1] for p in passes), "s"),
            "jobs_per_s": (1.0 / pass_wall, "1/s"),
            "job_ms_p50": (pass_wall * 1e3, "ms"),
            "job_ms_p90": (pass_wall * 1e3, "ms"),
            "events_per_s": (passes[0][2] / pass_wall, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (max_rss_kib / 1024.0, "MiB"),
        }
        print("samples: %d passes of %d binaries; %d set-ups"
              % (len(passes), len(binaries), len(setup_times)))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return attempted, failed, metrics


def in_process(args, spans_path):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0",
           "--reference", JOBS_REFERENCE]
    if args.trace:
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        # An abort or CHECK failure inside a job ends the driver: the job
        # that was running counts as the failed operation.
        print("perfbench: perfbench_driver exited with %d" % proc.returncode, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    return result["attempted"], result["failed"], result["metrics"]


def complete(metrics, trace):
    """Checks the metrics against BENCHMARK.json. A per-layer metric whose layer
    the workload does not exercise reads 0 (NOTES.md lists where each is measured)."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    for name, metric in metrics.items():
        if units.get(name) != metric["unit"]:
            die("metric %s (%s) is not in BENCHMARK.json" % (name, metric["unit"]))
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        die("end-to-end metrics not measured: %s" % missing)
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    return {m["name"]: metrics[m["name"]] for m in spec}


def record():
    """Rewrites the reference fingerprints from the current build. The event
    counts of eval.txt are kept: they need the counting build NOTES.md describes."""
    if subprocess.call([DRIVER, "--record", JOBS_REFERENCE]) != 0:
        die("recording the in-process fingerprints failed")
    old = load_eval_reference() if os.path.isfile(EVAL_REFERENCE) else {}
    run_dir = os.path.join(BUILD, "perfbench-run")
    os.makedirs(run_dir, exist_ok=True)
    lines = ["# binary stdout-sha256 simulated-events (default flags)"]
    for name in EVAL_BINARIES:
        _, _, _, code, stdout = run_binary(os.path.join(BUILD, "bench", name), run_dir)
        if code != 0:
            die("%s exited with %d" % (name, code))
        lines.append("%s %s %d" % (name, hashlib.sha256(stdout).hexdigest(),
                                   old.get(name, ("", 0))[1]))
    with open(EVAL_REFERENCE, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    build_stamp = stamp()
    if args.record:
        record()
        return
    print("stamp: " + json.dumps(build_stamp))
    print("workload: %s  seed: %d  seconds: %g  trace: %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    spans_dir = os.path.join(BUILD, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, "%s-seed%d.json" % (args.workload, args.seed))
    run = paper_eval if args.workload == "paper_eval" else in_process
    attempted, failed, metrics = run(args, spans_path)
    metrics = complete(metrics, bool(args.trace))

    for name, metric in metrics.items():
        print("%-36s %16.6g %s" % (name, metric["value"], metric["unit"]))
    correct = failed == 0 and attempted > 0
    print("verdict: %s (%d operations attempted, %d failed)"
          % ("correct" if correct else "WRONG", attempted, failed))
    if args.trace:
        print("spans: " + os.path.relpath(spans_path, REPO))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
