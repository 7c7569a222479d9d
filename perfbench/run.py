#!/usr/bin/env python3
"""perfbench: the repository's benchmark.

Builds the `perfbench` program from this checkout's sources, runs one
workload and prints one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload campaign_cold --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off. --trace 1 reports the per-layer metrics: it runs one fixed unit
of work twice, untraced and then with the obs tracer armed and the layer
replays on, prints the per-layer table of the traced run, and reports the
tracing overhead as the difference between the two. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("campaign_cold", "serve_warm", "fused_campaign")
# A second seed kept out of tuning, for checking a claimed gain (README.md).
HELD_OUT_SEED = 1000003
# Wall-time budget for the perfbench processes of one workload run.
RUN_BUDGET_S = 170
# setup_s is the median over this many processes, each set up once from
# cold: the measured run plus --setup-only runs. A service start with its
# trace cache takes tens of milliseconds, a daemon with its warm set seconds.
SETUP_PROCESSES = {"campaign_cold": 9, "serve_warm": 3, "fused_campaign": 9}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the program; returns the executable path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no repository sources next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        # A cache from another source location: start the build tree over.
        shutil.rmtree(build_dir, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(build_dir, "perfbench")


def run_binary(exe, args, scratch, deadline, single_unit=False, layers=False,
               setup_only=False, trace_file=None):
    """Runs one perfbench process in a fresh scratch directory; it is killed
    if it is still running at `deadline` (a time.monotonic() value)."""
    os.makedirs(scratch)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scratch", scratch]
    if single_unit:
        cmd.append("--single-unit")
    if layers:
        cmd.append("--layers")
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADSE_")}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    """sha256 over the sources the benchmark builds (a commit stand-in when
    the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def check_digests(record, recorded, problems):
    """Compares the run's digests with the ones recorded in digests.json."""
    info = record["info"]
    if info.get("canary_digest") != recorded["canary"]:
        problems.append(f"canary digest {info.get('canary_digest')} != "
                        f"recorded {recorded['canary']}")
    expected = recorded["answers"].get(record["workload"], {}).get(
        str(record["seed"]))
    if expected is not None and info.get("answers_digest") != expected:
        problems.append(f"answers digest {info.get('answers_digest')} != "
                        f"recorded {expected}")


def timed_spans(trace_path):
    """Sums span durations (s) by name inside the bench.timed window."""
    with open(trace_path) as handle:
        events = json.load(handle)["traceEvents"]
    timed = next(e for e in events if e["name"] == "bench.timed")
    lo, hi = timed["ts"], timed["ts"] + timed["dur"]
    total = {}
    count = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        if event["ts"] >= lo and event["ts"] + event["dur"] <= hi + 1.0:
            name = event["name"]
            total[name] = total.get(name, 0.0) + event["dur"] / 1e6
            count[name] = count.get(name, 0) + 1
    return total, count


def layer_table(record, total, count):
    """Per-layer budget of the traced timed phase.

    Campaign workloads: thread-seconds, i.e. timed wall x working threads
    (the pool plus the calling thread, which also runs chunks). Spans are
    wall time and include lock waits and preemption, so a CPU total would
    undercount them. serve_warm: process CPU seconds, because its layers
    (daemon workers, wire codec) are short CPU-bound steps on many threads.
    Rows are measured spans or replay estimates (count x replayed unit cost);
    what no row covers is shown as the unattributed remainder.
    Returns (basis label, budget, rows, sub-rows, derived metrics).
    """
    layers = record["layers"]
    info = record["info"]
    pinned = record["pinned"]
    get = lambda name: total.get(name, 0.0)
    derived = {}
    sub_rows = []
    if record["workload"] == "serve_warm":
        basis = "process CPU seconds of the timed phase"
        budget = info["timed_process_cpu_s"]
        evals = info["timed_evals"]
        rows = [
            ("serve worker evaluate [serve.request_ns]",
             info["serve_server_sum_s"]),
            ("wire codec, both ends [replay: evals x wire.codec_us]",
             evals * layers["wire.codec_us"] / 1e6),
            ("bench output check [thread CPU, not in cpu_ms_per_eval]",
             info["verify_cpu_s"]),
        ]
        rest = "unattributed (socket syscalls, reader threads, queues)"
        sim = 0.0
        derived["campaign.assemble_share"] = 0.0
        derived["eval.pool_busy_frac"] = 0.0
    else:
        rest = "unattributed (idle pool, waits, claim phase)"
        threads = pinned["pool_threads"] + 1
        wall = get("bench.timed")
        basis = f"thread-seconds = timed wall {wall:.3f} s x {threads} threads"
        budget = wall * threads
        sim = get("sim.simulate_batch") + get("sim.simulate")
        run_campaign = get("bench.run_campaign")
        assemble = run_campaign - get("campaign.evaluate")
        rows = [
            ("sim engine: core+mem+power+validate [sim.simulate_batch]", sim),
            ("eval chunk bookkeeping [eval.backend_run_batch - sim]",
             get("eval.backend_run_batch") - get("sim.simulate_batch")),
            ("eval scalar backend runs [eval.backend_run - sim.simulate]",
             get("eval.backend_run") - get("sim.simulate")),
        ]
        if record["workload"] == "fused_campaign":
            gate = (info["timed_evals"] * layers["fused.predict_us"] / 1e6 +
                    layers["eval.routed_sim"] * layers["fused.observe_us"] / 1e6 +
                    layers["eval.residual_refits"] * layers["fused.refit_ms"] / 1e3)
            rows.append(("fused gate: predict+observe+refit [replay estimate]",
                         gate))
        rows += [
            ("campaign assemble [bench.run_campaign - campaign.evaluate]",
             assemble),
            ("bench loop [bench.timed - bench.run_campaign]",
             wall - run_campaign),
        ]
        per_trace_decode_s = (layers["core.decode_ms"] / 1e3 /
                              max(1, info["replay_traces"]))
        sub_rows = [
            ("of sim: trace decode [replay: chunks x core.decode_ms/trace]",
             count.get("sim.simulate_batch", 0) * per_trace_decode_s),
            ("of sim: power.analyze [replay: sims x power.analyze_us]",
             (layers["eval.backend_runs"] - layers["eval.routed_surrogate"]) *
             layers["power.analyze_us"] / 1e6),
        ]
        derived["campaign.assemble_share"] = (assemble / run_campaign
                                              if run_campaign > 0 else 0.0)
        derived["eval.pool_busy_frac"] = (
            (get("eval.backend_run_batch") + get("eval.backend_run")) / budget)
    unattributed = budget - sum(value for _, value in rows)
    derived["sim.batch_ms"] = sim * 1e3
    derived["sim.batch_share"] = sim / budget
    derived["bench.unattributed_share"] = unattributed / budget
    rows.append((rest, unattributed))
    return basis, budget, rows, sub_rows, derived


def print_table(workload, basis, budget, rows, sub_rows):
    print(f"per-layer budget, {workload}: {basis}")
    print(f"  {'layer':<66} {'seconds':>9} {'share':>7}")
    for name, value in rows:
        print(f"  {name:<66} {value:9.3f} {100 * value / budget:6.1f}%")
    for name, value in sub_rows:
        print(f"    {name:<64} {value:9.3f} {100 * value / budget:6.1f}%")
    print(f"  {'total (rows sum to it)':<66} {budget:9.3f} {100.0:6.1f}%")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests in digests.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(BENCH_DIR, "digests.json")) as handle:
        recorded = json.load(handle)

    try:
        exe = build()
    except (RuntimeError, OSError) as error:
        log(f"perfbench: {error}")
        return 2

    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        status = max(status, run_workload(exe, spec, recorded, args))
    return status


def run_workload(exe, spec, recorded, args):
    """Runs one workload and prints its result; returns the exit status."""
    scratch_root = os.path.join(ROOT, ".bench_scratch",
                                f"{args.workload}-{os.getpid()}")
    shutil.rmtree(scratch_root, ignore_errors=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace == 0:
            records = [run_binary(exe, args, os.path.join(scratch_root, "run"),
                                  deadline)]
            setup_s = [records[0]["e2e"]["setup_s"]]
            for i in range(1, SETUP_PROCESSES[args.workload]):
                setup = run_binary(exe, args,
                                   os.path.join(scratch_root, f"setup{i}"),
                                   deadline, setup_only=True)
                setup_s.append(setup["e2e"]["setup_s"])
            records[0]["e2e"]["setup_s"] = statistics.median(setup_s)
            records[0]["info"]["setup_samples_s"] = setup_s
        else:
            untraced = run_binary(exe, args, os.path.join(scratch_root, "plain"),
                                  deadline, single_unit=True)
            traced = run_binary(exe, args, os.path.join(scratch_root, "traced"),
                                deadline, single_unit=True, layers=True,
                                trace_file="trace.json")
            total, count = timed_spans(
                os.path.join(scratch_root, "traced", "trace.json"))
            records = [untraced, traced]
    except (RuntimeError, OSError, ValueError, KeyError, StopIteration,
            subprocess.TimeoutExpired) as error:
        log(f"perfbench: {args.workload} run failed: {error!r}")
        return 1
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch_root))
        except OSError:
            pass  # other runs' scratch directories are still there

    record = records[-1]
    digest_problems = []
    for r in records:
        check_digests(r, recorded, digest_problems)
    problems = [f"check {name} failed" for r in records
                for name, ok in r["checks"].items() if not ok]
    problems += digest_problems
    correct = all(r["correct"] for r in records) and not problems
    attempted = sum(r["attempted"] for r in records)
    # A failed check already counts in the record; a digest mismatch counts
    # one failure here.
    failed = sum(r["failed"] for r in records) + len(digest_problems)

    if args.record:
        recorded["canary"] = record["info"]["canary_digest"]
        recorded["answers"].setdefault(args.workload, {})[str(args.seed)] = (
            record["info"]["answers_digest"])
        with open(os.path.join(BENCH_DIR, "digests.json"), "w") as handle:
            json.dump(recorded, handle, indent=2, sort_keys=True)
            handle.write("\n")

    fingerprint = dict(record["fingerprint"])
    fingerprint.update(nproc=len(os.sched_getaffinity(0)),
                       git_commit=git_commit(),
                       source_sha256=source_digest())
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"(held-out seed {HELD_OUT_SEED})")
    pinned = dict(record["pinned"], setup_processes=(
        SETUP_PROCESSES[args.workload] if args.trace == 0 else 0))
    print("pinned " + json.dumps(pinned, sort_keys=True))
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print("info " + json.dumps(record["info"], sort_keys=True))
    print("checks " + json.dumps(
        {name: ok for r in records for name, ok in r["checks"].items()},
        sort_keys=True))
    for problem in problems:
        print("FAILED: " + problem)

    metrics = {}
    if args.trace == 0:
        for metric in spec["end_to_end"]:
            metrics[metric["name"]] = {"value": record["e2e"][metric["name"]],
                                       "unit": metric["unit"]}
    else:
        basis, budget, rows, sub_rows, derived = layer_table(record, total,
                                                             count)
        print_table(args.workload, basis, budget, rows, sub_rows)
        # Overhead on CPU per evaluation: the tracer's cost is CPU work, and
        # CPU time moves less than wall time under preemption.
        plain, traced_e2e = records[0]["e2e"], record["e2e"]
        derived["bench.trace_overhead_pct"] = 100.0 * (
            traced_e2e["cpu_ms_per_eval"] / plain["cpu_ms_per_eval"] - 1.0)
        print(f"tracing overhead: cpu_ms_per_eval untraced "
              f"{plain['cpu_ms_per_eval']:.5g}, traced "
              f"{traced_e2e['cpu_ms_per_eval']:.5g} -> "
              f"{derived['bench.trace_overhead_pct']:+.2f}%; evals_per_s "
              f"untraced {plain['evals_per_s']:.1f}, traced "
              f"{traced_e2e['evals_per_s']:.1f} (one unit each)")
        values = dict(record["layers"])
        values.update(derived)
        for metric in spec["per_layer"]:
            # A layer a workload never reaches reads 0 (e.g. probe error
            # outside fused_campaign).
            metrics[metric["name"]] = {
                "value": values.get(metric["name"], 0.0),
                "unit": metric["unit"]}
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
