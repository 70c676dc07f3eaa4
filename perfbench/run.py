#!/usr/bin/env python3
"""The repository benchmark: builds its program from source, runs one
workload, checks its outputs and prints every metric with its unit.

  python3 perfbench/run.py --workload picard_campaign --seed 7 \
      --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

Run it from the repository root. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line
before it records the machine and the details a metric cannot hold (the
tail percentile, round counts). The exit code is 0 only when every output
check passed. Build outputs and per-run records go to .bench_build/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

# The seed runs are tuned on, and one kept back to re-check a claim on
# inputs it was not tuned on.
DEFAULT_SEED = 7
HELDOUT_SEED = 20221
SPEC_PATH = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD_DIR / "perfbench"
PROGRAM_TIMEOUT_S = 170


def nproc():
    return len(os.sched_getaffinity(0))


def bench_threads():
    """OpenMP threads: all cores but one, which is left to the OS."""
    return max(1, nproc() - 1)


# Each OpenMP thread stays on its own core, so thread placement is the
# same in every run and adds no variation of its own.
OMP_BINDING = {"OMP_PROC_BIND": "close", "OMP_PLACES": "cores"}


def build():
    """Configures and builds the program (both no-ops when up to date);
    exits nonzero when it cannot."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perfbench-build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
              "-j", str(nproc())]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def source_digest():
    """Digest of the library and benchmark sources: the commit stand-in
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_steal_seconds():
    """CPU seconds the hypervisor has taken from this guest since boot
    (the steal column of /proc/stat); None where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def machine(raw):
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "omp_threads": raw["omp_threads"],
        "omp_binding": OMP_BINDING,
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "bsis_native": bool(raw["bsis_native"]),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def run_program(args, workdir):
    cmd = [str(PROGRAM), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--threads", str(bench_threads()), "--workdir",
           str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=PROGRAM_TIMEOUT_S,
                          env=dict(os.environ, **OMP_BINDING))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: program exited {proc.returncode}")
    return json.loads(lines[-1])


def load_spec():
    """BENCHMARK.json: the workloads and the metrics with their units."""
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        sys.exit(f"perfbench: cannot read {SPEC_PATH}: {e}")


def measure(args, spec):
    build()
    workdir = (ROOT / ".bench_build" / "runs" /
               f"{args.workload}-seed{args.seed}-trace{args.trace}-"
               f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    workdir.mkdir(parents=True)
    steal0 = host_steal_seconds()
    raw = run_program(args, workdir)
    steal1 = host_steal_seconds()
    res, details = metrics.result(raw, args.trace == 1, spec)
    # Time the host took from this guest during the run: a noisy-neighbour
    # slowdown shows here, not in the code under test.
    details["host_steal_cpu_s"] = (None if steal0 is None or steal1 is None
                                   else round(steal1 - steal0, 2))
    for name, m in res["metrics"].items():
        if not (metrics.valid_name(name) and metrics.valid_unit(m["unit"])):
            sys.exit(f"perfbench: malformed metric {name!r} [{m['unit']}]")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(raw), "details": details, "result": res}
    (workdir / "result.json").write_text(json.dumps(record, indent=1))
    (workdir / "raw.json").write_text(json.dumps(raw))
    print(json.dumps({k: record[k] for k in ("machine", "details")}))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


def selftest():
    build()
    program = subprocess.run([str(PROGRAM), "--selftest"],
                             stdin=subprocess.DEVNULL)
    tests = subprocess.run([sys.executable, "-m", "unittest", "-v",
                            "test_perfbench"], cwd=HERE,
                           stdin=subprocess.DEVNULL)
    return 0 if program.returncode == 0 and tests.returncode == 0 else 1


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the benchmark's own tests and exit")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    if not args.seconds > 0 or args.seed < 0:
        p.error("need --seconds > 0 and --seed >= 0")
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
