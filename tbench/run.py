#!/usr/bin/env python3
"""Build the benchmark inside the checkout and run one workload.

    python3 tbench/run.py --workload spawn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Everything the build and the run write
(Go build cache, binary, data directories, spans, profiles) goes under
.bench_build/ in the checkout. The last line of standard output is the
JSON result of the tbench binary.

Extra options:
  --profile DIR   write a CPU and a heap profile of the timed phase to DIR
  --overhead      run the workload untraced, then traced, with the same seed,
                  and print traced minus untraced for each end-to-end metric
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "tbench"
RUN_TIMEOUT_S = 178


def go_env():
    """Keep every file the Go toolchain writes inside the checkout, and
    keep it off the network."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("HOME", "home"),
                     ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache")):
        path = BUILD / sub
        path.mkdir(parents=True, exist_ok=True)
        env[key] = str(path)
    env.update(GOTOOLCHAIN="local", GOPROXY="off")
    return env


def build():
    if not (ROOT / "go.mod").is_file():
        sys.exit("run.py: no go.mod at %s: not a checkout of the repository" % ROOT)
    BUILD.mkdir(exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", str(BINARY), "."],
                          cwd=BENCH, env=go_env())
    if proc.returncode != 0:
        sys.exit("run.py: build failed")


def run(args, trace):
    cmd = [str(BINARY), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(trace),
           "-workdir", str(BUILD)]
    if args.profile:
        cmd += ["-profile", args.profile]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=go_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run.py: %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
    return proc.returncode, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["spawn", "spanning", "readmix"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--profile", default="")
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    build()
    if not args.overhead:
        code, out = run(args, args.trace)
        sys.stdout.write(out)
        sys.exit(code)

    code, plain = run(args, 0)
    if code != 0:
        sys.stdout.write(plain)
        sys.exit(code)
    code, traced = run(args, 1)
    if code != 0:
        sys.stdout.write(traced)
        sys.exit(code)
    base = last_json(plain)["metrics"]
    prefix = "traced end-to-end: "
    line = next(l for l in traced.splitlines() if l.startswith(prefix))
    with_trace = json.loads(line[len(prefix):])
    print("tracing overhead, %s seed %d (traced - untraced):" % (args.workload, args.seed))
    for name in sorted(base):
        b, t = base[name]["value"], with_trace[name]["value"]
        rel = (t - b) / b if b else 0.0
        print("  %-16s %12.4f -> %12.4f %s  (%+.4f, %+.1f%%)" % (
            name, b, t, base[name]["unit"], t - b, 100 * rel))


if __name__ == "__main__":
    main()
