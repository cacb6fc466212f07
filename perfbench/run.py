"""golod-lab benchmark: one closed-loop caller, one operation and one process
at a time, every answer checked exactly.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-q --seed 0 --seconds 20 --trace 0

Each pass starts from fresh interpreters: ``paper-q`` and ``paper-f2`` run
five golod-lab commands, each in its own process; ``skeleton`` and ``search``
run their library calls in one process.  So no module-level cache carries
over between passes.  Passes repeat while the next one is expected to end
within ``--seconds`` (at least one runs), and the metrics are medians over
passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics (see ``spans.py``).
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Context that is not gated (commit, Python version, nproc, src_lines, raw
``wall_s``, ``series_s``, ``failed_frac``, failing operations) is printed
before it.  See NOTES.md for the metrics and why ``wall_ref`` is gated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("paper-q", "paper-f2", "skeleton", "search")
FIELDS = {"paper-q": "q", "paper-f2": "fp:2"}
SETUP_SAMPLES = 12  # process set-ups measured per run, at least
CHILD_TIMEOUT = 170


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _last_line(text):
    return (text.strip().splitlines() or [""])[-1]


class Bench:
    def __init__(self, root, work, workload, seed):
        self.root = root
        self.work = work
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        if workload in FIELDS:
            self.steps = [
                (name, {"kind": "cli", "argv": argv}, code, check)
                for name, argv, code, check in workloads.paper_commands(
                    FIELDS[workload], seed, os.path.join(work, "input.ideal"))
            ]
        else:
            self.steps = [("pass", {"kind": "lib", "workload": workload, "seed": seed},
                           0, None)]
        self.failures = []
        self.attempted = 0

    def _spawn(self, spec):
        """Run one child; returns (exit code, stdout, stderr, report or None)."""
        report_path = os.path.join(self.work, "report.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), report_path, json.dumps(spec)],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        report = None
        if os.path.exists(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
        return proc.returncode, proc.stdout, proc.stderr, report

    def setup_probe(self, k):
        """Set-up alone of the process of step ``k``; returns its seconds."""
        spec = self.steps[k % len(self.steps)][1]
        t0 = now()
        code, _, err, report = self._spawn(dict(spec, setup_only=True))
        if report is None:
            raise RuntimeError(f"set-up failed (exit {code}): {_last_line(err)}")
        return report["ready"] - t0

    def run_pass(self, trace=False):
        """One checked pass; returns its timings, peak RSS and traces."""
        t_start = now()
        setups = []
        rss_kb = 0
        step_s = {}
        traces = []
        results = {}
        refs = []
        for name, spec, want_code, check in self.steps:
            t0 = now()
            code, out, err, report = self._spawn(dict(spec, trace=trace))
            t1 = now()
            if report is None:
                ops = [name] if spec["kind"] == "cli" else workloads.LIBRARY_EXPECTED[self.workload]
                for op in ops:
                    self.attempted += 1
                    self._fail(op, f"no report, exit {code}: {_last_line(err)}")
                continue
            setups.append(report["ready"] - t0)
            step_s[name] = t1 - report["ready"]
            rss_kb = max(rss_kb, report["maxrss_kb"])
            refs += report["ref_s"]
            if "trace" in report:
                traces.append(report["trace"])
            if spec["kind"] == "cli":
                self._check_cli(name, code, want_code, out, check)
            else:
                results = report["results"]
                for op in workloads.LIBRARY_EXPECTED[self.workload]:
                    self.attempted += 1
                    problems = workloads.check_library(self.workload, op, results.get(op, {}))
                    if problems:
                        self._fail(op, "; ".join(problems))
        wall = now() - t_start - sum(setups)
        ref = statistics.median(refs) if refs else float("nan")
        return {"setups": setups, "setup_s": sum(setups), "wall_s": wall,
                "wall_ref": wall / ref, "ref_s": ref, "peak_rss_mb": rss_kb / 1024,
                "step_s": step_s, "traces": traces, "results": results}

    def _check_cli(self, name, code, want_code, out, check):
        self.attempted += 1
        if code != want_code:
            self._fail(name, f"exit code {code}, want {want_code}")
            return
        try:
            problems = check(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self._fail(name, "; ".join(problems))

    def _fail(self, name, detail):
        self.failures.append(f"{self.workload}/{name}: {detail}")


def measure(bench, seconds):
    """Passes until the next one would overrun ``seconds``; medians.

    Half the set-up probes run before the passes and the rest after, so the
    set-up median spans the run as the passes do.
    """
    bench.setup_probe(0)  # the first start compiles bytecode; not measured
    t0 = now()
    setups = [bench.setup_probe(k) for k in range(SETUP_SAMPLES // 2)]
    passes = []
    while True:
        passes.append(bench.run_pass())
        durations = [p["setup_s"] + p["wall_s"] for p in passes]
        if now() - t0 + statistics.median(durations) > seconds:
            break
    setups += [s for p in passes for s in p["setups"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.setup_probe(len(setups)))
    metrics = {
        "setup_s": len(bench.steps) * statistics.median(setups),
        "wall_ref": statistics.median(p["wall_ref"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    info = {
        "passes": len(passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "ref_s_all": [round(p["ref_s"], 7) for p in passes],
        "wall_s_all": [round(p["wall_s"], 4) for p in passes],
        "setup_s_all": [round(s, 4) for s in setups],
    }
    series = [p["step_s"]["series"] for p in passes if "series" in p["step_s"]]
    if series:
        info["series_s"] = statistics.median(series)
    return metrics, info


def measure_traced(bench):
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    bench.setup_probe(0)
    plain = bench.run_pass()
    traced = bench.run_pass(trace=True)
    search = traced["results"].get("search", {}).get("stats")
    metrics = layers.layer_metrics(traced["traces"], search)
    pass_s = traced["setup_s"] + traced["wall_s"]
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.pass_s"] = pass_s
    metrics["trace.overhead"] = traced["wall_ref"] / plain["wall_ref"]
    metrics["bench.self_s"] = pass_s - sum(
        v for k, v in metrics.items() if k.endswith(".self_s"))
    info = {"untraced_wall_s": plain["wall_s"], "traced_setup_s": traced["setup_s"]}
    return metrics, info


def provenance(root):
    """Context printed beside each result; not gated."""
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    src = os.path.join(root, "src", "golod_lab")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    # a terminated run still kills its child (subprocess.run does so on any
    # exception) and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "golod_lab", "__init__.py")):
        print(f"error: no golod_lab sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        bench = Bench(root, work, args.workload, args.seed)
        if args.trace:
            metrics, info = measure_traced(bench)
            units = layers.UNITS
        else:
            metrics, info = measure(bench, args.seconds)
            units = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MiB"}
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["failed_frac"] = len(bench.failures) / max(bench.attempted, 1)
    info.update(provenance(root))
    info.update(workload=args.workload, seed=args.seed, trace=args.trace)
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, unit in (("wall_s", "s"), ("series_s", "s"), ("failed_frac", "ratio")):
        if name in info:
            print(f"{args.workload} {name} = {info[name]:.6g} {unit} (not gated)")
    print("context " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
