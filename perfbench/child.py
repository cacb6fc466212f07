"""One step of a pass, in a fresh interpreter, as a user's run would be.

Usage: ``python3 perfbench/child.py REPORT SPEC`` where SPEC is a JSON object:
``{"kind": "cli", "argv": [...]}`` runs one golod-lab command, and
``{"kind": "lib", "workload": W, "seed": N}`` builds a workload's inputs and
runs its library calls.  ``"trace": true`` installs the span wrappers after
the import; ``"setup_only": true`` stops once set-up is done.

The child writes REPORT (JSON): ``ready``, the CLOCK_MONOTONIC time (which
every process on the machine shares) when set-up ended; its own peak RSS
from rusage; ``ref_s``, the times of a fixed reference loop (see
``Speedometer``); and the library results or the trace.  The exit code is
the command's.
"""

import json
import os
import resource
import sys
import threading
import time
from fractions import Fraction

REF_PERIOD_S = 0.1
REF_TUPLE = tuple(tuple((i * j) % 7 for j in range(5)) for i in range(8))


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop():
    """Fixed pure-Python work (about 2 ms) that does not use golod_lab, in
    the program's mix of operations: Fraction arithmetic, small-tuple
    dictionary updates, row operations mod 2 and hashing nested tuples."""
    x = Fraction(1, 3)
    for i in range(1, 150):
        x = x * Fraction(i + 1, i) - Fraction(1, i + 2)
    counts = {}
    for i in range(1500):
        k = (i % 97, i % 5)
        counts[k] = counts.get(k, 0) + 1
    row = [i % 2 for i in range(40)]
    pivot = [(i * 3) % 2 for i in range(40)]
    for _ in range(60):
        row = [(a - b) % 2 for a, b in zip(row, pivot)]
    h = 0
    for i in range(300):
        h ^= hash((REF_TUPLE, i))
    return x, counts, row, h


class Speedometer:
    """Times ``reference_loop`` at start, every REF_PERIOD_S, and at stop.

    On a shared host a core's speed drifts by tens of percent within seconds,
    and each core drifts on its own.  The process is pinned to the core it
    started on, and a thread times the loop on that same core while the
    operations run (holding the interpreter lock, so never in parallel with
    them), so the samples measure the speed the operations got.
    """

    def __init__(self):
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39
        os.sched_setaffinity(0, {cpu})
        self.samples = []
        self._stop = threading.Event()
        self._sample()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _sample(self):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def _run(self):
        while not self._stop.wait(REF_PERIOD_S):
            self._sample()

    def stop(self):
        self._stop.set()
        self._thread.join()
        self._sample()
        return self.samples


def main():
    report_path, spec = sys.argv[1], json.loads(sys.argv[2])
    speed = Speedometer()
    report = {}
    tracer = None
    code = 0
    if spec["kind"] == "cli":
        from golod_lab import cli
    else:
        import golod_lab  # noqa: F401  (set-up includes the import)
        import workloads
    if spec.get("trace"):
        import spans

        tracer = spans.install(spans.Tracer())
    if spec["kind"] == "cli":
        report["ready"] = now()
        if not spec.get("setup_only"):
            code = cli.main(spec["argv"])
            sys.stdout.flush()
    else:
        inputs = workloads.library_inputs(spec["workload"], spec["seed"])
        report["ready"] = now()
        if not spec.get("setup_only"):
            results = {}
            for name, run in workloads.library_operations(spec["workload"], inputs):
                try:
                    results[name] = run()
                except Exception as exc:  # reported as a failed operation
                    results[name] = {"error": f"{type(exc).__name__}: {exc}"}
            report["results"] = results
    report["ref_s"] = speed.stop()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["trace"] = tracer.summary()
    tmp = report_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh)
    os.replace(tmp, report_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
