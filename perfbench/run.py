"""Benchmark of the rpl command line over four workloads of real invocations.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: the program is imported from ./src, and
nothing outside the checkout is written. Every invocation starts a fresh
interpreter, as a user's would; invocations run one at a time (a closed
loop with one client). The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (see shim.py). README.md in this directory says how times
are corrected for the machine's speed, what each metric should move and
what is deliberately left out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import selectors
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from shim import CACHES, LAYER_FUNCTIONS
from workloads import HEAD_BYTES, HELP, WORKLOADS, Invocation

# Plain fork, not vfork: after vfork and exec a child's ru_maxrss starts at
# the runner's own high-water mark, while a forked child starts from the
# runner's anonymous memory only, which stays below a bare interpreter's
# peak. The subprocess documentation names this switch. The forked child
# runs only C code until exec, so the probe thread does not make it unsafe.
subprocess._USE_VFORK = False

SETUP_RUNS = 7
# Children still running this long after the start are killed and counted
# as failed, so that a run always ends within 180 s.
RUN_DEADLINE_S = 160.0
# The speed probe times PROBE_LOOPS iterations of a fixed loop every
# PROBE_PERIOD_S. Times are reported as if each probe had taken
# REFERENCE_PROBE_S, the probe's median on the machine the benchmark was
# tuned on (2 vCPU Xeon under KVM, Python 3.11).
PROBE_PERIOD_S = 0.025
PROBE_LOOPS = 5_000
REFERENCE_PROBE_S = 0.35e-3
SHIM = Path(__file__).resolve().parent / "shim.py"
STDERR_TAIL = 2048

SELF_TIMES = ("gs_tower.count_split_chains", "cli.main")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for fn in LAYER_FUNCTIONS:
        names += [(f"{fn}.calls", "count"), (f"{fn}.s", "s")]
        if fn in CACHES:
            names.append((f"{fn}.cold", "count"))
    names += [(f"{fn}.self_s", "s") for fn in SELF_TIMES]
    names += [
        ("cli.main.s", "s"),
        ("cli.stdout_bytes", "bytes"),
        ("semigroup.window_bytes", "bytes"),
        ("semigroup.generators", "count"),
    ]
    names += [(f"gf.{op}.{q}.ns", "ns") for q in ("q256", "q65536") for op in ("mul", "inv")]
    names.append(("trace.overhead_frac", "frac"))
    return names


END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("call_geomean_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "frac")]


class SpeedProbe(threading.Thread):
    """Samples the speed of the CPU the runner and its children share.

    The machine's speed drifts by a third within seconds when neighbours
    load the host, while the runner's CPU is pinned and its children run on
    it one at a time. Between the children's time slices the probe times a
    fixed pure-Python loop; an invocation's correction factor is
    REFERENCE_PROBE_S over the median probe during it. The probe takes
    about 1.5 % of the CPU, the same for every commit measured.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            x = 0
            for j in range(PROBE_LOOPS):
                x += j * j
            self.samples.append((start, time.perf_counter() - start))

    def close(self) -> None:
        self._done.set()
        self.join()

    def factor(self, start: float, end: float) -> float:
        window = [
            took for at, took in self.samples
            if start - PROBE_PERIOD_S <= at <= end + PROBE_PERIOD_S
        ]
        if not window:  # the probe thread was starved; use the nearest probe
            mid = (start + end) / 2
            window = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return REFERENCE_PROBE_S / statistics.median(window)


@dataclass
class Sample:
    """One finished child process, observed from outside."""

    start: float
    end: float
    exit_code: int
    maxrss_kb: int
    sha256: str
    stdout_bytes: int
    head: bytes
    stderr_tail: bytes
    side: bytes
    killed: bool

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_child(argv: list[str], env: dict, deadline: float, side_channel: bool = False) -> Sample:
    """Run argv to completion, streaming its stdout into a digest.

    stdout is never held whole: a forked child's ru_maxrss starts from its
    parent's resident anonymous memory, so a runner that buffered a 17 MB
    output would inflate every later reading. With side_channel, "{fd}" in
    argv is replaced by a pipe the child may write a side document to.
    """
    read_fd = write_fd = None
    if side_channel:
        read_fd, write_fd = os.pipe()
        argv = [arg.replace("{fd}", str(write_fd)) for arg in argv]
    digest = hashlib.sha256()
    head, err, side = bytearray(), bytearray(), bytearray()
    size = 0
    killed = False
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        pass_fds=() if write_fd is None else (write_fd,),
    )
    try:
        if write_fd is not None:
            os.close(write_fd)
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, "out")
            sel.register(proc.stderr, selectors.EVENT_READ, "err")
            if read_fd is not None:
                sel.register(read_fd, selectors.EVENT_READ, "side")
            while sel.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    proc.kill()
                    killed = True
                    break
                for key, _ in sel.select(remaining):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                    elif key.data == "out":
                        digest.update(chunk)
                        size += len(chunk)
                        head += chunk[: HEAD_BYTES - len(head)]
                    elif key.data == "err":
                        err = (err + chunk)[-STDERR_TAIL:]
                    else:
                        side += chunk
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        if read_fd is not None:
            os.close(read_fd)
    return Sample(start, end, proc.returncode, usage.ru_maxrss, digest.hexdigest(), size,
                  bytes(head), bytes(err), bytes(side), killed)


def problems(inv: Invocation, sample: Sample) -> list[str]:
    """Why a sample is wrong: exit code, stdout digest, closed forms."""
    if sample.killed:
        return ["killed at the run deadline"]
    found = []
    if sample.exit_code != inv.exit_code:
        found.append(f"exit code {sample.exit_code}, expected {inv.exit_code}")
    if sample.sha256 != inv.sha256:
        found.append(f"stdout sha256 {sample.sha256}, expected {inv.sha256}")
    if inv.check is not None:
        found += inv.check(sample.head)
    if found and sample.stderr_tail:
        found.append("stderr: " + sample.stderr_tail.decode(errors="replace").strip())
    return found


class Runner:
    """Runs and checks invocations, tallying attempted and failed ones."""

    def __init__(self, root: Path, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "RPL_MAX_FIELD"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
        self.attempted = 0
        self.failures: list[str] = []

    def cli(self, inv: Invocation, traced: bool = False) -> Sample:
        if traced:
            argv = [sys.executable, str(SHIM), "trace", "{fd}", "--", *inv.args]
        else:
            argv = [sys.executable, "-m", "rpl.cli", *inv.args]
        sample = run_child(argv, self.env, self.deadline, side_channel=traced)
        self.attempted += 1
        found = problems(inv, sample)
        if found:
            self.failures.append(f"{inv.label()}: {'; '.join(found)}")
        return sample

    def run_pass(self, order: list[Invocation], traced: bool = False) -> list[tuple[str, Sample]]:
        return [(inv.label(), self.cli(inv, traced)) for inv in order]

    def micro(self, seed: int) -> tuple[Sample, dict[str, float]]:
        sample = run_child([sys.executable, str(SHIM), "micro", str(seed)], self.env, self.deadline)
        self.attempted += 1
        try:
            doc = json.loads(sample.head)
        except ValueError:
            doc = {"metrics": {}, "wrong": [f"exit code {sample.exit_code}, unreadable output"]}
        for wrong in doc["wrong"]:
            self.failures.append(f"gf micro-loop: {wrong}")
        return sample, doc["metrics"]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def summary(values: list[float]) -> dict:
    """Median with its sample count and quartiles, as printed per metric."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "n": len(values),
            "q1": quartiles[0], "q3": quartiles[2]}


def by_label(samples: list[tuple[str, Sample]], value) -> dict[str, float]:
    """Median of value(sample) for each invocation."""
    grouped: dict[str, list[float]] = {}
    for label, sample in samples:
        grouped.setdefault(label, []).append(value(sample))
    return {label: statistics.median(values) for label, values in grouped.items()}


def layer_values(samples: list[tuple[str, Sample]], probe: SpeedProbe,
                 absent: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its invocations."""
    values: dict[str, float] = {"cli.stdout_bytes": sum(s.stdout_bytes for _, s in samples)}
    for _, sample in samples:
        try:
            doc = json.loads(sample.side)
        except ValueError:
            continue  # a crashed child is already counted as failed
        factor = probe.factor(sample.start, sample.end)
        for name, (calls, ns, self_ns) in doc["spans"].items():
            for key, value in ((f"{name}.calls", calls), (f"{name}.s", ns * factor / 1e9),
                               (f"{name}.self_s", self_ns * factor / 1e9)):
                values[key] = values.get(key, 0) + value
        for name, value in doc["counters"].items():
            values[name] = values.get(name, 0) + value
        absent.update(doc["absent"])
    return values


def environment(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    root = Path.cwd()
    if not (root / "src" / "rpl" / "cli.py").is_file():
        print(f"error: {root} holds no src/rpl/cli.py; run from the root of an rpl checkout",
              file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment(root)}
    runner = Runner(root, time.monotonic() + RUN_DEADLINE_S)
    rng = random.Random(args.seed)
    invocations = list(WORKLOADS[args.workload])

    # children inherit the pinning, so the probe samples the CPU they run on
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    probe = SpeedProbe()
    probe.start()
    try:
        # the first run compiles bytecode, as an install would; then time
        # fresh processes that import every module and build the parser
        runner.cli(HELP)
        setup = [runner.cli(HELP) for _ in range(SETUP_RUNS)]
        control = run_child([sys.executable, "-c", "pass"], runner.env, runner.deadline)
        untraced: list[tuple[str, Sample]] = []
        traced_passes: list[list[tuple[str, Sample]]] = []
        begin = time.monotonic()
        while time.monotonic() - begin < args.seconds and time.monotonic() < runner.deadline:
            untraced += runner.run_pass(rng.sample(invocations, len(invocations)))
            if args.trace:
                traced_passes.append(
                    runner.run_pass(rng.sample(invocations, len(invocations)), traced=True))
        if args.trace:
            micro_sample, micro = runner.micro(args.seed)
    finally:
        probe.close()

    def corrected(sample: Sample) -> float:
        return sample.wall_s * probe.factor(sample.start, sample.end)

    walls = by_label(untraced, corrected)
    samples = {
        "setup_s": [corrected(s) for s in setup],
        "wall_s": [sum(walls.values())],
        "call_geomean_s": [geomean(list(walls.values()))],
        "peak_rss_mb": [max(by_label(untraced, lambda s: s.maxrss_kb).values()) / 1024],
        "ok_frac": [(runner.attempted - len(runner.failures)) / runner.attempted],
    }
    record.update({
        "cpu": cpu,
        "loadavg_end": os.getloadavg(),
        "control_rss_mb": control.maxrss_kb / 1024,
        "runner_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probe_median_s": statistics.median(took for _, took in probe.samples),
        "probes": len(probe.samples),
        "raw_wall_s": sum(by_label(untraced, lambda s: s.wall_s).values()),
        "raw_setup_s": statistics.median(s.wall_s for s in setup),
        "samples_per_invocation": len(untraced) / len(invocations),
        "failures": runner.failures[:20],
    })

    if args.trace:
        absent: set[str] = set()
        layers: dict[str, list[float]] = {}
        for traced in traced_passes:
            for name, value in layer_values(traced, probe, absent).items():
                layers.setdefault(name, []).append(value)
        traced_walls = by_label([s for p in traced_passes for s in p], corrected)
        layers["trace.overhead_frac"] = [sum(traced_walls.values()) / sum(walls.values()) - 1]
        factor = probe.factor(micro_sample.start, micro_sample.end)
        for name, value in micro.items():
            layers[name] = [value * factor]
        record["absent"] = sorted(absent)
        wanted = per_layer_names()
        stats = {name: summary(layers.get(name, [0])) for name, _ in wanted}
        record["per_layer"] = stats
    else:
        wanted = END_TO_END
        stats = {name: summary(samples[name]) for name, _ in wanted}
        record["end_to_end"] = stats

    for name, unit in wanted:
        s = stats[name]
        print(f"{name:44} {s['median']:>14.6g} {unit:6} n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}")
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": stats[name]["median"], "unit": unit} for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
