"""lyapcert benchmark: one closed-loop client running CLI commands as a user does.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Every CLI command runs in a fresh
interpreter (`python3 -m lyapcert.cli ...` with PYTHONPATH=src), so no state
cached by one repetition makes the next one cheaper. The run prepares the
workload's inputs, then repeats whole rounds of operations until --seconds
have passed, checks every output, and prints one JSON result as its last line
(with --trace 0, after one `ungated:` line with the median wall time per
operation, which no bound applies to).
Times are read on HostClock (see there), which samples the speed of the CPU
the program runs on.
With --trace 0 it reports the end-to-end metrics; with --trace 1 each command
runs under perfbench/traced_cli.py and the run reports per-layer metrics and
writes its spans to .perfbench_work/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
CHECKPOINT = BENCH / "data" / "meta_checkpoint.json"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0
REFERENCE_S_PER_STEP = 1.0 / 6000.0
WORKLOADS = ("meta_fit", "adapt_certify", "compare_mg3")

# Per-layer metrics: (name, unit, span or counter it is read from, how).
PER_LAYER = [
    ("net.loss_gradient.calls", "count", "net.loss_gradient", "calls"),
    ("net.loss_gradient.rows", "count", "net.loss_gradient.rows", "counter"),
    ("net.loss_gradient.self_s", "s", "net.loss_gradient", "self"),
    ("net.hvp.calls", "count", "net.hvp", "calls"),
    ("net.hvp.self_s", "s", "net.hvp", "self"),
    ("net.shaped_init.s", "s", "net.shaped_init", "total"),
    ("net.candidate.rows", "count", "net.candidate.rows", "counter"),
    ("net.candidate.s", "s", "net.candidate", "total"),
    ("loss.empirical_loss.calls", "count", "loss.empirical_loss", "calls"),
    ("loss.empirical_loss.self_s", "s", "loss.empirical_loss", "self"),
    ("meta.meta_train.s", "s", "meta.meta_train", "total"),
    ("meta.meta_steps", "count", "meta.meta_steps", "counter"),
    ("meta.test_time_adapt.s", "s", "meta.test_time_adapt", "total"),
    ("verify.estimate_lipschitz.s", "s", "verify.estimate_lipschitz", "total"),
    ("verify.check_validity.s", "s", "verify.check_validity", "total"),
    ("verify.nodes_checked", "count", "verify.nodes_checked", "counter"),
    ("verify.region_rounds", "count", "verify.region_rounds", "counter"),
    ("verify.export_validity_csv.s", "s", "verify.export_validity_csv", "total"),
    ("roa.largest_level_set.s", "s", "roa.largest_level_set", "total"),
    ("roa.member_cells", "count", "roa.member_cells", "counter"),
    ("roa.monte_carlo_convergence.self_s", "s", "roa.monte_carlo_convergence", "self"),
    ("roa.export.s", "s", "roa.export", "total"),
    ("dynamics.simulate_batch.s", "s", "dynamics.simulate_batch", "total"),
    ("dynamics.rk4_state_steps", "count", "dynamics.rk4_state_steps", "counter"),
    ("dynamics.build_system.s", "s", "dynamics.build_system", "total"),
    ("dynamics.build_dataset.s", "s", "dynamics.build_dataset", "total"),
    ("baselines.certify_candidate.calls", "count", "baselines.certify_candidate", "calls"),
    ("baselines.certify_candidate.s", "s", "baselines.certify_candidate", "total"),
    ("baselines.train_nlf.self_s", "s", "baselines.train_nlf", "self"),
    ("baselines.nlf_steps", "count", "baselines.nlf_steps", "counter"),
    ("svg.render.s", "s", "svg.render", "total"),
    ("svg.bytes", "bytes", "svg.bytes", "counter"),
    ("cli.train-meta.s", "s", "cli.train-meta", "total"),
    ("cli.adapt.s", "s", "cli.adapt", "total"),
    ("cli.verify.s", "s", "cli.verify", "total"),
    ("cli.roa.s", "s", "cli.roa", "total"),
    ("cli.compare.s", "s", "cli.compare", "total"),
    ("cli.startup_s", "s", "cli.startup_s", "counter"),
    ("cli.artifact_bytes", "bytes", "cli.artifact_bytes", "counter"),
]


class CheckFailure(Exception):
    """A command failed or an output check rejected its artifacts."""


class HostClock(threading.Thread):
    """A clock that runs at the speed of the CPU the program runs on.

    This host's speed drifts by tens of percent over minutes (other tenants
    share its cores; CPU time drifts with wall time, so no clock of the
    program's own escapes it), and a drift of that size moves a per-run median
    by more than any bound worth having. Every 20 ms this thread times a fixed
    pure-Python burst (5 steps, about 0.8 ms) on the program's CPU; the clock
    advances by the wall time since the last burst times the speed the burst
    measured, nominal seconds per step over measured seconds per step. A time
    read on it is in seconds at a fixed host speed.
    """

    BURST_STEPS = 5
    PERIOD_S = 0.02

    def __init__(self, cpu: int):
        super().__init__(daemon=True)
        self.cpu = cpu
        self._halt = threading.Event()
        self._lock = threading.Lock()
        self._last = time.perf_counter()
        self._speed = 1.0
        self._seconds = 0.0

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._halt.wait(self.PERIOD_S):
            start = time.perf_counter()
            for _ in range(self.BURST_STEPS):
                total = 0
                for i in range(2000):
                    total += i * i % 7
            end = time.perf_counter()
            with self._lock:
                self._seconds += (end - self._last) * self._speed
                self._speed = self.BURST_STEPS * REFERENCE_S_PER_STEP / (end - start)
                self._last = end

    def now(self) -> float:
        with self._lock:
            return self._seconds + (time.perf_counter() - self._last) * self._speed

    def stop(self) -> None:
        self._halt.set()
        self.join()


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", LYAPCERT_THREADS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Session:
    """Launches program processes, records their time and memory, and keeps spans."""

    def __init__(self, work: Path, trace: bool, deadline: float):
        self.work = work
        self.trace = trace
        self.deadline = deadline
        self.env = child_env()
        self.peak_rss_mb = 0.0
        self.spans: list[dict] = []
        self.counters: dict = defaultdict(float)
        self._n_traces = 0
        self._taken = 0

    def launch(self, argv: list[str], log: Path) -> tuple[int, float]:
        """Run one process to its end; returns (exit code, max RSS in MB).

        The kernel counts the resident set a child had before exec, which is
        this process's own, so this process imports no numpy and stays small.
        """
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "w") as out:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def cli(self, args: list[str]) -> None:
        """One lyapcert command, as a user runs it; raises CheckFailure unless it exits 0."""
        log = self.work / "command.log"
        if self.trace:
            trace_file = self.work / f"trace{self._n_traces}.json"
            self._n_traces += 1
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file),
                    repr(time.monotonic()), *args]
        else:
            argv = [sys.executable, "-m", "lyapcert.cli", *args]
        code, rss_mb = self.launch(argv, log)
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        if self.trace and trace_file.exists():
            self._merge(json.loads(trace_file.read_text()))
            trace_file.unlink()
        if code != 0:
            tail = log.read_text()[-2000:]
            raise CheckFailure(f"`lyapcert {' '.join(args)}` exited {code}:\n{tail}")

    def _merge(self, trace: dict) -> None:
        base = len(self.spans)
        for span in trace["spans"]:
            if span["parent"] is not None:
                span["parent"] += base
            self.spans.append(span)
        for key, value in trace["counters"].items():
            self.counters[key] += value

    def take_layers(self, op: int) -> dict:
        """Per-layer values of the spans and counters since the last call."""
        first, self._taken = self._taken, len(self.spans)
        spans = self.spans[first:]
        child = defaultdict(float)
        for span in spans:
            span["op"] = op
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, span in enumerate(spans, start=first):
            duration = span["end"] - span["start"]
            calls[span["name"]] += 1
            total[span["name"]] += duration
            self_s[span["name"]] += duration - child[i]
        sources = {"calls": calls, "total": total, "self": self_s, "counter": self.counters}
        values = {name: sources[how].get(source, 0) for name, _, source, how in PER_LAYER}
        self.counters = defaultdict(float)
        return values


def tree_bytes(path: Path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def check_same_bytes(first: dict, again: dict) -> None:
    """Repetitions of one command write byte-identical artifacts."""
    if set(first) != set(again):
        raise CheckFailure(f"artifact sets differ: {sorted(first)} vs {sorted(again)}")
    for name, data in first.items():
        if again[name] != data:
            raise CheckFailure(f"{name} differs between repetitions")


class Workload:
    """Inputs, operations and output checks of one workload."""

    def __init__(self, name: str, seed: int, session: Session):
        self.name, self.seed, self.session = name, seed, session
        self.inputs = session.work / "inputs"
        self.out = session.work / "out"
        self.first_outputs: dict | None = None
        self.nonempty = 0

    def setup(self, clock: HostClock) -> list[float]:
        """Prepare the inputs SETUP_REPEATS times, each in a fresh interpreter."""
        times, previous = [], None
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.inputs, ignore_errors=True)
            start = clock.now()
            code, _ = self.session.launch(
                [sys.executable, str(BENCH / "inputs.py"), self.name, str(self.seed),
                 str(self.inputs)], self.session.work / "setup.log")
            times.append(clock.now() - start)
            if code != 0:
                raise CheckFailure("set-up failed:\n"
                                   + (self.session.work / "setup.log").read_text())
            written = tree_bytes(self.inputs)
            if previous is not None and written != previous:
                raise CheckFailure("set-up wrote different inputs for the same seed")
            previous = written
        self.plan = json.loads((self.inputs / "inputs.json").read_text())
        return times

    def rounds(self):
        """Yields each round's operations: one config name per operation."""
        if self.name == "adapt_certify":
            pool, k = self.plan["pool"], self.plan["per_round"]
            for r in range(len(pool) // k):
                yield [*self.plan["fixed"], *pool[r * k:(r + 1) * k]]
        else:
            while True:
                yield list(self.plan["round"])

    def run_op(self, config: str) -> None:
        """Runs the CLI commands of one operation."""
        cfg = str(self.inputs / f"{config}.json")
        out = str(self.out)
        if self.name == "meta_fit":
            self.session.cli(["train-meta", "--config", cfg, "--seed", str(self.seed),
                              "--out", out])
        elif self.name == "compare_mg3":
            self.session.cli(["compare", "--config", cfg, "--seed", str(self.seed),
                              "--out", out])
        else:
            adapted = str(self.out / config / "adapted_checkpoint.json")
            self.session.cli(["adapt", "--config", cfg, "--checkpoint", str(CHECKPOINT),
                              "--out", out])
            self.session.cli(["verify", "--config", cfg, "--checkpoint", adapted, "--out", out])
            self.session.cli(["roa", "--config", cfg, "--checkpoint", adapted, "--out", out])

    def check_op(self, config: str) -> bool:
        """Checks the operation's outputs; returns True if the operation failed."""
        art = self.out / config
        if self.name != "adapt_certify":
            outputs = tree_bytes(art)
            if self.first_outputs is None:
                self.first_outputs = outputs
            check_same_bytes(self.first_outputs, outputs)
        # The fixed tasks count the two known faults (see the README).
        counted = {"fixed": "containment", "gate": "gate"}.get(config)
        log = self.session.work / "check.log"
        code, _ = self.session.launch(
            [sys.executable, str(BENCH / "checks.py"), self.name, str(art)]
            + (["--count", counted] if counted else []), log)
        report = log.read_text()
        if code != 0:
            raise CheckFailure(f"{config}: {report[-2000:]}")
        facts = json.loads(report.splitlines()[-1])
        self.nonempty += facts.get("nonempty", False)
        return facts.get("containment_violations", 0) > 0 or facts.get("gate_rejected", False)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_start = time.monotonic()
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(work, trace, run_start + RUN_LIMIT_S)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})   # this thread, and every child it starts
    clock = HostClock(cpu)
    clock.start()
    try:
        load = Workload(workload, seed, session)
        setup_times = load.setup(clock)
        op_times, wall_times, layers, failed = [], [], [], 0
        start = time.monotonic()
        for round_ops in load.rounds():
            for config in round_ops:
                shutil.rmtree(load.out, ignore_errors=True)
                t0, c0 = time.monotonic(), clock.now()
                load.run_op(config)
                op_times.append(clock.now() - c0)
                wall_times.append(time.monotonic() - t0)
                op_failed = load.check_op(config)
                failed += op_failed
                print(f"op {len(op_times)} {config}: {op_times[-1]:.3f} s on the host clock, "
                      f"{wall_times[-1]:.3f} s wall" + (" FAILED" if op_failed else ""),
                      file=sys.stderr)
                if trace:
                    session.counters["cli.artifact_bytes"] = sum(
                        len(b) for b in tree_bytes(load.out).values())
                    layers.append(session.take_layers(len(op_times) - 1))
            if time.monotonic() - start >= seconds:
                break
        if workload == "adapt_certify":
            print(f"nonempty certificates: {load.nonempty} of {len(op_times)} tasks",
                  file=sys.stderr)
        if trace:
            (WORK_ROOT / f"trace-{workload}-{seed}.json").write_text(
                json.dumps({"workload": workload, "seed": seed, "spans": session.spans}))
            unit = {name: u for name, u, _, _ in PER_LAYER}
            metrics = {name: {"value": statistics.median(op[name] for op in layers),
                              "unit": unit[name]} for name in unit}
        else:
            # Not gated: wall time beside the clock, so a clock that hides a
            # change of the program's own time can be spotted.
            print("ungated: " + json.dumps({"op_wall_s": statistics.median(wall_times)}))
            metrics = {
                "op_s": {"value": statistics.median(op_times), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": session.peak_rss_mb, "unit": "MB"},
            }
        return {"correct": True, "attempted": len(op_times), "failed": failed,
                "metrics": metrics}
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lyapcert" / "cli.py").is_file():
        print(f"no lyapcert source tree under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
