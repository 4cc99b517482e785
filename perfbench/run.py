"""promptloop benchmark: one closed-loop client, one run at a time.

    python3 perfbench/run.py --workload resume-long --seed 1 --seconds 50 --trace 0

Builds the workload's inputs from ``--seed``, then repeats one cycle for
``--seconds`` seconds: set up a runtime (``pipeline.build_runtime``),
optimize a fresh run on it (``Engine.run``), resume that run's log cut
before its final phase transition (``pipeline.resume_optimization``), and
render its report (``runstore.emit_report``). A first cycle runs untimed as
a warm-up. Each call is timed alone after ``gc.collect()``; a metric is the
median of its calls, with their CPU time taken at a reference host speed
(see :func:`calibration_s`). Every call's output is checked (see
``checks.py``); a failed check stops the run, prints ``"correct": false``
and exits 1.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced cycles, reports the per-layer metrics of ``spans.py``
and writes the spans to ``.perfbench_out/``. The last stdout line is the
JSON result; the lines before it are a table and a machine stamp.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import numpy as np

import checks
import spans as tracing
from workloads import WORKLOADS, Workload, build_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PHASES = ("setup", "optimize", "resume", "report")
END_TO_END_UNITS = {
    "setup_s": "s", "optimize_s": "s", "resume_s": "s", "report_s": "s", "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The benchmark cannot start: no result is printed."""


def import_program():
    """Import promptloop from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "promptloop" / "__init__.py").is_file():
        raise SetupError(f"no program source at {src}/promptloop")
    sys.path.insert(0, str(src))
    import promptloop
    from promptloop import config, engine, pipeline, runstore

    if Path(promptloop.__file__).resolve().parent != (src / "promptloop").resolve():
        raise SetupError(f"imported promptloop from {promptloop.__file__}, not {src}")
    return config, engine, pipeline, runstore


def machine_stamp(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": loadavg(),
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as handle:
            return " ".join(handle.read().split()[:3])
    except OSError:
        return "unknown"


class StubProcess:
    """The HTTP stub child process; stopped and waited for on close."""

    def __init__(self, workload: Workload, seed: int) -> None:
        chat, embed, per_text = workload.latency.scaled()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--seed", str(seed), "--dim", str(workload.dim),
             "--chat-delay", repr(chat), "--embed-delay", repr(embed),
             "--embed-per-text", repr(per_text), "--reply-bytes", str(workload.actor_bytes)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise SetupError("HTTP stub did not start")
        self.base_url = f"http://127.0.0.1:{port}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.base_url + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def backend_summary(config) -> dict:
    """The manifest's ``backend`` field, with the keys ``run_optimization`` writes."""
    backend = config.backend
    summary = {"kind": backend.kind, "model_name": backend.model_name,
               "embedding_model_name": backend.embedding_model_name}
    if backend.kind == "http":
        summary["base_url"] = backend.base_url
    return summary


#: Time of :func:`calibration_s` on the reference host, the 2-core Xeon VM of
#: the README's figures. The end-to-end times are reported at its speed.
REFERENCE_CALIBRATION_S = 0.0018
_CALIBRATION_DOC = [
    {"i": i, "text": "Ka re di an lo tum. Ber ich sen ga mo. " * 4, "score": i / 7} for i in range(120)
]


def calibration_s() -> float:
    """Time one run of a fixed task that does not touch the program.

    A shared host's CPU speed drifts between runs (by up to 1.7x on the
    README's 2-core VM), and every CPU-bound call of a run moves with it. The task does the kinds of work
    the program's CPU time goes to (JSON, hashing, regex, dicts), so the
    ratio of its time to the reference time measures the host's speed.
    """
    start = time.perf_counter()
    text = json.dumps(_CALIBRATION_DOC)
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    counts: dict[str, int] = {}
    for i, part in enumerate(p for d in json.loads(text) for p in re.split(r"(?<=\.)\s+", d["text"])):
        counts[part] = counts.get(part, 0) + i % 7
    sorted(counts)
    return time.perf_counter() - start


class Bench:
    def __init__(self, program, workload: Workload, seed: int, trace: bool, workdir: str, stub: StubProcess | None) -> None:
        self.config_mod, self.engine_mod, self.pipeline, self.runstore = program
        self.workload = workload
        self.trace = trace
        self.stub = stub
        inputs = build_inputs(workload, seed, workdir, stub.base_url if stub else "")
        self.config = self.config_mod.resolve_config(inputs.config, env={})
        self.task = inputs.task_prompt
        with open(inputs.corpus_path, encoding="utf-8") as handle:
            documents = [json.loads(line)["text"] for line in handle]
        self.oracle = checks.ScoreOracle(documents, workload.dim)
        self.log_path = ""  # set by the first cycle, from the run id
        self.cut_path = os.path.join(workdir, "resumed.jsonl")
        self.tracer = tracing.Tracer() if trace else None
        self.reference: tuple[dict, list[str]] | None = None
        self.samples: dict[str, list[tuple[float, float]]] = {p: [] for p in PHASES}  # (wall, busy)
        self.traced_optimize: list[float] = []
        self.calibration: list[float] = []
        self.layers: list[dict] = []
        self.cycle_no, self.tracing = 0, False
        self.attempted = 0
        self.failed = 0

    def call(self, phase: str, fn, check, keep: bool):
        """One operation: the timed call, then its output check."""
        gc.collect()
        self.attempted += 1
        try:
            start, cpu_start = time.perf_counter(), time.process_time()
            if self.tracing:
                self.tracer.run = f"{self.cycle_no}.{phase}"
                with self.tracer.span(f"bench.{phase}"):
                    result = fn()
            else:
                result = fn()
            elapsed = time.perf_counter() - start
            busy = min(time.process_time() - cpu_start, elapsed)
            check(result)
        except Exception:
            self.failed += 1
            raise
        if keep and self.tracing and phase == "optimize":
            self.traced_optimize.append(elapsed)
        elif keep:
            self.samples[phase].append((elapsed, busy))
            self.calibration.append(calibration_s())
        return result

    def check_run(self, _result) -> None:
        lines = checks.read_lines(self.log_path)
        checks.check_scores(lines[1], self.oracle)
        if self.reference is None:
            self.reference = lines
        checks.check_same_log(lines, self.reference, "repeated run")

    def check_resumed(self, _result) -> None:
        checks.check_same_log(checks.read_lines(self.cut_path), self.reference, "resumed log")

    def check_report(self, text: str) -> None:
        checks.check_report(text, self.reference[1])

    def cycle(self, cycle_no: int, traced: bool, keep: bool) -> None:
        self.cycle_no, self.tracing = cycle_no, traced
        reps = 1 if self.trace else self.workload.setup_reps
        before = self.stub.stats() if traced and self.stub else None
        for _ in range(reps):
            runtime = self.call("setup", lambda: self.pipeline.build_runtime(self.config), lambda r: None, keep)
        # The log path and manifest are the ones pipeline.run_optimization writes.
        run_id = self.config_mod.run_id_for(runtime.config_digest, runtime.corpus_digest, self.task)
        self.log_path = os.path.join(self.config.output_dir, f"{run_id}.jsonl")
        engine = self.engine_mod.Engine(
            runtime.backend, runtime.evaluator, self.config.engine,
            self.runstore.EventLog(self.log_path), self.task,
        )
        manifest = self.runstore.build_manifest(
            run_id=run_id,
            config_digest=runtime.config_digest,
            corpus_digest=runtime.corpus_digest,
            backend=backend_summary(self.config),
        )
        try:
            self.call("optimize", lambda: engine.run(manifest), self.check_run, keep)
        finally:
            engine.log.close()
        after = self.stub.stats() if before is not None else None
        for _ in range(1 if self.trace else self.workload.resume_reps):
            checks.cut_before_final_transition(self.log_path, self.cut_path)
            self.call("resume", lambda: self.pipeline.resume_optimization(self.config, self.cut_path),
                      self.check_resumed, keep)
        for _ in range(1 if self.trace else self.workload.report_reps):
            self.call("report", lambda: self.runstore.emit_report(self.log_path, "json"), self.check_report, keep)
        if traced and keep:
            self.layers.append(self.layer_values(before, after))

    def layer_values(self, before: dict | None, after: dict | None) -> dict:
        run = f"{self.cycle_no}."
        values = tracing.layer_values(tracing.Cycle([s for s in self.tracer.spans if s.run.startswith(run)]))
        for key in ("attempts", "request_bytes", "response_bytes"):
            values[f"gateway.http.{key}"] = after[key] - before[key] if after else 0
        values["runstore.log_bytes"] = os.path.getsize(self.log_path)
        return values

    def run(self, seconds: float) -> None:
        self.cycle(0, traced=False, keep=False)  # warm-up
        start = time.perf_counter()
        cycle_no = 1
        while True:
            traced = self.trace and cycle_no % 2 == 1
            began = time.perf_counter()
            if traced:
                with self.tracer:
                    self.cycle(cycle_no, traced=True, keep=True)
            else:
                self.cycle(cycle_no, traced=False, keep=True)
            now = time.perf_counter()
            enough = cycle_no >= (2 if self.trace else 1)
            if enough and now - start + (now - began) > seconds:
                break
            cycle_no += 1

    def host_factor(self) -> float:
        return REFERENCE_CALIBRATION_S / statistics.median(self.calibration)

    def end_to_end(self) -> dict[str, list[float]]:
        """Each call's time at the reference host speed: the part of the call
        the process was busy on the CPU is scaled by :meth:`host_factor`;
        the rest (sleeps, waiting for the stub, I/O) is kept as measured."""
        factor = self.host_factor()
        out = {f"{phase}_s": [wall - busy + busy * factor for wall, busy in values]
               for phase, values in self.samples.items()}
        out["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        return out

    def per_layer(self) -> dict[str, float]:
        values = tracing.aggregate(self.layers)
        untraced = statistics.median(wall for wall, _ in self.samples["optimize"])
        values["bench.trace_overhead_frac"] = statistics.median(self.traced_optimize) / untraced - 1
        return values


def summarize(samples: list[float]) -> str:
    n = len(samples)
    if n < 2:
        return f"n={n}"
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    text = f"n={n} q1={q1:.6g} q3={q3:.6g}"
    if n >= 11:  # the highest percentile with ten samples above it
        text += f" p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.6g}"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="promptloop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink the workload to a few seconds (tests)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.small()
    stamp = machine_stamp(args)
    try:
        program = import_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    stub = None
    bench = None
    error = None
    try:
        stub = StubProcess(workload, args.seed) if workload.backend == "http" else None
        bench = Bench(program, workload, args.seed, bool(args.trace), workdir, stub)
        bench.run(args.seconds)
    except (checks.CheckFailed, tracing.TargetMissing) as exc:
        error = exc
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a failed program call: reported as a failed operation
        if bench is None or not bench.attempted:
            raise
        error = exc
    finally:
        if stub:
            stub.close()
        shutil.rmtree(workdir, ignore_errors=True)

    stamp["loadavg_end"] = loadavg()
    if bench is not None and bench.calibration:
        stamp["calibration_s"] = statistics.median(bench.calibration)
        stamp["host_factor"] = bench.host_factor()
    print("# stamp " + json.dumps(stamp))
    metrics: dict[str, dict] = {}
    if error is not None:
        print(f"# FAILED: {type(error).__name__}: {error}")
    elif args.trace:
        for name, value in bench.per_layer().items():
            unit = tracing.METRICS[name][0]
            metrics[name] = {"value": value, "unit": unit}
            print(f"# {name:32} {value:>14.6g} {unit:6} cycles={len(bench.layers)}")
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        bench.tracer.write(str(trace_path), stamp)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        walls = {f"{phase}_s": [wall for wall, _ in values] for phase, values in bench.samples.items()}
        for name, samples in bench.end_to_end().items():
            metrics[name] = {"value": statistics.median(samples), "unit": END_TO_END_UNITS[name]}
            wall = f" wall={statistics.median(walls[name]):.6g}" if name in walls else ""
            print(f"# {name:12} {metrics[name]['value']:>12.6g} {END_TO_END_UNITS[name]:3} {summarize(samples)}{wall}")
    attempted = bench.attempted if bench else 0
    failed = bench.failed if bench else 0
    print(f"# operations: {attempted - failed} ok, {failed} failed of {attempted}")
    print(json.dumps({"correct": error is None, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
