"""entscope benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

--trace 0 runs the workload's `entscope` commands as child processes, one at
a time, for S seconds of passes, and reports the end-to-end metrics listed
in BENCHMARK.json.  Each command's wall time is divided by the time of
fixed reference work measured before, during and after it, and the result
is reported as the median over batches of passes.  --trace 1 runs each command twice, once as a plain CLI child
and once in a fresh interpreter with every layer's public calls wrapped in
spans (perfbench/tracer.py), and reports the per-layer metrics.  Every
artifact is checked; the last line of stdout is the JSON result.  See
perfbench/README.md for the metrics and the reason for each workload.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 9
BATCHES = 3
PROBE_EVERY_S = 0.5
# The reference work's typical time on the 2-vCPU Xeon VM the benchmark was
# tuned on.  setup_s is reported in seconds at that speed.
REF_S = 0.035

# A fresh interpreter doing the set-up every command pays: import the CLI,
# then load and build each of the workload's INI files, with no work done.
SETUP_CODE = """
import os, sys
import entscope.cli
from entscope import config as cfg
for path in sys.argv[1:]:
    parser = cfg.load_config(path)
    base = os.path.dirname(os.path.abspath(path))
    if parser.has_section("scheme"):
        scheme = cfg.build_scheme(parser)
        cfg.build_source(parser, base)
        cfg.build_geometry(parser, scheme)
    if parser.has_section("repeater"):
        cfg.build_chain(parser)
    if parser.has_section("reconstruct"):
        cfg.build_source(parser, base)
        cfg.build_reconstruct(parser)
    if parser.has_section("sensitivity"):
        cfg.build_budget(parser)
    if parser.has_section("run"):
        cfg.run_options(parser)
"""

# Per-command timings, printed next to the gated metrics.
COMMAND_METRICS = ("simulate_s", "estimate_s", "repeater_mc_s",
                   "oracle_check_s", "reconstruct_s")


@dataclass
class Child:
    exit: int
    wall_s: float  # without the time it was stopped for reference work
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool
    probes: list[float]  # reference times before, during and after it
    stdout: str
    stderr: str


class Spawner:
    """Runs children one at a time through perfbench/spawner.py.

    Wall time and peak RSS come from the spawner's os.wait4 rusage for each
    child alone.  RUSAGE_CHILDREN would keep the maximum over every child so
    far and hide a drop, and a child spawned from this process would start
    from this process's peak RSS.  The spawner asks this process to time the
    reference work while a child is stopped.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _send(self, message: object) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def run(self, argv: list[str], log_stem: Path, probe: bool = False) -> Child:
        """Run argv to the end; with probe, time the reference work next to it."""
        out_path, err_path = (log_stem.parent / (log_stem.name + ext)
                              for ext in (".out", ".err"))
        env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self._send({"argv": argv, "cwd": str(ROOT), "env": env, "stdout": str(out_path),
                    "stderr": str(err_path), "timeout_s": CHILD_TIMEOUT_S,
                    "probe_every_s": PROBE_EVERY_S if probe else None})
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("the spawner process ended early")
            reply = json.loads(line)
            if not reply.get("probe"):
                break
            self._send(reference_s())
        return Child(reply["exit"], reply["wall_s"], reply["cpu_s"],
                     reply["maxrss_kb"] / 1024.0, reply["timed_out"], reply["probes"],
                     out_path.read_text(errors="replace"),
                     err_path.read_text(errors="replace"))


def median_of_means(values: list[float]) -> float:
    """Median over up to BATCHES consecutive batches of the batch means.

    On a shared machine, slow-downs come in bursts of a few seconds that hit
    every process alike.  A batch mean averages over short bursts, and the
    median over batches discards one batch that a long burst covered.  With
    fewer than three values this is their mean.
    """
    k = min(BATCHES, len(values))
    bounds = [round(i * len(values) / k) for i in range(k + 1)]
    return statistics.median(statistics.fmean(values[a:b])
                             for a, b in zip(bounds, bounds[1:]))


_REF_RECORDS = [{"slot": i, "tel": i % 2, "det": i % 3, "delta": i * 0.125}
                for i in range(1500)]
_REF_ARRAY = np.random.default_rng(0).random(100_000)


def reference_s() -> float:
    """Wall time of fixed work that does not touch entscope.

    It mixes what the workloads spend their time on: JSON text, numpy array
    passes, interpreted loops, and a recursive sampler drawing scalars from
    a numpy Generator.  A shared machine can run everything slower for
    seconds to tens of seconds at a time.  Timed before, during and after a
    command, this work tracks that speed, so a command's wall time divided
    by the mean of these times does not.
    """
    start = time.perf_counter()
    text = "\n".join(json.dumps(r) for r in _REF_RECORDS)
    for line in text.splitlines():
        json.loads(line)
    a = _REF_ARRAY
    for _ in range(6):
        a = np.sort(np.sqrt(a * a + 1.0)) - 1.0
    acc = 0
    for i in range(35_000):
        acc += (i * i) % 7
    rng = np.random.default_rng(0)

    def sample(depth: int) -> float:
        if depth == 0:
            return rng.random()
        t = max(sample(depth - 1), sample(depth - 1))
        while rng.random() < 0.3:
            t += sample(depth - 1)
        return t

    for _ in range(6):
        sample(8)
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Ledger:
    """Attempted and failed operations; a failure is a non-zero exit, a
    timeout, or a failed output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{what}: {failure}")


def child_failure(child: Child) -> str | None:
    if child.timed_out:
        return f"timed out after {CHILD_TIMEOUT_S} s"
    if child.exit != 0:
        tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit {child.exit}: {tail[0]}"
    return None


def check_command(cmd: workloads.Command, root: Path, child: Child,
                  references: dict[str, str], hashes: dict[str, str]) -> str | None:
    """Exit status, the command's own check, then its artifact hashes.

    hashes holds the first hash seen for each artifact in this run; every
    later copy must match it, and at the default seed the reference too.
    """
    failure = child_failure(child) or cmd.check(root, child.stdout)
    if failure:
        return failure
    for name in cmd.artifacts:
        try:
            digest = sha256(root / name)
        except OSError as exc:
            return f"{name}: {exc}"
        first = hashes.setdefault(name, digest)
        if digest != first:
            return f"{name} differs between runs of the same inputs"
        if name in references and digest != references[name]:
            return f"{name} sha256 {digest} does not match the reference"
    return None


def measure_setup(spawner: Spawner, wl: workloads.Workload, logs: Path,
                  ledger: Ledger) -> tuple[float, float]:
    """Set-up time in seconds at the reference speed (see REF_S), and raw."""
    scaled, raw = [], []
    for i in range(SETUP_REPEATS):
        child = spawner.run([sys.executable, "-c", SETUP_CODE, *map(str, wl.configs)],
                            logs / f"setup{i}", probe=True)
        ledger.record("setup", child_failure(child))
        scaled.append(child.wall_s / statistics.fmean(child.probes) * REF_S)
        raw.append(child.wall_s)
    return median_of_means(scaled), median_of_means(raw)


def run_timed(spawner: Spawner, wl, seconds: float, logs: Path, references,
              ledger: Ledger) -> dict:
    """Passes over the workload's commands for about `seconds`: at least one,
    and another only while it should end within the budget.

    A command's `wall_ref` is its wall time over the mean of the reference
    times taken before, during and after it."""
    root = WORK / wl.name / "out"
    root.mkdir(parents=True)
    hashes: dict[str, str] = {}
    passes = []
    start = time.perf_counter()
    while not passes or elapsed * (len(passes) + 1) / len(passes) <= seconds:
        walls = {m: 0.0 for m in COMMAND_METRICS}
        wall, wall_ref, cpu, rss = 0.0, 0.0, 0.0, 0.0
        probes: list[float] = []
        for cmd in wl.commands:
            child = spawner.run([sys.executable, "-m", "entscope.cli", *cmd.args(root)],
                                logs / f"p{len(passes)}-{cmd.label}", probe=True)
            ledger.record(cmd.label, check_command(cmd, root, child, references, hashes))
            wall += child.wall_s
            wall_ref += child.wall_s / statistics.fmean(child.probes)
            probes += child.probes
            cpu += child.cpu_s
            rss = max(rss, child.peak_rss_mb)
            if cmd.metric:
                walls[cmd.metric] += child.wall_s
        passes.append(dict(walls, wall_s=wall, wall_ref=wall_ref, ref_s=statistics.fmean(probes),
                           cpu_s=cpu, peak_rss_mb=rss, probes=len(probes)))
        elapsed = time.perf_counter() - start
    shutil.rmtree(root)
    return {"passes": passes, "artifacts_sha256": hashes,
            "medians": {k: median_of_means([p[k] for p in passes]) for k in passes[0]}}


def run_traced(spawner: Spawner, wl, logs: Path, references, ledger: Ledger) -> dict:
    """Each command as a plain CLI child, then traced in a fresh interpreter
    (tracer.py); the traced artifacts must equal the CLI's byte for byte."""
    results: dict[str, dict] = {}
    hashes: dict[str, str] = {}
    roots = {kind: WORK / wl.name / kind for kind in ("plain", "traced")}
    for root in roots.values():
        root.mkdir(parents=True)
    for cmd in wl.commands:
        plain = spawner.run([sys.executable, "-m", "entscope.cli", *cmd.args(roots["plain"])],
                            logs / f"plain-{cmd.label}")
        plain_failure = check_command(cmd, roots["plain"], plain, references, hashes)
        ledger.record(f"plain {cmd.label}", plain_failure)
        report = logs / f"traced-{cmd.label}.json"
        traced = spawner.run([sys.executable, str(HERE / "tracer.py"), "--json", str(report),
                              "--label", f"{wl.name}/{cmd.label}", "--",
                              *cmd.args(roots["traced"])], logs / f"traced-{cmd.label}")
        failure = check_command(cmd, roots["traced"], traced, references, hashes)
        ledger.record(f"traced {cmd.label}", failure)
        if failure is None and plain_failure is None:
            result = json.loads(report.read_text())
            results[cmd.label] = {"spans": result["spans"],
                                  "overhead_s": traced.wall_s - result["rerun_s"] - plain.wall_s}
    for root in roots.values():
        shutil.rmtree(root)
    return results


def layer_metrics(results: dict[str, dict]) -> dict[str, float]:
    """Per-layer numbers from the traced runs; 0 for a layer the workload
    does not call."""
    m: dict[str, float] = {}
    totals: dict[str, dict[str, float]] = {}
    spans_by_name: dict[str, list] = {}
    overhead = 0.0
    for label, run in results.items():
        overhead += run["overhead_s"]
        spans = run["spans"]
        for name, stats in tracer.summarize(spans).items():
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in entry:
                entry[key] += stats[key]
        for span in spans:
            spans_by_name.setdefault(span[0], []).append((label, span))
    m["trace.overhead_s"] = overhead

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def layer(prefix: str, key: str) -> float:
        return sum(v[key] for n, v in totals.items() if n.startswith(prefix + "."))

    m["config.load_s"] = layer("config", "self_s")
    m["cli.self_s"] = layer("cli", "self_s")
    m["fock.self_s"] = layer("fock", "self_s")
    m["fock.calls"] = layer("fock", "calls")

    sim = [s for _, s in spans_by_name.get("schemes.simulate_run", [])]
    cold, warm = (sim[0], sim[-1]) if len(sim) >= 2 else (None, None)
    cold_s = cold[2] - cold[1] if cold else 0.0
    m["schemes.simulate_run.cold_s"] = cold_s
    m["schemes.simulate_run.warm_s"] = warm[2] - warm[1] if warm else 0.0
    m["schemes.records"] = cold[5]["records"] if cold else 0
    m["schemes.accepted_fraction"] = (cold[5]["accepted_slots"] / cold[5]["n_slots"]
                                      if cold else 0.0)
    m["schemes.slots_per_s"] = cold[5]["n_slots"] / cold_s if cold else 0.0
    m["schemes.simulate_run.rss_growth_mb"] = cold[5]["rss_growth_mb"] if cold else 0.0

    for op in ("write_jsonl", "read_jsonl"):
        calls = [s for _, s in spans_by_name.get(f"eventlog.EventLog.{op}", [])]
        secs = sum(s[2] - s[1] for s in calls)
        mb = sum(s[5]["bytes"] for s in calls) / 1e6
        m[f"eventlog.{op}.s"] = secs
        m[f"eventlog.{op}.mb_per_s"] = mb / secs if secs else 0.0
        m[f"eventlog.{op}.rss_growth_mb"] = max((s[5]["rss_growth_mb"] for s in calls),
                                                default=0.0)
        if op == "write_jsonl":
            m["eventlog.write_jsonl.mb"] = mb

    for name in ("eventlog.fringe_counts", "estimation.estimate_visibility",
                 "estimation.reconstruct_image", "sky.visibility",
                 "sensitivity.limiting_magnitude", "oracle.run_all",
                 *(f"oracle.{g}" for g in tracer.LAYER_FUNCTIONS["oracle"][1:])):
        m[f"{name}.s"] = total(name)
    m["sky.visibility.calls"] = totals.get("sky.visibility", {}).get("calls", 0)
    m["oracle.cases"] = sum(s[5]["cases"] for name, spans in spans_by_name.items()
                            if name.startswith("oracle.check_") for _, s in spans)

    chains = {label: s for label, s in spans_by_name.get("repeater.chain_simulate", [])}
    for label, _, _ in workloads.CHAINS:
        mc, an = chains.get(f"repeater.{label}.mc"), chains.get(f"repeater.{label}.analytic")
        mc_s = mc[2] - mc[1] if mc else 0.0
        m[f"repeater.{label}.mc_s"] = mc_s
        m[f"repeater.{label}.analytic_s"] = an[2] - an[1] if an else 0.0
        m[f"repeater.{label}.trials_per_s"] = mc[5]["trials"] / mc_s if mc else 0.0
        m[f"repeater.{label}.mc_over_analytic"] = (
            mc[5]["expected_slots"] / an[5]["expected_slots"] if mc and an else 0.0)
    return m


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "git_commit": git_commit()}


def run_workload(name: str, args: argparse.Namespace, spec: dict) -> None:
    """Run one workload and print its metrics; the last line is the JSON result."""
    header = dict(machine(), workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, loadavg_start=os.getloadavg())
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    logs = WORK / "logs" / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(logs, ignore_errors=True)
    work.mkdir(parents=True)
    logs.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](work, args.seed)
    references = {}
    if args.seed == workloads.DEFAULT_SEED:
        references = json.loads((HERE / "references.json").read_text())[wl.name]

    ledger = Ledger()
    record: dict = {"header": header}
    if args.trace:
        with Spawner() as spawner:
            results = run_traced(spawner, wl, logs, references, ledger)
        values = layer_metrics(results)
        record["spans"] = {label: run["spans"] for label, run in results.items()}
        wanted = spec["per_layer"]
    else:
        with Spawner() as spawner:
            setup_s, setup_raw_s = measure_setup(spawner, wl, logs, ledger)
            timed = run_timed(spawner, wl, args.seconds, logs, references, ledger)
        values = dict(timed["medians"], setup_s=setup_s, setup_raw_s=setup_raw_s)
        record.update(timed, setup_raw_s=setup_raw_s)
        wanted = spec["end_to_end"]
    header["loadavg_end"] = os.getloadavg()
    shutil.rmtree(work)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(metrics=metrics, failures=ledger.failures)
    (logs / "result.json").write_text(json.dumps(record) + "\n")

    print(f"# workload {wl.name}: {wl.why}")
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    if not args.trace:
        print(f"# {len(timed['passes'])} pass(es); medians over up to {BATCHES} "
              "batches of pass means")
        raw = ("wall_s", "ref_s", "setup_raw_s")
        for name in (*raw, *COMMAND_METRICS):
            if name in raw or any(c.metric == name for c in wl.commands):
                print(f"{wl.name:<14} {name:<16} {values[name]:.4f} s")
    for name, entry in metrics.items():
        print(f"{wl.name:<14} {name:<16} {entry['value']:.6g} {entry['unit']}")
    print(f"{wl.name:<14} {'error_rate':<16} "
          f"{len(ledger.failures) / ledger.attempted:.6g} ratio "
          f"({len(ledger.failures)} failed / {ledger.attempted} attempted)")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entscope" / "cli.py").is_file():
        print(f"benchmark: no entscope sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))  # output checks call into the package
    for name in workloads.WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(name, args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
