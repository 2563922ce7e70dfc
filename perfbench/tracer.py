"""Run one entscope CLI command in-process, traced.

    python3 perfbench/tracer.py --json OUT [--label ID] -- <entscope args>

The public functions of each layer are wrapped from outside, then the
command runs through `entscope.cli.main` in this fresh interpreter.  Every
wrapped call becomes a span (name, start, end, parent, workload id), and
counts (records, bytes, trials, oracle cases) are attached at the same
boundaries.  Spans stay in memory and are written to OUT, with the exit
code, when the command ends.  After a `simulate`, `schemes.simulate_run` is
called a second time with the same arguments, so cold minus warm is the
outcome-table (Fock cache) fill; OUT's `rerun_s` is that call's wall time.

Names a later change removes are skipped, so the benchmark keeps running;
their metrics then read 0.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import sys
import time

LAYER_FUNCTIONS = {
    "config": ("load_config", "build_detector", "build_scheme", "build_source",
               "build_geometry", "build_chain", "build_budget", "budget_preset",
               "build_reconstruct", "run_options"),
    "schemes": ("simulate_run",),
    "fock": ("apply_beam_splitter", "apply_phase", "apply_loss", "partial_trace",
             "condition_on_counts", "outcome_distribution", "post_select"),
    "eventlog": ("fringe_counts", "pair_counts"),
    "estimation": ("estimate_visibility", "reconstruct_image"),
    "sky": ("visibility", "load_pgm", "save_pgm", "load_point_sources"),
    "repeater": ("chain_simulate",),
    "sensitivity": ("limiting_magnitude",),
    "oracle": ("run_all", "check_direct", "check_entangled", "check_weak_coherent",
               "check_hbt", "check_distillation", "check_swap"),
}

# Spans whose growth of the process's peak RSS is recorded.
_RSS_SPANS = ("schemes.simulate_run", "eventlog.EventLog.write_jsonl",
              "eventlog.EventLog.read_jsonl")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans: [name, start, end, parent index, workload id, counts]."""

    def __init__(self, workload_id: str) -> None:
        self.workload_id = workload_id
        self.spans: list[list] = []
        self.simulate_call = None  # bound arguments of the first simulate_run
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn):
        counts = _COUNTS.get(name)
        signature = inspect.signature(fn) if counts else None
        rss = name in _RSS_SPANS
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.workload_id, None]
            spans.append(span)
            stack.append(index)
            rss0 = _peak_rss_mb() if rss else 0.0
            span[1] = time.perf_counter() - self._t0
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - self._t0
                stack.pop()
            extra = {}
            if rss:
                extra["rss_growth_mb"] = _peak_rss_mb() - rss0
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extra.update(counts(self, bound.arguments, result))
            span[5] = extra or None
            return result

        traced.__wrapped__ = fn
        return traced


def _count_simulate(tracer, arguments, log):
    if tracer.simulate_call is None:
        tracer.simulate_call = dict(arguments)
    return {"records": len(log), "accepted_slots": int(log.n_accepted_slots()),
            "n_slots": int(arguments["n_slots"])}


def _count_file(tracer, arguments, result):
    return {"bytes": os.path.getsize(arguments["path"])}


def _count_chain(tracer, arguments, result):
    trials = arguments["n_trials"] if arguments["rng"] is not None else 0
    return {"trials": int(trials), "expected_slots": float(result.expected_slots)}


def _count_oracle_group(tracer, arguments, report):
    return {"cases": int(report.cases)}


_COUNTS = {
    "schemes.simulate_run": _count_simulate,
    "eventlog.EventLog.write_jsonl": _count_file,
    "eventlog.EventLog.read_jsonl": _count_file,
    "repeater.chain_simulate": _count_chain,
    **{f"oracle.{g}": _count_oracle_group for g in LAYER_FUNCTIONS["oracle"][1:]},
}


def install(tracer: Tracer) -> None:
    """Wrap every listed public function, wherever entscope modules refer to it."""
    import entscope.cli
    from entscope import eventlog, oracle

    packages = [m for n, m in sys.modules.items()
                if n == "entscope" or n.startswith("entscope.")]
    targets = [(sys.modules[f"entscope.{layer}"], fn)
               for layer, names in LAYER_FUNCTIONS.items() for fn in names]
    targets += [(entscope.cli, n) for n in vars(entscope.cli) if n.startswith("cmd_")]
    wrapped = {}  # id(original) -> wrapper
    for module, attr in targets:
        original = getattr(module, attr, None)
        if original is None or original in wrapped.values():
            continue
        layer = module.__name__.rsplit(".", 1)[1]
        wrapper = tracer.wrap(f"{layer}.{attr}", original)
        wrapped[id(original)] = wrapper
        for package in packages:
            for name, value in list(vars(package).items()):
                if value is original:
                    setattr(package, name, wrapper)
    oracle.GROUPS = tuple(wrapped.get(id(g), g) for g in oracle.GROUPS)

    cls = eventlog.EventLog
    cls.write_jsonl = tracer.wrap("eventlog.EventLog.write_jsonl", cls.write_jsonl)
    read = tracer.wrap("eventlog.EventLog.read_jsonl", cls.__dict__["read_jsonl"].__func__)
    cls.read_jsonl = classmethod(read)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children, i.e. the part of its interval no child span covers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", required=True, help="where to write the result")
    parser.add_argument("--label", default="", help="workload id stored on spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import entscope.cli

    tracer = Tracer(args.label)
    install(tracer)
    code = entscope.cli.main(cli_args)
    rerun_s = 0.0
    if tracer.simulate_call is not None:
        start = time.perf_counter()
        entscope.schemes.simulate_run(**tracer.simulate_call)
        rerun_s = time.perf_counter() - start
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "rerun_s": rerun_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
