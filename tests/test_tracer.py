"""The benchmark tracer wraps package functions by name; those names must exist.

`perfbench/tracer.py` skips a listed name that no longer resolves, so a
deleted or renamed function would silently zero its per-layer metric.  This
reads the tracer's source (no bytecode is written next to it) and checks its
lists against the package.
"""
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import entscope
from entscope.eventlog import EventLog

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_layer_function_resolves():
    tracer = _tracer_module()
    missing = [f"entscope.{layer}.{name}"
               for layer, names in tracer.LAYER_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"entscope.{layer}"), name, None))]
    assert missing == []


def test_event_log_methods_the_tracer_binds_exist():
    # install() rebinds both unconditionally, read_jsonl through its
    # classmethod's __func__.
    assert callable(EventLog.write_jsonl)
    assert isinstance(EventLog.__dict__["read_jsonl"], classmethod)


def test_every_traced_layer_is_in_sys_modules_after_the_tracers_imports():
    # install() imports only the CLI, eventlog and oracle, then indexes
    # sys.modules["entscope.<layer>"] for every traced layer; a fresh
    # interpreter shows what those imports alone register.
    layers = sorted(_tracer_module().LAYER_FUNCTIONS)
    code = ("import json, sys\n"
            "import entscope.cli\n"
            "from entscope import eventlog, oracle\n"
            f"print(json.dumps([layer for layer in {layers!r}\n"
            "                  if f'entscope.{layer}' not in sys.modules]))")
    src = str(Path(entscope.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert json.loads(out) == []
