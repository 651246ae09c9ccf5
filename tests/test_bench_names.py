"""Every synwatch name the benchmark harness uses still exists.

The harness under ``perfbench/`` imports some names and traces others.
A name that moves or goes away breaks only a benchmark run, or silently
raises its ``trace.missing`` count, so these tests check the names here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Traced names that need not resolve.  ``sweep_beta`` is gone from the
#: program but still listed in ``spans.TARGETS``; the benchmark change
#: that drops it (ROADMAP item 1) removes it from this set too.
STALE_TARGETS = {"synwatch.calibration.sweep_beta"}


def load_spans():
    """``perfbench/spans.py``, loaded by path under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_child_imports_exist():
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "synwatch":
                    importlib.import_module(alias.name)
                    checked += 1
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "synwatch"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    # a submodule, as in ``from synwatch import kernels``
                    importlib.import_module(f"{node.module}.{alias.name}")
                checked += 1
    assert checked


def test_span_targets_resolve():
    spans = load_spans()
    missing = set()
    for _, module_name, attr in spans.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and method in vars(cls)
        else:
            found = getattr(module, attr, None) is not None
        if not found and attr not in spans.OPTIONAL:
            missing.add(f"{module_name}.{attr}")
    assert missing == STALE_TARGETS
