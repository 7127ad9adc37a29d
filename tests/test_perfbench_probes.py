"""The probe tables of `perfbench/probes.py` and the memos
`perfbench/worker.py` reads, against the package: every traced target,
every required alias binding and every memo read still resolves, so
deleting or renaming a name the benchmark uses fails here, not first in a
traced benchmark run. Two workloads also run through the worker itself.
The files are only read, never changed."""

import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"
WORKER = PROBES.with_name("worker.py")
_spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
probes = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(probes)


def _resolve(target):
    """The object `Probes.install` patches for `target`, or None: a module
    function, or a method found in its own class's `__dict__`."""
    owner = vars(importlib.import_module(target.module))
    if "." not in target.qualname:
        return owner.get(target.qualname)
    cls_name, attr = target.qualname.split(".")
    cls = owner.get(cls_name)
    return vars(cls).get(attr) if isinstance(cls, type) else None


def test_every_traced_target_resolves():
    assert [f"{t.module}.{t.qualname}" for t in probes.TRACED if not callable(_resolve(t))] == []
    assert set(probes.COUNTED) <= {t.label for t in probes.TRACED}


def test_every_required_binding_holds_a_traced_object():
    """Each binding names a module global that is a traced function or the
    class of a traced method, the objects `Probes.install` patches."""
    traced = [_resolve(t) for t in probes.TRACED]
    traced += [vars(importlib.import_module(t.module)).get(t.qualname.split(".")[0]) for t in probes.TRACED]
    missing = []
    for binding in probes.REQUIRED_BINDINGS:
        module, name = binding.rsplit(".", 1)
        value = vars(importlib.import_module(module)).get(name)
        if not any(value is obj for obj in traced):
            missing.append(binding)
    assert missing == []


def test_every_memo_the_worker_reads_still_reports_its_field():
    """Each `bls.<name>.cache_info().<field>` in `perfbench/worker.py` names
    a module object of `bls` whose `cache_info()` has that field."""
    from relaysim.crypto import bls

    reads = re.findall(r"\bbls\.(\w+)\.cache_info\(\)\.(\w+)", WORKER.read_text())
    assert reads  # the worker reads the verify memos' hits
    assert [(name, field) for name, field in reads if not hasattr(getattr(bls, name, None), "cache_info")] == []
    assert [(name, field) for name, field in reads if not hasattr(getattr(bls, name).cache_info(), field)] == []


@pytest.mark.parametrize("workload", ["stream", "forgery-flood"])
def test_the_worker_runs_a_workload_correct(workload):
    """The worker reads the run through `final_confirmations()`,
    `submitted`, `payload_conservation_violations()` and
    `completed_keys()`; a workload run through it fails no operation and
    leaves no probe unused. `-B` keeps it from writing bytecode beside the
    files it reads."""
    done = subprocess.run(
        [sys.executable, "-B", str(WORKER), "--workload", workload, "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert (record["failed"], record["coverage_problems"]) == (0, [])
