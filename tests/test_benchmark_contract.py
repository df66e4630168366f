"""The benchmark harness in `perfbench/` still runs against this package.

The harness reaches into `rcg` by name: its gates read attributes of what
the library returns, and its tracer wraps every public function and looks
up `formulas.BigCount`.  Deleting or renaming a name it uses makes its ops
fail, which this test shows before a benchmark run does.  The CLI workloads
also run their `prepare`, the `python -m rcg.cli --help` child that the
benchmark's set-up time measures, so a CLI that no longer starts fails here.
"""
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """A perfbench module, loaded by path under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_ops_pass_their_gates(tmp_path):
    workloads, tracing = load("workloads"), load("tracing")
    exact = workloads.Exact(tmp_path)
    exact.prepare()
    explicit = workloads.Explicit(tmp_path)
    explicit.prepare()
    verify = workloads.Verify(tmp_path)
    verify.prepare()
    ops = [(exact, op) for op in exact.ops if (op.q, op.g) in ((2, 3), (3, 2))]
    # the dot op reads birth; the JSON op sets the workload's peak RSS, and
    # the (5, 6) edge list set it before the writers streamed from (q, g)
    claimed = ("generate dot q3 g6", "generate edgelist q5 g6", "generate json q2 g9")
    ops += [(explicit, op) for op in explicit.ops if op.name in claimed]
    # the verify ops run the oracle, and the over-budget (2, 6) must exit 2
    checked = ("verify q2 g1", "verify q3 g2", "verify q2 g6")
    ops += [(verify, op) for op in verify.ops if op.name in checked]
    assert len(ops) == 16
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes = [
            (op.name, workload.run(op, True, tracer, op_id))
            for op_id, (workload, op) in enumerate(ops)
        ]
    finally:
        tracer.uninstall()
    assert [(name, o.error, o.wrong) for name, o in outcomes if o.failed] == []
    assert tracer.spans
