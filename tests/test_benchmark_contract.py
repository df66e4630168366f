"""The benchmark harness in `perfbench/` still runs against this package.

The harness reaches into `rcg` by name: its gates read attributes of what
the library returns, and its tracer wraps every public function and looks
up `formulas.BigCount`.  Deleting or renaming a name it uses makes its ops
fail, which this test shows before a benchmark run does.  The CLI workloads
also run their `prepare`, the `python -m rcg.cli --help` child that the
benchmark's set-up time measures, so a CLI that no longer starts fails here.
A few CLI ops also run as the `python -m rcg.cli` children of the end-to-end
runs, so a fault in the process entry (lost output, a changed exit code)
fails here too, and both spectra run at the largest points of `exact`.
"""
import importlib.util
import json
import subprocess
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


def test_child_ops_pass_their_gates(tmp_path):
    workloads = load("workloads")
    explicit = workloads.Explicit(tmp_path)
    verify = workloads.Verify(tmp_path)
    # (4, 2) and (5, 2) are the verify ops whose oracles take the most time
    names = ("generate dot q3 g6", "verify q2 g1", "verify q4 g2", "verify q5 g2", "verify q2 g6")
    ops = [(w, op) for w in (explicit, verify) for op in w.ops if op.name in names]
    assert len(ops) == 5
    outcomes = [(op.name, workload.run(op, False)) for workload, op in ops]
    assert [(name, o.error, o.wrong) for name, o in outcomes if o.failed] == []


# Each child starts from a fresh interpreter of its own: a child's ru_maxrss
# also counts the high-water resident set of the process it was forked from,
# and a test session, or a process that has read a large output for its
# gate, can pass the child's own peak.  The name is an `explicit` op's, or
# else the argv of a bare `rcg` child, which must exit 0.  Prints [error,
# wrong, peak KiB].
CHILD_PEAK = """
import json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import workloads

workdir, name = Path(sys.argv[2]), sys.argv[3]
explicit = workloads.Explicit(workdir)
outcomes = [explicit.run(op, False) for op in explicit.ops if op.name == name]
if outcomes:
    (outcome,) = outcomes
    print(json.dumps([outcome.error, outcome.wrong, outcome.rss_kib]))
else:
    _, code, _, kib = workloads.run_child(name.split(), 120.0, workdir)
    print(json.dumps([None if code == 0 else f"exit {code}", False, kib]))
"""


def child_peaks(tmp_path, names):
    """{name: [error, wrong, peak KiB]}, each from its own fresh interpreter."""

    def peak(name):
        argv = [sys.executable, "-c", CHILD_PEAK, str(PERFBENCH), str(tmp_path), name]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=180, check=True)
        return json.loads(done.stdout)

    peaks = {name: peak(name) for name in names}
    assert [(name, error, wrong) for name, (error, wrong, _) in peaks.items() if error or wrong] == []
    return peaks


def test_explicit_children_peak_near_a_bare_generate(tmp_path):
    # a child that writes C_2(0) holds the interpreter, numpy and no chunk;
    # each `explicit` op's child holds a few chunks of text on top of that
    # (with 16 384-row chunks the JSON op's child peaked 2.7 MiB above it)
    bare = "generate --q 2 --g 0"
    names = [op.name for op in load("workloads").Explicit(tmp_path).ops]
    peaks = child_peaks(tmp_path, [bare, *names])
    bare_kib = peaks.pop(bare)[2]
    over_mib = {name: (kib - bare_kib) / 1024 for name, (_, _, kib) in peaks.items()}
    assert len(over_mib) == 5 and max(over_mib.values()) <= 1.5, over_mib


def test_verify_at_its_size_limit_peaks_near_a_small_verify(tmp_path):
    # C_4(3) has 500 vertices, the matrix-tree oracle's limit; its dense
    # stage holds one 2 MB float64 matrix, and eigvalsh its copy for LAPACK
    # and the work space (with int64 temporaries and a float conversion
    # copy beside them the child peaked 7.5 MiB above C_2(0))
    small, largest = "verify --q 2 --g 0", "verify --q 4 --g 3"
    peaks = child_peaks(tmp_path, [small, largest])
    over_mib = (peaks[largest][2] - peaks[small][2]) / 1024
    assert over_mib <= 5.5, over_mib


def test_largest_spectra_pass_their_gates(tmp_path):
    # (2, 11) and (3, 9) are the largest points where `exact` runs the spectra
    exact = load("workloads").Exact(tmp_path)
    exact.prepare()
    points = ((2, 11), (3, 9))
    kinds = ("laplacian_spectrum", "adjacency_spectrum")
    ops = [op for op in exact.ops if (op.q, op.g) in points and op.kind in kinds]
    assert len(ops) == 4
    outcomes = [(op.name, exact.run(op)) for op in ops]
    assert [(name, o.error, o.wrong) for name, o in outcomes if o.failed] == []
