"""The three benchmark workloads: their ops, how each op runs, and its gate.

An op runs either as a `python -m rcg.cli` child process (the end-to-end
runs of `explicit` and `verify`) or in this process (`exact` always, and the
traced runs of all three, which call `rcg.cli.main(argv)` or the library).
Every op ends in an `Outcome`; an op fails when it raises, exits with an
undocumented or unexpected code, hits its deadline or gives a wrong output.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}
EXIT_RESOURCE = 2

# deadline of one op; the over-budget verify op documents an early exit 2,
# which a child reaches in well under a second once the budget is checked first
OP_DEADLINE_S = 60.0
OVER_BUDGET_DEADLINE_S = 2.0
EXACT_DEADLINE_S = 30.0

# eigenvalue multisets are only requested up to the library's default budget
SPECTRUM_MAX_ORDER = 10**6

# moduli for checking huge spanning-tree counts without printing them
CHECK_MODULI = (2**61 - 1, 10**18)


def _op_names(kind, points):
    return [f"{kind} q{q} g{g}" for q, gs in points for g in gs]


# Every op that failed when the benchmark was added: op name -> (error, defect).
# Any other failure, or one of these with another error, makes a run
# incorrect, so only fixing a listed defect can move `ok_ratio` unnoticed.
KNOWN_DEFECTS = {
    **{
        name: ("ValueError", "to_json_dict: int->str beyond the 4300-digit limit")
        for name in _op_names(
            "structural_report",
            ((2, range(9, 14)), (3, range(6, 10)), (4, range(5, 9)), (5, range(5, 8))),
        )
    },
    **{
        name: ("ResourceLimitError", "kirchhoff_spectral refuses above the digit cap")
        for name in _op_names(
            "kirchhoff_spectral",
            ((2, (14, 15, 16, 20, 30, 50)), (3, (10, 11, 20)), (4, (9,)), (5, (8, 20))),
        )
    },
    "verify q2 g6": ("Deadline", "verify over the matrix-tree budget runs Jacobi before exiting 2"),
}


class Deadline(BaseException):
    """Raised by SIGALRM when an op runs past its deadline.

    A BaseException, so that no handler inside the program under test
    swallows it.
    """


@contextlib.contextmanager
def deadline(seconds):
    def fire(signum, frame):
        raise Deadline()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    seconds: float
    error: str | None = None  # exception class, "exit <code>" or "Deadline"
    wrong: bool = False  # completed, but the output failed its gate
    rss_kib: int = 0
    bytes_out: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong

    @property
    def timed_out(self) -> bool:
        return self.error == "Deadline"


@dataclass
class Op:
    name: str
    kind: str
    q: int
    g: int
    argv: list[str] = field(default_factory=list)
    deadline_s: float = OP_DEADLINE_S


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def run_child(argv, seconds, workdir: Path):
    """Run `python -m rcg.cli argv`; return (seconds, exit code, stdout, rss KiB).

    The exit code is None when the child was killed at its deadline; the
    child is always reaped here.
    """
    out_path = workdir / "stdout"
    with open(out_path, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rcg.cli", *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=out,
            stderr=subprocess.DEVNULL,
        )
        reaped = None
        try:
            with deadline(seconds):
                reaped = os.wait4(proc.pid, 0)
        except Deadline:
            pass
        finally:
            killed = reaped is None
            if killed:  # at the deadline, or while the benchmark itself is interrupted
                proc.kill()
                reaped = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - start
    _, status, usage = reaped
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed else proc.returncode
    return elapsed, code, out_path.read_bytes(), usage.ru_maxrss


def run_in_process(call, seconds, tracer=None, op_id=None):
    """Run `call()`; return (seconds, result, error class name or None).

    With a tracer, spans are recorded under `op_id` during the call only.
    """
    start = perf_counter()
    try:
        with deadline(seconds):
            if tracer is not None:
                tracer.op = op_id
            try:
                result = call()
            finally:
                if tracer is not None:
                    tracer.op = None
    except Deadline:
        return perf_counter() - start, None, "Deadline"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return perf_counter() - start, None, type(exc).__name__
    return perf_counter() - start, result, None


class Workload:
    """A list of ops, what to prepare before the first one, and how each runs.

    `pass_s` is how long one pass over the ops takes, measured on a 2-vCPU
    x86-64 VM; a run makes as many passes as fit in `--seconds`, and at
    least `min_passes`.
    """

    in_process_only = False
    min_passes = 2

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.ops = self.build_ops()

    def build_ops(self) -> list[Op]:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, op: Op, in_process: bool, tracer=None, op_id=None) -> Outcome:
        raise NotImplementedError


class CliWorkload(Workload):
    """Ops that are `rcg` command lines; subclasses set the ops and the gate."""

    def prepare(self) -> None:
        """One `rcg.cli --help` child: proves the program is there and fills caches.

        `run_child` blocks in `wait4`; `subprocess.run` with a timeout polls
        every 50 ms, which put 50 ms steps into the set-up time.
        """
        code = run_child(["--help"], OP_DEADLINE_S, self.workdir)[1]
        if code != 0:
            raise RuntimeError(f"python -m rcg.cli --help exited {code}")

    def run(self, op, in_process, tracer=None, op_id=None):
        argv = self.argv(op)
        if in_process:
            from rcg import cli

            buffer = io.StringIO()

            def call():
                with contextlib.redirect_stdout(buffer):
                    return cli.main(argv)

            elapsed, code, error = run_in_process(call, op.deadline_s, tracer, op_id)
            stdout, rss = buffer.getvalue().encode(), 0
        else:
            elapsed, code, stdout, rss = run_child(argv, op.deadline_s, self.workdir)
            error = "Deadline" if code is None else None
        outcome = Outcome(elapsed, error=error, rss_kib=rss, bytes_out=len(stdout))
        if error is None:
            self.gate(op, code, stdout, outcome)
        return outcome

    def argv(self, op: Op) -> list[str]:
        return op.argv

    def gate(self, op, code, stdout, outcome) -> None:
        raise NotImplementedError

    @staticmethod
    def exit_error(code, expected) -> str | None:
        if code == expected:
            return None
        return f"exit {code}" + ("" if code in DOCUMENTED_EXIT_CODES else " (undocumented)")


class Explicit(CliWorkload):
    """`generate` writes one explicit graph to a file; gate: sha256 of the file."""

    name = "explicit"
    pass_s = 10.0
    POINTS = (
        ("edgelist", 2, 11),
        ("edgelist", 3, 8),
        ("edgelist", 5, 6),
        ("json", 2, 9),
        ("dot", 3, 6),
    )

    def build_ops(self):
        self.reference = json.loads((HERE / "reference_sha256.json").read_text())
        return [
            Op(f"generate {fmt} q{q} g{g}", fmt, q, g,
               ["generate", "--q", str(q), "--g", str(g), "--format", fmt])
            for fmt, q, g in self.POINTS
        ]

    def argv(self, op):
        return [*op.argv, "--output", str(self.workdir / "graph.out")]

    def gate(self, op, code, stdout, outcome):
        out = self.workdir / "graph.out"
        outcome.error = self.exit_error(code, 0)
        if outcome.error is None:
            data = out.read_bytes()
            outcome.bytes_out += len(data)
            outcome.wrong = hashlib.sha256(data).hexdigest() != self.reference[op.name]
        out.unlink(missing_ok=True)


class Verify(CliWorkload):
    """`verify` on the acceptance grid, plus one op over the matrix-tree budget."""

    name = "verify"
    pass_s = 25.0
    # few ops are slow, so the tail rests on few samples: over ten seeds its
    # quartile spread was 0.12 of the median with two passes, 0.06 with three
    min_passes = 3
    OVER_BUDGET = (2, 6)

    def build_ops(self):
        points = [(q, g) for q in (2, 3, 4, 5) for g in (0, 1, 2)] + [(2, 3)]
        ops = [
            Op(f"verify q{q} g{g}", "verify", q, g, ["verify", "--q", str(q), "--g", str(g)])
            for q, g in points
        ]
        q, g = self.OVER_BUDGET
        ops.append(
            Op(f"verify q{q} g{g}", "over_budget", q, g,
               ["verify", "--q", str(q), "--g", str(g)], OVER_BUDGET_DEADLINE_S)
        )
        return ops

    def gate(self, op, code, stdout, outcome):
        if op.kind == "over_budget":
            outcome.error = self.exit_error(code, EXIT_RESOURCE)
            return
        if code == 3:
            outcome.wrong = True
            return
        outcome.error = self.exit_error(code, 0)
        if outcome.error is None:
            lines = stdout.decode(errors="replace").splitlines()
            rows = lines[:-1]
            outcome.wrong = not (
                rows
                and all(row.rstrip().endswith("PASS") for row in rows)
                and lines[-1] == f"all {len(rows)} checks passed"
            )


class Exact(Workload):
    """In-process closed forms and spectral routes over a (q, g) sweep."""

    name = "exact"
    pass_s = 11.0
    in_process_only = True
    # over ten seeds, the first two of three passes spread 0.21 in ops_per_s
    # and 0.20 in the median, all three 0.15 and 0.11
    min_passes = 3
    GRID = (
        [(2, g) for g in range(17)]
        + [(3, g) for g in range(12)]
        + [(4, g) for g in range(10)]
        + [(5, g) for g in range(9)]
        + [(2, 20), (2, 30), (2, 50), (3, 20), (5, 20)]
    )

    def prepare(self) -> None:
        from rcg import formulas, graphs, spectra

        self.formulas, self.graphs, self.spectra = formulas, graphs, spectra

    def build_ops(self):
        ops = []
        for q, g in self.GRID:
            kinds = ["structural_report", "spanning_trees_spectral", "kirchhoff_spectral"]
            if q * (q + 1) ** g <= SPECTRUM_MAX_ORDER:
                kinds += ["laplacian_spectrum", "adjacency_spectrum"]
            ops.extend(Op(f"{kind} q{q} g{g}", kind, q, g, deadline_s=EXACT_DEADLINE_S) for kind in kinds)
        return ops

    def call(self, op):
        params = self.graphs.RcgParams(op.q, op.g)
        if op.kind == "structural_report":
            return lambda: self.formulas.structural_report(params).to_json_dict()
        return lambda: getattr(self.spectra, op.kind)(params)

    def run(self, op, in_process=True, tracer=None, op_id=None):
        elapsed, result, error = run_in_process(self.call(op), op.deadline_s, tracer, op_id)
        outcome = Outcome(elapsed, error=error)
        if error is None:
            try:
                outcome.wrong = not getattr(self, f"check_{op.kind}")(op.q, op.g, result)
            except (AttributeError, KeyError, TypeError, ValueError):
                outcome.wrong = True  # a result the gate cannot read is a wrong output
        return outcome

    # -- gates: values the benchmark computes without the library ----------

    def check_structural_report(self, q, g, d):
        n, m = order_size(q, g)
        classes = d["degree_classes"]
        trees = d["spanning_trees"]
        if "digits" in trees:
            trees_ok = trees_digits_match(q, g, trees["digits"])
        else:
            trees_ok = math.isclose(trees["log10"], trees_log10(q, g), rel_tol=1e-12, abs_tol=1e-9)
        return (
            (d["q"], d["g"], d["order"], d["size"]) == (q, g, str(n), str(m))
            and sum(int(c["count"]) for c in classes) == n
            and sum(c["degree"] * int(c["count"]) for c in classes) == 2 * m
            and fraction(d["average_degree"]) == Fraction(2 * m, n)
            and fraction(d["average_distance"]) == Fraction(int(d["total_distance"]), n * (n - 1) // 2)
            and fraction(d["kirchhoff"]) == kirchhoff_reciprocal_sum(q, g)
            and trees_ok
        )

    def check_spanning_trees_spectral(self, q, g, count):
        if not math.isclose(count.log10, trees_log10(q, g), rel_tol=1e-12, abs_tol=1e-9):
            return False
        return count.value is None or all(
            count.value % mod == trees_mod(q, g, mod) for mod in CHECK_MODULI
        )

    def check_kirchhoff_spectral(self, q, g, value):
        closed = self.formulas.kirchhoff_closed(self.graphs.RcgParams(q, g))
        return value == closed == kirchhoff_reciprocal_sum(q, g)

    def check_laplacian_spectrum(self, q, g, spectrum):
        n, m = order_size(q, g)
        zeros = sum(mult for value, mult in spectrum.entries if abs(value) <= 1e-9)
        return zeros == 1 and spectrum_matches(spectrum, n, 2 * m)

    def check_adjacency_spectrum(self, q, g, spectrum):
        return spectrum_matches(spectrum, order_size(q, g)[0], 0)


WORKLOADS = {cls.name: cls for cls in (Explicit, Verify, Exact)}


def order_size(q, g):
    return q * (q + 1) ** g, q * ((q + 1) ** (g + 1) - 2) // 2


def fraction(d) -> Fraction:
    return Fraction(int(d["num"]), int(d["den"]))


def trees_exponent(q, g):
    """Spanning trees of C_q(g) = q^(q-2) * (q+1)^trees_exponent."""
    return (q - 1) * ((q + 1) ** g - 1)


def trees_log10(q, g) -> float:
    return (q - 2) * math.log10(q) + trees_exponent(q, g) * math.log10(q + 1)


def trees_mod(q, g, mod) -> int:
    return pow(q, q - 2, mod) * pow(q + 1, trees_exponent(q, g), mod) % mod


def trees_digits_match(q, g, digits: str) -> bool:
    """Last 18 digits exactly, leading 16 digits and length via log10."""
    head = min(len(digits), 16)
    log10 = math.log10(int(digits[:head])) + len(digits) - head
    return int(digits[-18:]) == trees_mod(q, g, 10**18) and math.isclose(
        log10, trees_log10(q, g), rel_tol=1e-12, abs_tol=1e-9
    )


def kirchhoff_reciprocal_sum(q, g) -> Fraction:
    """Kirchhoff index N * sum(1/lambda) over nonzero Laplacian eigenvalues.

    Vieta on each child pair gives 1/l+ + 1/l- = 1 + (q+1)/l for a nonzero
    parent l; the zero parent spawns q+1, as do the m_g structural
    eigenvalues, so R_g = (N_{g-1} - 1) + (q+1) R_{g-1} + (1 + m_g)/(q+1)
    with R_0 = (q-1)/q.  This route is independent of the library's
    closed form and of its big-integer cofactor sum.
    """
    r, n = Fraction(q - 1, q), q
    for step in range(1, g + 1):
        m_step = (q - 1) * q * (q + 1) ** (step - 1)
        r = (n - 1) + (q + 1) * r + Fraction(1 + m_step, q + 1)
        n *= q + 1
    return n * r


def spectrum_matches(spectrum, n, trace) -> bool:
    """Multiplicities sum to N and the eigenvalues sum to the trace."""
    total = sum(mult for _, mult in spectrum.entries)
    weight = sum(abs(value) * mult for value, mult in spectrum.entries)
    moment = sum(value * mult for value, mult in spectrum.entries)
    return total == n and abs(moment - trace) <= 1e-9 * weight
