"""Seeded benchmark of sft-tensor: time to verdict, compile and simulate,
and each layer's self time.

One workload per run, in one process on one thread, as a closed loop: each
instance's pipeline runs through ``sft_tensor.cli.main`` in-process (stdout
captured) on files written during set-up, and the next op starts when the
previous one has finished and been checked.  The Boolean fast path has no
CLI verb and is called as ``sft_tensor.sft.boolean_fastpath``.

    python3 bench/run.py --workload dense-decide --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 38
    python3 -m pytest bench -q

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs each op untraced and then traced, and reports per-layer
self times and counts from the traced runs, plus the tracing overhead.
Times are reported at a reference speed of the shared host (see
``HostSpeed``); each metric line also prints the time as measured.
``--all`` runs every workload both ways, each in its own process, and
prints one row per workload.  Every run prints ``metric <name> <value>
<unit>`` lines and, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See METRICS.md for what each metric means and
which workload should move it.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = tuple(corpus.GENERATORS)
# Timed set-ups per run, one after another before the ops.  A set-up is
# generating the corpus; writing its files is done once and not timed, as
# writing the same 105 files took anywhere from 4 to 75 ms with the state
# of the file system, which no change to the program can move.
SETUP_REPEATS = 11
WARMUP_OPS = 3
# The shared machine's speed swings by 20-50% for seconds to minutes at a
# time, alike for the program and for any other Python code.  So the run
# times corpus.speed_probe() every PROBE_EVERY_S between ops, and reports
# each time in seconds at the speed at which the probe takes PROBE_REF_S:
# measured seconds * PROBE_REF_S / the median probe within PROBE_WINDOW_S.
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 1.0
PROBE_REF_S = 0.005
OP_LIMIT_S = 20.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "decide_s.p50": "s",
    "decide_s.p90": "s",
    "simulate_s.p50": "s",
    "compile_s.p50": "s",
    "decide_vs_simulate": "ratio",
    "peak_rss_mb": "MB",
}

# Span name -> the module attributes where callers look the layer's public
# functions up.  The benchmark itself is the caller of cli.main,
# formula.parse_formula, sft.SftInstance and sft.boolean_fastpath.
SPAN_POINTS = {
    "cli": [("cli", "main")],
    "formula.parse": [("cli", "parse_formula"), ("circuit", "parse_formula"), ("formula", "parse_formula")],
    "formula.render": [("cli", "render_formula"), ("circuit", "render_formula")],
    "formula.evaluate": [("cli", "evaluate"), ("sft", "evaluate")],
    "formula.check_osl": [("cli", "check_osl"), ("sft", "check_osl"), ("backward_compiler", "check_osl")],
    "sft.instance": [("cli", "SftInstance"), ("sft", "SftInstance")],
    "sft.decide": [("cli", "decide_sft"), ("sft", "decide_sft")],
    "sft.fastpath": [("sft", "boolean_fastpath")],
    "circuit.parse": [("cli", "parse_gate_array")],
    "circuit.render": [("cli", "render_gate_array")],
    "circuit.simulate": [("cli", "simulate")],
    "forward_compiler.compile": [("cli", "compile_array_to_formula"), ("cli", "input_vector_formula")],
    "backward_compiler.pad": [("backward_compiler", "pad_formula"), ("sft", "pad_formula")],
    "backward_compiler.to_array": [("cli", "formula_to_array"), ("sft", "formula_to_array")],
}

# Per-layer metric -> (unit, span it depends on).  Counts are read from the
# texts the program printed or was given, so they hold whatever the code
# inside the layers looks like; they still need the span, since a layer
# whose calls are no longer seen cannot be attributed.
PER_LAYER = {
    "formula.evaluate_s": ("s", "formula.evaluate"),
    "formula.evaluate_calls": ("count", "formula.evaluate"),
    "formula.parse_s": ("s", "formula.parse"),
    "formula.render_s": ("s", "formula.render"),
    "formula.check_osl_s": ("s", "formula.check_osl"),
    "sft.instance_s": ("s", "sft.instance"),
    "sft.decide_s": ("s", "sft.decide"),
    "sft.fastpath_s": ("s", "sft.fastpath"),
    "circuit.parse_s": ("s", "circuit.parse"),
    "circuit.render_s": ("s", "circuit.render"),
    "circuit.simulate_s": ("s", "circuit.simulate"),
    "circuit.simulated_gate_amps": ("count", "circuit.simulate"),
    "forward_compiler.compile_s": ("s", "forward_compiler.compile"),
    "forward_compiler.formula_nodes": ("count", "forward_compiler.compile"),
    "backward_compiler.pad_s": ("s", "backward_compiler.pad"),
    "backward_compiler.to_array_s": ("s", "backward_compiler.to_array"),
    "backward_compiler.gates": ("count", "backward_compiler.to_array"),
    "backward_compiler.levels": ("count", "backward_compiler.to_array"),
    "backward_compiler.gates_per_input_gate": ("ratio", "backward_compiler.to_array"),
    "backward_compiler.identity_gate_frac": ("ratio", "backward_compiler.to_array"),
    "cli.self_s": ("s", "cli"),
    "trace.overhead_frac": ("ratio", None),
}

UNREACHED = (
    "missing linalg, semiring: no call boundary reachable from outside on these"
    " paths; their time is inside formula.evaluate_s, formula.check_osl_s and"
    " circuit.simulate_s"
)


class Failure(Exception):
    """An op that did not produce the right answer; kind is one of wrong,
    mismatch, exit, exception or timeout."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


class OpTimeout(Exception):
    pass


# ---------------------------------------------------------------------------
# Loading the package from the checkout


def load_package():
    """The sft_tensor modules from ROOT/src, or None if they are not there."""
    if not (SRC / "sft_tensor" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    names = ("cli", "formula", "sft", "circuit", "forward_compiler", "backward_compiler", "semiring")
    mods = {n: importlib.import_module(f"sft_tensor.{n}") for n in names}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "sft_tensor":
        return None
    return mods


# ---------------------------------------------------------------------------
# Running verbs


class Stage:
    __slots__ = ("code", "out", "err", "seconds")

    def __init__(self, code, out, err, seconds):
        self.code, self.out, self.err, self.seconds = code, out, err, seconds


def call_cli(pkg, argv) -> Stage:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = pkg["cli"].main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return Stage(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def op_dense_decide(pkg, inst, work: Path) -> dict:
    s, k = inst["semiring"], str(inst["k"])
    circuit = str(work / inst["name"])
    formula = work / (inst["name"] + ".formula")
    outs = {"compile-circuit": call_cli(pkg, ["compile-circuit", "--semiring", s, circuit])}
    _write(formula, outs["compile-circuit"].out)
    outs["sft"] = call_cli(pkg, ["sft", "--k", k, "--semiring", s, str(formula)])
    outs["simulate"] = call_cli(pkg, ["simulate", "--k", k, "--semiring", s, circuit])
    return outs


def op_perm_roundtrip(pkg, inst, work: Path) -> dict:
    s, k = inst["semiring"], str(inst["k"])
    circuit = str(work / inst["name"])
    formula = work / (inst["name"] + ".formula")
    roundtrip = work / (inst["name"] + ".rt.circuit")
    outs = {"compile-circuit": call_cli(pkg, ["compile-circuit", "--semiring", s, circuit])}
    text = outs["compile-circuit"].out
    _write(formula, text)
    outs["sft"] = call_cli(pkg, ["sft", "--k", k, "--semiring", s, str(formula)])
    sft, tag = pkg["sft"], pkg["semiring"].Tag.BOOLEAN
    instance = sft.SftInstance(pkg["formula"].parse_formula(text, tag), k=inst["k"])
    start = time.perf_counter()
    verdict = sft.boolean_fastpath(instance)
    outs["fastpath"] = Stage(0, "accept" if verdict.accept else "reject", "", time.perf_counter() - start)
    outs["compile-formula"] = call_cli(pkg, ["compile-formula", "--semiring", s, str(formula)])
    _write(roundtrip, outs["compile-formula"].out)
    outs["simulate"] = call_cli(pkg, ["simulate", "--k", k, "--semiring", s, circuit])
    outs["simulate-roundtrip"] = call_cli(pkg, ["simulate", "--semiring", s, str(roundtrip)])
    return outs


def op_osl_small(pkg, inst, work: Path) -> dict:
    s = inst["semiring"]
    formula = str(work / inst["name"])
    roundtrip = work / (inst["name"] + ".rt.circuit")
    outs = {
        "validate": call_cli(pkg, ["validate", "--require-osl", "--semiring", s, formula]),
        "eval": call_cli(pkg, ["eval", "--semiring", s, formula]),
        "sft": call_cli(pkg, ["sft", "--k", str(inst["k"]), "--semiring", s, formula]),
        "compile-formula": call_cli(pkg, ["compile-formula", "--semiring", s, formula]),
    }
    _write(roundtrip, outs["compile-formula"].out)
    outs["simulate"] = call_cli(pkg, ["simulate", "--semiring", s, str(roundtrip)])
    return outs


# ---------------------------------------------------------------------------
# Checking outputs.  Each route's answer is compared with an independent
# one: the evaluator against the simulator, the round-trip array against
# the original, the fast path against the full decision, and values the
# benchmark works out itself with fractions.Fraction.


def parse_entry(token: str) -> tuple:
    """A rendered scalar as an (re, im) pair of Fractions."""
    m = re.fullmatch(r"(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)i)?|(-?\d+(?:/\d+)?)i", token)
    if m is None:
        raise Failure("wrong", f"unreadable scalar {token!r}")
    if m.group(4) is not None:
        return Fraction(0), Fraction(m.group(4))
    im = Fraction(m.group(3)) if m.group(3) else Fraction(0)
    return Fraction(m.group(1)), -im if m.group(2) == "-" else im


def parse_column(text: str) -> list:
    rows = re.findall(r"\[([^\[\]]*)\]", text)
    if not rows or any(len(r.split()) != 1 for r in rows):
        raise Failure("wrong", f"not a column: {text[:60]!r}")
    return [parse_entry(r.strip()) for r in rows]


def field(stage: Stage, key: str) -> str:
    for line in stage.out.splitlines():
        head, _, rest = line.partition(" ")
        if head == key:
            return rest
    raise Failure("wrong", f"no {key!r} line in output {stage.out[:80]!r}")


def expect_code(outs: dict, verb: str, codes=(0,)):
    stage = outs[verb]
    if stage.code not in codes:
        raise Failure("exit", f"{verb} exited {stage.code}: {stage.err.strip()[:200]}")


def sft_answer(outs: dict) -> tuple:
    """(value, accept) from the sft verb, checked for self-consistency."""
    expect_code(outs, "sft", (0, 1))
    value = parse_entry(field(outs["sft"], "value"))
    accept = field(outs["sft"], "verdict") == "accept"
    if accept != (outs["sft"].code == 0) or accept != (value[0] > Fraction(1, 2)):
        raise Failure("wrong", f"sft verdict {accept} disagrees with value {value} or exit code")
    return value, accept


def output_column(stage: Stage) -> list:
    """The simulated output state as a list of (re, im) amplitudes."""
    amps = [line for line in stage.out.splitlines() if line.startswith("output amps ")]
    if amps:
        return parse_column(amps[0][len("output amps "):])
    bits = field(stage, "output").split()[-1]
    hit = int(bits, 2)
    return [(Fraction(int(i == hit)), Fraction(0)) for i in range(1 << len(bits))]


def check_dense_decide(inst, outs):
    expect_code(outs, "compile-circuit")
    expect_code(outs, "simulate")
    value, _ = sft_answer(outs)
    probability = parse_entry(field(outs["simulate"], "probability"))
    if value != probability:
        raise Failure("mismatch", f"sft value {value[0]} != simulated probability {probability[0]}")


def check_perm_roundtrip(inst, outs):
    for verb in ("compile-circuit", "compile-formula", "simulate", "simulate-roundtrip"):
        expect_code(outs, verb)
    _, accept = sft_answer(outs)
    bits = field(outs["simulate"], "output").split()
    if bits != ["basis", inst["output_bits"]]:
        raise Failure("wrong", f"simulated output {bits} != expected {inst['output_bits']}")
    nonzero = parse_entry(field(outs["simulate"], "probability")) != (0, 0)
    fast = outs["fastpath"].out == "accept"
    if not accept == fast == nonzero:
        raise Failure("mismatch", f"sft {accept}, fast path {fast}, probability nonzero {nonzero}")
    roundtrip = field(outs["simulate-roundtrip"], "output").split()
    if roundtrip != bits:
        raise Failure("mismatch", f"round-trip output {roundtrip} != original {bits}")


def check_osl_small(inst, outs):
    for verb in ("validate", "eval", "compile-formula", "simulate"):
        expect_code(outs, verb)
    if field(outs["validate"], "osl") != "yes" or field(outs["validate"], "order") != f"{inst['rows']}x1":
        raise Failure("wrong", f"validate says {outs['validate'].out!r}")
    column = parse_column(outs["eval"].out)
    if len(column) != inst["rows"]:
        raise Failure("wrong", f"eval gave {len(column)} rows, expected {inst['rows']}")
    simulated = output_column(outs["simulate"])
    if simulated[: len(column)] != column:
        raise Failure("mismatch", "eval column != leading block of the simulated output")
    value, _ = sft_answer(outs)
    mass = sum(re * re + im * im for re, im in column[len(column) - inst["k"]:])
    if value != (mass, 0):
        raise Failure("mismatch", f"sft value {value[0]} != trailing-window mass {mass}")


OPS = {
    "dense-decide": (op_dense_decide, check_dense_decide),
    "perm-roundtrip": (op_perm_roundtrip, check_perm_roundtrip),
    "osl-small": (op_osl_small, check_osl_small),
}

COMPILE_VERBS = ("compile-circuit", "compile-formula")


# ---------------------------------------------------------------------------
# Counts for the traced run, read from texts


def _identity_spec(k: int) -> str:
    n = 1 << k
    return "[%s]" % "".join("[%s]" % " ".join("1" if r == c else "0" for c in range(n)) for r in range(n))


IDENTITY_SPECS = {_identity_spec(k) for k in (1, 2, 3)}


def array_counts(text: str) -> dict:
    width, gates, levels, identity = 0, 0, 0, 0
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head == "width":
            width = int(rest)
        elif head == "level":
            levels += 1
        elif head == "gate":
            gates += 1
            identity += rest.rpartition("]")[0] + "]" in IDENTITY_SPECS
    return {"width": width, "gates": gates, "levels": levels, "identity": identity}


def layer_counts(workload, inst, outs) -> dict:
    """Counts of one checked op, read from the texts the program was given
    or printed: the arrays it simulated, its formula and round-trip array."""
    roundtrip = outs["compile-formula"].out if "compile-formula" in outs else None
    simulated = [roundtrip] if workload == "osl-small" else [inst["text"]]
    if workload == "perm-roundtrip":
        simulated.append(roundtrip)
    counts = {
        "circuit.simulated_gate_amps": sum(
            c["gates"] << c["width"] for c in map(array_counts, simulated)
        )
    }
    if "compile-circuit" in outs:
        # A rendered formula has one '(' per binary node.
        counts["forward_compiler.formula_nodes"] = 2 * outs["compile-circuit"].out.count("(") + 1
    if roundtrip is not None:
        rt = array_counts(roundtrip)
        counts["backward_compiler.gates"] = rt["gates"]
        counts["backward_compiler.levels"] = rt["levels"]
        counts["backward_compiler.identity_gates"] = rt["identity"]
        counts["backward_compiler.input_gates"] = inst["input_gates"]
    return counts


# ---------------------------------------------------------------------------
# Measuring


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(pkg, workload, inst, work, limit=OP_LIMIT_S):
    """(outs, seconds, failure): seconds is the time spent in the program,
    failure is None or a Failure."""
    op, check = OPS[workload]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    outs, seconds, failure = None, None, None
    try:
        outs = op(pkg, inst, work)
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        check(inst, outs)
    except OpTimeout:
        failure = Failure("timeout", f"over the {limit:g} s per-op limit")
    except Failure as exc:
        failure = exc
    except Exception as exc:  # an op must be counted, never lost
        failure = Failure("exception", f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if seconds is None:
        seconds = time.perf_counter() - start
    return outs, seconds, failure


class Tally:
    """Per-op timings and failures over a run.  samples maps an instance's
    name to one {stage: seconds} row per successful run of it; busy is the
    time spent in the program."""

    def __init__(self):
        self.samples: dict = {}
        self.failures: list = []
        self.attempted = 0
        self.busy = 0.0

    def record(self, name, outs, seconds, failure):
        self.attempted += 1
        self.busy += seconds
        if failure is not None:
            self.failures.append((name, failure))
            return
        row = {
            "op_s": seconds,
            "decide_s": outs["sft"].seconds,
            "simulate_s": outs["simulate"].seconds,
            "compile_s": sum(outs[v].seconds for v in COMPILE_VERBS if v in outs),
        }
        if "fastpath" in outs:
            row["fastpath_s"] = outs["fastpath"].seconds
        row["at"] = time.perf_counter() - seconds / 2
        self.samples.setdefault(name, []).append(row)

    def per_instance(self, key, speed=None) -> list:
        """Each instance's mean of key over its runs, each run's time times
        the host's speed factor at that moment if speed is given."""
        return [
            statistics.fmean(row[key] * (speed.factor(row["at"]) if speed else 1) for row in rows)
            for rows in self.samples.values()
            if key in rows[0]
        ]


class HostSpeed:
    """Times of corpus.speed_probe() over a run, and the factor that turns
    a time measured at a moment into one at the reference speed."""

    def __init__(self):
        self.at: list = []
        self.seconds: list = []

    def probe(self):
        """Time the probe once, with the collector off so the program's
        heap does not slow it."""
        gc.disable()
        try:
            start = time.perf_counter()
            corpus.speed_probe()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.at.append((start + end) / 2)
        self.seconds.append(end - start)

    def factor(self, at=None) -> float:
        """PROBE_REF_S over the median probe within PROBE_WINDOW_S of at
        (the nearest probe if none is), or over the run's median probe."""
        if at is None:
            return PROBE_REF_S / statistics.median(self.seconds)
        lo = bisect.bisect_left(self.at, at - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, at + PROBE_WINDOW_S)
        if lo == hi:
            lo = min(range(len(self.at)), key=lambda i: abs(self.at[i] - at))
            hi = lo + 1
        return PROBE_REF_S / statistics.median(self.seconds[lo:hi])


class Layers:
    """What the traced ops of a run saw: self times and calls per span,
    summed over the ops, and each instance's counts, read once."""

    def __init__(self, pkg):
        self.tracer = tracing.Tracer()
        self.points = [
            (span, pkg[mod], attr) for span, where in SPAN_POINTS.items() for mod, attr in where
        ]
        self.self_times: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: dict = {}
        self.missing: dict = {}

    def run_op(self, pkg, workload, inst, work):
        self.tracer.reset()
        installed = tracing.Installed(self.tracer, self.points)
        try:
            outs, seconds, failure = run_op(pkg, workload, inst, work)
        finally:
            installed.restore()
        self.missing = installed.missing
        self.self_times.update(self.tracer.self_times())
        self.calls.update(self.tracer.calls())
        if failure is None and inst["name"] not in self.counts:
            self.counts[inst["name"]] = layer_counts(workload, inst, outs)
        return outs, seconds, failure


def measure(pkg, workload, insts, work, seconds, speed, layers=None):
    """Ops in corpus order, round and round, until `seconds` have gone by
    and at least one pass is complete, probing the host's speed every
    PROBE_EVERY_S; returns the untraced and traced tallies.  With
    `layers`, each op runs a second time, traced, right after its untraced
    run."""
    untraced, traced = Tally(), Tally()
    start = next_probe = time.perf_counter()
    done = 0
    while done < len(insts) or time.perf_counter() - start < seconds:
        inst = insts[done % len(insts)]
        untraced.record(inst["name"], *run_op(pkg, workload, inst, work))
        if layers is not None:
            traced.record(inst["name"], *layers.run_op(pkg, workload, inst, work))
        done += 1
        if time.perf_counter() >= next_probe:
            speed.probe()
            next_probe = time.perf_counter() + PROBE_EVERY_S
    speed.probe()
    return untraced, traced


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(tally: Tally, setups, speed=None) -> dict:
    """Median and p90 over the corpus of each instance's mean time, so
    every instance counts once however many runs of it fit; wall_s is one
    pass made of those means.  setups holds (moment, seconds) pairs.  With
    a HostSpeed, times are at its reference speed."""
    op, decide = tally.per_instance("op_s", speed), tally.per_instance("decide_s", speed)
    m = {
        "setup_s": statistics.median(t * (speed.factor(at) if speed else 1) for at, t in setups),
        "wall_s": math.fsum(op),
        "op_s.p50": statistics.median(op),
        "op_s.p90": p90(op),
        "decide_s.p50": statistics.median(decide),
        "decide_s.p90": p90(decide),
        "simulate_s.p50": statistics.median(tally.per_instance("simulate_s", speed)),
        "compile_s.p50": statistics.median(tally.per_instance("compile_s", speed)),
    }
    m["decide_vs_simulate"] = m["decide_s.p50"] / m["simulate_s.p50"]
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fastpath = tally.per_instance("fastpath_s", speed)
    if fastpath:
        m["fastpath_s.p50"] = statistics.median(fastpath)
    return m


def per_layer(layers: Layers, per_pass: float, overhead: float) -> dict:
    """Self times and calls scaled to one pass (per_pass is the corpus size
    over the number of traced ops), counts summed over the corpus; the
    metrics of missing spans are left out."""
    st = {span: t * per_pass for span, t in layers.self_times.items()}
    c = Counter()
    for counts in layers.counts.values():
        c.update(counts)
    gates = c["backward_compiler.gates"]
    inputs = c["backward_compiler.input_gates"]
    m = {
        "formula.evaluate_s": st.get("formula.evaluate", 0.0),
        "formula.evaluate_calls": layers.calls["formula.evaluate"] * per_pass,
        "formula.parse_s": st.get("formula.parse", 0.0),
        "formula.render_s": st.get("formula.render", 0.0),
        "formula.check_osl_s": st.get("formula.check_osl", 0.0),
        "sft.instance_s": st.get("sft.instance", 0.0),
        "sft.decide_s": st.get("sft.decide", 0.0),
        "sft.fastpath_s": st.get("sft.fastpath", 0.0),
        "circuit.parse_s": st.get("circuit.parse", 0.0),
        "circuit.render_s": st.get("circuit.render", 0.0),
        "circuit.simulate_s": st.get("circuit.simulate", 0.0),
        "circuit.simulated_gate_amps": c["circuit.simulated_gate_amps"],
        "forward_compiler.compile_s": st.get("forward_compiler.compile", 0.0),
        "forward_compiler.formula_nodes": c["forward_compiler.formula_nodes"],
        "backward_compiler.pad_s": st.get("backward_compiler.pad", 0.0),
        "backward_compiler.to_array_s": st.get("backward_compiler.to_array", 0.0),
        "backward_compiler.gates": gates,
        "backward_compiler.levels": c["backward_compiler.levels"],
        "backward_compiler.gates_per_input_gate": gates / inputs if inputs else 0.0,
        "backward_compiler.identity_gate_frac": (
            c["backward_compiler.identity_gates"] / gates if gates else 0.0
        ),
        "cli.self_s": st.get("cli", 0.0),
        "trace.overhead_frac": overhead,
    }
    for name, (_, span) in PER_LAYER.items():
        if span in layers.missing:
            del m[name]
    return m


# ---------------------------------------------------------------------------
# One run


def set_up(workload, seed, speed: HostSpeed) -> tuple:
    """Generate the corpus SETUP_REPEATS times, probing the host's speed
    around each; returns the corpus and (moment, seconds) of each."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        start = time.perf_counter()
        insts = corpus.generate(workload, seed)
        end = time.perf_counter()
        times.append(((start + end) / 2, end - start))
    speed.probe()
    return insts, times


def run(workload, seed, seconds, trace) -> tuple:
    """(end-to-end or per-layer metrics, attempted, failed, extra lines)."""
    pkg = load_package()
    if pkg is None:
        raise SystemExit(f"error: no sft_tensor package under {SRC}")
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    speed, lines = HostSpeed(), []
    insts, setups = set_up(workload, seed, speed)
    lines.append(f"corpus {workload} seed {seed} ops {len(insts)} sha256 {corpus.digest(insts)}")
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for inst in insts:
            _write(work / inst["name"], inst["text"])
        for inst in insts[:WARMUP_OPS]:
            run_op(pkg, workload, inst, work)
        layers = Layers(pkg) if trace else None
        untraced, traced = measure(pkg, workload, insts, work, seconds, speed, layers)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = untraced.attempted + traced.attempted
    failures = untraced.failures + traced.failures
    for name, failure in failures:
        lines.append(f"failed {name} {failure.kind} {failure.detail}")
    lines.append(f"metric failed_frac {len(failures) / attempted:.6g} ratio (failed {len(failures)} / attempted {attempted})")
    lines.append(
        f"ops untraced {untraced.attempted} traced {traced.attempted}"
        f" passes {untraced.attempted / len(insts):.2f} set-ups {len(setups)}"
    )
    lines.append(
        f"host probe median {statistics.median(speed.seconds):.6g} s of {len(speed.seconds)},"
        f" IQR {' - '.join(f'{q:.6g}' for q in statistics.quantiles(speed.seconds, n=4)[::2])} s;"
        f" times are reported at a probe of {PROBE_REF_S:g} s"
    )
    if not trace:
        try:
            metrics = end_to_end(untraced, setups, speed)
            measured = end_to_end(untraced, setups)
        except statistics.StatisticsError:  # too few ops succeeded to time
            metrics = measured = {}
        units = dict(END_TO_END, **{"fastpath_s.p50": "s"})
    else:
        # Per-layer sums are over many ops: they take the run's factor.
        measured = per_layer(layers, len(insts) / traced.attempted, traced.busy / untraced.busy - 1)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        metrics = {
            n: v * speed.factor() if units[n] == "s" else v for n, v in measured.items()
        }
        lines.append(UNREACHED)
        for span, where in sorted(layers.missing.items()):
            names = [n for n, (_, s) in PER_LAYER.items() if s == span]
            lines.append(f"missing {span} ({', '.join(where)} not found): {', '.join(names)}")
    reported = {name: (value, units[name]) for name, value in metrics.items()}
    for name, value in metrics.items():
        note = f" (measured {measured[name]:.6g} s)" if units[name] == "s" else ""
        lines.append(f"metric {name} {value:.6g} {units[name]}{note}")
    if "decide_vs_simulate" in metrics:
        lines.append(
            f"base decide_vs_simulate = decide_s.p50 {reported['decide_s.p50'][0]:.6g} s"
            f" / simulate_s.p50 {reported['simulate_s.p50'][0]:.6g} s"
        )
    if "backward_compiler.gates" in metrics:
        inputs = sum(c.get("backward_compiler.input_gates", 0) for c in layers.counts.values())
        lines.append(
            f"base backward_compiler.gates_per_input_gate = gates"
            f" {metrics['backward_compiler.gates']} / input gates {inputs}"
        )
    if not trace:
        reported = {n: reported[n] for n in END_TO_END if n in reported}
    return reported, attempted, len(failures), lines


# ---------------------------------------------------------------------------
# Command line


def run_all(seed, seconds):
    """Each workload untraced and traced, each in its own process."""
    table = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"error: {workload} --trace {trace} exited {proc.returncode}")
            row = table.setdefault(workload, {})
            for line in proc.stdout.splitlines():
                parts = line.split()
                if parts[:1] == ["metric"]:
                    row[parts[1]] = parts[2]
                elif parts[:1] == ["missing"]:
                    for name in line.partition(": ")[2].split(", "):
                        if name in PER_LAYER:
                            row[name] = "missing"
    for title, names in (
        ("end-to-end (tracing off)", [*END_TO_END, "fastpath_s.p50", "failed_frac"]),
        ("per layer (traced run)", list(PER_LAYER)),
    ):
        print(f"\n{title}")
        print("\t".join(["workload", *names]))
        for workload, row in table.items():
            print("\t".join([workload, *(row.get(n, "-") for n in names)]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        run_all(args.seed, args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload or --all is required")
    metrics, attempted, failed, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
