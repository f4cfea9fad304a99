"""dqkin benchmark: one command, four seeded workloads.

    python3 bench/run.py --workload dyads --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; dqkin is imported from ``src/``
of that checkout and nowhere else.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it gives attempted, failed
and wrong counts and the median of every operation kind.  See
``bench/README.md`` for the workloads and metrics.
"""

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

import checks  # noqa: E402
import decks  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5
PROBE_REPEATS = 7
PROBE_READY = b"ready\n"


def load_dqkin(with_cli=False):
    """Import dqkin from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "dqkin", "__init__.py")):
        sys.exit("bench: no dqkin sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import dqkin
    import dqkin.errors  # noqa: F401
    if with_cli:
        import dqkin.cli  # noqa: F401
    if os.path.dirname(os.path.abspath(dqkin.__file__)) != os.path.join(SRC, "dqkin"):
        sys.exit("bench: dqkin imported from %s, not from %s" % (dqkin.__file__, SRC))
    return dqkin


def set_up(workload, seed, workdir):
    """Build the seeded inputs; return (deck, op, check, cli runner or None)."""
    if workload == "cli":
        if not os.path.isfile(os.path.join(SRC, "dqkin", "cli.py")):
            sys.exit("bench: no dqkin sources under %s" % SRC)
        deck = decks.cli(seed, workdir)
        runner = W.CliRunner(SRC, workdir)
        # untimed: warms the page cache and the bytecode cache
        runner(next(item for item in deck if item.kind == "example2"))
        return deck, runner, checks.cli, runner
    dq = load_dqkin()
    deck = getattr(decks, workload)(dq, seed)
    return deck, W.in_process_op(dq), checks.check, None


def setup_probe(workload, seed):
    """Child side of setup_s: set up, say so, exit."""
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        set_up(workload, seed, workdir)
        sys.stdout.buffer.write(PROBE_READY)
        sys.stdout.flush()
    finally:
        shutil.rmtree(workdir)


def spawn_until_ready(clock, argv, env=None):
    """Scaled seconds from spawning argv until it prints its first line (or
    exits), and that line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    with proc.stdout:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.wait() != 0:
        sys.exit("bench: %s exited with %d" % (" ".join(argv), proc.returncode))
    # scaled once the child is gone, so its exit does not slow the reference
    return clock.scaled(elapsed), line


class SetupProbes:
    """setup_s: seconds from starting a fresh process to its first operation
    being ready.  One probe runs between passes, so the probes sample the
    whole run; ``finish`` runs the rest and returns their median."""

    def __init__(self, workload, seed):
        self.argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                     "--workload", workload, "--seed", str(seed)]
        self.times = []
        self.clock = W.start_clock()

    def probe(self):
        if len(self.times) < SETUP_REPEATS:
            elapsed, line = spawn_until_ready(self.clock, self.argv)
            if line != PROBE_READY:
                sys.exit("bench: setup probe did not get ready")
            self.times.append(elapsed)

    def finish(self):
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return median(self.times)


def interpreter_probes():
    """Median ms of a bare interpreter start, and of importing dqkin.cli on top."""
    env = dict(os.environ, PYTHONPATH=SRC)
    clock = W.start_clock()
    bare = [spawn_until_ready(clock, [sys.executable, "-c", "pass"], env)[0]
            for _ in range(PROBE_REPEATS)]
    imp = [spawn_until_ready(clock, [sys.executable, "-c", "import dqkin.cli"], env)[0]
           for _ in range(PROBE_REPEATS)]
    return median(bare) * 1e3, (median(imp) - median(bare)) * 1e3


# --- metrics ---------------------------------------------------------------

def slot_values(workload, fn):
    """Each latency metric: the mean over its kinds of fn(kind)."""
    return {slot: sum(fn(k) for k in kinds) / len(kinds)
            for slot, kinds in W.SLOTS[workload].items()}


def tail(samples):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it; the
    median when there are fewer than forty samples."""
    s = sorted(samples)
    n = len(s)
    for q in (99, 95, 90, 75):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return s[rank - 1]
    return median(s)


def end_to_end(workload, tally, setup_s, rss_mb):
    m = {"setup_s": (setup_s, "s"),
         "ops_per_s": (tally.n_correct / tally.passes / tally.typical_pass(), "1/s"),
         "peak_rss_mb": (rss_mb, "MB")}
    for slot, v in slot_values(workload, lambda k: median(tally.typical(k))).items():
        m[slot] = (v * 1e3, "ms")
    return m


class InProcessCli:
    """``dqkin.cli.main(argv)`` in this process, output captured like a child's."""

    def __init__(self, dq, first_stdout):
        self.dq = dq
        self.first = first_stdout

    def __call__(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.dq.cli.main(list(item.args))
        data = out.getvalue().encode()
        return code, data, err.getvalue().encode(), self.first.get(item.args, data)


def per_layer(workload, seed, seconds, deck, op, check, runner):
    dq = load_dqkin(with_cli=True)
    plain = W.run_passes(deck, op, check, seconds, clock=W.start_clock() if runner else None)
    m = {}
    for slot, v in slot_values(workload, lambda k: tail(plain.samples(k))).items():
        m[slot + "_tail"] = (v * 1e3, "ms")
        m[slot + "_n"] = (min(len(plain.samples(k)) for k in W.SLOTS[workload][slot]), "count")
    m["cli.interpreter_ms"], m["cli.import_ms"] = ((v, "ms") for v in interpreter_probes())

    if runner is not None:
        # the traced pass runs main(argv) in process; time it untraced first
        op = InProcessCli(dq, runner.first_stdout)
        base = W.run_passes(deck, op, check, 0, min_passes=3)
        light = [median(base.typical(k)) for k in decks.LIGHT]
        m["cli.main_ms"] = (sum(light) / len(light) * 1e3, "ms")
    else:
        base = plain
        m["cli.main_ms"] = (0.0, "ms")
    base_per_op = base.busy / base.n_attempted

    tracer = Tracer(dq)
    tracer.install()
    try:
        traced = W.run_passes(deck, tracer.wrap_op(op), check, 0)
    finally:
        tracer.uninstall()
    n = traced.n_attempted
    scale = sum(traced.clock.scales) / len(traced.clock.scales)
    m["trace.overhead_ms"] = ((traced.busy / n - base_per_op) * 1e3, "ms")
    m["trace.spans"] = (len(tracer.spans) / n, "count")
    m.update(layer_metrics(tracer, n, scale))
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "spans-%s-seed%d.jsonl" % (workload, seed)))
    return plain, traced, m


def layer_metrics(tr, n, scale):
    """Per-operation counts and (reference-scaled) self times of each layer."""
    s = tr.summary()
    calls = lambda name: s.get(name, (0,))[0] / n
    ms = lambda secs: (secs * scale * 1e3 / n, "ms")
    count = lambda v: (v, "count")

    def self_ms(pred):
        return ms(sum(v[2] for name, v in s.items() if pred(name)))

    layer = lambda L: self_ms(lambda name: name.split(".")[0] == L)
    factors = s.get("transforms.factor_transform", (0,))[0]
    cycles = s.get("quadrecon.run_cycle", (0,))[0]
    m = {
        "scalars.exact_ops": count(tr.counts["exact_ops"] / n),
        "scalars.float_ops": count(tr.counts["float_ops"] / n),
        "quaternions.dq_products": count(tr.counts["dq_products"] / n),
        "linalg.rref_calls": count(calls("linalg.rref")),
        "linalg.det_calls": count(calls("linalg.det")),
        "linalg.nullspace_calls": count(calls("linalg.nullspace")),
        "polys.gcd_calls": count(calls("polys.poly_gcd")),
        "polys.root_calls": count(calls("polys.low_degree_roots")),
        "polys.durand_kerner_calls": count(calls("polys.durand_kerner")),
        "projgeom.join_calls": count(calls("projgeom.join")),
        "projgeom.meet_calls": count(calls("projgeom.meet")),
        "projgeom.projection_calls": count(calls("projgeom.project_from_center")),
        "quadrics.common_lines_calls": count(calls("quadrics.common_lines")),
        "quadrics.common_lines_ms": ms(s.get("quadrics.common_lines", (0, 0.0))[1]),
        "quadrics.float_tier_calls": count(calls("quadrics._float_member_grams")),
        "quadrics.approx_lines": count(tr.counts["approx_lines"] / n),
        "transforms.verify_per_factor": count(
            tr.calls_under("transforms.verify_admissible", "transforms.factor_transform")
            / factors if factors else 0.0),
        "quadrecon.joins_per_cycle": count(
            tr.calls_under("projgeom.join", "quadrecon.run_cycle", site="quadrecon")
            / cycles if cycles else 0.0),
        "motions.trajectory_calls": count(calls("motions.trajectory")),
        "jsonio.parse_ms": self_ms(lambda name: name.startswith("jsonio.parse")),
        "jsonio.encode_ms": self_ms(lambda name: name.startswith("jsonio.")
                                    and not name.startswith("jsonio.parse")),
    }
    for L in ("quaternions", "linalg", "polys", "projgeom", "quadrics", "transforms",
              "quadrecon", "motions", "dyads"):
        m[L + ".self_ms"] = layer(L)
    return m


# --- main ------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # one CPU for this process and every child, so the reference computation
    # runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        if args.trace:
            deck, op, check, runner = set_up(args.workload, args.seed, workdir)
            tally, traced, metrics = per_layer(args.workload, args.seed, args.seconds,
                                               deck, op, check, runner)
            wrong = {k: v[0] for k, v in list(tally.wrong.items()) + list(traced.wrong.items())}
        else:
            probes = SetupProbes(args.workload, args.seed)
            probes.probe()
            deck, op, check, runner = set_up(args.workload, args.seed, workdir)
            tally = W.run_passes(deck, op, check, args.seconds, after_pass=probes.probe,
                                 clock=W.start_clock() if runner else None)
            metrics = end_to_end(args.workload, tally, probes.finish(), W.peak_rss_mb(runner))
            wrong = {k: v[0] for k, v in tally.wrong.items()}
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": tally.passes,
                      "kinds": tally.kinds(), "wrong": wrong}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": tally.n_attempted,
        "failed": tally.n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
