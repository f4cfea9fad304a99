"""The four workloads: how each deck item is run, and the pass loop.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned and been checked.  Operations look up
the library function at call time (``dq.dyads.classify``), so a traced
run sees the wrapped function and an untraced run the original.
"""

import gc
import os
import resource
import subprocess
import sys
import tempfile
import time
from statistics import median

import checks
import decks
from refclock import START_MS, RefClock, start_seconds

WORKLOADS = ("dyads", "frames", "cycles", "cli")

# The three latency metrics of each workload and the operation kinds each
# one reports: the mean of the kinds' per-call medians, so kinds of
# different cost are never pooled into one median.  Kinds left out count
# only in ops_per_s.
SLOTS = {
    "dyads": {"kind_a_ms": ("classify_2r",),
              "kind_b_ms": ("classify_rp", "classify_pr", "classify_chi"),
              "kind_c_ms": ("classify_c",)},
    "frames": {"kind_a_ms": ("verify",), "kind_b_ms": ("factor",),
               "kind_c_ms": ("verify_float",)},
    "cycles": {"kind_a_ms": ("run_cycle",), "kind_b_ms": ("reconstruct", "reconstruct_ebasis"),
               "kind_c_ms": ("trajectory_darboux", "trajectory_mannheim")},
    "cli": {"kind_a_ms": decks.LIGHT, "kind_b_ms": ("verify-transform", "classify"),
            "kind_c_ms": ("factor-transform", "reconstruct")},
}


def in_process_op(dq):
    """item -> result (or the DqkinError raised) for the in-process kinds."""
    def call(item):
        k, a = item.kind, item.args
        try:
            if k.startswith("classify"):
                return dq.dyads.classify(*a)
            if k.startswith("verify"):
                return dq.transforms.verify_admissible(*a)
            if k.startswith("factor"):
                return dq.transforms.factor_transform(*a)
            if k == "run_cycle":
                return dq.quadrecon.run_cycle(*a)
            if k.startswith("reconstruct"):
                return dq.quadrecon.reconstruct_quadrilateral(*a)
            if k.startswith("trajectory"):
                return dq.motions.trajectory(*a)
            if k == "invariants":
                (a_, b_, c_), mirror = a
                return dq.motions.darboux_invariants(a_, b_, c_, mirror=mirror)
        except dq.errors.DqkinError as err:
            return err
        raise ValueError("unknown kind %s" % k)
    return call


def start_clock():
    """The clock for operations that start a process."""
    return RefClock(start_seconds, START_MS / 1e3)


class CliRunner:
    """Runs ``python -m dqkin.cli`` one invocation at a time in workdir."""

    def __init__(self, src, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.peak_rss_kb = 0
        self.first_stdout = {}

    def __call__(self, item):
        with tempfile.TemporaryFile(dir=self.workdir) as err:
            proc = subprocess.Popen([sys.executable, "-m", "dqkin.cli", *item.args],
                                    cwd=self.workdir, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            # the checker compares each stdout with the first one for these args
            first = self.first_stdout.setdefault(item.args, out)
            return proc.returncode, out, err.read(), first


class Tally:
    """Per-item call times and per-kind outcomes over whole passes."""

    def __init__(self, deck, clock):
        self.deck = deck
        self.clock = clock
        self.times = [[] for _ in deck]
        self.attempted = {}
        self.failed = {}
        self.wrong = {}
        self.busy = 0.0
        self.passes = 0

    def add(self, index, seconds, verdict):
        kind = self.deck[index].kind
        self.times[index].append(seconds)
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        self.busy += seconds
        if verdict == checks.FAILED:
            self.failed[kind] = self.failed.get(kind, 0) + 1
        elif verdict is not checks.OK:
            self.wrong.setdefault(kind, []).append(verdict)

    @property
    def n_attempted(self):
        return sum(self.attempted.values())

    @property
    def n_failed(self):
        return sum(self.failed.values())

    @property
    def n_wrong(self):
        return sum(len(v) for v in self.wrong.values())

    @property
    def n_correct(self):
        return self.n_attempted - self.n_failed - self.n_wrong

    def samples(self, kind):
        return [t for item, ts in zip(self.deck, self.times) if item.kind == kind for t in ts]

    def typical(self, kind):
        """Each item's median call over the passes, for the items of one kind."""
        return [median(ts) for item, ts in zip(self.deck, self.times) if item.kind == kind]

    def typical_pass(self):
        """Seconds one pass takes at every item's median call."""
        return sum(median(ts) for ts in self.times)

    def kinds(self):
        return {k: {"attempted": n, "failed": self.failed.get(k, 0),
                    "wrong": len(self.wrong.get(k, ())),
                    "median_ms": median(self.samples(k)) * 1e3,
                    "item_median_ms": median(self.typical(k)) * 1e3}
                for k, n in sorted(self.attempted.items())}


def run_passes(deck, op, check, seconds, min_passes=1, after_pass=None, clock=None):
    """Run whole passes over the deck until ``seconds`` have gone by.

    Times are scaled to the reference speed by ``clock`` (``refclock``)."""
    tally = Tally(deck, clock or RefClock())
    ref = tally.clock
    t_end = time.perf_counter() + seconds
    while True:
        gc.collect()
        for index, item in enumerate(deck):
            res, dt = ref.time(op, item)
            tally.add(index, dt, check(item, res))
        tally.passes += 1
        if tally.passes >= min_passes and time.perf_counter() >= t_end:
            return tally
        if after_pass is not None:
            after_pass()


def peak_rss_mb(cli_runner=None):
    if cli_runner is not None:
        return cli_runner.peak_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
