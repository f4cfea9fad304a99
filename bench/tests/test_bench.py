"""Tests of the benchmark itself: tiny decks run to their end, and every
checker rejects a planted wrong answer.

    python3 -m pytest bench/tests
"""

import json
import types

import pytest

import checks
import decks
import exact as X
import run
import workloads as W

TINY = {
    "dyads": {"per_kind": 1},
    "frames": {"transforms": 1},
    "cycles": {"cycles": 1, "starts": 1, "problems": 1, "motions": 1, "points": 1},
}


@pytest.fixture(scope="module")
def dq():
    return run.load_dqkin(with_cli=True)


def tiny_deck(dq, workload, seed=3):
    return getattr(decks, workload)(dq, seed, TINY[workload])


@pytest.mark.parametrize("workload", ["dyads", "frames", "cycles"])
def test_in_process_workload_runs_clean(dq, workload):
    deck = tiny_deck(dq, workload)
    tally = W.run_passes(deck, W.in_process_op(dq), checks.check, 0, min_passes=2)
    assert tally.passes == 2 and not tally.wrong
    nonunit = 2 * len(decks.NONUNIT) if workload == "dyads" else 0
    assert tally.n_failed == nonunit
    assert tally.n_correct == tally.n_attempted - nonunit


def test_cli_workload_runs_clean(tmp_path):
    deck = decks.cli(5, str(tmp_path))
    runner = W.CliRunner(run.SRC, str(tmp_path))
    tally = W.run_passes(deck, runner, checks.cli, 0, min_passes=2)
    assert not tally.wrong and tally.n_failed == 0
    assert sorted(tally.attempted) == sorted(i.kind for i in deck)
    assert runner.peak_rss_kb > 0


def test_same_seed_same_deck(dq):
    a, b = tiny_deck(dq, "frames", 9), tiny_deck(dq, "frames", 9)
    assert [(i.kind, i.args[0]) for i in a] == [(i.kind, i.args[0]) for i in b]


def test_end_to_end_metrics_of_a_tiny_run(dq, monkeypatch, capsys):
    monkeypatch.setitem(decks.SIZES, "frames", TINY["frames"])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run.os, "sched_setaffinity", lambda pid, cpus: None)
    assert run.main(["--workload", "frames", "--seed", "2", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "peak_rss_mb",
                                      "kind_a_ms", "kind_b_ms", "kind_c_ms"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_counts_layer_work(dq):
    deck = tiny_deck(dq, "cycles")
    _, traced, m = run.per_layer("cycles", 3, 0, deck, W.in_process_op(dq),
                                 checks.check, None)
    assert not traced.wrong
    assert m["quadrecon.joins_per_cycle"][0] == 4
    assert m["motions.trajectory_calls"][0] > 0 and m["scalars.exact_ops"][0] > 0
    frames = tiny_deck(dq, "frames")
    _, _, m = run.per_layer("frames", 3, 0, frames, W.in_process_op(dq), checks.check, None)
    assert m["transforms.verify_per_factor"][0] == 1
    assert m["polys.gcd_calls"][0] == 0 and m["scalars.float_ops"][0] > 0


def test_tracer_restores_every_function(dq):
    from tracing import Tracer

    before = (dq.quadrecon.join, dq.linalg.rref, dq.projgeom.Subspace.__dict__["from_rows"],
              dq.scalars.ExactRational._mul)
    tracer = Tracer(dq)
    tracer.install()
    assert dq.quadrecon.join is not before[0]
    tracer.uninstall()
    after = (dq.quadrecon.join, dq.linalg.rref, dq.projgeom.Subspace.__dict__["from_rows"],
             dq.scalars.ExactRational._mul)
    assert after == before


# --- planted wrong answers ------------------------------------------------

def first(deck, kind):
    return next(i for i in deck if i.kind == kind)


def test_wrong_verdict_is_rejected(dq):
    item = first(tiny_deck(dq, "dyads"), "classify_rp")
    res = dq.dyads.classify(*item.args)
    assert checks.check(item, res) is checks.OK
    planted = types.SimpleNamespace(verdict=dq.dyads.Verdict.PR, evidence=res.evidence)
    assert "verdict" in checks.check(item, planted)


def test_nonunit_fault_counts_as_failed_but_a_wrong_kind_does_not(dq):
    item = first(tiny_deck(dq, "dyads"), "classify_nonunit")
    declined = types.SimpleNamespace(verdict=dq.dyads.Verdict.NotADyadSpace, evidence={})
    assert checks.check(item, declined) == checks.FAILED
    other = "C" if item.expect != "C" else "RP"
    wrong = types.SimpleNamespace(verdict=dq.dyads.Verdict(other), evidence={})
    assert checks.check(item, wrong) not in (checks.OK, checks.FAILED)


def test_null_line_off_the_forms_is_rejected(dq):
    item = first(tiny_deck(dq, "dyads"), "classify_2r")
    res = dq.dyads.classify(*item.args)
    lines = list(res.evidence["null_lines"])
    lines[0] = dq.projgeom.Line.through(dq.projgeom.ProjPoint([1, 0, 0, 0, 0, 0, 0, 0]),
                                        dq.projgeom.ProjPoint([0, 1, 0, 0, 0, 0, 0, 0]))
    planted = types.SimpleNamespace(verdict=res.verdict,
                                    evidence=dict(res.evidence, null_lines=lines))
    assert "null line" in checks.check(item, planted)


def test_cycle_that_does_not_close_is_rejected(dq):
    item = first(tiny_deck(dq, "cycles"), "run_cycle")
    res = dq.quadrecon.run_cycle(*item.args)
    assert checks.check(item, res) is checks.OK
    assert checks.check(item, res[:3] + [res[0]]) == "cycle does not close"
    assert checks.check(item, [res[1], res[0]] + res[2:]) is not checks.OK


def test_swapped_factor_is_rejected(dq):
    item = first(tiny_deck(dq, "frames"), "factor")
    left, right = dq.transforms.factor_transform(*item.args)
    assert checks.check(item, (left, right)) is checks.OK
    assert "factor" in checks.check(item, (right, left))


def test_wrong_quadrilateral_and_degree_are_rejected(dq):
    deck = tiny_deck(dq, "cycles")
    item = first(deck, "reconstruct")
    res = dq.quadrecon.reconstruct_quadrilateral(*item.args)
    assert checks.check(item, res) is checks.OK
    assert checks.check(item, res[1:] + res[:1]) is not checks.OK
    item = first(deck, "trajectory_mannheim")
    res = dq.motions.trajectory(*item.args)
    assert checks.check(item, res) is checks.OK
    planted = types.SimpleNamespace(degree=2, components=res.components)
    assert "degree" in checks.check(item, planted)


def test_cli_exit_code_and_unstable_stdout_are_rejected():
    item = decks.Item("example2", ("example2",), None)
    good = json.dumps({k: True for k in (
        "null_line_in_exceptional", "conjugate_pair_off_exceptional", "quadric_not_contained",
        "substituted_span_contains", "samples_on_study")}).encode()
    assert checks.cli(item, (0, good, b"", good)) is checks.OK
    assert "exit code" in checks.cli(item, (1, good, b"boom", good))
    assert "differs" in checks.cli(item, (0, good, b"", good + b" "))


def test_tail_rule():
    assert run.tail(list(range(39))) == 19
    assert run.tail(list(range(1, 41))) == 30
    assert run.tail(list(range(1, 1001))) == 990


def test_exact_helpers():
    assert X.same_point(X.vec((1, 2, 3)), X.vec((2, 4, 6)))
    assert not X.same_point(X.vec((1, 2, 3)), X.vec((2, 4, 7)))
    assert X.rank([X.vec((1, 2)), X.vec((2, 4))]) == 1
    i = (X.F0, X.F1)
    assert X.mul(i, i) == (-X.F1, X.F0)
