"""Tests of the benchmark itself: every correctness check rejects a
deliberately wrong output, traced self times account for the step, and
a run reports exactly the metrics ``BENCHMARK.json`` declares.

Run from the repository root: ``python -m pytest trainbench``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.backend.device import Device, use_device

import checks
import harness
import run
import workloads as W
from tracing import Tracer, layers_of, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def session(name, seed=3):
    return W.build(name, seed)


def first_batch(sess):
    return sess.collate(sess.round_order(0)[0])


# -- inputs -----------------------------------------------------------------


def arrays_of(corpus):
    if isinstance(corpus, np.ndarray):
        return [corpus]
    return [a for part in corpus for a in arrays_of(part)]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_inputs_come_from_the_seed(name):
    wl = W.WORKLOADS[name]
    a, b, c = (arrays_of(wl.generate(s)) for s in (5, 5, 6))
    same = lambda x, y: len(x) == len(y) and all(  # noqa: E731
        np.array_equal(p, q) for p, q in zip(x, y))
    assert same(a, b)
    assert not same(a, c)


def test_mt_epoch_has_more_distinct_shapes_than_the_program_cache():
    sess = session("mt-varlen-replay")
    shapes = {sess.collate(b).shape for b in range(sess.num_batches)}
    assert len(shapes) == sess.num_batches > sess.engine.max_programs
    assert sess.round_order(0) != sess.round_order(1)
    assert sorted(sess.round_order(0)) == sorted(sess.round_order(1))


def test_token_counts_exclude_padding():
    sess = session("bert-eager")
    b = first_batch(sess)
    toks = b.arrays[0]
    assert b.tokens == int((toks != W.BERT_PAD).sum())
    assert b.tokens < b.slots == toks.size


# -- correctness checks reject wrong outputs -----------------------------------


def test_loss_check():
    assert checks.check_losses([7.0, 6.5], [5.0, 4.8]) is None
    assert checks.check_losses([7.0, 6.5], [7.0, 6.9]) is not None
    assert checks.check_losses([7.0, float("nan")], [5.0]) is not None


def test_finite_difference_check_rejects_a_perturbed_gradient():
    sess = session("bert-eager")
    grads, fams, loss, loss_along = checks.fd_probe(type(sess),
                                                    first_batch(sess))

    def check(gs):
        return checks.check_directional_derivative(gs, fams, loss,
                                                   loss_along)

    assert check(grads) is None
    assert check([1.01 * g for g in grads])
    rng = np.random.default_rng(0)
    noise = [rng.standard_normal(g.shape).astype(np.float32) for g in grads]
    norm = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                       for g in grads))
    nnorm = np.sqrt(sum(float((n.astype(np.float64) ** 2).sum())
                        for n in noise))
    assert check([g + 0.1 * norm / nnorm * n for g, n in zip(grads, noise)])


def test_finite_difference_check_rejects_a_zeroed_small_tensor():
    sess = session("bert-eager")
    grads, fams, loss, loss_along = checks.fd_probe(type(sess),
                                                    first_batch(sess))
    names = [n for n, _ in sess.model.named_parameters()]
    for small in ("bert.layer1.ln2_w", "bert.layer0.ffn.b1", "bert.head_b"):
        bad = list(grads)
        bad[names.index(small)] = np.zeros_like(grads[names.index(small)])
        assert checks.check_directional_derivative(bad, fams, loss,
                                                   loss_along), small


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_gemm_flops_match_the_analytic_count(name):
    sess = session(name)
    batch = first_batch(sess)
    dev = Device()
    with use_device(dev):
        sess.step(batch)
    recorded = checks.recorded_gemm_flops(dev.launches)
    expected = checks.step_gemm_flops(name, sess.cfg, batch.shape,
                                      sess.world)
    assert checks.check_gemm_flops(recorded, expected) is None
    assert checks.check_gemm_flops(recorded, expected + 2) is not None
    # one sequence fewer in the analytic shape is a miscount
    wrong = tuple((s[0] - sess.world,) + s[1:] for s in batch.shape)
    assert checks.check_gemm_flops(
        recorded, checks.step_gemm_flops(name, sess.cfg, wrong,
                                         sess.world)) is not None


def test_replica_check_rejects_a_desynchronised_replica():
    sess = session("gpt-dp2")
    sess.step(first_batch(sess))
    params = [[p.data for p in m.parameters()] for m in sess.dp.replicas]
    assert checks.check_replicas_bitwise(params) is None
    bad = [list(params[0]), [p.copy() for p in params[1]]]
    bad[1][3].view(np.uint16).flat[7] ^= 1          # one low mantissa bit
    assert checks.check_replicas_bitwise(bad) is not None


def test_data_parallel_gradient_check():
    sess = session("gpt-dp2")
    assert checks.dp_gradient_twin(type(sess), first_batch(sess),
                                   sess.world) is None
    g = [np.linspace(-1, 1, 50, dtype=np.float32).reshape(5, 10)]
    avg = [x / 2 for x in g]
    assert checks.check_dp_gradient(avg, g, world=2) is None
    # a sum where an average belongs, and a single perturbed entry
    assert checks.check_dp_gradient(g, g, world=2) is not None
    off = [avg[0].copy()]
    off[0][2, 3] *= 1.001
    assert checks.check_dp_gradient(off, g, world=2) is not None


def test_replay_check_rejects_a_replay_that_differs_from_eager():
    sess = session("mt-varlen-replay")
    assert checks.replay_twin(type(sess), first_batch(sess)) is None
    params = [np.arange(6, dtype=np.float16)]
    assert checks.check_replay_matches_eager(
        [1.5, 1.25], [1.5, 1.25], params, [p.copy() for p in params]) is None
    assert checks.check_replay_matches_eager(
        [1.5, 1.25], [1.5, np.nextafter(1.25, 2)], params, params)
    flipped = [params[0].copy()]
    flipped[0].view(np.uint16)[2] ^= 1
    assert checks.check_replay_matches_eager(
        [1.5], [1.5], params, flipped) is not None


# -- tracing ----------------------------------------------------------------


def test_self_times_of_a_tree_sum_to_the_root():
    tr = Tracer()
    with tr.span("step"):
        with tr.span("a"):
            with tr.span("b"):
                time.sleep(0.002)
            time.sleep(0.001)
        with tr.span("c"):
            time.sleep(0.001)
    own = self_times(tr.spans)
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(tr.spans[0].duration, abs=1e-12)


@pytest.mark.parametrize("name", ["mt-varlen-replay", "gpt-dp2"])
def test_traced_self_times_plus_remainder_add_up_to_the_step(name):
    sess = session(name)
    batch = first_batch(sess)
    tr = Tracer()
    dev = Device()
    with use_device(dev), tr.installed(sess):
        t0 = time.perf_counter()
        with tr.span("step"):
            sess.step(batch)
        wall = time.perf_counter() - t0
    names = {sp.name for sp in tr.spans}
    assert {"models.fwd", "layers.attention.bwd", "layers.ffn.fwd",
            "trainer.update"} <= names
    own = self_times(tr.spans)
    remainder = own[0]                       # the root: no wrapper covers it
    covered = sum(own[1:])
    assert 0 <= remainder < 0.05 * wall
    assert covered + remainder == pytest.approx(wall, rel=1e-3, abs=2e-4)


def test_uninstall_restores_the_program_untouched():
    sess = session("mt-varlen-replay")
    objs = [sess.model, sess.trainer, sess.engine] + [
        layer for layer, _ in layers_of(sess.model)]
    before = [dict(vars(o)) for o in objs]
    tr = Tracer()
    with tr.installed(sess):
        assert "forward" in vars(sess.model)
    assert [dict(vars(o)) for o in objs] == before
    kinds = {k for _, k in layers_of(sess.model)}
    assert kinds == {"embedding", "attention", "ffn", "encoder", "decoder",
                     "projection", "criterion"}


# -- reporting ----------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    vals = list(range(40))
    t = harness.tail(vals)
    assert sum(v > t for v in vals) == 10


def test_benchmark_json_names_the_workloads():
    with open(harness.SPEC) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS) \
        == list(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_a_short_run_passes_and_reports_the_declared_metrics(
        trace, monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "SETUPS", 1)
    monkeypatch.setattr(harness, "MIN_STEPS", 16)
    res = harness.run("bert-eager", 1, 0.01, trace, out_dir=str(tmp_path))
    assert res["correct"] and res["failed"] == 0
    units = harness.declared_units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in res["metrics"].items()} == units
    assert all(np.isfinite(m["value"]) for m in res["metrics"].values())


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(os.path.join(ROOT, "trainbench"), tmp_path / "trainbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "trainbench/run.py", "--workload", "gpt-dp2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
