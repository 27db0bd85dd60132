"""One benchmark run: set up, time whole rounds of steps, check, report.

End-to-end metrics come from runs with ``trace=False``.  A traced run
(``trace=True``) alternates untraced and traced rounds; its per-layer
metrics come from the traced rounds, and ``trace.overhead_pct`` compares
the two kinds of round.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.backend.device import Device, use_device
from repro.backend.profiler import alloc_counters, replay_counters
from repro.sim import V100, trace_cost

import checks
import workloads as W
from tracing import LAYER_NAMES, Tracer, self_time_by_name

#: set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: a run times at least this many steps, so the tail percentile has ten
#: samples beyond it.
MIN_STEPS = 40
#: cost-model kernel families (``repro.sim.costmodel``), one metric each.
FAMILIES = ("gemm", "attention", "dropout", "softmax", "layernorm",
            "embedding", "criterion", "optimizer", "memcpy", "transpose",
            "reduction", "elementwise")
STAGES = ("forward", "backward", "update", "sync")
MIB = 2.0 ** 20
#: declares every metric the harness reports, with its unit
SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "BENCHMARK.json")


# ---------------------------------------------------------------------------
# host noise probes
# ---------------------------------------------------------------------------


def host_steal_s() -> float:
    """Machine-wide steal time so far (``/proc/stat``), or NaN off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return float("nan")
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def involuntary_switches() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    return v[len(v) - 11]


# ---------------------------------------------------------------------------
# modeled GPU clock
# ---------------------------------------------------------------------------


@dataclass
class Priced:
    """One step on the modeled V100.  Replicas run in parallel, so
    compute stages are priced per replica (the device trace holds every
    replica's identical launches); the sync stage and the exposed part of
    the bucketed all-reduce are added whole."""

    total_s: float
    stages: Dict[str, float]
    families: Dict[str, float]
    launches: float
    hbm_bytes: float
    flops: float
    collectives: int = 0
    hidden_comm_s: float = 0.0
    exposed_comm_s: float = 0.0


def price(launches, sess: W.Workload) -> Priced:
    world = sess.world
    compute = [k for k in launches if k.stage != "sync"]
    sync = [k for k in launches if k.stage == "sync"]
    cc, cs = trace_cost(compute, V100), trace_cost(sync, V100)
    stages = {s: cc.by_stage[s] / world for s in STAGES}
    stages["sync"] = cs.total_s
    families = {f: cc.by_family.get(f, 0.0) / world
                + cs.by_family.get(f, 0.0) for f in FAMILIES}
    hidden = exposed = 0.0
    dp = getattr(sess, "dp", None)
    if dp is not None:
        sched = dp.sync_timeline(V100, backward_s=stages["backward"])
        hidden, exposed = sched.hidden_s, sched.exposed_s
        stages["sync"] += exposed
    return Priced(
        total_s=cc.total_s / world + cs.total_s + exposed, stages=stages,
        families=families, launches=len(compute) / world + len(sync),
        hbm_bytes=(sum(k.bytes_moved for k in compute) / world
                   + sum(k.bytes_moved for k in sync)),
        flops=sum(k.flops for k in compute) / world
        + sum(k.flops for k in sync),
        collectives=len(sync), hidden_comm_s=hidden, exposed_comm_s=exposed)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


@dataclass
class Step:
    rnd: int
    traced: bool
    wall_s: float
    cpu_s: float
    tokens: int
    slots: int
    shape: tuple
    loss_per_term: float
    priced: Priced
    pricing_cpu_s: float
    replay: object          # ReplayCounters delta
    new_allocs: int
    new_alloc_bytes: int
    repeat_shape: bool = False
    grad_zero_frac: float = float("nan")


@dataclass
class Run:
    name: str
    seed: int
    setup_s: List[float] = field(default_factory=list)
    steps: List[Step] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    tracer: Optional[Tracer] = None

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)


def grad_zero_fraction(trainer) -> float:
    zeros = total = 0
    for _, g in trainer.named_grads():
        zeros += int(g.size - np.count_nonzero(g))
        total += g.size
    return zeros / total


def timed_rounds(run: Run, sess: W.Workload, dev: Device, seconds: float,
                 trace: bool) -> None:
    """Whole rounds until ``seconds`` have passed and ``MIN_STEPS`` steps
    were attempted; with ``trace``, every second round is traced."""
    seen = set()
    attempted = 0
    t_start = time.perf_counter()
    rnd = 0
    while (rnd < (3 if trace else 1) or attempted < MIN_STEPS
           or time.perf_counter() - t_start < seconds):
        traced = trace and rnd % 2 == 1
        with run.tracer.installed(sess) if traced else nullcontext():
            for bid in sess.round_order(rnd):
                attempted += 1
                run.attempted += 1
                step = timed_step(run, sess, dev, rnd, bid, traced)
                if step is not None:
                    step.repeat_shape = step.shape in seen
                    seen.add(step.shape)
                    run.steps.append(step)
        rnd += 1


def timed_step(run: Run, sess: W.Workload, dev: Device, rnd: int, bid: int,
               traced: bool) -> Optional[Step]:
    """One training step, timed on both host clocks, priced on the cost
    model and checked; None (and a failure) if it did not succeed."""
    span = run.tracer.span if traced else nullcontext
    rc, ac = replay_counters(), alloc_counters()
    rc0, ac0 = rc.snapshot(), ac.snapshot()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with span("step"):
            with span("data.batch"):
                batch = sess.collate(bid)
            loss, terms = sess.step(batch)
    except Exception:
        run.fail(f"step on batch {bid}: {traceback.format_exc(limit=3)}")
        dev.reset()
        return None
    t1, c1 = time.perf_counter(), time.process_time()
    with span("sim.pricing"):
        priced = price(dev.launches, sess)
    pricing_cpu = time.process_time() - c1
    if not run.steps:
        run.attempted += 1
        bad = checks.check_gemm_flops(
            checks.recorded_gemm_flops(dev.launches),
            checks.step_gemm_flops(run.name, sess.cfg, batch.shape,
                                   sess.world))
        if bad:
            run.fail(f"GEMM FLOP count: {bad}")
    dev.reset()
    d_alloc = ac.since(ac0)
    step = Step(rnd=rnd, traced=traced, wall_s=t1 - t0,
                cpu_s=c1 - c0, tokens=batch.tokens, slots=batch.slots,
                shape=batch.shape, loss_per_term=loss / max(terms, 1),
                priced=priced, pricing_cpu_s=pricing_cpu,
                replay=rc.since(rc0), new_allocs=d_alloc.new_allocs,
                new_alloc_bytes=d_alloc.new_alloc_bytes)
    if traced:
        step.grad_zero_frac = grad_zero_fraction(sess.trainers()[0])
    bad = (None if math.isfinite(step.loss_per_term)
           else "non-finite loss")
    dp = getattr(sess, "dp", None)
    if bad is None and dp is not None:
        bad = checks.check_replicas_bitwise(
            [[p.data for p in m.parameters()] for m in dp.replicas])
    if bad:
        run.fail(f"step on batch {bid}: {bad}")
        return None
    return step


def end_checks(run: Run, sess: W.Workload) -> None:
    """Once-per-run checks; each counts as one operation."""
    wl = type(sess)
    first = sess.collate(sess.round_order(0)[0])
    by_round: Dict[int, List[float]] = {}
    for s in run.steps:
        by_round.setdefault(s.rnd, []).append(s.loss_per_term)
    rounds = sorted(by_round)
    todo = [("loss", lambda: checks.check_losses(by_round[rounds[0]],
                                                 by_round[rounds[-1]])),
            ("finite-difference gradient",
             lambda: checks.fd_gradient_twin(wl, first))]
    if sess.world > 1:
        todo.append(("data-parallel gradient",
                     lambda: checks.dp_gradient_twin(wl, first, sess.world)))
    if getattr(sess, "engine", None) is not None:
        todo.append(("replay vs eager", lambda: checks.replay_twin(wl, first)))
    for what, check in todo:
        run.attempted += 1
        try:
            bad = check()
        except Exception:
            bad = traceback.format_exc(limit=3)
        if bad:
            run.fail(f"{what}: {bad}")


def per_round(steps: List[Step], num, den) -> List[float]:
    rounds: Dict[int, List[Step]] = {}
    for s in steps:
        rounds.setdefault(s.rnd, []).append(s)
    return [math.fsum(num(s) for s in rs) / math.fsum(den(s) for s in rs)
            for rs in rounds.values()]


def end_to_end(run: Run, rss: float) -> Dict[str, float]:
    steps = run.steps
    cpu_ms = [s.cpu_s * 1e3 for s in steps]
    return {
        "train_tok_s": statistics.median(
            per_round(steps, lambda s: s.tokens, lambda s: s.wall_s)),
        "cpu_tok_s": statistics.median(
            per_round(steps, lambda s: s.tokens, lambda s: s.cpu_s)),
        "step_cpu_ms_p50": statistics.median(cpu_ms),
        "step_cpu_ms_tail": tail(cpu_ms),
        "sim_tok_s": statistics.median(
            per_round(steps, lambda s: s.tokens,
                      lambda s: s.priced.total_s)),
        "peak_rss_mib": rss,
        "setup_s": statistics.median(run.setup_s),
    }


def per_layer(run: Run, sess: W.Workload) -> Dict[str, float]:
    traced = [s for s in run.steps if s.traced]
    plain = [s for s in run.steps if not s.traced]
    n = len(traced)
    spans = run.tracer.spans
    own = self_time_by_name(spans, root="step")
    durations: Dict[str, float] = {}
    for sp in spans:
        durations[sp.name] = durations.get(sp.name, 0.0) + sp.duration
    models = max(1, sum(1 for sp in spans if sp.name == "models.fwd")
                 // len(sess.models()))
    ms = lambda total, count: 1e3 * total / max(count, 1)  # noqa: E731
    out: Dict[str, float] = {}

    out["data.batch_ms"] = ms(durations.get("data.batch", 0.0), n)
    out["data.pad_frac"] = 1 - sum(s.tokens for s in traced) / sum(
        s.slots for s in traced)
    out["data.repeat_shape_share"] = sum(s.repeat_shape for s in traced) / n

    # models/layers: eager steps only (replayed steps never enter them)
    out["models.fwd_ms"] = ms(durations.get("models.fwd", 0.0), models)
    out["models.bwd_ms"] = ms(durations.get("models.bwd", 0.0), models)
    for kind in LAYER_NAMES:
        for phase in ("fwd", "bwd"):
            out[f"layers.{kind}.{phase}_ms"] = ms(
                own.get(f"layers.{kind}.{phase}", 0.0), models)

    out["trainer.update_ms"] = ms(durations.get("trainer.update", 0.0), n)
    out["trainer.zero_grad_ms"] = ms(durations.get("trainer.zero_grad", 0.0),
                                     n)
    trainer = sess.trainers()[0]
    out["precision.skipped_steps"] = trainer.skipped_steps
    out["precision.loss_scale_final"] = (trainer.scaler.scale
                                         if trainer.scaler else 1.0)
    out["precision.grad_zero_frac"] = statistics.mean(
        s.grad_zero_frac for s in traced)

    rep = {k: sum(getattr(s.replay, k) for s in traced)
           for k in ("captures", "replays", "eager_fallbacks",
                     "invalidations")}
    for k, v in rep.items():
        out[f"replay.{k}"] = v
    out["replay.share"] = rep["replays"] / n
    cap = [s.wall_s for s in traced if s.replay.captures]
    rpl = [s.wall_s for s in traced if s.replay.replays]
    out["replay.capture_ms"] = 1e3 * statistics.mean(cap) if cap else 0.0
    out["replay.replay_ms"] = 1e3 * statistics.mean(rpl) if rpl else 0.0

    arena = getattr(getattr(sess, "engine", None), "arena", None)
    out["arena.capacity_mib"] = arena.capacity / MIB if arena else 0.0
    out["arena.reservations"] = arena.reservations if arena else 0
    out["alloc.fresh_per_step"] = sum(s.new_allocs for s in traced) / n
    out["alloc.fresh_mib_per_step"] = sum(
        s.new_alloc_bytes for s in traced) / n / MIB

    out["kernels.launches_per_step"] = sum(
        s.priced.launches for s in traced) / n
    out["kernels.hbm_mib_per_step"] = sum(
        s.priced.hbm_bytes for s in traced) / n / MIB
    out["kernels.gflop_per_step"] = sum(
        s.priced.flops for s in traced) / n / 1e9
    for st in STAGES:
        out[f"sim.{st}_ms"] = ms(sum(s.priced.stages[st] for s in traced), n)
    for fam in FAMILIES:
        out[f"sim.{fam}_ms"] = ms(sum(s.priced.families[fam]
                                      for s in traced), n)
    out["sim.pricing_ms"] = ms(sum(s.pricing_cpu_s for s in traced), n)

    dp = getattr(sess, "dp", None)
    out["dp.sync_ms"] = ms(durations.get("dp.sync", 0.0), n)
    out["dp.sync_mib"] = (4 * sum(p.size for p in dp.replicas[0].parameters())
                          / MIB if dp else 0.0)
    out["dp.collectives_per_step"] = sum(
        s.priced.collectives for s in traced) / n
    out["dp.hidden_comm_ms"] = ms(sum(s.priced.hidden_comm_s
                                      for s in traced), n)
    out["dp.exposed_comm_ms"] = ms(sum(s.priced.exposed_comm_s
                                       for s in traced), n)

    def cpu_tok_s(steps):
        return statistics.median(
            per_round(steps, lambda s: s.tokens, lambda s: s.cpu_s))
    # round 0 fills the replay cache and grows the arena; compare the
    # traced rounds with the untraced rounds after it
    plain = [s for s in plain if s.rnd > 0]
    out["trace.overhead_pct"] = 100 * (cpu_tok_s(plain) / cpu_tok_s(traced)
                                       - 1)
    out["trace.remainder_ms"] = ms(own.get("step", 0.0), n)
    return out


def write_spans(run: Run, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{run.name}-seed{run.seed}.json")
    with open(path, "w") as f:
        json.dump([sp.as_dict() for sp in run.tracer.spans], f)
    return path


def declared_units(kind: str) -> Dict[str, str]:
    """``BENCHMARK.json``'s ``end_to_end`` or ``per_layer`` metrics:
    name -> unit, in declared order."""
    with open(SPEC) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: str) -> dict:
    """One benchmark run; returns the result object the entry point
    prints."""
    result = Run(name, seed, tracer=Tracer() if trace else None)
    dev = Device()
    with use_device(dev):
        for _ in range(SETUPS):
            sess = None             # drop the previous set-up first
            gc.collect()
            t0 = time.perf_counter()
            sess = W.setup(name, seed)
            result.setup_s.append(time.perf_counter() - t0)
        dev.reset()
        steal0, nivcsw0 = host_steal_s(), involuntary_switches()
        t0, c0 = time.perf_counter(), time.process_time()
        timed_rounds(result, sess, dev, seconds, trace)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        steal = host_steal_s() - steal0
        nivcsw = involuntary_switches() - nivcsw0
        rss = peak_rss_mib()
        end_checks(result, sess)
    print(f"# {name} seed {seed}: {len(result.steps)} steps in "
          f"{len({s.rnd for s in result.steps})} rounds, {wall:.2f} s wall, "
          f"{cpu:.2f} s cpu; host steal {steal:.2f} s, "
          f"{nivcsw} involuntary context switches")
    if trace:
        metrics = per_layer(result, sess)
        print(f"# spans written to {write_spans(result, out_dir)}")
        units = declared_units("per_layer")
    else:
        metrics = end_to_end(result, rss)
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics produced and declared differ: "
            f"{sorted(set(metrics) ^ set(units))}")
    return {"correct": not result.failures, "attempted": result.attempted,
            "failed": len(result.failures),
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()}}
