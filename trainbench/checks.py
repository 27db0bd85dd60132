"""Correctness checks made apart from the code under test.

Each ``check_*`` function compares the program's output with an independent
computation or with a property the method must have, and returns ``None``
when it holds or a one-line reason when it does not.  They take plain
numbers and arrays, so the benchmark's tests can hand them deliberately
wrong outputs.  The ``*_twin`` functions build the independent side from
the program's public calls and feed the checks.
"""

from __future__ import annotations

import math
import re
import zlib
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.backend.arena import ActivationArena
from repro.backend.profiler import replay_counters
from repro.precision import DynamicLossScaler
from repro.training import (CaptureReplayEngine, DataParallel, OptimizerSpec,
                            make_trainer, shard_batch, train_step)

import workloads as W

#: the directional finite differences: central differences in FP32 of
#: step ``FD_EPS`` along the unit gradient and ``FD_EPS_RANDOM`` along a
#: random unit direction per tensor family.  Each may miss the backward
#: pass's directional derivative by ``FD_RTOL`` of the gradient norm along
#: it plus ``FD_FLOOR_ULPS`` units in the last place of the loss over the
#: step: the FP32 loss sums hundreds of per-token terms, and its rounding
#: moved a difference by up to 5.4 units.  Larger steps pick up curvature,
#: smaller ones rounding; the loss curves least along random directions,
#: which therefore take the longer step.
FD_EPS = 3e-3
FD_EPS_RANDOM = 3e-2
FD_RTOL = 1e-3
FD_FLOOR_ULPS = 8.0

#: world-2 averaged gradient times 2 against one device's whole-batch
#: gradient: the two differ only in how FP32 sums are associated, which
#: moves no entry by more than 1.1e-6 of its tensor's largest entry.
DP_GRAD_RTOL = 1e-5


# ---------------------------------------------------------------------------
# checks on plain values
# ---------------------------------------------------------------------------


def check_losses(first: Sequence[float], last: Sequence[float]
                 ) -> Optional[str]:
    """Per-token losses are finite and the last round's mean is below the
    first round's."""
    vals = list(first) + list(last)
    if not all(math.isfinite(v) for v in vals):
        return "non-finite per-token loss"
    a, b = float(np.mean(first)), float(np.mean(last))
    if not b < a:
        return f"loss did not fall: first round {a:.4f}, last {b:.4f}"
    return None


def tensor_families(names: Sequence[str]) -> Dict[str, List[int]]:
    """Parameter indices grouped by name with the layer numbers taken out
    (``enc1.ln2_w`` -> ``enc.ln2_w``): tensors of one role, whose
    gradients have like sizes."""
    fams: Dict[str, List[int]] = {}
    for i, n in enumerate(names):
        fams.setdefault(re.sub(r"\d+(?=\.)", "", n), []).append(i)
    return fams


def check_directional_derivative(
        grads: Sequence[np.ndarray], families: Dict[str, List[int]],
        loss: float,
        loss_along: Callable[[Dict[int, np.ndarray], float], float]
) -> Optional[str]:
    """Central differences of the loss against the backward pass's
    directional derivatives ``g . d``.

    The first direction is the unit gradient ``g / |g|``: a gradient
    scaled by ``1 + a`` misses by ``a``, one perturbed by noise of
    relative norm ``b`` by about ``b**2``.  No direction built from ``g``
    sees a tensor whose gradient is zeroed, wholly or in part, since the
    zeroed entries have no component in it.  So each tensor family then
    gets a random unit direction, seeded by the family's name, in which
    every tensor has an equal share.

    ``loss_along(d, t)`` is the loss at the parameters moved by ``t * d``
    (``d`` maps parameter index to array) and ``loss`` the unmoved loss.
    """
    def miss(d: Dict[int, np.ndarray], eps: float) -> Optional[str]:
        claimed = sum(float(np.sum(grads[i].astype(np.float64) * x))
                      for i, x in d.items())
        norm = math.sqrt(sum(float(np.sum(np.square(grads[i],
                                                     dtype=np.float64)))
                             for i in d))
        fd = (loss_along(d, eps) - loss_along(d, -eps)) / (2 * eps)
        tol = (FD_RTOL * norm + FD_FLOOR_ULPS
               * float(np.spacing(np.float32(abs(loss)))) / eps)
        if abs(fd - claimed) <= tol:
            return None
        return (f"finite difference {fd:.6g} vs backward {claimed:.6g} "
                f"(miss {abs(fd - claimed):.3g} > {tol:.3g})")

    every = [i for idx in families.values() for i in idx]
    norm = math.sqrt(sum(float(np.sum(np.square(grads[i], dtype=np.float64)))
                         for i in every))
    if not norm > 0:
        return "zero gradient"
    bad = miss({i: grads[i] / np.float32(norm) for i in every}, FD_EPS)
    if bad:
        return f"along the gradient: {bad}"
    for fam, idx in families.items():
        rng = np.random.default_rng(zlib.crc32(fam.encode()))
        d = {}
        for i in idx:
            r = rng.standard_normal(grads[i].shape)
            d[i] = (r / (np.linalg.norm(r) * math.sqrt(len(idx)))
                    ).astype(np.float32)
        bad = miss(d, FD_EPS_RANDOM)
        if bad:
            return f"along a random {fam} direction: {bad}"
    return None


def check_gemm_flops(recorded: int, expected: int) -> Optional[str]:
    if recorded != expected:
        return f"device recorded {recorded} GEMM FLOPs, analytic {expected}"
    return None


def check_replicas_bitwise(replicas: Sequence[Sequence[np.ndarray]]
                           ) -> Optional[str]:
    """Every replica's parameters equal replica 0's bit for bit."""
    ref = replicas[0]
    for r, params in enumerate(replicas[1:], 1):
        for i, (a, b) in enumerate(zip(ref, params)):
            if a.tobytes() != b.tobytes():
                return f"replica {r} parameter {i} differs from replica 0"
    return None


def check_dp_gradient(averaged: Sequence[np.ndarray],
                      single: Sequence[np.ndarray], world: int
                      ) -> Optional[str]:
    """``world`` x the all-reduced average equals the single device's
    gradient on the whole batch (the loss is a sum over tokens)."""
    for i, (a, g) in enumerate(zip(averaged, single)):
        g = g.astype(np.float64)
        err = float(np.max(np.abs(world * a.astype(np.float64) - g)))
        scale = float(np.max(np.abs(g)))
        if not err <= DP_GRAD_RTOL * scale:
            return (f"gradient {i}: |{world} x average - single| = "
                    f"{err:.3g} > {DP_GRAD_RTOL:g} x {scale:.3g}")
    return None


def check_replay_matches_eager(replay_losses: Sequence[float],
                               eager_losses: Sequence[float],
                               replay_params: Sequence[np.ndarray],
                               eager_params: Sequence[np.ndarray]
                               ) -> Optional[str]:
    if list(replay_losses) != list(eager_losses):
        return f"losses differ: {replay_losses} vs {eager_losses}"
    for i, (a, b) in enumerate(zip(replay_params, eager_params)):
        if a.tobytes() != b.tobytes():
            return f"parameter {i} differs after replay"
    return None


# ---------------------------------------------------------------------------
# analytic GEMM FLOPs from the config and the batch shape
# ---------------------------------------------------------------------------
#
# Every GEMM of a training step has a backward pair (dx and dw for a
# linear, two products for each attention batched GEMM), each with the
# forward's FLOPs, so a step costs three forward passes of GEMM work.


def linear_flops(rows: int, d_in: int, d_out: int) -> int:
    return 2 * rows * d_in * d_out


def attention_flops(b: int, lq: int, lk: int, h: int) -> int:
    """QK^T plus probs @ V over all heads."""
    return 2 * 2 * b * lq * lk * h


def encoder_layer_flops(cfg, b: int, l: int) -> int:
    h, f, n = cfg.hidden_dim, cfg.ffn_dim, b * l
    return (linear_flops(n, h, 3 * h) + attention_flops(b, l, l, h)
            + linear_flops(n, h, h) + linear_flops(n, h, f)
            + linear_flops(n, f, h))


def decoder_layer_flops(cfg, b: int, lt: int, ls: int) -> int:
    h, f, nt, ns = cfg.hidden_dim, cfg.ffn_dim, b * lt, b * ls
    self_attn = (linear_flops(nt, h, 3 * h) + attention_flops(b, lt, lt, h)
                 + linear_flops(nt, h, h))
    cross_attn = (linear_flops(nt, h, h) + 2 * linear_flops(ns, h, h)
                  + attention_flops(b, lt, ls, h) + linear_flops(nt, h, h))
    ffn = linear_flops(nt, h, f) + linear_flops(nt, f, h)
    return self_attn + cross_attn + ffn


def step_gemm_flops(name: str, cfg, shapes: Sequence[tuple],
                    world: int) -> int:
    """Analytic GEMM FLOPs of one training step on batch ``shapes``."""
    h = cfg.hidden_dim
    if name == "bert-eager":
        b, l = shapes[0]
        fwd = (cfg.num_encoder_layers * encoder_layer_flops(cfg, b, l)
               + linear_flops(b, h, h)                    # pooler
               + linear_flops(b, h, cfg.num_classes))     # head
    elif name == "mt-varlen-replay":
        (b, ls), (_, lt) = shapes[0], shapes[1]
        fwd = (cfg.num_encoder_layers * encoder_layer_flops(cfg, b, ls)
               + cfg.num_decoder_layers * decoder_layer_flops(cfg, b, lt, ls)
               + linear_flops(b * lt, h, cfg.vocab_size))
    elif name == "gpt-dp2":
        b, l = shapes[0]
        b //= world                                       # per replica
        fwd = world * (cfg.num_decoder_layers * encoder_layer_flops(cfg, b, l)
                       + linear_flops(b * l, h, cfg.vocab_size))
    else:
        raise ValueError(name)
    return 3 * fwd


def recorded_gemm_flops(launches) -> int:
    return sum(k.flops for k in launches if k.is_gemm)


# ---------------------------------------------------------------------------
# twins built from the program's public calls
# ---------------------------------------------------------------------------


def fp32_nodropout(wl):
    return wl.config(fp16=False, dropout=0.0, attn_dropout=0.0,
                     activation_dropout=0.0)


def fd_probe(wl, batch: W.Batch):
    """The first step's gradient on a dropout-free FP32 twin of the
    workload's model: (gradients, tensor families, loss, loss_along)."""
    model = wl.model_cls(fp32_nodropout(wl), seed=W.MODEL_SEED)
    named = list(model.named_parameters())
    params = [p for _, p in named]
    loss, _ = model.forward(*batch.arrays)
    model.backward()
    grads = [p.grad.copy() for p in params]
    base = [p.data.copy() for p in params]

    def loss_along(d, t):
        for i, di in d.items():
            params[i].data[...] = base[i] + np.float32(t) * di
        moved, _ = model.forward(*batch.arrays)
        for i in d:
            params[i].data[...] = base[i]
        return float(moved)

    return (grads, tensor_families([n for n, _ in named]), float(loss),
            loss_along)


def fd_gradient_twin(wl, batch: W.Batch) -> Optional[str]:
    """Directional finite-difference check of the first step's gradient on
    a dropout-free FP32 twin of the workload's model."""
    return check_directional_derivative(*fd_probe(wl, batch))


def dp_gradient_twin(wl, batch: W.Batch, world: int) -> Optional[str]:
    """FP32 world-``world`` twin's averaged gradient against one FP32
    device's gradient on the whole batch (dropout off on both)."""
    cfg = fp32_nodropout(wl)
    dp = DataParallel(lambda: wl.model_cls(cfg, seed=W.MODEL_SEED), world,
                      "lightseq", OptimizerSpec(lr=W.LR),
                      overlap_grad_sync=True,
                      bucket_bytes=W.GPTDp2.BUCKET_BYTES)
    dp.train_step(shard_batch(batch.arrays, world), lr=W.LR)
    model = wl.model_cls(cfg, seed=W.MODEL_SEED)
    trainer = make_trainer("lightseq", model, OptimizerSpec(lr=W.LR))
    train_step(model, trainer, batch.arrays, lr=W.LR)
    return check_dp_gradient([g for _, g in dp.trainers[0].named_grads()],
                             [g for _, g in trainer.named_grads()], world)


def replay_twin(wl, batch: W.Batch) -> Optional[str]:
    """Step one batch repeatedly through the capture-replay engine until a
    step replays, and the same steps eagerly on a twin; losses and final
    parameters must agree bit for bit."""
    def build():
        model = wl.model_cls(wl.config(), seed=W.MODEL_SEED)
        trainer = make_trainer(
            "lightseq", model, OptimizerSpec(lr=W.LR),
            scaler=DynamicLossScaler(init_scale=W.INIT_LOSS_SCALE))
        return model, trainer

    model_r, trainer_r = build()
    engine = CaptureReplayEngine(model_r, trainer_r, arena=ActivationArena())
    model_e, trainer_e = build()
    counters = replay_counters()
    before = counters.snapshot()
    loss_r: List[float] = []
    loss_e: List[float] = []
    while len(loss_r) < 4 and not counters.since(before).replays:
        loss_r.append(engine.step(batch.arrays, lr=W.LR).loss)
        loss_e.append(train_step(model_e, trainer_e, batch.arrays,
                                 lr=W.LR).loss)
    if not counters.since(before).replays:
        return "no step replayed in 4 steps of one batch"
    return check_replay_matches_eager(
        loss_r, loss_e, [p.data for p in model_r.parameters()],
        [p.data for p in model_e.parameters()])
