"""The benchmark's three training workloads.

Each workload generates its own inputs from the seed, builds the program's
model, trainer and (where it applies) capture-replay engine or data-parallel
replicas, and runs one training step per call.  The program sees only the
padded batches built here; token counts are taken from those inputs, never
from the program's return values.

* ``bert-eager`` — BERT on fixed 64-token shapes, FP32, on the training
  CLI's default path: eager, no arena, no replay.  Its GELU FFNs make the
  fused bias+GELU+dropout kernel the largest host cost.
* ``mt-varlen-replay`` — an encoder-decoder MT model on the LightSeq2 fast
  path: FP16 with dynamic loss scaling, activation arena and capture-replay
  over a token-budget-batched corpus whose batch order is reshuffled every
  epoch, so shapes repeat across epochs but not within one, and an epoch
  holds more distinct shapes than the engine caches programs for.
* ``gpt-dp2`` — a decoder-only causal LM in FP16 on two in-process
  ``DataParallel`` replicas with bucketed, overlapped gradient all-reduce.

A *round* is the unit a run repeats whole: one pass over the workload's
batches (an epoch for MT).  Every round holds the same batches, so what is
priced per round repeats exactly from round to round.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.arena import ActivationArena
from repro.config import LSConfig, get_config
from repro.data.synthetic import SyntheticTranslationCorpus
from repro.layers.base import Layer
from repro.models import BertModel, GPTModel, TransformerModel
from repro.precision import DynamicLossScaler
from repro.training import (CaptureReplayEngine, DataParallel, OptimizerSpec,
                            make_trainer, shard_batch, train_step)

#: the training CLI's quick-preset dimensions (``repro.train``), so each
#: layer does real work in well under a second per step.
QUICK_DIMS = dict(hidden_dim=128, nhead=8, ffn_dim=512, vocab_size=2048)
LR = 5e-4
#: model initialisation seed; the workload seed varies the inputs only
MODEL_SEED = 1
#: fairseq's ``--fp16-init-scale`` default; the scaler then backs off on
#: overflow and grows after ``scale_window`` clean steps as usual.
INIT_LOSS_SCALE = 2.0 ** 7

#: fairseq dictionary layout (``repro.data.vocab``): <pad>=1, </s>=2,
#: content ids from 4.  BERT pads with 0.
PAD, EOS, FIRST_CONTENT = 1, 2, 4
BERT_PAD = 0

#: warm-up steps inside set-up, so the first timed step does not pay for
#: first-touch allocation
WARMUP_STEPS = 2


@dataclass(frozen=True)
class Batch:
    """One step's inputs plus the counts the benchmark takes from them."""

    arrays: Tuple[np.ndarray, ...]   # positional args of model.forward
    tokens: int                      # non-padding input tokens
    slots: int                       # input slots, padding included

    @property
    def shape(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(a.shape for a in self.arrays)


def zipf_tokens(rng: np.random.Generator, vocab: int, size) -> np.ndarray:
    """Content token ids with a Zipf frequency skew (exponent 1.1), as
    natural text has."""
    n = vocab - FIRST_CONTENT
    p = np.arange(1, n + 1, dtype=np.float64) ** -1.1
    return rng.choice(n, size=size, p=p / p.sum()) + FIRST_CONTENT


def quantiles(n: int, rng: Optional[np.random.Generator] = None
              ) -> np.ndarray:
    """Standard normal quantiles at probabilities (i + 1/2) / n, or, with
    ``rng``, at one random probability inside each of the n strata.
    Stratified draws keep a sample's length distribution, and so its
    padding and token count, nearly the same from seed to seed."""
    u = np.full(n, 0.5) if rng is None else rng.random(n)
    return np.array([NormalDist().inv_cdf((i + x) / n)
                     for i, x in enumerate(u)])


def count_tokens(a: np.ndarray, pad: int) -> int:
    return int(np.count_nonzero(a != pad))


class Workload:
    """A built workload: the program objects plus the batches to feed.

    Subclasses declare ``name``, ``model_cls``, ``config()`` and
    ``generate(seed)``, and build their program objects from a generated
    corpus in ``__init__``.
    """

    name = ""
    model_cls: type = Layer
    #: replicas the modeled step runs in parallel (priced per replica)
    world = 1
    num_batches = 0

    @classmethod
    def config(cls, **over) -> LSConfig:
        raise NotImplementedError

    def round_order(self, r: int) -> List[int]:
        return list(range(self.num_batches))

    def collate(self, bid: int) -> Batch:
        raise NotImplementedError

    def step(self, batch: Batch) -> Tuple[float, int]:
        """One optimisation step; returns (summed loss, loss terms)."""
        raise NotImplementedError

    def models(self) -> List[Layer]:
        return [self.model]

    def trainers(self) -> list:
        return [self.trainer]


# ---------------------------------------------------------------------------
# bert-eager
# ---------------------------------------------------------------------------


class BertEager(Workload):
    name = "bert-eager"
    model_cls = BertModel
    SEQ_LEN = 64
    NUM_SEQS = 64
    BATCH = 8

    @classmethod
    def config(cls, **over) -> LSConfig:
        kw = dict(QUICK_DIMS, num_encoder_layers=3)
        kw.update(over)
        return get_config("bert-base", max_batch_tokens=1024,
                          max_seq_len=256, **kw)

    @classmethod
    def generate(cls, seed: int):
        """MRPC-shaped pairs: true lengths ~ N(40, 12) (stratified) clipped
        to [8, 64], padded to 64; binary labels on a 10-class head."""
        rng = np.random.default_rng(seed)
        toks = np.full((cls.NUM_SEQS, cls.SEQ_LEN), BERT_PAD, np.int64)
        lens = np.clip(40 + 12 * rng.permutation(quantiles(cls.NUM_SEQS,
                                                           rng)),
                       8, cls.SEQ_LEN).astype(int)
        for i, n in enumerate(lens):
            toks[i, :n] = rng.integers(BERT_PAD + 1,
                                       QUICK_DIMS["vocab_size"], n)
        labels = rng.integers(0, 2, cls.NUM_SEQS).astype(np.int64)
        return toks, labels

    def __init__(self, corpus, seed: int):
        self.toks, self.labels = corpus
        self.num_batches = len(self.toks) // self.BATCH
        self.cfg = self.config()
        self.model = BertModel(self.cfg, seed=MODEL_SEED)
        self.trainer = make_trainer("lightseq", self.model,
                                    OptimizerSpec(lr=LR))

    def collate(self, bid):
        sl = slice(bid * self.BATCH, (bid + 1) * self.BATCH)
        toks = self.toks[sl].copy()
        return Batch((toks, self.labels[sl].copy()),
                     count_tokens(toks, BERT_PAD), toks.size)

    def step(self, batch):
        res = train_step(self.model, self.trainer, batch.arrays, lr=LR)
        return res.loss, res.num_tokens


# ---------------------------------------------------------------------------
# mt-varlen-replay
# ---------------------------------------------------------------------------


def pack_by_tokens(src_lens: np.ndarray, tgt_lens: np.ndarray,
                   budget: int) -> List[np.ndarray]:
    """Greedy token-budget batching over length-sorted pairs (fairseq):
    a batch of ``n`` pairs padded to ``m`` slots keeps ``n * m <= budget``."""
    order = np.lexsort((src_lens, tgt_lens))
    batches, cur, cur_max = [], [], 0
    for i in order:
        m = max(cur_max, int(max(src_lens[i], tgt_lens[i])))
        if cur and (len(cur) + 1) * m > budget:
            batches.append(np.array(cur))
            cur, m = [], int(max(src_lens[i], tgt_lens[i]))
        cur.append(i)
        cur_max = m
    batches.append(np.array(cur))
    return batches


def pad_rows(rows: Sequence[np.ndarray], pad: int = PAD) -> np.ndarray:
    out = np.full((len(rows), max(len(r) for r in rows)), pad, np.int64)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


class MTVarlenReplay(Workload):
    name = "mt-varlen-replay"
    model_cls = TransformerModel
    NUM_PAIRS = 240
    MAX_LEN = 64
    BUDGET = 384          # padded tokens per batch (--max-tokens)
    #: the log-normal the program's ``SyntheticTranslationCorpus`` fits
    #: to WMT14 En-De training lengths: median e^3.1 ≈ 22 tokens
    LEN_MU, LEN_SIGMA = SyntheticTranslationCorpus.LEN_MU, \
        SyntheticTranslationCorpus.LEN_SIGMA

    @classmethod
    def config(cls, **over) -> LSConfig:
        kw = dict(QUICK_DIMS, num_encoder_layers=2, num_decoder_layers=2,
                  fp16=True)
        kw.update(over)
        return get_config("transformer-base", max_batch_tokens=1024,
                          max_seq_len=256, **kw)

    @classmethod
    def generate(cls, seed: int):
        """WMT-shaped pairs: log-normal source lengths, target/source
        length ratio ~ N(1, 0.15), Zipf tokens, </s>-terminated; returns
        (sources, targets, batches of pair indices).

        The lengths start as the distributions' quantiles at fixed
        probabilities, paired in a fixed order, and the corpus is batched
        on them once.  The seed then shortens every sentence that is not
        its batch's longest by 0-2 tokens, draws the tokens and each
        epoch's batch order.  So every seed batches into the same shapes
        (and the same arena demand) and differs in tokens and padding."""
        rng = np.random.default_rng(seed)
        z = quantiles(cls.NUM_PAIRS)
        src_len = np.clip(np.exp(cls.LEN_MU + cls.LEN_SIGMA * z),
                          1, cls.MAX_LEN - 1).astype(int)
        ratio = 1.0 + 0.15 * np.random.default_rng(0).permutation(z)
        tgt_len = np.clip(np.round(src_len * ratio), 1,
                          cls.MAX_LEN - 1).astype(int)
        batches = pack_by_tokens(src_len + 1, tgt_len + 1, cls.BUDGET)
        for idx in batches:
            for lens in (src_len, tgt_len):
                longest = lens[idx].max()
                cut = rng.integers(0, 3, len(idx))
                lens[idx] = np.where(lens[idx] == longest, longest,
                                     np.maximum(1, lens[idx] - cut))
        vocab = QUICK_DIMS["vocab_size"]
        src = [np.append(zipf_tokens(rng, vocab, k), EOS) for k in src_len]
        tgt = [np.append(zipf_tokens(rng, vocab, k), EOS) for k in tgt_len]
        return src, tgt, batches

    def __init__(self, corpus, seed: int):
        self.src, self.tgt, self.batches = corpus
        self.num_batches = len(self.batches)
        self.seed = seed
        self.cfg = self.config()
        self.model = TransformerModel(self.cfg, seed=MODEL_SEED)
        self.scaler = DynamicLossScaler(init_scale=INIT_LOSS_SCALE)
        self.trainer = make_trainer("lightseq", self.model,
                                    OptimizerSpec(lr=LR), scaler=self.scaler)
        self.engine = CaptureReplayEngine(self.model, self.trainer,
                                          arena=ActivationArena())
        # LightSeq2 (§3.3) sizes its memory by scanning the corpus before
        # training.  The batch that needs the most is not the longest one
        # (many short rows can need more), so every batch is scanned: the
        # slab reaches its final size before any program is captured.
        self.engine.arena.scan(
            self._forward_backward,
            [self.collate(b) for b in range(self.num_batches)])
        self.trainer.zero_grad()

    def _forward_backward(self, batch):
        self.model.forward(*batch.arrays)
        self.model.backward()

    def round_order(self, r):
        """Batch order reshuffled every epoch, as fairseq does."""
        rng = np.random.default_rng([self.seed, r])
        return [int(b) for b in rng.permutation(self.num_batches)]

    def collate(self, bid):
        idx = self.batches[bid]
        src = pad_rows([self.src[i] for i in idx])
        tgt_out = pad_rows([self.tgt[i] for i in idx])
        # decoder input: </s> moved to the front, the rest shifted right
        tgt_in = pad_rows([np.concatenate(([EOS], self.tgt[i][:-1]))
                           for i in idx])
        return Batch((src, tgt_in, tgt_out),
                     count_tokens(src, PAD) + count_tokens(tgt_in, PAD),
                     src.size + tgt_in.size)

    def step(self, batch):
        res = self.engine.step(batch.arrays, lr=LR)
        return res.loss, res.num_tokens


# ---------------------------------------------------------------------------
# gpt-dp2
# ---------------------------------------------------------------------------


class GPTDp2(Workload):
    name = "gpt-dp2"
    model_cls = GPTModel
    world = 2
    SEQ_LEN = 64
    BATCH = 8              # global; 4 sequences per replica
    NUM_BATCHES = 6
    BUCKET_BYTES = 512 * 1024

    @classmethod
    def config(cls, **over) -> LSConfig:
        kw = dict(QUICK_DIMS, num_decoder_layers=3, fp16=True)
        kw.update(over)
        return get_config("gpt2-small", max_batch_tokens=1024,
                          max_seq_len=256, **kw)

    @classmethod
    def generate(cls, seed: int):
        """A packed causal-LM stream, as the program's ``SyntheticLMCorpus``
        gives, cut into 64-token blocks (fairseq's ``--sample-break-mode
        none``): whole </s>-terminated sentences of Zipf ids, their lengths
        drawn from the WMT log-normal, one after another.  The stream ends
        before the first sentence that would not fit, so only its last
        block is right-padded, by 0-63 slots.  Returns inputs and
        next-token targets."""
        rng = np.random.default_rng(seed)
        size = cls.NUM_BATCHES * cls.BATCH * cls.SEQ_LEN + 1
        stream: List[int] = []
        while True:
            k = int(np.clip(np.exp(rng.normal(
                SyntheticTranslationCorpus.LEN_MU,
                SyntheticTranslationCorpus.LEN_SIGMA)), 1, cls.SEQ_LEN - 1))
            if len(stream) + k + 1 > size:
                break
            stream.extend(zipf_tokens(rng, QUICK_DIMS["vocab_size"], k))
            stream.append(EOS)
        ids = np.full(size, PAD, np.int64)
        ids[:len(stream)] = stream
        return (ids[:-1].reshape(-1, cls.SEQ_LEN),
                ids[1:].reshape(-1, cls.SEQ_LEN))

    def __init__(self, corpus, seed: int):
        self.inputs, self.targets = corpus
        self.num_batches = len(self.inputs) // self.BATCH
        self.cfg = cfg = self.config()
        self.dp = DataParallel(
            lambda: GPTModel(cfg, seed=MODEL_SEED), self.world, "lightseq",
            OptimizerSpec(lr=LR),
            scaler_factory=lambda: DynamicLossScaler(
                init_scale=INIT_LOSS_SCALE),
            overlap_grad_sync=True, bucket_bytes=self.BUCKET_BYTES)

    def collate(self, bid):
        sl = slice(bid * self.BATCH, (bid + 1) * self.BATCH)
        inp = self.inputs[sl].copy()
        return Batch((inp, self.targets[sl].copy()), count_tokens(inp, PAD),
                     inp.size)

    def step(self, batch):
        return self.dp.train_step(shard_batch(batch.arrays, self.world),
                                  lr=LR)

    def models(self):
        return list(self.dp.replicas)

    def trainers(self):
        return list(self.dp.trainers)


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (BertEager, MTVarlenReplay, GPTDp2)}


def build(name: str, seed: int) -> Workload:
    cls = WORKLOADS[name]
    return cls(cls.generate(seed), seed)


def setup(name: str, seed: int) -> Workload:
    """Corpus, batching, model, trainer and arena build plus the warm-up
    steps — everything ``setup_s`` times."""
    wl = build(name, seed)
    for b in range(WARMUP_STEPS):
        wl.step(wl.collate(b))
    return wl
