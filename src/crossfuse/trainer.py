"""Two-stage training, checkpointing, and the training log.

Stage 1 fits the attribute pipeline with the squared-error objective and
freezes its output feature matrices.  Stage 2 trains the graph backbone
against those frozen features through one step shared by every fusion
variant (the variants differ only in their feature-level objective),
tracking validation NDCG@10 for model selection and early stopping.  Both
stages are deterministic functions of (data, config, seed); checkpoints
capture parameters, optimizer moments, and the random stream so a resumed
run is bit-for-bit the uninterrupted one.
"""

from __future__ import annotations

import json
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import auxnet, fusion
from .backbone import BackboneConfig, LightGCN
from .data import (TRAIN, VALIDATION, DataError, InteractionDataset, sample_negatives,
                   split_truth)
from .evaluate import RankingReport, ranking_metrics, recommend_all
from .optim import Param, check_optimizer, make_optimizer

CHECKPOINT_MAGIC = b"CFCK"
CHECKPOINT_VERSION = 2


class DivergenceError(Exception):
    """Training hit a non-finite loss."""

    def __init__(self, stage: int, epoch: int):
        super().__init__(f"non-finite loss in stage {stage} at epoch {epoch}")
        self.stage = stage
        self.epoch = epoch


class PipelineOrderError(Exception):
    """Stage 2 started without stage-1 products."""


class CheckpointVersionError(DataError):
    pass


class CheckpointCorruptError(DataError):
    pass


@dataclass
class TrainConfig:
    """Learning rates, loop sizes, optimizer choice, and the random seed."""

    eta1: float = 0.001
    eta2: float = 0.001
    epochs: int = 200
    batch_size: int = 1024
    optimizer: str = "adam"
    patience: int | None = 20  # None disables early stopping
    seed: int = 0

    def validate(self) -> None:
        if self.eta1 <= 0 or self.eta2 <= 0:
            raise ValueError("learning rates must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        check_optimizer(self.optimizer)


@dataclass
class EpochRecord:
    stage: int
    epoch: int
    loss: float
    val_metric: float = float("nan")
    wall_time: float = 0.0


class TrainingLog:
    """Append-only per-epoch records, persistable as delimited text."""

    def __init__(self):
        self.records: list[EpochRecord] = []

    def add(self, rec: EpochRecord) -> None:
        self.records.append(rec)

    def write(self, path: str | Path, append: bool = True) -> None:
        path = Path(path)
        new = not path.exists() or not append
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            if new:
                fh.write("stage\tepoch\tloss\tval_ndcg10\twall_time\n")
            for r in self.records:
                val = "" if np.isnan(r.val_metric) else repr(r.val_metric)
                fh.write(f"{r.stage}\t{r.epoch}\t{r.loss!r}\t{val}\t{r.wall_time:.3f}\n")


def _pad_with_negatives(ds: InteractionDataset, batch: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """1:1 zero-rated negative rows appended to a (u, i, r) batch."""
    negs = np.column_stack([batch[:, 0], sample_negatives(ds, batch[:, 0], rng),
                            np.zeros(len(batch))])
    return np.concatenate([batch, negs], axis=0)


# ---------------------------------------------------------------------------
# Stage 1
# ---------------------------------------------------------------------------

@dataclass
class Stage1Result:
    user_features: np.ndarray
    item_features: np.ndarray
    log: TrainingLog
    user_net: auxnet.AuxiliaryExtractor
    item_net: auxnet.AuxiliaryExtractor


def train_stage1(ds: InteractionDataset, user_net: auxnet.AuxiliaryExtractor,
                 item_net: auxnet.AuxiliaryExtractor, user_x: np.ndarray,
                 item_x: np.ndarray, sim_user: sp.spmatrix, sim_item: sp.spmatrix,
                 cfg: TrainConfig) -> Stage1Result:
    """Fit the attribute pipeline and return frozen eval-mode feature matrices.

    Implicit datasets get each batch padded 1:1 with zero-rated sampled
    negatives so the squared-error objective has a non-degenerate optimum.
    The attribute rows are grouped into distinct rows once, before the
    minibatch loop.  The returned matrices are marked read-only.
    """
    cfg.validate()
    user_rows = auxnet.distinct_rows(user_x)
    item_rows = auxnet.distinct_rows(item_x)
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(cfg.optimizer, user_net.params() + item_net.params(), cfg.eta1)
    triplets = ds.triplets(TRAIN)
    implicit = ds.implicit
    log = TrainingLog()

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        perm = rng.permutation(len(triplets))
        epoch_loss = 0.0
        for lo in range(0, len(perm), cfg.batch_size):
            batch = triplets[perm[lo:lo + cfg.batch_size]]
            if implicit:
                batch = _pad_with_negatives(ds, batch, rng)
            user_net.zero_grad()
            item_net.zero_grad()
            user_net.forward(user_rows, sim_user, "train")
            item_net.forward(item_rows, sim_item, "train")
            loss = auxnet.stage1_loss_and_grad(user_net, item_net, batch)
            if not np.isfinite(loss):
                raise DivergenceError(stage=1, epoch=epoch)
            opt.step()
            epoch_loss += loss
        log.add(EpochRecord(stage=1, epoch=epoch, loss=epoch_loss,
                            wall_time=time.perf_counter() - t0))

    a_users = user_net.forward(user_rows, sim_user, "eval")
    a_items = item_net.forward(item_rows, sim_item, "eval")
    a_users.flags.writeable = False
    a_items.flags.writeable = False
    return Stage1Result(a_users, a_items, log, user_net, item_net)


# ---------------------------------------------------------------------------
# Stage 2
# ---------------------------------------------------------------------------

@dataclass
class Stage2State:
    """Everything stage 2 needs to continue mid-run.  ``params`` and
    ``best_params`` hold each trained array by name (``"table"`` plus any
    weighted-sum matrices) as the last and the best-validation epoch left it."""

    epoch: int
    params: dict[str, np.ndarray]
    best_params: dict[str, np.ndarray]
    best_metric: float
    stale_epochs: int
    opt_meta: dict
    opt_tensors: dict
    rng_state: dict

    def selected(self) -> dict[str, np.ndarray]:
        """The model training selected: the best-validation epoch's values
        when validation ran, else the last epoch's."""
        return self.best_params if np.isfinite(self.best_metric) else self.params


@dataclass
class Stage2Result:
    """The selected table and fusion weights, the model, the log, and
    ``state``: the resumable state as the last epoch left it."""

    table: Param
    model: LightGCN
    log: TrainingLog
    best_metric: float
    epochs_run: int
    state: Stage2State
    fusion_weights: list[np.ndarray] | None = None


def _make_ranked_batch(ds, triplets, idx, rng) -> np.ndarray:
    rows = triplets[idx]
    out = np.empty((len(rows), 3), dtype=np.int64)
    out[:, 0] = rows[:, 0].astype(np.int64)
    out[:, 1] = rows[:, 1].astype(np.int64)
    out[:, 2] = sample_negatives(ds, out[:, 0], rng)
    return out


def score(ds: InteractionDataset, model: LightGCN, params: dict[str, Param],
          variant: str, a_users, a_items, truth: dict[int, set], topn,
          keep_per_user: bool = False) -> tuple[dict[int, np.ndarray], RankingReport]:
    """Top-``max(topn)`` unseen items for each user in ``truth`` by the
    variant's score under ``params`` (named as in ``Stage2State``), and their
    ranking metrics; validation, ``evaluate`` and ``ablate`` all score here."""
    feats = model.forward(params["table"])
    weights = tuple(params[k].value for k in sorted(params) if k != "table") or None
    eff_u, eff_v = fusion.effective_features(variant, feats.users, feats.items,
                                             a_users, a_items, weights)
    recs = recommend_all(eff_u, eff_v, ds, max(topn), sorted(truth))
    return recs, ranking_metrics(recs, truth, topn, keep_per_user=keep_per_user)


def train_stage2(ds: InteractionDataset, adj: sp.spmatrix, table: Param,
                 a_users: np.ndarray | None, a_items: np.ndarray | None,
                 bcfg: BackboneConfig, cfg: TrainConfig,
                 fcfg: fusion.FusionConfig | None,
                 resume: Stage2State | None = None) -> Stage2Result:
    """Train the backbone against the frozen auxiliary features.

    Each epoch draws one negative per positive (or pads zero-rated negatives
    for the squared-error objectives), takes ``fusion.fused_objective_grad``
    steps on the configured variant, and scores validation NDCG@10; the
    selected model (``Stage2State.selected``) is restored at the end.
    ``resume`` continues from a saved state; a run with ``cfg.epochs = k``
    leaves in ``result.state`` the state to resume from after epoch k.
    Refuses to start with fusion enabled but no stage-1 products.
    """
    cfg.validate()
    bcfg.validate()
    fusion_on = fcfg is not None and fcfg.active
    if fcfg is not None:
        fcfg.validate(dim=bcfg.dim)
    if fusion_on and (a_users is None or a_items is None):
        raise PipelineOrderError("stage 2 needs the stage-1 feature matrices "
                                 "(or externally supplied ones) when fusion is enabled")
    if fusion_on and a_users.shape[1] != bcfg.dim:
        raise ValueError(f"auxiliary dimension {a_users.shape[1]} != backbone dim {bcfg.dim}")

    model = LightGCN(adj.tocsr(), ds.n, bcfg)
    variant = fcfg.variant if fcfg is not None else "none"
    rated = fcfg is not None and fcfg.rated
    w_params: list[Param] | None = None
    if variant == "weighted-sum":
        init = fcfg.weights if fcfg.weights is not None else fusion.identity_weights(bcfg.dim)
        w_params = [Param(w, f"fusion.w{k + 1}") for k, w in enumerate(init)]

    named = {"table": table, **{p.name: p for p in w_params or []}}
    opt = make_optimizer(cfg.optimizer, list(named.values()), cfg.eta2)
    rng = np.random.default_rng(cfg.seed)
    triplets = ds.triplets(TRAIN)
    val_truth = split_truth(ds, VALIDATION)
    log = TrainingLog()

    start_epoch = 0
    best_params = {k: p.value.copy() for k, p in named.items()}
    best_metric = -np.inf
    stale = 0
    if resume is not None:
        start_epoch = resume.epoch
        for k, p in named.items():
            p.value[...] = resume.params[k]
        opt.load_state(resume.opt_meta, resume.opt_tensors)
        rng.bit_generator.state = resume.rng_state
        best_params = {k: v.copy() for k, v in resume.best_params.items()}
        best_metric = resume.best_metric
        stale = resume.stale_epochs

    epochs_run = start_epoch
    for epoch in range(start_epoch + 1, cfg.epochs + 1):
        t0 = time.perf_counter()
        perm = rng.permutation(len(triplets))
        epoch_loss = 0.0
        for lo in range(0, len(perm), cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            if rated:
                batch = triplets[idx]
                if ds.implicit:
                    batch = _pad_with_negatives(ds, batch, rng)
            else:
                batch = _make_ranked_batch(ds, triplets, idx, rng)
            for p in named.values():
                p.zero_grad()
            loss = fusion.fused_objective_grad(model, model.forward(table), table, a_users,
                                               a_items, batch, fcfg, w_params)
            if not np.isfinite(loss):
                raise DivergenceError(stage=2, epoch=epoch)
            opt.step()
            epoch_loss += loss

        val_metric = float("nan")
        if val_truth:
            _, report = score(ds, model, named, variant, a_users, a_items, val_truth, [10])
            val_metric = report.means["ndcg"][10]
            if val_metric > best_metric:
                best_metric = val_metric
                best_params = {k: p.value.copy() for k, p in named.items()}
                stale = 0
            else:
                stale += 1
        epochs_run = epoch
        log.add(EpochRecord(stage=2, epoch=epoch, loss=epoch_loss, val_metric=val_metric,
                            wall_time=time.perf_counter() - t0))
        if cfg.patience is not None and val_truth and stale > cfg.patience:
            break

    state = Stage2State(
        epoch=epochs_run,
        params={k: p.value.copy() for k, p in named.items()},
        best_params=best_params,
        best_metric=best_metric,
        stale_epochs=stale,
        opt_meta=opt.state(),
        opt_tensors={k: v.copy() for k, v in opt.state_tensors().items()},
        rng_state=rng.bit_generator.state,
    )
    for k, values in state.selected().items():
        named[k].value[...] = values
    return Stage2Result(table=table, model=model, log=log, best_metric=best_metric,
                        epochs_run=epochs_run, state=state,
                        fusion_weights=[p.value for p in w_params] if w_params else None)


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """A named bag of tensors plus a JSON-able metadata dict."""

    meta: dict
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


_DTYPES = {0: "<f8", 1: "<i8"}
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}


def _tensor_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _DTYPE_CODES:
        arr = arr.astype(np.float64)
    code = _DTYPE_CODES[arr.dtype]
    head = struct.pack("<BB", code, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return head + dims + arr.astype(_DTYPES[code]).tobytes()


def _tensor_from(buf: bytes) -> np.ndarray:
    code, ndim = struct.unpack_from("<BB", buf, 0)
    dims = struct.unpack_from(f"<{ndim}Q", buf, 2) if ndim else ()
    data = np.frombuffer(buf, dtype=_DTYPES[code], offset=2 + 8 * ndim)
    return data.reshape(dims).copy()


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """magic + version, section count, length-prefixed named sections, crc32."""
    sections: list[tuple[str, int, bytes]] = [
        ("meta", 0, json.dumps(ckpt.meta, sort_keys=True).encode())]
    for name in sorted(ckpt.tensors):
        sections.append((name, 1, _tensor_bytes(ckpt.tensors[name])))
    body = bytearray()
    body += CHECKPOINT_MAGIC
    body += struct.pack("<I", CHECKPOINT_VERSION)
    body += struct.pack("<I", len(sections))
    for name, kind, payload in sections:
        enc = name.encode()
        body += struct.pack("<I", len(enc)) + enc
        body += struct.pack("<B", kind)
        body += struct.pack("<Q", len(payload)) + payload
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    Path(path).write_bytes(bytes(body))


def load_checkpoint(path: str | Path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"{path}: checkpoint format version {version}, "
                                     f"expected {CHECKPOINT_VERSION}")
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) != stored_crc:
        raise CheckpointCorruptError(f"{path}: checksum mismatch, file is corrupt")
    (count,) = struct.unpack_from("<I", raw, 8)
    off = 12
    meta: dict = {}
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, off)
        off += 4
        name = raw[off:off + name_len].decode()
        off += name_len
        (kind,) = struct.unpack_from("<B", raw, off)
        off += 1
        (size,) = struct.unpack_from("<Q", raw, off)
        off += 8
        payload = raw[off:off + size]
        off += size
        if kind == 0:
            meta = json.loads(payload.decode())
        else:
            tensors[name] = _tensor_from(payload)
    return Checkpoint(meta=meta, tensors=tensors)


def pack_stage2_state(state: Stage2State, config_snapshot: dict,
                      a_users: np.ndarray | None = None,
                      a_items: np.ndarray | None = None) -> Checkpoint:
    """Bundle a stage-2 state (plus the frozen auxiliary features) into a
    writable checkpoint.  The generator state is PCG64's, plain integers, so
    it goes into the JSON metadata as it is."""
    meta = {
        "kind": "stage2",
        "epoch": state.epoch,
        "best_metric": state.best_metric,
        "stale_epochs": state.stale_epochs,
        "opt": state.opt_meta,
        "rng_state": state.rng_state,
        "config": config_snapshot,
    }
    tensors = {f"last.{k}": v for k, v in state.params.items()}
    tensors.update({f"best.{k}": v for k, v in state.best_params.items()})
    tensors.update({f"opt.{k}": v for k, v in state.opt_tensors.items()})
    if a_users is not None:
        tensors["aux_users"] = np.asarray(a_users)
    if a_items is not None:
        tensors["aux_items"] = np.asarray(a_items)
    return Checkpoint(meta=meta, tensors=tensors)


def unpack_stage2_state(ckpt: Checkpoint) -> Stage2State:
    def prefixed(prefix: str) -> dict[str, np.ndarray]:
        return {k[len(prefix):]: v for k, v in ckpt.tensors.items() if k.startswith(prefix)}

    meta = ckpt.meta
    return Stage2State(
        epoch=int(meta["epoch"]),
        params=prefixed("last."),
        best_params=prefixed("best."),
        best_metric=float(meta["best_metric"]),
        stale_epochs=int(meta["stale_epochs"]),
        opt_meta=meta["opt"],
        opt_tensors=prefixed("opt."),
        rng_state=meta["rng_state"],
    )
