"""Two-stage training, checkpointing, and the training log.

Stage 1 fits the attribute pipeline with the squared-error objective and
freezes its output feature matrices.  Stage 2 trains the graph backbone
against those frozen features through one step shared by every fusion
variant (the variants differ only in their feature-level objective),
tracking validation NDCG@10 for model selection and early stopping.  Both
stages train through one minibatch loop, ``_epochs``, and are deterministic
functions of (data, config, seed); checkpoints (:mod:`store` files)
capture parameters, optimizer moments, and the random stream so a resumed
run is bit-for-bit the uninterrupted one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import auxnet, fusion, store
from .backbone import BackboneConfig, LightGCN
from .data import TRAIN, VALIDATION, DataError, InteractionDataset, sample_negatives
from .evaluate import RankingReport, TopN, score_top_n, top_n
# perfbench's tracer patches the mapping forms as attributes of this module
from .evaluate import ranking_metrics, recommend_all  # noqa: F401
from .optim import Adam, Param


class DivergenceError(Exception):
    """Training hit a non-finite loss, or a model to be scored has non-finite
    features (``epoch`` None)."""

    def __init__(self, stage: int, epoch: int | None, what: str = "loss"):
        at = "" if epoch is None else f" at epoch {epoch}"
        super().__init__(f"non-finite {what} in stage {stage}{at}")
        self.stage = stage
        self.epoch = epoch


class PipelineOrderError(Exception):
    """Stage 2 started without stage-1 products."""


@dataclass
class TrainConfig:
    """Learning rates, loop sizes, early stopping, and the random seed."""

    eta1: float = 0.001
    eta2: float = 0.001
    epochs: int = 200
    batch_size: int = 1024
    patience: int | None = 20  # None disables early stopping
    seed: int = 0

    def validate(self) -> None:
        for key in ("eta1", "eta2"):
            rate = getattr(self, key)
            if rate <= 0:
                raise ValueError(f"{key} must be positive, got {rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must be none or >= 0, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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

    def write(self, path: str | Path) -> None:
        """Write the records to ``path`` in place of the rows of their stages
        there, keeping the other stages' rows: a re-run replaces its stage's
        block, and the file lists stage 1 first."""
        path = Path(path)
        stages = {str(r.stage) for r in self.records}
        rows = [] if not path.exists() else [
            line for line in path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
            if line.split("\t", 1)[0] not in stages]
        for r in self.records:
            val = "" if np.isnan(r.val_metric) else repr(r.val_metric)
            rows.append(f"{r.stage}\t{r.epoch}\t{r.loss!r}\t{val}\t{r.wall_time:.3f}\n")
        rows.sort(key=lambda line: line.split("\t", 1)[0])  # stable: epochs keep their order
        path.write_text("stage\tepoch\tloss\tval_ndcg10\twall_time\n" + "".join(rows),
                        encoding="utf-8")


def _epochs(ds: InteractionDataset, cfg: TrainConfig, opt, rng: np.random.Generator,
            stage: int, rated: bool, step, start: int = 0):
    """The minibatch loop both stages train through: epochs ``start + 1`` to
    ``cfg.epochs``, each one permutation of the train interactions cut into
    batches.

    A batch is three equal-length columns: int64 users, int64 items, and
    either float64 ratings (``rated``; on implicit data padded 1:1 with the
    same users, their sampled negatives and ratings 0.0) or int64 sampled
    negatives.  Each batch zeroes the optimizer's gradient buffer, calls
    ``step(batch)`` for the loss, and takes one optimizer step.  Yields
    ``(epoch, epoch_loss, t0)`` after each epoch, ``t0`` being the epoch's
    start on ``time.perf_counter``.
    """
    train = ds.split == TRAIN
    users, items, ratings = ds.users[train], ds.items[train], ds.ratings[train]
    pad = rated and ds.implicit
    for epoch in range(start + 1, cfg.epochs + 1):
        t0 = time.perf_counter()
        perm = rng.permutation(len(users))
        epoch_loss = 0.0
        for lo in range(0, len(perm), cfg.batch_size):
            take = perm[lo:lo + cfg.batch_size]
            u, i = users[take], items[take]
            if not rated:
                batch = (u, i, sample_negatives(ds, u, rng))
            elif pad:
                negs = sample_negatives(ds, u, rng)
                batch = (np.concatenate([u, u]), np.concatenate([i, negs]),
                         np.concatenate([ratings[take], np.zeros(len(take))]))
            else:
                batch = (u, i, ratings[take])
            opt.zero_grad()
            loss = step(batch)
            if not np.isfinite(loss):
                raise DivergenceError(stage=stage, epoch=epoch)
            opt.step()
            epoch_loss += loss
        yield epoch, epoch_loss, t0


# ---------------------------------------------------------------------------
# Stage 1
# ---------------------------------------------------------------------------

@dataclass
class Stage1Result:
    user_features: np.ndarray
    item_features: np.ndarray
    log: TrainingLog


def train_stage1(ds: InteractionDataset, user_net: auxnet.AuxiliaryExtractor,
                 item_net: auxnet.AuxiliaryExtractor, user_x: np.ndarray,
                 item_x: np.ndarray, sim_user: sp.spmatrix, sim_item: sp.spmatrix,
                 cfg: TrainConfig) -> Stage1Result:
    """Fit the attribute pipeline and return frozen eval-mode feature matrices.

    Implicit datasets get each batch padded 1:1 with zero-rated sampled
    negatives so the squared-error objective has a non-degenerate optimum.
    The nodes are grouped into node classes (``auxnet.node_classes``) once,
    before the minibatch loop.  The returned matrices are marked read-only.
    """
    cfg.validate()
    user_classes = auxnet.node_classes(user_x, sim_user)
    item_classes = auxnet.node_classes(item_x, sim_item)
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(user_net.params() + item_net.params(), cfg.eta1)
    log = TrainingLog()

    def step(batch) -> float:
        return auxnet.stage1_loss_and_grad(user_net, item_net, user_classes, item_classes,
                                           batch)

    for epoch, loss, t0 in _epochs(ds, cfg, opt, rng, 1, True, step):
        log.add(EpochRecord(stage=1, epoch=epoch, loss=loss,
                            wall_time=time.perf_counter() - t0))

    a_users = user_net.forward(user_classes, train=False)
    a_items = item_net.forward(item_classes, train=False)
    a_users.flags.writeable = False
    a_items.flags.writeable = False
    return Stage1Result(a_users, a_items, log)


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
    state: Stage2State
    fusion_weights: list[np.ndarray] | None = None


def score(ds: InteractionDataset, model: LightGCN, params: dict[str, Param],
          variant: str, a_users, a_items, truth: tuple[np.ndarray, np.ndarray], topn,
          keep_per_user: bool = False) -> tuple[TopN, RankingReport]:
    """Top-``max(topn)`` unseen items for each user with items in ``truth``
    (a split as ``ds.split_csr`` gives it) by the variant's score under
    ``params`` (named as in ``Stage2State``), and their ranking metrics;
    validation, ``evaluate`` and ``ablate`` all score here.  Non-finite
    effective features raise :class:`DivergenceError`."""
    feats = model.forward(params["table"])
    weights = tuple(params[k].value for k in sorted(params) if k != "table") or None
    eff_u, eff_v = fusion.effective_features(variant, feats.users, feats.items,
                                             a_users, a_items, weights)
    if not (np.isfinite(eff_u).all() and np.isfinite(eff_v).all()):
        raise DivergenceError(stage=2, epoch=None, what="effective features")
    indptr, indices = truth
    users = np.flatnonzero(np.diff(indptr))
    top = top_n(eff_u, eff_v, ds, max(topn), users)
    # the other users' rows are empty, so the listed users' row starts and the
    # end delimit the truth rows of ``top``
    rows = (np.append(indptr[users], indptr[-1]), indices)
    return top, score_top_n(top, rows, topn, keep_per_user)


def train_stage2(ds: InteractionDataset, adj: sp.spmatrix, table: Param,
                 a_users: np.ndarray | None, a_items: np.ndarray | None,
                 bcfg: BackboneConfig, cfg: TrainConfig, fcfg: fusion.FusionConfig,
                 resume: Stage2State | None = None) -> Stage2Result:
    """Train the backbone against the frozen auxiliary features.

    Each epoch draws one negative per positive (or pads zero-rated negatives
    for the squared-error objectives), takes ``fusion.fused_objective_grad``
    steps on the configured variant, and scores validation NDCG@10; the
    selected model (``Stage2State.selected``) is restored at the end.  The
    plain backbone is ``FusionConfig(variant="none")``.
    ``resume`` continues from a saved state; a run with ``cfg.epochs = k``
    leaves in ``result.state`` the state to resume from after epoch k.
    Refuses to start with fusion enabled but no stage-1 products.
    """
    cfg.validate()
    bcfg.validate()
    fcfg.validate()
    if fcfg.active and (a_users is None or a_items is None):
        raise PipelineOrderError("stage 2 needs the stage-1 feature matrices when fusion "
                                 "is enabled; run `crossfuse train-aux` first or pass "
                                 "--aux-users/--aux-items")
    if fcfg.active and a_users.shape[1] != bcfg.dim:
        raise ValueError(f"auxiliary dimension {a_users.shape[1]} != backbone dim {bcfg.dim}")

    model = LightGCN(adj.tocsr(), ds.n, bcfg)
    w_params: list[Param] | None = None
    if fcfg.variant == "weighted-sum":
        w_params = [Param(np.eye(bcfg.dim), f"fusion.w{k}") for k in range(1, 5)]

    named = {"table": table, **{p.name: p for p in w_params or []}}
    opt = Adam(list(named.values()), cfg.eta2)
    rng = np.random.default_rng(cfg.seed)
    val_truth = ds.split_csr(VALIDATION)
    validate = len(val_truth[1]) > 0
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

    def step(batch) -> float:
        return fusion.fused_objective_grad(model, table, a_users, a_items, batch, fcfg,
                                           w_params)

    epochs_run = start_epoch
    for epoch, loss, t0 in _epochs(ds, cfg, opt, rng, 2, fcfg.rated, step, start_epoch):
        val_metric = float("nan")
        if validate:
            _, report = score(ds, model, named, fcfg.variant, a_users, a_items, val_truth,
                              [10])
            val_metric = report.means["ndcg"][10]
            if val_metric > best_metric:
                best_metric = val_metric
                best_params = {k: p.value.copy() for k, p in named.items()}
                stale = 0
            else:
                stale += 1
        epochs_run = epoch
        log.add(EpochRecord(stage=2, epoch=epoch, loss=loss, val_metric=val_metric,
                            wall_time=time.perf_counter() - t0))
        if cfg.patience is not None and validate and stale > cfg.patience:
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
    model.release_work()
    return Stage2Result(table=table, model=model, log=log, state=state,
                        fusion_weights=[p.value for p in w_params] if w_params else None)


def pack_stage2_state(state: Stage2State, config_snapshot: dict,
                      a_users: np.ndarray | None = None,
                      a_items: np.ndarray | None = None) -> store.ArrayFile:
    """Bundle a stage-2 state (plus the frozen auxiliary features) into a
    checkpoint that ``store.save`` writes.  The generator state is PCG64's, plain integers, so
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
    arrays = {f"last.{k}": v for k, v in state.params.items()}
    arrays.update({f"best.{k}": v for k, v in state.best_params.items()})
    arrays.update({f"opt.{k}": v for k, v in state.opt_tensors.items()})
    if a_users is not None:
        arrays["aux_users"] = np.asarray(a_users)
    if a_items is not None:
        arrays["aux_items"] = np.asarray(a_items)
    return store.ArrayFile(meta, arrays)


def unpack_stage2_state(ckpt: store.ArrayFile, path: str | Path) -> Stage2State:
    """The stage-2 state a checkpoint read from ``path`` holds.  A metadata
    key that is missing or of the wrong type, or a missing last or best
    ``table``, is a :class:`DataError` naming the file."""
    def prefixed(prefix: str) -> dict[str, np.ndarray]:
        return {k[len(prefix):]: v for k, v in ckpt.arrays.items() if k.startswith(prefix)}

    meta = ckpt.meta
    try:
        state = Stage2State(
            epoch=int(meta["epoch"]),
            params=prefixed("last."),
            best_params=prefixed("best."),
            best_metric=float(meta["best_metric"]),
            stale_epochs=int(meta["stale_epochs"]),
            opt_meta=meta["opt"],
            opt_tensors=prefixed("opt."),
            rng_state=meta["rng_state"],
        )
        if "table" not in state.params or "table" not in state.best_params:
            raise KeyError("table")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: incomplete stage-2 checkpoint "
                        f"({type(exc).__name__}: {exc})") from exc
    return state


def load_selected_model(path: str | Path, ds: InteractionDataset):
    """The model the checkpoint at ``path`` selects, for scoring on ``ds``:
    its fusion variant, layer count, selected arrays by name, and auxiliary
    user and item features (None when not stored).  A missing or damaged
    file, a bad config snapshot, a fused variant without its auxiliary
    features, an incomplete state (:func:`unpack_stage2_state`), arrays not
    sized for ``ds`` or weighted-sum matrices that are missing or not
    dim x dim is a :class:`DataError` naming the file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path} not found; run `crossfuse train` first")
    ckpt = store.load(path, "checkpoint")
    trained = ckpt.meta.get("config", {})
    if (ckpt.meta.get("kind") != "stage2" or not isinstance(trained, dict)
            or not {"variant", "layers"} <= trained.keys()):
        raise DataError(f"{path}: not a stage-2 checkpoint recording its fusion "
                        "variant and layer count")
    variant, layers = trained["variant"], trained["layers"]
    if variant not in fusion.VARIANTS:
        raise DataError(f"{path}: unknown fusion variant {variant!r} in the checkpoint")
    if type(layers) is not int or layers < 0:
        raise DataError(f"{path}: layer count {layers!r} in the checkpoint is not an "
                        "integer >= 0")
    if variant in fusion.AUX_SCORED and not {"aux_users", "aux_items"} <= ckpt.arrays.keys():
        raise DataError(f"{path}: a {variant} checkpoint without its auxiliary features "
                        "(aux_users, aux_items)")
    params = unpack_stage2_state(ckpt, path).selected()
    table = params["table"]
    if table.ndim != 2 or table.shape[0] != ds.n + ds.m:
        raise DataError(f"{path}: embedding table of shape {table.shape}, expected "
                        f"{ds.n + ds.m} rows (users + items of the prepared dataset); "
                        "re-run `crossfuse train`")
    if variant == "weighted-sum":
        square = (table.shape[1], table.shape[1])
        for name in (f"fusion.w{k}" for k in range(1, 5)):
            if name not in params or params[name].shape != square:
                found = f"of shape {params[name].shape}" if name in params else "missing"
                raise DataError(f"{path}: weighted-sum matrix {name} {found}, expected "
                                f"{square}; re-run `crossfuse train`")
    aux = [ckpt.arrays.get("aux_users"), ckpt.arrays.get("aux_items")]
    for name, arr, rows in zip(("aux_users", "aux_items"), aux, (ds.n, ds.m)):
        if arr is not None and arr.shape != (rows, table.shape[1]):
            raise DataError(f"{path}: {name} of shape {arr.shape}, expected "
                            f"({rows}, {table.shape[1]}); re-run `crossfuse train`")
    return variant, layers, params, aux[0], aux[1]
