"""Simulated user environment and data layer.

A fitted response model maps (state, slate) to per-item click
probabilities; binary feedback is sampled from them. Rewards average the
per-item signal {click -> 1.0, no click -> -0.2}, which keeps every step
reward inside [-0.2, 1.0]. Sessions carry a patience counter that drops
by one on each zero-click step, refreshes fully on any click, and ends
the episode at zero; a hard horizon caps depth regardless.

A fit builds every record's encoder, slate and label arrays once and
takes each batch's rows by index. One formula scores slates: a block of
them in the fit and in `click_probs_batch`, and one slate as row 0 of a
one-row block in `click_probs`. One formula responds to a block of
sessions, each drawing its clicks from its own rng; `step` is its
one-session case. The module also ingests ratings logs into slate
records and generates a planted-cluster synthetic catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_into, load_tensors, read_lines, save_tensors
from .encoder import (EncoderConfig, EncoderParams, UserState, encode,
                      encode_arrays, encode_batch, history_arrays)
from .errors import ConfigError, ContractError, DataError
from .optim import Optimizer
from .tokenizer import ItemEmbeddings

CLICK_SIGNAL = 1.0
NO_CLICK_SIGNAL = -0.2
# A log record keeps at most this many of its user's latest positives.
RECORD_HISTORY = 10


@dataclass
class LogRecord:
    user_id: int
    history: tuple[int, ...]      # positive items before the slate, at most RECORD_HISTORY
    slate: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.slate) != len(self.labels):
            raise DataError("slate and label lists disagree in length")
        if not self.slate:
            raise DataError("record slate is empty")
        if len(self.history) > RECORD_HISTORY:
            raise DataError(f"record history longer than {RECORD_HISTORY}")
        if any(y not in (0, 1) for y in self.labels):
            raise DataError(f"click labels must be 0 or 1, got {self.labels}")


@dataclass
class EnvConfig:
    slate_size: int = 5
    patience: int = 3
    horizon: int = 20
    history_window: int = 10

    def __post_init__(self):
        for name in ("slate_size", "patience", "horizon", "history_window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


@dataclass
class SessionState:
    user_id: int
    state: UserState
    patience: int
    step: int
    done: bool = False


@dataclass
class EpisodeMetrics:
    total_reward: float
    depth: int


# ---------------------------------------------------------------------------
# Response models
# ---------------------------------------------------------------------------


@dataclass
class SimFitConfig:
    embed_dim: int = 32
    history_window: int = 10
    epochs: int = 6
    batch_size: int = 32
    learning_rate: float = 0.01

    def __post_init__(self):
        for name in ("embed_dim", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not self.learning_rate > 0.0:
            raise ConfigError("learning_rate must be positive")


class ResponseModel:
    """Learned click-probability model: encoder state vector dotted with
    item embeddings, squashed through a sigmoid. `_block_logits` is the one
    scoring formula; a single slate is row 0 of a one-row block.

    When catalog item features are supplied, the item-embedding table is
    initialized from a seeded random projection of them (scaled to roughly
    unit row norm), so content structure is present before fitting starts.
    """

    def __init__(self, n_items: int, cfg: SimFitConfig, rng: np.random.Generator,
                 item_features: np.ndarray | None = None):
        self.n_items = n_items
        self.cfg = cfg
        enc_cfg = EncoderConfig(n_items=n_items, embed_dim=cfg.embed_dim,
                                out_dim=cfg.embed_dim,
                                history_window=cfg.history_window)
        self.encoder = EncoderParams(enc_cfg, rng)
        self.bias = Tensor(np.zeros(()), requires_grad=True)
        self._seen = None  # (history, encoder arrays, encoding) of the last click_probs
        if item_features is not None:
            self.encoder.init_items_from_features(item_features, rng)

    def tensors(self) -> dict[str, Tensor]:
        out = {f"enc/{k}": v for k, v in self.encoder.tensors().items()}
        out["bias"] = self.bias
        return out

    def _block_logits(self, u: Tensor, slates: np.ndarray) -> Tensor:
        """(n, k) logits of slate row r for encoding u[r], one graph for the block."""
        n, k = slates.shape
        rows = ad.embed(self.encoder.item_emb, slates)                 # (n, k, d)
        scores = ad.matmul(rows, ad.reshape(u, (n, self.cfg.embed_dim, 1)))
        return ad.add(ad.reshape(scores, (n, k)), self.bias)

    def click_probs(self, session: "SessionState", slate) -> np.ndarray:
        """The slate's click probabilities: row 0 of the block formula, from
        the last call's state encoding (kept in the block's (1, d, 1) shape)
        while the history and the encoder's arrays are the ones it came from
        (the model is frozen once fitted; `load_into` replaces arrays)."""
        history = session.state.history
        arrays = [t.data for t in self.encoder.tensors().values()]
        seen = self._seen
        with ad.no_grad():
            if not (seen and seen[0] == history
                    and all(a is b for a, b in zip(seen[1], arrays))):
                u = encode(self.encoder, session.state)
                seen = history, arrays, ad.reshape(u, (1, self.cfg.embed_dim, 1))
            logits = self._block_logits(seen[2], np.asarray([slate]))
            probs = ad.sigmoid(logits).data[0].copy()
        self._seen = seen  # kept only once the whole call has succeeded
        return probs

    def click_probs_batch(self, sessions, slates) -> np.ndarray:
        """(B, k) block whose row r is `click_probs(sessions[r], slates[r])`
        up to rounding (encode_batch against encode)."""
        with ad.no_grad():
            u = encode_batch(self.encoder, [s.state for s in sessions])
            return ad.sigmoid(self._block_logits(u, np.asarray(slates))).data.copy()


def _positive_state(items) -> UserState:
    """Encoder state of a positive-only history, the form records log."""
    return UserState(history=tuple((i, 1) for i in items))


def _record_batches(model: ResponseModel, records: list[LogRecord]):
    """`take(rows)`: `(ids, bits, lengths, slates, labels, real-item mask)` of
    records `rows` (indices or a slice), byte-equal to the arrays built from
    them alone: every record's are built once, and each take cuts them."""
    ids, bits, lengths = history_arrays(
        model.encoder.cfg, [_positive_state(rec.history) for rec in records])
    slate_lengths = np.array([len(rec.slate) for rec in records])
    slates = np.zeros((len(records), int(slate_lengths.max())), dtype=np.intp)
    labels = np.zeros(slates.shape)
    for r, rec in enumerate(records):
        slates[r, :slate_lengths[r]] = rec.slate
        labels[r, :slate_lengths[r]] = rec.labels

    def take(rows):
        width, k = int(lengths[rows].max(initial=0)), int(slate_lengths[rows].max())
        return (ids[rows, :width], bits[rows, :width], lengths[rows], slates[rows, :k],
                labels[rows, :k], np.arange(k) < slate_lengths[rows, None])
    return take


def _slate_bce(model: ResponseModel, batch) -> Tensor:
    """Per-item binary cross-entropy of a `take` batch as one (B, k) block."""
    ids, bits, lengths, slates, labels, _ = batch
    logits = model._block_logits(encode_arrays(model.encoder, ids, bits, lengths),
                                 slates)
    # -[y log s + (1-y) log(1-s)] == softplus(logit) - y * logit
    return ad.sub(ad.softplus(logits), ad.mul(ad.constant(labels), logits))


def _batch_loss(model: ResponseModel, batch) -> Tensor:
    """Mean over records of each record's mean per-item cross-entropy, so
    slates of any length weigh the same; one graph for the whole batch."""
    real = batch[-1]
    weights = real / real.sum(axis=1, keepdims=True) / len(real)
    return ad.vsum(ad.mul(_slate_bce(model, batch), ad.constant(weights)))


@ad.checked()
def fit_response_model(records: list[LogRecord], n_items: int,
                       cfg: SimFitConfig, seed,
                       item_features: np.ndarray | None = None) -> ResponseModel:
    """Binary cross-entropy fit of click probabilities; deterministic per seed."""
    if not records:
        raise DataError("cannot fit a response model on zero records")
    rng = np.random.default_rng(seed)
    model = ResponseModel(n_items, cfg, rng, item_features)
    # Keep the (feature-initialized) item table fixed during fitting; the
    # free per-item parameters otherwise soak up label noise and the fitted
    # model stops generalizing across users.
    model.encoder.item_emb.requires_grad = False
    trainable = [t for t in model.tensors().values() if t.requires_grad]
    opt = Optimizer(trainable, lr=cfg.learning_rate)
    take = _record_batches(model, records)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(records))
        for lo in range(0, len(order), cfg.batch_size):
            opt.zero_grad()
            ad.backward(_batch_loss(model, take(order[lo:lo + cfg.batch_size])))
            opt.step()
    return model


def train_split(records: list[LogRecord]) -> int:
    """The train simulator fits records[:split]; the rest are held out from it."""
    split = int(0.8 * len(records))
    if split < 1:
        raise DataError("too few records to split for simulator training")
    return split


def fit_simulators(records: list[LogRecord], n_items: int, cfg: SimFitConfig,
                   seed: int, item_features: np.ndarray | None = None,
                   ) -> tuple[ResponseModel, ResponseModel]:
    """Factory presets: a train-split simulator for policy optimization and
    a full-data simulator used only for evaluation."""
    split = train_split(records)
    train_sim = fit_response_model(records[:split], n_items, cfg, [seed, 0],
                                   item_features)
    eval_sim = fit_response_model(records, n_items, cfg, [seed, 1], item_features)
    return train_sim, eval_sim


def save_response_model(path, model: ResponseModel) -> None:
    save_tensors(path, {f"sim/{k}": v.data for k, v in model.tensors().items()})


def load_response_model(path, n_items: int, cfg: SimFitConfig) -> ResponseModel:
    model = ResponseModel(n_items, cfg, np.random.default_rng(0))
    load_into({f"sim/{k}": v for k, v in model.tensors().items()},
              load_tensors(path), "simulator checkpoint")
    return model


def held_out_log_loss(model: ResponseModel, records: list[LogRecord]) -> float:
    """Mean per-item cross-entropy of `model` on `records`."""
    total, count = 0.0, 0
    take = _record_batches(model, records)
    with ad.no_grad():
        for lo in range(0, len(records), model.cfg.batch_size):
            batch = take(slice(lo, lo + model.cfg.batch_size))
            total += float(_slate_bce(model, batch).data[batch[-1]].sum())
            count += int(batch[-1].sum())
    return total / count


def constant_log_loss(rate: float, records: list[LogRecord]) -> float:
    """Mean per-item cross-entropy of clicking every item at `rate`."""
    rate = min(max(rate, 1e-12), 1.0 - 1e-12)
    clicks = sum(sum(rec.labels) for rec in records)
    count = sum(len(rec.labels) for rec in records)
    return -(clicks * np.log(rate) + (count - clicks) * np.log(1.0 - rate)) / count


# ---------------------------------------------------------------------------
# Session dynamics
# ---------------------------------------------------------------------------


def make_user_pool(records: list[LogRecord]) -> list[tuple[int, tuple[int, ...]]]:
    """One entry per user: their latest logged history prefix."""
    latest: dict[int, tuple[int, ...]] = {}
    for rec in records:
        latest[rec.user_id] = rec.history
    return [(uid, latest[uid]) for uid in sorted(latest)]


class Environment:
    """Session loop over a fixed response model and user pool."""

    def __init__(self, model, pool, cfg: EnvConfig):
        self.model = model
        self.pool = pool
        self.cfg = cfg

    def reset(self, rng: np.random.Generator) -> SessionState:
        if not self.pool:
            raise DataError("user pool is empty")
        uid, history = self.pool[rng.integers(len(self.pool))]
        return SessionState(user_id=uid, state=_positive_state(history),
                            patience=self.cfg.patience, step=0)

    def _check(self, session: SessionState, slate) -> None:
        if session.done:
            raise ContractError("stepping a finished session")
        if len(slate) != self.cfg.slate_size:
            raise ContractError(f"slate has {len(slate)} items, expected "
                                f"{self.cfg.slate_size}")

    def _respond(self, sessions, slates, probs, rngs) -> list[tuple]:
        """Sample row r's feedback from the (B, k) click probabilities with k
        uniforms from rngs[r], average its item signals (one array formula for
        the block), then advance each history/patience and flag termination."""
        cfg = self.cfg
        draws = np.empty((len(rngs), cfg.slate_size))
        for rng, row in zip(rngs, draws):
            rng.random(out=row)
        feedback = (draws < probs).astype(np.int64)
        signals = np.where(feedback, CLICK_SIGNAL, NO_CLICK_SIGNAL)
        rewards = (signals.sum(axis=1) / cfg.slate_size).tolist()  # mean: sum / count
        steps = []
        for session, slate, row, clicks, reward in zip(
                sessions, slates, feedback, feedback.tolist(), rewards, strict=True):
            # Histories keep clicks only, as the records the models are
            # fitted on do; a zero-click slate leaves the history as it was.
            clicked = tuple([(int(i), 1) for i, b in zip(slate, clicks) if b])
            history = (session.state.history + clicked)[-cfg.history_window:]
            patience = cfg.patience if clicked else session.patience - 1
            step = session.step + 1
            done = patience == 0 or step == cfg.horizon
            nxt = SessionState(user_id=session.user_id, state=UserState(history=history),
                               patience=patience, step=step, done=done)
            steps.append((row, reward, nxt, done))
        return steps

    def step(self, session: SessionState, slate, rng: np.random.Generator):
        """One environment step: (feedback, reward, next session, done)."""
        self._check(session, slate)
        return self._respond([session], [slate],
                             self.model.click_probs(session, slate)[None], [rng])[0]

    def step_batch(self, sessions: list[SessionState], slates, rngs) -> list[tuple]:
        """`step` for each session with its slate and its own rng, from one
        `click_probs_batch` block; every session and slate is checked before
        the model runs, and an empty block returns [] without running it."""
        for session, slate in zip(sessions, slates, strict=True):
            self._check(session, slate)
        return self._respond(sessions, slates, self.model.click_probs_batch(
            sessions, slates), rngs) if sessions else []


# ---------------------------------------------------------------------------
# Log ingestion (ratings -> slate records)
# ---------------------------------------------------------------------------


def ingest_ml1m_style(path) -> list[LogRecord]:
    """Binarize ratings at >3, order each user chronologically, cut into
    consecutive length-10 slates with prior positives as history. Trailing
    segments shorter than 10 are dropped."""
    per_user: dict[int, list[tuple[int, int, int, int]]] = {}
    for lineno, line in enumerate(read_lines(path, DataError), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"ratings line {lineno}: expected 4 tab-separated "
                            f"fields, got {len(parts)}")
        try:
            user, item, rating, ts = (int(parts[0]), int(parts[1]),
                                      int(parts[2]), int(parts[3]))
        except ValueError:
            raise DataError(f"ratings line {lineno}: non-integer field") from None
        per_user.setdefault(user, []).append((ts, lineno, item, rating))

    staged = []  # (start_ts, user, seq, record)
    for user in sorted(per_user):
        events = sorted(per_user[user])  # timestamp, then input order
        positives: list[int] = []
        for seq, lo in enumerate(range(0, len(events) - len(events) % 10, 10)):
            chunk = events[lo:lo + 10]
            slate = tuple(item for _, _, item, _ in chunk)
            labels = tuple(int(rating > 3) for _, _, _, rating in chunk)
            record = LogRecord(user_id=user, history=tuple(positives[-RECORD_HISTORY:]),
                               slate=slate, labels=labels)
            staged.append((chunk[0][0], user, seq, record))
            positives.extend(i for (_, _, i, r) in chunk if r > 3)
    staged.sort(key=lambda s: s[:3])
    return [rec for _, _, _, rec in staged]


def save_records(path, records: list[LogRecord]) -> None:
    """`user<TAB>h1,h2,...<TAB>i1,...,ik<TAB>y1,...,yk`; empty history is `-`."""
    with open(path, "w") as fh:
        for rec in records:
            hist = ",".join(str(i) for i in rec.history) if rec.history else "-"
            fh.write(f"{rec.user_id}\t{hist}\t"
                     f"{','.join(str(i) for i in rec.slate)}\t"
                     f"{','.join(str(y) for y in rec.labels)}\n")


def load_records(path) -> list[LogRecord]:
    records = []
    for lineno, line in enumerate(read_lines(path, DataError), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"records line {lineno}: expected 4 fields")
        try:
            user = int(parts[0])
            history = () if parts[1] == "-" else tuple(
                int(i) for i in parts[1].split(","))
            slate = tuple(int(i) for i in parts[2].split(","))
            labels = tuple(int(y) for y in parts[3].split(","))
        except ValueError:
            raise DataError(f"records line {lineno}: non-integer field") from None
        try:
            records.append(LogRecord(user, history, slate, labels))
        except DataError as exc:
            raise DataError(f"records line {lineno}: {exc}") from None
    if not records:
        raise DataError("records file holds no records")
    return records


# ---------------------------------------------------------------------------
# Synthetic catalog with planted structure
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    n_items: int = 300
    n_clusters: int = 8
    dim: int = 16
    n_users: int = 120
    slates_per_user: int = 16
    slate_size: int = 5
    p_preferred: float = 0.9
    p_other: float = 0.02
    center_scale: float = 8.0
    noise: float = 0.5

    def __post_init__(self):
        for name in ("n_items", "n_clusters", "n_users", "slates_per_user"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.dim < 1:
            raise ConfigError("embed_dim must be >= 1")
        if not (0.0 <= self.p_preferred <= 1.0 and 0.0 <= self.p_other <= 1.0):
            raise ConfigError("p_preferred and p_other must lie in [0, 1]")
        if not self.noise >= 0.0:
            raise ConfigError("noise must be >= 0")


@dataclass
class SyntheticDataset:
    items: ItemEmbeddings
    records: list[LogRecord]
    item_clusters: np.ndarray
    user_prefs: np.ndarray
    cfg: SynthConfig = field(default_factory=SynthConfig)


class GroundTruthResponse:
    """Planted click model: probability depends only on whether an item
    belongs to the session user's preferred cluster."""

    def __init__(self, data: SyntheticDataset):
        self.item_clusters = data.item_clusters
        self.user_prefs = data.user_prefs
        self.p_preferred = data.cfg.p_preferred
        self.p_other = data.cfg.p_other

    def click_probs(self, session: SessionState, slate) -> np.ndarray:
        """Row 0 of the one-session `click_probs_batch` block."""
        return self.click_probs_batch([session], [slate])[0]

    def click_probs_batch(self, sessions, slates) -> np.ndarray:
        """(B, k) block: `p_preferred` where item `slates[r][j]` is in the
        preferred cluster of `sessions[r]`'s user, else `p_other`."""
        if not sessions:
            return np.zeros((0, 0))
        prefs = self.user_prefs[[s.user_id for s in sessions]]
        match = self.item_clusters[np.asarray(slates)] == prefs[:, None]
        return np.where(match, self.p_preferred, self.p_other)


def generate_synthetic(cfg: SynthConfig, seed) -> SyntheticDataset:
    """Items scattered around well-separated cluster centers; every user
    clicks their preferred cluster with high probability. Records come out
    in chronological (round-robin) order so an 80/20 split is time-based."""
    if cfg.n_items < cfg.n_clusters:
        raise DataError("need n_items >= n_clusters")
    if cfg.slate_size > cfg.n_items:
        raise DataError(f"slate size {cfg.slate_size} exceeds {cfg.n_items} items")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(cfg.n_clusters, cfg.dim))
    centers *= cfg.center_scale / np.linalg.norm(centers, axis=1, keepdims=True)
    item_clusters = np.arange(cfg.n_items) % cfg.n_clusters
    vectors = centers[item_clusters] + cfg.noise * rng.normal(
        size=(cfg.n_items, cfg.dim))
    user_prefs = np.arange(cfg.n_users) % cfg.n_clusters

    positives: list[list[int]] = [[] for _ in range(cfg.n_users)]
    records: list[LogRecord] = []
    for _ in range(cfg.slates_per_user):
        for uid in range(cfg.n_users):
            slate = rng.choice(cfg.n_items, size=cfg.slate_size, replace=False)
            probs = np.where(item_clusters[slate] == user_prefs[uid],
                             cfg.p_preferred, cfg.p_other)
            labels = (rng.random(cfg.slate_size) < probs).astype(int)
            records.append(LogRecord(
                user_id=uid,
                history=tuple(positives[uid][-RECORD_HISTORY:]),
                slate=tuple(int(i) for i in slate),
                labels=tuple(int(y) for y in labels),
            ))
            positives[uid].extend(int(i) for i, y in zip(slate, labels) if y)

    items = ItemEmbeddings(np.arange(cfg.n_items), vectors)
    return SyntheticDataset(items=items, records=records,
                            item_clusters=item_clusters, user_prefs=user_prefs,
                            cfg=replace(cfg))
