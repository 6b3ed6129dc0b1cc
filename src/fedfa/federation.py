"""Round orchestration: selection, broadcast, aggregation, statistic exchange.

One round is: select clients, broadcast the global model (plus the current
modulation coefficients, once the server has any), run local training
through a caller-supplied function, aggregate parameters, recompute
cross-client statistic variances and modulation coefficients, and account
for every byte that crossed the wire.

The local-training contract is ``train_fn(client, round_index, params,
coeffs) -> LocalResult``. ``params`` and ``coeffs`` are read-only views
of the server's arrays, not copies: an in-place write raises. Everything
a client keeps during training, its momentum feature statistics
included, is train_fn's own and comes back in the LocalResult.

Statistics are exchanged if and only if ``server.stat_channels`` is
non-empty. The server stores none: each round's coefficients come from the
uploads of that round's survivors alone, and statistic bytes are priced.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .augment import modulate
from .config import ExperimentConfig
from .stats import MomentumStats, batch_variances
from .rng import stream

log = logging.getLogger("fedfa")

class ClientTrainingError(RuntimeError):
    """Raised by a local-training function to simulate a client failure."""


@dataclass
class ClientState:
    client_id: int
    data: object  # ClientData; opaque here


@dataclass
class ServerState:
    params: dict[str, np.ndarray]
    stat_channels: tuple[int, ...] = ()
    # per site, [2,C]: the modulation coefficients of the mean and the std
    coeffs: list[np.ndarray] | None = None
    momentum_buf: dict[str, np.ndarray] | None = None


@dataclass
class RoundReport:
    """What one round did; clients are named by client_id throughout."""

    round_index: int
    selected: list[int]
    train_loss: dict[int, float]
    uplink_bytes_per_client: int = 0
    downlink_bytes_per_client: int = 0
    uplink_bytes: int = 0
    downlink_bytes: int = 0
    wall_clock: float = 0.0
    train_seconds: float = 0.0  # inside train_fn, all selected clients
    aggregate_seconds: float = 0.0  # averaging, server momentum, coefficients

    def record(self, test_acc: dict[int, float]) -> dict:
        """The round's metrics.jsonl record; the timings stay out."""
        losses = list(self.train_loss.values())
        return {
            "round": self.round_index,
            "selected": self.selected,
            "train_loss": {str(i): v for i, v in self.train_loss.items()},
            "mean_train_loss": float(np.mean(losses)) if losses else None,
            "test_acc": {str(i): a for i, a in test_acc.items()},
            "mean_test_acc": float(np.mean(list(test_acc.values()))),
            "uplink_bytes": self.uplink_bytes,
            "downlink_bytes": self.downlink_bytes,
            "uplink_bytes_per_client": self.uplink_bytes_per_client,
            "downlink_bytes_per_client": self.downlink_bytes_per_client,
        }


@dataclass
class LocalResult:
    params: dict[str, np.ndarray]
    momentum: list[MomentumStats]
    train_loss: float
    n_samples: int


def sharing_variances(stats_by_client: list[MomentumStats]) -> np.ndarray:
    """Biased per-channel variance of the momentum pairs across clients, [2,C].

    The pairs stack [2,K,C], statistic-major as a batch's statistics do, so
    batch_variances takes the variance across the K clients."""
    if not stats_by_client:
        raise ValueError("no client statistics to aggregate")
    return batch_variances(np.stack([s.pair for s in stats_by_client], axis=1))


def aggregate(models: list[tuple[dict[str, np.ndarray], float]]) -> dict[str, np.ndarray]:
    """Weighted average of parameter dicts.

    Computed as base + sum p_i (x_i - base) so averaging identical models
    is bit-exact regardless of the weights.
    """
    if not models:
        raise ValueError("nothing to aggregate")
    base = models[0][0]
    names = list(base.keys())
    for params, w in models:
        if w <= 0:
            raise ValueError(f"aggregation weight must be positive, got {w}")
        if list(params.keys()) != names:
            raise ValueError("parameter sets differ across clients")
        for k in names:
            if params[k].shape != base[k].shape:
                raise ValueError(
                    f"shape mismatch for {k}: {params[k].shape} vs {base[k].shape}"
                )
    total = sum(w for _, w in models)
    out = {}
    for k in names:
        acc = base[k].copy()
        for params, w in models:
            delta = params[k] - base[k]
            if np.any(delta):
                acc += (w / total) * delta
        out[k] = acc
    return out


def comm_cost(channels_per_ffa_layer, bytes_per_value: int) -> int:
    """Extra bytes per client per round for the statistic exchange.

    Two vectors up (running mean and std) and two down (the modulation
    coefficients), each one value per channel per augmentation site.
    """
    channels = list(channels_per_ffa_layer)
    if any(c <= 0 for c in channels):
        raise ValueError("channel counts must be positive")
    if bytes_per_value < 1:
        raise ValueError(f"bytes_per_value must be >= 1, got {bytes_per_value}")
    return 4 * sum(channels) * bytes_per_value


def select_clients(m: int, participation: float, seed: int, round_index: int) -> list[int]:
    if not 0.0 < participation <= 1.0:
        raise ValueError(f"participation must lie in (0,1], got {participation}")
    if participation == 1.0:
        return list(range(m))
    n = max(1, int(round(participation * m)))
    rng = stream(seed, "select", round_index)
    return sorted(rng.choice(m, size=n, replace=False).tolist())


def recompute_coeffs(server: ServerState, uploads: list[list[MomentumStats]]) -> None:
    """Per-site coefficients from this round's uploads (one per survivor, a
    statistic per site); a round without uploads keeps the previous ones."""
    if uploads:
        server.coeffs = [modulate(sharing_variances([u[k] for u in uploads]))
                         for k in range(len(server.stat_channels))]


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def run_round(server: ServerState, clients: list[ClientState],
              round_index: int, cfg: ExperimentConfig, train_fn) -> RoundReport:
    """Execute one communication round, mutating the server state.

    train_fn(client, round_index, params, coeffs) -> LocalResult does the
    local optimization on read-only views of server.params and
    server.coeffs; a ClientTrainingError drops that client
    from the round. The report names clients by client_id.
    """
    t0 = time.perf_counter()
    picked = [clients[i] for i in
              select_clients(len(clients), cfg.participation, cfg.seed, round_index)]

    param_bytes = len(checkpoint.encode(server.params))
    # statistics travel as float64; each direction carries half the exchange
    stat_bytes = comm_cost(server.stat_channels, 8) // 2
    uplink = param_bytes + stat_bytes
    # coefficients go down only once the server has computed some
    downlink = param_bytes + (stat_bytes if server.coeffs is not None else 0)

    params = {k: _read_only(v) for k, v in server.params.items()}
    coeffs = (None if server.coeffs is None
              else [_read_only(c) for c in server.coeffs])
    results: list[LocalResult] = []
    train_loss: dict[int, float] = {}
    t_train = time.perf_counter()
    for client in picked:
        cid = client.client_id
        try:
            res = train_fn(client, round_index, params, coeffs)
        except ClientTrainingError as err:
            log.warning("client %d dropped in round %d: %s", cid, round_index, err)
            continue
        results.append(res)
        train_loss[cid] = res.train_loss

    t_agg = time.perf_counter()
    if results:
        if cfg.aggregation == "uniform":
            weighted = [(r.params, 1.0) for r in results]
        else:
            weighted = [(r.params, float(r.n_samples)) for r in results]
        agg = aggregate(weighted)
        beta = cfg.server_momentum if cfg.method.server_momentum else 0.0
        if beta > 0.0:
            if server.momentum_buf is None:
                server.momentum_buf = {k: np.zeros_like(v) for k, v in server.params.items()}
            for k in server.params:
                delta = server.params[k] - agg[k]
                buf = beta * server.momentum_buf[k] + delta
                server.momentum_buf[k] = buf
                server.params[k] = server.params[k] - buf
        else:
            server.params = agg

    if server.stat_channels:
        recompute_coeffs(server, [r.momentum for r in results])
    t_end = time.perf_counter()

    # broadcast reaches every selected client; uplink only the survivors
    return RoundReport(
        round_index=round_index,
        selected=[c.client_id for c in picked],
        train_loss=train_loss,
        uplink_bytes_per_client=uplink,
        downlink_bytes_per_client=downlink,
        uplink_bytes=len(results) * uplink,
        downlink_bytes=len(picked) * downlink,
        wall_clock=t_end - t0,
        train_seconds=t_agg - t_train,
        aggregate_seconds=t_end - t_agg,
    )
