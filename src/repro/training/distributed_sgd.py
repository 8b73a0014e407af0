"""The distributed SGD step (Algorithm 2 of the paper)."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from repro.data.loader import Batch
from repro.nn.metrics import topk_accuracy
from repro.obs import recorder as _obs
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.nn.parameters import flatten_gradients
from repro.theory.staleness import QuorumTracker, StalenessTracker
from repro.training.exchange import ExchangeResult, GradientExchange


@dataclass
class StepStats:
    """Statistics of one training step on one rank."""

    loss: float
    #: Top-1 accuracy of the local batch (NaN for regression tasks).
    top1: float
    #: Top-5 accuracy of the local batch (NaN when not applicable).
    top5: float
    #: Wall-clock seconds of local compute (forward + backward).
    compute_time: float
    #: Seconds spent waiting inside the gradient exchange.
    exchange_wait: float
    #: Whether this rank's fresh gradient was included in the exchange.
    included: bool
    #: Number of ranks contributing fresh gradients.
    num_active: int
    #: Rank that initiated the step's partial round (-1: synchronous).
    initiator: int


LossFn = Callable[[np.ndarray, np.ndarray], Tuple[float, np.ndarray]]


class DistributedSGD:
    """One rank's view of distributed SGD (Algorithm 2).

    At every step the rank computes its local gradient, hands the model's
    flat gradient vector to the gradient exchange (a synchronous or partial
    allreduce), which combines it in place, and applies the local update
    rule.  Staleness and quorum statistics are
    tracked for the convergence bookkeeping of Section 5.1.

    Parameters
    ----------
    model:
        The local model replica (identically initialised on every rank).
    optimizer:
        Local update rule ``U``.
    exchange:
        Gradient exchange (see :mod:`repro.training.exchange`).
    loss_fn:
        Callable ``(outputs, targets) -> (loss, grad_wrt_outputs)``.
    world_size:
        Number of ranks (for the quorum tracker).
    classification:
        Whether to compute top-1/top-5 accuracy of the local batch.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        exchange: GradientExchange,
        loss_fn: LossFn,
        world_size: int = 1,
        classification: bool = True,
    ) -> None:
        # The step drops ``backward``'s result: batches are data.
        self.model = model.input_is_data()
        self.optimizer = optimizer
        self.exchange = exchange
        self.loss_fn = loss_fn
        self.classification = classification
        self.staleness = StalenessTracker()
        self.quorum = QuorumTracker(world_size)
        self.steps = 0

    # ------------------------------------------------------------------
    def _local_gradient(self, batch: Batch) -> Tuple[float, float, float, float]:
        """Forward + backward; returns (loss, top1, top5, compute_seconds)."""
        start = time.perf_counter()
        self.model.zero_grad()
        outputs = self.model.forward(batch.inputs)
        loss, grad = self.loss_fn(outputs, batch.targets)
        self.model.backward(grad)
        compute_time = time.perf_counter() - start
        top1 = top5 = float("nan")
        if self.classification and outputs.ndim == 2 and outputs.shape[1] >= 2:
            top1 = topk_accuracy(outputs, batch.targets, k=1)
            top5 = topk_accuracy(outputs, batch.targets, k=min(5, outputs.shape[1]))
        return loss, top1, top5, compute_time

    def step(self, batch: Batch, pre_exchange_sleep: float = 0.0) -> StepStats:
        """Run one training step (lines 3-8 of Algorithm 2).

        Parameters
        ----------
        batch:
            This rank's local batch.
        pre_exchange_sleep:
            Seconds to sleep between the local gradient computation and
            the gradient exchange.  The runner uses this to materialise
            (scaled-down) injected delays and content-driven cost
            differences as real skew between the rank threads, which is
            what makes the partial collectives see realistic arrival
            orders.
        """
        with _obs.span("compute", "step", step=self.steps):
            loss, top1, top5, compute_time = self._local_gradient(batch)
        if pre_exchange_sleep > 0:
            time.sleep(pre_exchange_sleep)

        # Live: reduced in place, the result lands in every ``param.grad``.
        flat = flatten_gradients(self.model)

        if self.exchange.updates_parameters:
            # Sharded (ZeRO-1) exchange: the collective pipeline applies
            # the optimizer update on the owned shard and gathers the
            # refreshed parameters, so there is no separate update phase.
            with _obs.span("exchange", "step", step=self.steps):
                result: ExchangeResult = self.exchange.exchange_update(
                    flat, self.model, self.optimizer
                )
        else:
            with _obs.span("exchange", "step", step=self.steps):
                result = self.exchange.exchange(flat)
            with _obs.span("update", "step", step=self.steps):
                self.optimizer.step()

        self.staleness.record(result.included)
        self.quorum.record(result.num_active)
        self.steps += 1
        return StepStats(
            loss=loss,
            top1=top1,
            top5=top5,
            compute_time=compute_time,
            exchange_wait=result.wait_time,
            included=result.included,
            num_active=result.num_active,
            initiator=result.initiator,
        )

    def close(self) -> None:
        self.exchange.close()
