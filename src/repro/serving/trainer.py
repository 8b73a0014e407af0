"""The co-scheduled training world: train, publish, announce.

The trainer ranks of a serving world run plain synchronous data-parallel
SGD — :class:`~repro.training.distributed_sgd.DistributedSGD` over the
synchronous exchange — on a :class:`~repro.comm.subworld.SubsetCommunicator`
spanning only themselves: the collectives layer runs verbatim on the
subset view while the serving traffic shares the same fabric on its own
channels.

After every optimizer step the model version (the monotonic step
counter, ``DistributedSGD.steps``) advances.  Trainer rank 0 — the
*publisher*; all trainers are identical after the allreduce — feeds the
replica pool:

* every ``publish_every_steps`` steps it ships the full flat parameter
  vector (plus its :func:`~repro.training.model_sync.model_hash`) to
  every replica: a hot-swap payload;
* every ``announce_every_steps`` steps in between it announces the bare
  version number.  Announcements are cheap, so the replicas always know
  the frontier; the gap between announced and shipped versions is what
  the bounded-staleness knob measures.

The frontend is announced on both occasions so its report can show the
training frontier next to the versions it actually served.
"""

from __future__ import annotations

from typing import Dict, List

from repro.comm.subworld import SubsetCommunicator
from repro.nn.parameters import flatten_parameters
from repro.serving import protocol
from repro.serving.config import ServingConfig
from repro.training.model_sync import model_hash


def run_trainer(comm, config: ServingConfig) -> Dict[str, object]:
    """Training loop of one trainer rank; returns its summary dict."""
    from repro.data.hyperplane import HyperplaneDataset
    from repro.data.loader import ShardedLoader
    from repro.nn.losses import MSELoss
    from repro.nn.optim import SGD
    from repro.serving.replica import default_model_factory
    from repro.training.distributed_sgd import DistributedSGD
    from repro.training.exchange import build_exchange

    trainers = list(config.trainer_ranks)
    train_rank = trainers.index(comm.rank)
    sub = SubsetCommunicator(comm, trainers) if len(trainers) > 1 else None
    swap = comm.dup(protocol.SWAP_CHANNEL)
    is_publisher = comm.rank == config.publisher_rank
    replicas = list(config.replica_ranks)

    model = default_model_factory(config)
    dataset = HyperplaneDataset(
        num_examples=max(4 * config.train_batch_size, 256),
        input_dim=config.input_dim,
        noise_std=0.5,
        seed=config.seed,
    )
    loader = ShardedLoader(
        dataset,
        config.train_batch_size,
        rank=train_rank,
        world_size=len(trainers),
        seed=config.seed,
    )
    # One trainer (``sub`` is None) gets the single-process exchange.
    sgd = DistributedSGD(
        model,
        SGD(model, config.learning_rate),
        build_exchange(sub, model.num_parameters(), "sync"),
        MSELoss(),
        world_size=len(trainers),
        classification=False,
    )

    losses: List[float] = []
    published = 0
    epoch = 0
    while sgd.steps < config.train_steps:
        for batch in loader.epoch_batches(epoch):
            if sgd.steps >= config.train_steps:
                break
            losses.append(sgd.step(batch).loss)
            version = sgd.steps
            if not is_publisher:
                continue
            if version % config.publish_every_steps == 0:
                # Live storage: each send copies or frames it before
                # returning, so the next step cannot touch this version.
                flat_params = flatten_parameters(model)
                digest = model_hash(model)
                for replica in replicas:
                    protocol.send_weights(swap, replica, version, flat_params, digest)
                protocol.send_announce(swap, config.frontend_rank, version)
                published += 1
            elif version % config.announce_every_steps == 0:
                for replica in replicas:
                    protocol.send_announce(swap, replica, version)
                protocol.send_announce(swap, config.frontend_rank, version)
        epoch += 1
    sgd.close()

    return {
        "rank": comm.rank,
        "steps": sgd.steps,
        "final_version": sgd.steps,
        "published_versions": published,
        "final_loss": losses[-1] if losses else float("nan"),
        "model_hash": model_hash(model),
    }
