"""repro — reproduction of eager-SGD with partial collective operations.

This package reproduces the system described in

    Shigang Li, Tal Ben-Nun, Salvatore Di Girolamo, Dan Alistarh, Torsten
    Hoefler.  "Taming Unbalanced Training Workloads in Deep Learning with
    Partial Collective Operations."  PPoPP 2020.

The package is organised as a set of substrates plus the paper's core
contribution:

``repro.comm``
    Pluggable message-passing substrate (backend registry, tagged point-to-point
    send/recv, communicators, reduction operators).
``repro.collectives``
    Synchronous collectives (recursive-doubling / ring / Rabenseifner
    allreduce, broadcast, reduce) and the paper's *partial* collectives:
    solo allreduce, majority allreduce and generalised quorum allreduce.
``repro.simtime``
    Discrete-event simulation with a LogGP-style network model, used for
    the latency microbenchmark (Fig. 9) and large-scale throughput
    projections.
``repro.nn``
    Pure-NumPy neural-network substrate (layers, losses, optimizers and
    the models used in the paper's evaluation).
``repro.data``
    Synthetic datasets matching the statistical structure of the paper's
    workloads (hyperplane regression, CIFAR-like, ImageNet-like,
    UCF101-like video sequences, WMT-like sentences).
``repro.imbalance``
    Load-imbalance models: delay injection policies and content-driven
    cost models.
``repro.training``
    Distributed training: synchronous SGD baselines (Horovod-style and
    Deep500-style) and eager-SGD (Algorithm 2 of the paper).
``repro.theory``
    Convergence bounds (Theorem 5.2) and staleness/quorum bookkeeping.
``repro.experiments``
    One harness per paper table/figure.
"""

from repro._version import __version__

__all__ = ["__version__"]
