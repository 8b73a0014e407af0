"""Experiment harnesses: one module per table/figure of the paper.

Every module exposes

* ``run(...) -> result`` — executes the experiment; its parameters are
  the flags of the experiment's sub-command (:mod:`repro.cli`), each
  annotated with its type, choices or bound and documented in the
  docstring, and
* ``report(result) -> str`` — prints the same rows/series the paper
  reports, side by side with the paper's numbers where applicable.

A training figure (Figs. 10-13) is a ``FigureSpec`` — its module holds the
docstring, the spec and ``run`` / ``report`` bound from it; the one
implementation lives in :mod:`repro.experiments.training_experiments`.
Every module that states a number of the paper states it once, and
:mod:`repro.experiments.speedups` prints all of them as one fidelity table.

| Module | Paper content |
| --- | --- |
| :mod:`repro.experiments.fig2_workload` | Fig. 2a/2b — UCF101 video lengths and LSTM batch runtimes |
| :mod:`repro.experiments.fig3_wmt_runtime` | Fig. 3 — Transformer/WMT batch runtimes |
| :mod:`repro.experiments.fig4_cloud_runtime` | Fig. 4 — ResNet-50 cloud batch runtimes |
| :mod:`repro.experiments.table1_networks` | Table 1 — evaluated networks |
| :mod:`repro.experiments.fig9_microbenchmark` | Fig. 9 — partial allreduce latency + NAP |
| :mod:`repro.experiments.fig10_hyperplane` | Fig. 10 — hyperplane regression throughput/loss |
| :mod:`repro.experiments.fig11_imagenet` | Fig. 11 — ResNet/ImageNet throughput and accuracy |
| :mod:`repro.experiments.fig12_cifar_severe` | Fig. 12 — ResNet/CIFAR under severe imbalance |
| :mod:`repro.experiments.fig13_ucf101_lstm` | Fig. 13 — LSTM/UCF101 accuracy vs time |
| :mod:`repro.experiments.training_experiments` | ``FigureSpec`` / ``Claim`` / ``run_figure`` / ``report_figure`` over the one ``run_comparison`` |
| :mod:`repro.experiments.speedups` | the spec table the CLI reads + the paper-fidelity table (claim, paper, ours, inside tolerance) |
| :mod:`repro.experiments.scaling` | strong/weak scaling projections quoted in Section 6 |
| :mod:`repro.experiments.report` | table formatting, ``FidelityRow`` and the paper-vs-ours tables |
| :mod:`repro.experiments.fusion_pipeline` | fused/chunked gradient-exchange pipeline vs. the monolithic baseline |
| :mod:`repro.experiments.autotune` | calibrated LogGP parameters + auto-tuned fusion recommendations |
"""

from repro.experiments import report

__all__ = ["report"]
