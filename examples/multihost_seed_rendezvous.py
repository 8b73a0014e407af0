"""Two launcher processes contribute ranks to one world over a seed.

This is the multi-launcher shape of the ``tcp`` backend, runnable on a
single machine: launcher A spawns global ranks 0-1 (and serves the seed
because it owns rank 0), launcher B spawns ranks 2-3 and dials the same
seed.  The four ranks form one full socket mesh and run a collective
across the launcher boundary.  Across real machines the recipe is the
same — give every launcher the same routable ``seed_addr`` and a
``bind_host`` its peers can reach.

Run it (tier-1's ``TestMixedFabric`` runs the same shape on a free port)::

    PYTHONPATH=src python examples/multihost_seed_rendezvous.py

The script exits 0 when both launchers saw the correct allreduce result
and each returned results only for the ranks it owns.
"""

import subprocess
import sys

import numpy as np

WORLD_SIZE = 4
SEED_ADDR = "127.0.0.1:29517"
LAUNCHERS = ("0,1", "2,3")


def worker(comm):
    from repro.collectives.sync import allreduce

    out = allreduce(comm, np.full(8, comm.rank + 1.0))
    expected = WORLD_SIZE * (WORLD_SIZE + 1) / 2
    assert np.allclose(out, expected), (comm.rank, out)
    return comm.rank


def run_launcher(local_ranks):
    from repro.comm import launch

    results = launch(
        worker, WORLD_SIZE, backend="tcp",
        backend_opts={"seed_addr": SEED_ADDR, "local_ranks": local_ranks},
        timeout=90,
    )
    # A launcher gets real results only for its own ranks; the other
    # launcher's positions are None.
    for rank in range(WORLD_SIZE):
        if rank in local_ranks:
            assert results[rank] == rank, results
        else:
            assert results[rank] is None, results
    print(f"launcher of ranks {local_ranks}: world of {WORLD_SIZE} ok")


def main():
    procs = [
        subprocess.Popen([sys.executable, __file__, spec])
        for spec in LAUNCHERS
    ]
    codes = [p.wait(timeout=180) for p in procs]
    if codes != [0] * len(LAUNCHERS):
        raise SystemExit(f"launcher exit codes {codes}")
    print(f"two launchers joined one world of {WORLD_SIZE} via {SEED_ADDR}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        run_launcher([int(r) for r in sys.argv[1].split(",")])
    else:
        main()
