"""The ring phases under a reduce-closed codec, pinned to their wire bytes.

A codec changes what the ring's hops carry, not which messages go where,
so the schedule fingerprints (element counts only) cannot see it.  These
digests can: one SHA-256 over every rank's result bytes, and one over
every send of every rank — destination, tag, dtype, element count and
payload bytes.  The pinned values were recorded from the dedicated
compressed-ring and compressed-hierarchical schedules that
``allreduce(..., codec=)`` replaced, so they prove the single ring body
puts the same fp16 bytes on the wire and leaves the same result bits.
"""

import hashlib

import numpy as np
import pytest

from repro.comm import launch
from repro.collectives.sharding import allgather_flat, reduce_scatter
from repro.collectives.sync import allreduce, allreduce_hierarchical
from repro.collectives.topology import HostTopology
from repro.compression import get_codec


class _Recorder:
    """Communicator proxy hashing every payload this rank sends."""

    def __init__(self, comm):
        self._comm = comm
        self.sha = hashlib.sha256()

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def send(self, data, dest, tag=0):
        arr = np.ascontiguousarray(data)
        self.sha.update(f"{dest}:{tag}:{arr.dtype.str}:{arr.size};".encode())
        self.sha.update(arr.tobytes())
        self._comm.send(data, dest, tag=tag)


def _contribution(rank, size, n):
    return np.random.default_rng(1000 * size + rank).normal(scale=3.0, size=n)


def digests(size, n, collective):
    """``(result, wire)`` SHA-256 hex digests of ``collective`` on ``size`` ranks."""

    def worker(comm):
        recorder = _Recorder(comm)
        out = collective(recorder, _contribution(comm.rank, size, n))
        return np.ascontiguousarray(out).tobytes(), recorder.sha.hexdigest()

    results = launch(worker, size, backend="thread")
    result = hashlib.sha256(b"".join(r for r, _ in results)).hexdigest()
    wire = hashlib.sha256("".join(w for _, w in results).encode()).hexdigest()
    return result, wire


def _cases():
    """``(id, world size, elements, kind, options)`` of every pinned run."""
    cases = []
    for size in (2, 3, 4, 5):
        for n_chunks in (1, 2):
            for average in (False, True):
                cases.append((
                    f"ring-P{size}-c{n_chunks}-{'avg' if average else 'sum'}",
                    size, 37, "ring", dict(n_chunks=n_chunks, average=average),
                ))
    # More ranks than elements: some ring chunks are empty.
    cases.append(("ring-P5-n3-c2-avg", 5, 3, "ring", dict(n_chunks=2, average=True)))
    for hosts in ((3, 1), (4, 2, 2)):
        for n_chunks in (1, 2):
            for average in (False, True):
                cases.append((
                    f"hier-{'+'.join(map(str, hosts))}-c{n_chunks}-"
                    f"{'avg' if average else 'sum'}",
                    sum(hosts), 37, "hierarchical",
                    dict(n_chunks=n_chunks, average=average, hosts=hosts),
                ))
    for n_chunks in (1, 2):
        cases.append((
            f"rs+ag-P4-c{n_chunks}", 4, 37, "rs+ag", dict(n_chunks=n_chunks),
        ))
    return cases


CASES = _cases()


def collective(kind, options):
    """The fp16 collective of one case, as ``fn(comm, data) -> array``."""
    codec = get_codec("fp16")
    n_chunks = options["n_chunks"]
    if kind == "ring":
        return lambda comm, data: allreduce(
            comm, data, algorithm="ring", average=options["average"],
            n_chunks=n_chunks, codec=codec,
        )
    if kind == "hierarchical":
        topology = HostTopology.from_hosts(options["hosts"])
        return lambda comm, data: allreduce_hierarchical(
            comm, data, n_chunks=n_chunks, topology=topology,
            average=options["average"], codec=codec,
        )

    def rs_ag(comm, data):
        flat, _ = reduce_scatter(
            comm, data, average=True, n_chunks=n_chunks, codec=codec
        )
        return allgather_flat(comm, flat, n_chunks=n_chunks, codec=codec)

    return rs_ag


PINNED = {
    "ring-P2-c1-sum": (
        "36bc18aaa3767eda7b4142e5d58ff6a0df83d8023960a031df4f300a9bd1613e",
        "315d978eba09d8e8016e886f603642c5e9bd84d64e20397f34cb5c8920541ac7",
    ),
    "ring-P2-c1-avg": (
        "9a5a0ef5e39b711dc4f6b8e0cc3b4fec04792f451ddc1e99dabd0fec468379b0",
        "5bf57d450508cfd3223c3f5f3bd25afa0a864c77cb68072cfef253e322b30940",
    ),
    "ring-P2-c2-sum": (
        "36bc18aaa3767eda7b4142e5d58ff6a0df83d8023960a031df4f300a9bd1613e",
        "682ccf6680d896eeb4e51058658a869e7ce9f5597b2e9d9864e4ef0542ca58e4",
    ),
    "ring-P2-c2-avg": (
        "9a5a0ef5e39b711dc4f6b8e0cc3b4fec04792f451ddc1e99dabd0fec468379b0",
        "d9bf586770f38ffa2940e662feb6e9e03b8c6ceb63b2ff30a749148752ac8ffe",
    ),
    "ring-P3-c1-sum": (
        "8f0f8efafbc9c2c4a8c56a7245d68881a144bb16ed7f2a8b4585e127495c4a40",
        "0d6d72e1c4605c1e49d4b837f79a9b84d4d40feb3d9f7fd0cb2bed2adeca6804",
    ),
    "ring-P3-c1-avg": (
        "7950e8144d98592f5b8d31f2d2e9ca8e528c2168d8ebc1250b5a12645231a444",
        "3646dc978878147f96e10d861a94fa92990bc230aeae3a67f0fb1875d1080324",
    ),
    "ring-P3-c2-sum": (
        "8f0f8efafbc9c2c4a8c56a7245d68881a144bb16ed7f2a8b4585e127495c4a40",
        "681aeff990c1b18256ad110205a742aab9edc9633b4f3f5fb11ba270ac7e4bfd",
    ),
    "ring-P3-c2-avg": (
        "7950e8144d98592f5b8d31f2d2e9ca8e528c2168d8ebc1250b5a12645231a444",
        "e23047f73033a1f898eee67ec1d9fbe0a596073ced8c7b2acf0ee1f56fe63c58",
    ),
    "ring-P4-c1-sum": (
        "24f5011b98855d1e472569e635425fbe3ec6ca51d99ef6af327cc8b522cbe772",
        "7917cd2eb653412896bd120f6325feee0aecac64f5fb3092d3b0591074cdf3a4",
    ),
    "ring-P4-c1-avg": (
        "5d9d3efd33448d0204914a4ffef1b1a6f48cc5ae79ab32da73f006b35f5069ee",
        "ae31581ac7c0ad9e969581b5e2301d62dfdb3b28a163032106eaa16c9502d388",
    ),
    "ring-P4-c2-sum": (
        "24f5011b98855d1e472569e635425fbe3ec6ca51d99ef6af327cc8b522cbe772",
        "10fc31321829cf594df3a5e427c1c1319af3cfee6abba197545e13a4e2bd7e34",
    ),
    "ring-P4-c2-avg": (
        "5d9d3efd33448d0204914a4ffef1b1a6f48cc5ae79ab32da73f006b35f5069ee",
        "c3e8cf749f1444c92fa358c050378e18f38b0b1426371a5ea14c919197f05929",
    ),
    "ring-P5-c1-sum": (
        "09b6b03e55df26553ca23a280c938533163e92c5ddfc1f98f07d0d36522c1a3f",
        "3786e032e74368b22b77a3160b0c5b6b9c15fea2ae803d6e912a0be25e4d792e",
    ),
    "ring-P5-c1-avg": (
        "5ed8054d4eda750268530f43265546efe7d4ba358ed7f16b8db4a7e698773b76",
        "03905e3d174856ca3165236009192a7c4233f710aa9e50607bffe76f6a8d23a8",
    ),
    "ring-P5-c2-sum": (
        "09b6b03e55df26553ca23a280c938533163e92c5ddfc1f98f07d0d36522c1a3f",
        "adde8e52fee0bbb17d4430223a228fb8fa202b7f899b740dc46014274cf779af",
    ),
    "ring-P5-c2-avg": (
        "5ed8054d4eda750268530f43265546efe7d4ba358ed7f16b8db4a7e698773b76",
        "2baa9d53f572af365688edfc71348652966895e923fc366d2f45329ea8aec54b",
    ),
    "ring-P5-n3-c2-avg": (
        "3180102e35821d95859ec8afecb26925f4c7a6bcd0dc448043d5e7cb846a0570",
        "87c3b8612d0460eac6f7a719a9b16ecdb7d3340df64b71d1f578b8128a3672d3",
    ),
    "hier-3+1-c1-sum": (
        "169cf9bde82dc2c7f98608a0ff75fbda83d9f64f53bf4ad7761cc85fbdbab87d",
        "32c71757a2faecf5bb23fb335ebab969fdefaa336f9b47478be743828f594583",
    ),
    "hier-3+1-c1-avg": (
        "87d3cfc45aca0bf5fb2e560bf7f264038cdd140d67366b4103273cfd396bc0e3",
        "f3c2a704a52fa9856402fb5046597fc18837c3a1ec2caa11482916e46ae1729d",
    ),
    "hier-3+1-c2-sum": (
        "169cf9bde82dc2c7f98608a0ff75fbda83d9f64f53bf4ad7761cc85fbdbab87d",
        "dfff3e1bd0ec3072288c4802b76d93841044efff8739f6997cf892ea823d9bda",
    ),
    "hier-3+1-c2-avg": (
        "87d3cfc45aca0bf5fb2e560bf7f264038cdd140d67366b4103273cfd396bc0e3",
        "2ad486b1c0d58ed55e607f80c3f94bd315e9404a7d296afe23f53d9680123ab9",
    ),
    "hier-4+2+2-c1-sum": (
        "74eb3b343ce38640c29915bf418c99c2f8d0ca7d0ca5436eb3d8201370a2cb47",
        "dc59da52d2ba55d609fc4dbe100d5e3c4934926b856c6c699a419f20c125e837",
    ),
    "hier-4+2+2-c1-avg": (
        "e41df3bcaa4974883a78a2c3c185c4fa162d3c2534ea54e185a0f346c78a1e2b",
        "d226c1937bc10645e0b8e36cad13eaac59ba74377e70fc178dd48f58c703fd6f",
    ),
    "hier-4+2+2-c2-sum": (
        "74eb3b343ce38640c29915bf418c99c2f8d0ca7d0ca5436eb3d8201370a2cb47",
        "11cab8bf6f7badda7e505f2857f7afd04bf82403cb6cbfc45d7164f391fcffd9",
    ),
    "hier-4+2+2-c2-avg": (
        "e41df3bcaa4974883a78a2c3c185c4fa162d3c2534ea54e185a0f346c78a1e2b",
        "81349266c5e9a0be37b5e5ad941dd6f07645a872417b90896cc3687e03f8d3cc",
    ),
    "rs+ag-P4-c1": (
        "5d9d3efd33448d0204914a4ffef1b1a6f48cc5ae79ab32da73f006b35f5069ee",
        "1be7786edd1d05f6434474130fb0821e702b684860cb8ed7a109ad75a911f097",
    ),
    "rs+ag-P4-c2": (
        "5d9d3efd33448d0204914a4ffef1b1a6f48cc5ae79ab32da73f006b35f5069ee",
        "cd3e9a0252dc987e1b27ea5c8415604b9555f179df2913c15a0ff99d28878c8b",
    ),
}


@pytest.mark.parametrize(
    "case_id,size,n,kind,options", CASES, ids=[c[0] for c in CASES]
)
def test_fp16_wire_and_result_bytes_are_pinned(case_id, size, n, kind, options):
    assert digests(size, n, collective(kind, options)) == PINNED[case_id]
