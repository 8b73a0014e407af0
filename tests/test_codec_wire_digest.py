"""The allreduce algorithms and the ring phases under a reduce-closed
codec, pinned to their wire bytes.

A codec changes what the ring's hops carry, not which messages go where,
and a divide or rounding between phases changes values, not messages, so
the schedule fingerprints (element counts only) cannot see either.  These
digests can: one SHA-256 over every rank's result bytes, and one over
every send of every rank — destination, tag, dtype, element count and
payload bytes.  The fp16 values were recorded from the dedicated
compressed-ring and compressed-hierarchical schedules that
``allreduce(..., codec=)`` replaced, so they prove the single ring body
puts the same fp16 bytes on the wire and leaves the same result bits.
The dense (``codec=None``) rows pin every algorithm's bytes too — each
of ``ALLREDUCE_ALGORITHMS`` at P = 2, 3, 5, 8 (hierarchical on 3+1 and
4+2+2 hosts), one and three chunks, sum and average — as the
per-algorithm allreduce functions left them before ``allreduce`` became
the one entry point.
"""

import hashlib

import numpy as np
import pytest

from repro.comm import launch
from repro.collectives.sharding import allgather_flat, reduce_scatter
from repro.collectives.sync import allreduce
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
    for n_chunks in (1, 3):
        for average in (False, True):
            tail = f"c{n_chunks}-{'avg' if average else 'sum'}"
            for algorithm in ("recursive_doubling", "ring", "rabenseifner"):
                for size in (2, 3, 5, 8):
                    cases.append((
                        f"dense-{algorithm}-P{size}-{tail}", size, 37, algorithm,
                        dict(n_chunks=n_chunks, average=average, codec=None),
                    ))
            for hosts in ((3, 1), (4, 2, 2)):
                cases.append((
                    f"dense-hier-{'+'.join(map(str, hosts))}-{tail}", sum(hosts), 37,
                    "hierarchical",
                    dict(n_chunks=n_chunks, average=average, hosts=hosts, codec=None),
                ))
    return cases


CASES = _cases()


def collective(kind, options):
    """The collective of one case (fp16 unless ``options`` say
    ``codec=None``), as ``fn(comm, data) -> array``."""
    codec = get_codec("fp16") if options.get("codec", "fp16") else None
    n_chunks = options["n_chunks"]
    if kind in ("recursive_doubling", "ring", "rabenseifner"):
        return lambda comm, data: allreduce(
            comm, data, algorithm=kind, average=options["average"],
            n_chunks=n_chunks, codec=codec,
        )
    if kind == "hierarchical":
        topology = HostTopology.from_hosts(options["hosts"])
        return lambda comm, data: allreduce(
            comm, data, algorithm="hierarchical", n_chunks=n_chunks,
            topology=topology, average=options["average"], codec=codec,
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
    "dense-recursive_doubling-P2-c1-sum": (
        "dc0295f58a187702382e2f8ef25e8ae938311117f24bd47e0919c27c5ffb3016",
        "54640df6e1dbbd42acb890ee42a25b88ec33f42ecfda23f261b85d50f4f8b7f0",
    ),
    "dense-recursive_doubling-P3-c1-sum": (
        "52674b97b3965bf61d0164acf58f2d759cbd44c4854f64b1e5c5ddea59987f91",
        "b5f61ce6debea8fe354a05c8d24425bf9b3fc9b39176d526d6fe0e3a0e686098",
    ),
    "dense-recursive_doubling-P5-c1-sum": (
        "834d82d0c13a73aa1f7f135a3b4c248e5ef095646900251e3b92f9cc58631a17",
        "38bac210cd4bb1ffaa5af9e95e6b2a10a22c34d5b7aa382df0d2e2d551b124a4",
    ),
    "dense-recursive_doubling-P8-c1-sum": (
        "9c38df503f792597a54f27d729b54b66596a824ce81e593727bf8f6098eda665",
        "756a0ba033fa5bd875b49c437e13d3ddb8f0b77da519e16d63ee1de0c18cbe5d",
    ),
    "dense-ring-P2-c1-sum": (
        "dc0295f58a187702382e2f8ef25e8ae938311117f24bd47e0919c27c5ffb3016",
        "20cf96043cf92b45797fe7606750ae8bb41f26652d0d4904da18601bd9991e5d",
    ),
    "dense-ring-P3-c1-sum": (
        "a1c323da0bfb5de38626e94a70ed30c8186c7bee49ecd6d88dd10bd90a9ab428",
        "2e795fa50775736081ffd59e020133dd72e77cd5b0848936e84d6f8b361b9e30",
    ),
    "dense-ring-P5-c1-sum": (
        "977b79598b6c0d78fc79084a0e96d720959f073c56a36a5cc79977b81eabe12c",
        "a22c3d333724cb5e51fc6f10e8f807da4931ecaae2aef15083d63a8fdb711121",
    ),
    "dense-ring-P8-c1-sum": (
        "738f0b40511c3ad17216cd3b67f390813af39eca1529d8cb535686c78633120d",
        "5b62402c82d6de6eac9a55c643c135e5f7875515b5d86703b7eefc13a83c3254",
    ),
    "dense-rabenseifner-P2-c1-sum": (
        "dc0295f58a187702382e2f8ef25e8ae938311117f24bd47e0919c27c5ffb3016",
        "ee275d5e7ed21a42add235f19e12882905294a10ad6535ba2ad0eb3a4663b367",
    ),
    "dense-rabenseifner-P3-c1-sum": (
        "52674b97b3965bf61d0164acf58f2d759cbd44c4854f64b1e5c5ddea59987f91",
        "0643ab0e72f19ea69bd0357a13695436ab41f0e88521524e6980cd695a1b7222",
    ),
    "dense-rabenseifner-P5-c1-sum": (
        "5af651df610f3823b63998d3bb1ebdb16ff4a53915f9b2a4f78855d119f3facf",
        "9cb7e13189988fcb4bb5a31311f437f430f72f94f8586548ee1613c3b19c5874",
    ),
    "dense-rabenseifner-P8-c1-sum": (
        "589b20a675277fb458d937fd826b940d9c39623084739df94fa5f2ae79e1a0af",
        "5b36c142bd7942a4496cc2c3d593de48954eb4bd9363c16fc252af588b761913",
    ),
    "dense-hier-3+1-c1-sum": (
        "8cd59e014781ebccbcd06a08aef9f73d81a2d4460abc6a26a2d10ecc474224d5",
        "e031f6f26cd2f31935e59aef519981e33ed7e7ed282f49129eb3a461d621e60e",
    ),
    "dense-hier-4+2+2-c1-sum": (
        "b25a914e25c230a59e37dca44f8d09b1e421d61b69a892ae98a77b30db2777f0",
        "ecaf92f8be1a1e198a4744fbfa16e66a484c4387f917c78641643fb9b409665a",
    ),
    "dense-recursive_doubling-P2-c1-avg": (
        "cacc88a3e4083e04a54f46753d61e80ac2908e5b9969dd1e1935205ffde1b00a",
        "54640df6e1dbbd42acb890ee42a25b88ec33f42ecfda23f261b85d50f4f8b7f0",
    ),
    "dense-recursive_doubling-P3-c1-avg": (
        "89d437f13610e0a1ed69d61ab3d791f5041fbd1fedb7017038b7a581f3aa9ec3",
        "b5f61ce6debea8fe354a05c8d24425bf9b3fc9b39176d526d6fe0e3a0e686098",
    ),
    "dense-recursive_doubling-P5-c1-avg": (
        "5362079ba103f41bcfd9b8be9929972a458902dfd1b9140b14a2a8bf098abf75",
        "38bac210cd4bb1ffaa5af9e95e6b2a10a22c34d5b7aa382df0d2e2d551b124a4",
    ),
    "dense-recursive_doubling-P8-c1-avg": (
        "1a7e894973eef44d4390d8140d2c6feeb552c7821a314c5164324aabde80b260",
        "756a0ba033fa5bd875b49c437e13d3ddb8f0b77da519e16d63ee1de0c18cbe5d",
    ),
    "dense-ring-P2-c1-avg": (
        "cacc88a3e4083e04a54f46753d61e80ac2908e5b9969dd1e1935205ffde1b00a",
        "86a8a18e13485b93bd9c5ef4bb8def201b9aee2a66832f993759d980448d4564",
    ),
    "dense-ring-P3-c1-avg": (
        "86f44779f02559ab1e6da34c1e994271a947b752adcc8e87c11479560346c101",
        "16af2259567196180e4613eb0340a46872f417cc606a6a6ac823fe0561a5c833",
    ),
    "dense-ring-P5-c1-avg": (
        "cbaf5fb6cdf99ba63d5d6fbd16e715e5b4fb06fcf0e2f96730b33c4be629b062",
        "12c8dfddc555747c7e407027d2fc44d81049a5b5d8e033d81bd928ac3ba902a6",
    ),
    "dense-ring-P8-c1-avg": (
        "f30969a422ad2e568dc3eb99bdb840aa3b069663721ed672f4e5b77cd320f309",
        "818f5412b3482a15e46a11d9baddb7284af03e184c3621df137672e406f48b1d",
    ),
    "dense-rabenseifner-P2-c1-avg": (
        "cacc88a3e4083e04a54f46753d61e80ac2908e5b9969dd1e1935205ffde1b00a",
        "a43367071bac54f6c9c5dfe813aa3ddb9b0d0528422caa693913edf8cbfd3bcc",
    ),
    "dense-rabenseifner-P3-c1-avg": (
        "89d437f13610e0a1ed69d61ab3d791f5041fbd1fedb7017038b7a581f3aa9ec3",
        "f979b6f175e9f8771b29af76c659a04bc7d59b63188a316e390abba40f47345b",
    ),
    "dense-rabenseifner-P5-c1-avg": (
        "82212b7b2aea7fd68a1a1c90f05d10b2e531d4b21d10aa6ceeb05b69cd30524f",
        "53035202af1691583122f85f494649cb27755bd4b8bb68571e3934fce9fc40ae",
    ),
    "dense-rabenseifner-P8-c1-avg": (
        "849cbf21018b06e848367470c6416905eb756cdb33277dd45abd94e676a7dfad",
        "a0689e34351a6ac542894b6765aba7907fba38af4a7cb15be1ff0f90aa18c0d0",
    ),
    "dense-hier-3+1-c1-avg": (
        "69edf783cb5ee9dcad6b010eeeede299ad0f0b325935d0ffe0d4fcf1de873408",
        "46b1fd29c84dccd46d460f63ae3a17c2c87fa0a93f30ae0d25bd55869962301b",
    ),
    "dense-hier-4+2+2-c1-avg": (
        "d57185db782b8a1ad63d5f50d89a328c339c10a2927f66d846dfdc56541ef21c",
        "c3dea7b0d330cc3b5a926f921bdf348a24a6f25a099e7ee22d9b8f6063be04a4",
    ),
    "dense-recursive_doubling-P2-c3-sum": (
        "dc0295f58a187702382e2f8ef25e8ae938311117f24bd47e0919c27c5ffb3016",
        "73fc9c9e7ddbdbd4c52ad2cf76a9ed3c1a737e5032ef1b4d14460382436d74a9",
    ),
    "dense-recursive_doubling-P3-c3-sum": (
        "52674b97b3965bf61d0164acf58f2d759cbd44c4854f64b1e5c5ddea59987f91",
        "719823a97fe31f1e4ff09c3b9ed877f481201ab64b3ae73a0e8811967c82afaf",
    ),
    "dense-recursive_doubling-P5-c3-sum": (
        "834d82d0c13a73aa1f7f135a3b4c248e5ef095646900251e3b92f9cc58631a17",
        "3f332660c4cdd4757e5ccda5214a0bb59fb0a1f15924b6615a0f61e6893d6f24",
    ),
    "dense-recursive_doubling-P8-c3-sum": (
        "9c38df503f792597a54f27d729b54b66596a824ce81e593727bf8f6098eda665",
        "e0d091e54946b953d69f8b751dbd23ff17e673164651ee783dc543d233bb297c",
    ),
    "dense-ring-P2-c3-sum": (
        "dc0295f58a187702382e2f8ef25e8ae938311117f24bd47e0919c27c5ffb3016",
        "27bb2b7fadbdd95b777725587a5da4ea0d71a1280e82ea49d6fdd0b19c5cacc4",
    ),
    "dense-ring-P3-c3-sum": (
        "a1c323da0bfb5de38626e94a70ed30c8186c7bee49ecd6d88dd10bd90a9ab428",
        "44c5b0b9ea1003db982d033d641343ec8b5aee1c458357a8d70a759b8f5a5ba8",
    ),
    "dense-ring-P5-c3-sum": (
        "977b79598b6c0d78fc79084a0e96d720959f073c56a36a5cc79977b81eabe12c",
        "19fe3b817ab20ee015d27ede527809ed4a29c209469e931f2b0cc8d79d0ea4ef",
    ),
    "dense-ring-P8-c3-sum": (
        "738f0b40511c3ad17216cd3b67f390813af39eca1529d8cb535686c78633120d",
        "cbaeac05215a362653c921c28b4d5fede4f7e741a90f400fdbaccd1edb42615d",
    ),
    "dense-rabenseifner-P2-c3-sum": (
        "dc0295f58a187702382e2f8ef25e8ae938311117f24bd47e0919c27c5ffb3016",
        "29ea3cac785f75ac2f4821dbd3692881b6de2f37e126b1bbad0b700c9c429a47",
    ),
    "dense-rabenseifner-P3-c3-sum": (
        "52674b97b3965bf61d0164acf58f2d759cbd44c4854f64b1e5c5ddea59987f91",
        "f850f5560dfd413aaa40493da82cc1763652c6da028219977048ae7b1fbc8dac",
    ),
    "dense-rabenseifner-P5-c3-sum": (
        "5af651df610f3823b63998d3bb1ebdb16ff4a53915f9b2a4f78855d119f3facf",
        "4cc14cf20a614762e0fcff47cc08f2d79c1f61cf5874a8e91cd8d628636b8813",
    ),
    "dense-rabenseifner-P8-c3-sum": (
        "589b20a675277fb458d937fd826b940d9c39623084739df94fa5f2ae79e1a0af",
        "e777bb70e71276b622ee8a197bce13e5a3f06a532226ed3aa07d2d28a0d40b08",
    ),
    "dense-hier-3+1-c3-sum": (
        "8cd59e014781ebccbcd06a08aef9f73d81a2d4460abc6a26a2d10ecc474224d5",
        "d719176ca6b6545fbd5593e8ed829997b48ffe9079a5710b34078c1d750ef3f7",
    ),
    "dense-hier-4+2+2-c3-sum": (
        "b25a914e25c230a59e37dca44f8d09b1e421d61b69a892ae98a77b30db2777f0",
        "a481764be63a1e5fcf0488a7777a15b9b741565536d311a671086e96d50aa99b",
    ),
    "dense-recursive_doubling-P2-c3-avg": (
        "cacc88a3e4083e04a54f46753d61e80ac2908e5b9969dd1e1935205ffde1b00a",
        "73fc9c9e7ddbdbd4c52ad2cf76a9ed3c1a737e5032ef1b4d14460382436d74a9",
    ),
    "dense-recursive_doubling-P3-c3-avg": (
        "89d437f13610e0a1ed69d61ab3d791f5041fbd1fedb7017038b7a581f3aa9ec3",
        "719823a97fe31f1e4ff09c3b9ed877f481201ab64b3ae73a0e8811967c82afaf",
    ),
    "dense-recursive_doubling-P5-c3-avg": (
        "5362079ba103f41bcfd9b8be9929972a458902dfd1b9140b14a2a8bf098abf75",
        "3f332660c4cdd4757e5ccda5214a0bb59fb0a1f15924b6615a0f61e6893d6f24",
    ),
    "dense-recursive_doubling-P8-c3-avg": (
        "1a7e894973eef44d4390d8140d2c6feeb552c7821a314c5164324aabde80b260",
        "e0d091e54946b953d69f8b751dbd23ff17e673164651ee783dc543d233bb297c",
    ),
    "dense-ring-P2-c3-avg": (
        "cacc88a3e4083e04a54f46753d61e80ac2908e5b9969dd1e1935205ffde1b00a",
        "8ccc071292083febdf43a2aa2a1485f887bbe26edd590206d7349e70f486dff4",
    ),
    "dense-ring-P3-c3-avg": (
        "86f44779f02559ab1e6da34c1e994271a947b752adcc8e87c11479560346c101",
        "e7d4dfb9e69e9ead3f470866765c2a1d3e50613490e31a94a938532bb3e21186",
    ),
    "dense-ring-P5-c3-avg": (
        "cbaf5fb6cdf99ba63d5d6fbd16e715e5b4fb06fcf0e2f96730b33c4be629b062",
        "d5458087bb6e1649fb3872002ebc7a260156b86f1cfb3370c1a15d726b53dd46",
    ),
    "dense-ring-P8-c3-avg": (
        "f30969a422ad2e568dc3eb99bdb840aa3b069663721ed672f4e5b77cd320f309",
        "cbff911a83be6fc4a12369ba2120fbe7a609b54e96807888e75bd6554bc70016",
    ),
    "dense-rabenseifner-P2-c3-avg": (
        "cacc88a3e4083e04a54f46753d61e80ac2908e5b9969dd1e1935205ffde1b00a",
        "d01f820ddd7143f5ef5f85635aee303fc08a3658d24230d440f5f99a99e0a150",
    ),
    "dense-rabenseifner-P3-c3-avg": (
        "89d437f13610e0a1ed69d61ab3d791f5041fbd1fedb7017038b7a581f3aa9ec3",
        "e633f2c56d882449576ad18c0418be4ce484545941f074dd37c0957eebf92a69",
    ),
    "dense-rabenseifner-P5-c3-avg": (
        "82212b7b2aea7fd68a1a1c90f05d10b2e531d4b21d10aa6ceeb05b69cd30524f",
        "12152d27806dbcde59ac272449282ad0cc832426792712b17c4f60fb556d0e0d",
    ),
    "dense-rabenseifner-P8-c3-avg": (
        "849cbf21018b06e848367470c6416905eb756cdb33277dd45abd94e676a7dfad",
        "9a36440a5c2d775630f90c92582aa99f0a6ce1d717d84a8e818d3b0ead557c4d",
    ),
    "dense-hier-3+1-c3-avg": (
        "69edf783cb5ee9dcad6b010eeeede299ad0f0b325935d0ffe0d4fcf1de873408",
        "28d7e585dbe147979a36e71658108dd67e274fd7eaf5dc8b69de6ce26e6c067d",
    ),
    "dense-hier-4+2+2-c3-avg": (
        "d57185db782b8a1ad63d5f50d89a328c339c10a2927f66d846dfdc56541ef21c",
        "a3dc1ad0c7c66ab62a8026ca09c71c04f6540c4dd1c37073bb3ee7e7c2635bb9",
    ),
}


@pytest.mark.parametrize(
    "case_id,size,n,kind,options", CASES, ids=[c[0] for c in CASES]
)
def test_fp16_wire_and_result_bytes_are_pinned(case_id, size, n, kind, options):
    assert digests(size, n, collective(kind, options)) == PINNED[case_id]
