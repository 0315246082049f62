"""Executor backends: ordered maps, batched local phases, referee parity."""

import pytest

from repro.engine.executor import (
    EXECUTOR_KINDS,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    _chunk_ids,
    default_jobs,
    make_executor,
)
from repro.errors import FrugalityViolation, ProtocolError
from repro.graphs.generators import random_forest, random_k_degenerate
from repro.graphs.labeled import LabeledGraph
from repro.model import Referee
from repro.protocols import DegeneracyReconstructionProtocol, ForestReconstructionProtocol


def _square(x):
    return x * x


ALL_BACKENDS = [SerialExecutor, ThreadPoolExecutor, ProcessPoolExecutor]


@pytest.fixture(params=ALL_BACKENDS, ids=lambda c: c.kind)
def executor(request):
    if request.param is SerialExecutor:
        ex = SerialExecutor()
    else:
        ex = request.param(2)
    with ex:
        yield ex


class TestMap:
    def test_preserves_order(self, executor):
        assert executor.map(_square, range(20)) == [x * x for x in range(20)]

    def test_empty(self, executor):
        assert executor.map(_square, []) == []

    def test_exception_propagates(self, executor):
        with pytest.raises(ZeroDivisionError):
            executor.map(_raise_on_three, [1, 2, 3, 4])


def _raise_on_three(x):
    if x == 3:
        raise ZeroDivisionError("three")
    return x


class TestMapLocal:
    def test_matches_serial_loop(self, executor):
        g = random_k_degenerate(40, 2, seed=5)
        protocol = DegeneracyReconstructionProtocol(2)
        expected = [(i, protocol.local(g.n, i, g.neighbors(i))) for i in g.vertices()]
        assert executor.map_local(protocol, g) == expected

    def test_empty_graph(self, executor):
        protocol = ForestReconstructionProtocol()
        assert executor.map_local(protocol, LabeledGraph(0)) == []

    def test_chunking_covers_all_ids(self):
        for n, chunks in [(1, 1), (7, 3), (10, 4), (10, 40), (100, 7)]:
            parts = _chunk_ids(list(range(1, n + 1)), chunks)
            assert [i for part in parts for i in part] == list(range(1, n + 1))
            assert all(part for part in parts)


class TestRefereeParity:
    """Acceptance: an engine-backed round equals Referee.run bit-for-bit."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda c: c.kind)
    def test_report_identical_to_plain_referee(self, backend):
        cases = [
            (ForestReconstructionProtocol(), random_forest(60, 4, seed=9)),
            # the builtin `bench` campaign's run shape
            (DegeneracyReconstructionProtocol(2), random_k_degenerate(512, 2, seed=0)),
        ]
        ex = SerialExecutor() if backend is SerialExecutor else backend(2)
        with ex:
            for protocol, g in cases:
                base = Referee(shuffle_delivery=True, shuffle_seed=3).run(protocol, g)
                report = Referee(shuffle_delivery=True, shuffle_seed=3,
                                 executor=ex).run(protocol, g)
                assert report.output == base.output == g
                assert report.per_vertex_bits == base.per_vertex_bits
                assert report.max_message_bits == base.max_message_bits
                assert report.total_message_bits == base.total_message_bits

    def test_budget_violation_same_vertex(self):
        g = random_forest(30, 3, seed=2)
        protocol = ForestReconstructionProtocol()
        with pytest.raises(FrugalityViolation) as plain:
            Referee(budget_bits=1).run(protocol, g)
        with SerialExecutor() as ex:
            with pytest.raises(FrugalityViolation) as engined:
                Referee(budget_bits=1, executor=ex).run(protocol, g)
        assert plain.value.vertex == engined.value.vertex
        assert plain.value.bits == engined.value.bits


class TestFactory:
    def test_known_kinds(self):
        assert set(EXECUTOR_KINDS) == {"serial", "thread", "process"}
        for kind in EXECUTOR_KINDS:
            with make_executor(kind, 2) as ex:
                assert ex.kind == kind

    def test_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown executor"):
            make_executor("gpu")

    def test_bad_jobs(self):
        with pytest.raises(ProtocolError, match="jobs"):
            ThreadPoolExecutor(0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_pool_reusable_after_close(self):
        ex = ThreadPoolExecutor(2)
        assert ex.map(_square, [2]) == [4]
        ex.close()
        assert ex.map(_square, [3]) == [9]  # lazily rebuilds the pool
        ex.close()
