"""EXP-T5 — Theorem 5: Algorithm 4's referee-side reconstruction.

Timed hot paths: the global (pruning) phase with the Newton decoder on a
256-vertex 3-degenerate graph, the same with the Lemma 3 lookup table, and
the full round end-to-end on a planar instance.
"""

from repro.analysis import exp_theorem5_reconstruction, format_table
from repro.graphs.generators import apollonian, random_k_degenerate
from repro.protocols import DegeneracyReconstructionProtocol


def test_global_phase_newton_n256_k3(benchmark, write_result):
    g = random_k_degenerate(256, 3, seed=11)
    protocol = DegeneracyReconstructionProtocol(3, decoder="newton")
    msgs = protocol.message_vector(g)
    out = benchmark(protocol.global_, g.n, msgs)
    assert out == g
    title, headers, rows = exp_theorem5_reconstruction()
    write_result("EXP-T5", format_table(title, headers, rows))


def test_global_phase_table_n64_k2(benchmark):
    g = random_k_degenerate(64, 2, seed=12)
    protocol = DegeneracyReconstructionProtocol(2, decoder="table")
    msgs = protocol.message_vector(g)
    protocol.global_(g.n, msgs)  # build the table outside the timing loop
    out = benchmark(protocol.global_, g.n, msgs)
    assert out == g


def test_full_round_planar_n200(benchmark):
    g = apollonian(200, seed=13)
    protocol = DegeneracyReconstructionProtocol(3)
    out = benchmark(protocol.run, g)
    assert out == g


def test_decode_scaling_n512(benchmark):
    """The referee decode at the largest bench size: n decodes of n-independent
    cost (direct root recovery), plus O(k·m) power-sum updates."""
    g = random_k_degenerate(512, 2, seed=14)
    protocol = DegeneracyReconstructionProtocol(2)
    msgs = protocol.message_vector(g)
    out = benchmark.pedantic(protocol.global_, args=(g.n, msgs), rounds=2, iterations=1)
    assert out == g
