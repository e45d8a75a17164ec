"""Corpus generation: orbit pruning of the augmentation, and the n = 8
corpus behind the opt-in ``slow`` marker (run with ``pytest -m slow``)."""

import hashlib
from itertools import permutations

import pytest

from autbounds import corpus
from autbounds.graphs import bits, write_graph6
from autbounds.verify import greedy_sweep, soundness_sweep

from helpers import is_automorphism

# One SHA-256 over the graph6 lines of all_graphs(8), in order, recorded
# with the generator before orbit pruning.
CORPUS8_DIGEST = "ac8cc0067e25e0e382c50220b5bc0105025beef93607b5b0e8d84a0388206b3b"


def subset_orbit_minima(g):
    """Least member of each orbit of the full automorphism group of g, found
    by walking all n! permutations, on vertex subsets as bitmasks."""
    autos = [p for p in permutations(range(g.n)) if is_automorphism(g, p)]
    return sorted({min(sum(1 << p[w] for w in bits(mask)) for p in autos)
                   for mask in range(1 << g.n)})


def test_tried_masks_are_orbit_minima(monkeypatch):
    # Every candidate is refined exactly once for its bucket key, so the
    # refinement calls made from corpus are the candidates tried.
    tried = {}
    real = corpus._refine

    def spy(rows, cells):
        new = 1 << (len(rows) - 1)
        tried.setdefault(tuple(r & ~new for r in rows[:-1]), []).append(rows[-1])
        return real(rows, cells)

    monkeypatch.setattr(corpus, "_refine", spy)
    corpus.all_graphs.cache_clear()
    try:
        bases = [g for n in range(1, 6) for g in corpus.all_graphs(n)]
        corpus.all_graphs(6)
    finally:
        corpus.all_graphs.cache_clear()
    assert len(bases) == 52 and len(tried) == len(bases)
    for base in bases:
        assert tried[base.rows] == subset_orbit_minima(base), write_graph6(base)


def test_generation_limit_refusal():
    with pytest.raises(ValueError, match=f"1 <= n <= {corpus.GENERATION_LIMIT}"):
        corpus.all_graphs(corpus.GENERATION_LIMIT + 1)


@pytest.mark.slow
def test_corpus8_counts_and_digest():
    graphs = corpus.all_graphs(8)
    assert len(graphs) == corpus.ALL_GRAPH_COUNTS[8] == 12346
    assert len(corpus.connected_graphs(8)) == corpus.CONNECTED_GRAPH_COUNTS[8] == 11117
    text = "".join(write_graph6(g) + "\n" for g in graphs)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == CORPUS8_DIGEST


@pytest.mark.slow
def test_corpus8_soundness_and_greedy_sweeps():
    sound = soundness_sweep(nmax=8)
    assert sound.info["corpus_counts"][8] == 11117
    assert sound.passed, sound.violations[:3]
    greedy = greedy_sweep(nmax=8)
    assert greedy.checked == sum(n * corpus.CONNECTED_GRAPH_COUNTS[n] for n in range(1, 9))
    assert greedy.passed, greedy.violations[:3]
