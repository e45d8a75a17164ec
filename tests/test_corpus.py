"""Corpus generation: orbit pruning and the degree rule of the augmentation,
the n = 8 corpus's digest, and its soundness and greedy sweeps behind the
opt-in ``slow`` marker (run with ``pytest -m slow``)."""

import hashlib
from itertools import permutations

import pytest

from autbounds import automorphisms, corpus
from autbounds.graphs import SizeLimitError, bits, write_graph6
from autbounds.verify import greedy_sweep, soundness_sweep

from helpers import all_graphs_reference, is_automorphism

# One SHA-256 over the graph6 lines of all_graphs(8), in order, recorded
# with the generator before orbit pruning.
CORPUS8_DIGEST = "ac8cc0067e25e0e382c50220b5bc0105025beef93607b5b0e8d84a0388206b3b"


def subset_orbit_minima(g):
    """Least member of each orbit of the full automorphism group of g, found
    by walking all n! permutations, on vertex subsets as bitmasks."""
    autos = [p for p in permutations(range(g.n)) if is_automorphism(g, p)]
    return sorted({min(sum(1 << p[w] for w in bits(mask)) for p in autos)
                   for mask in range(1 << g.n)})


def gives_new_vertex_maximum_degree(g, mask):
    """In g plus a vertex joined to mask, no old vertex has more neighbours
    than the new one."""
    return all(g.degree(v) + (mask >> v & 1) <= mask.bit_count() for v in range(g.n))


def test_tried_masks_are_orbit_minima(monkeypatch):
    # Every candidate is refined exactly once for its bucket key, so the
    # refinement calls made from corpus are the candidates tried: the orbit
    # minima whose new vertex has maximum degree.
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
        expected = [mask for mask in subset_orbit_minima(base)
                    if gives_new_vertex_maximum_degree(base, mask)]
        assert tried[base.rows] == expected, write_graph6(base)


def test_degree_rule_loses_no_graph():
    # the same graphs, in the same order, as trying every orbit minimum
    for n in range(1, 8):
        assert corpus.all_graphs(n) == all_graphs_reference(n), n


def test_bucket_mates_refine_no_equitable_partition_again(monkeypatch):
    # Only a unit partition is refined without splitters; a bucket-mate test
    # starts from cells that are already equitable and refines by {y} alone.
    starts = []
    real = automorphisms._refine

    def spy(rows, cells, splitters=None):
        starts.append((len(cells), splitters))
        return real(rows, cells, splitters)

    monkeypatch.setattr(automorphisms, "_refine", spy)
    monkeypatch.setattr(corpus, "_refine", spy)
    caches = (corpus.all_graphs, corpus.connected_graphs, automorphisms.aut_order)
    for fn in caches:
        fn.cache_clear()
    try:
        for n in range(1, 7):
            corpus.all_graphs(n)
    finally:
        for fn in caches:
            fn.cache_clear()
    assert any(splitters is not None for _, splitters in starts)
    assert all(size == 1 for size, splitters in starts if splitters is None)


def test_generation_limit_refusal():
    text = f"1 <= n <= {corpus.GENERATION_LIMIT}"
    with pytest.raises(SizeLimitError, match=text):
        corpus.all_graphs(corpus.GENERATION_LIMIT + 1)
    # below 1 is bad input, not a size cap
    with pytest.raises(ValueError, match=text) as info:
        corpus.all_graphs(0)
    assert type(info.value) is ValueError


def test_corpus8_counts_and_digest():
    graphs = corpus.all_graphs(8)
    assert len(graphs) == corpus.ALL_GRAPH_COUNTS[8] == 12346
    assert len(corpus.connected_graphs(8)) == corpus.CONNECTED_GRAPH_COUNTS[8] == 11117
    text = "".join(write_graph6(g) + "\n" for g in graphs)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == CORPUS8_DIGEST


@pytest.mark.slow
def test_corpus8_soundness_and_greedy_sweeps():
    sound = soundness_sweep(nmax=8)
    assert sound.corpus_counts[8] == 11117
    assert sound.passed, sound.violations[:3]
    greedy = greedy_sweep(nmax=8)
    assert greedy.checked == sum(n * corpus.CONNECTED_GRAPH_COUNTS[n] for n in range(1, 9))
    assert greedy.passed, greedy.violations[:3]
