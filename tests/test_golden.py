"""Golden output: `autbounds batch` over a fixed graph file must reproduce
committed SHA-256 digests byte for byte.

The file holds every graph on 1..6 vertices (disconnected ones included),
the Petersen graph, and C_22, which is past the structural size cap.  A
second file of sixteen seeded connected graphs on 7..14 vertices pins the
path cover number p through the eq3/eq7/eq8 rows: half are sparse, with
p >= 2, and half are dense, with p == 1.  A third file holds the graphs a
batch benchmark reports on: the connected n = 7 corpus and sixty seeded
connected G(8, m), twenty for each m in 8, 14, 20.  The generated corpus itself,
every graph on 1..7 vertices as graph6 lines in order, has one more digest,
and so do the labeled-copy counts of greedy trees in the connected n <= 7
graphs and in seeded connected G(8, m), and the tree layer: greedy and best
greedy trees from every start vertex, and every enumerated spanning tree.
The theorem1 copy census has one too: labeled copies, subgraph copies and
aut of one tree per spanning-tree class of every connected graph with
n <= 6.  Last, the best greedy tree and its product from every start vertex
of two 24-vertex hosts, a 4x6 grid and a seeded connected G(24, 60).  The
automorphism search has its own digest over order, orbits and generators of
every graph with n <= 7 and of nine large symmetric graphs: reports print no
generators, so nothing else pins which ones the search finds.  A
digest that moves means an output byte changed; that is a behaviour change,
never a refactor.
"""

import hashlib
import random

import pytest

from autbounds.automorphisms import aut_order
from autbounds.cli import main
from autbounds.corpus import all_graphs, connected_graphs
from autbounds.embeddings import count_embeddings, count_labeled_embeddings
from autbounds.graphs import (
    Graph,
    connected_gnm,
    cycle_graph,
    hypercube,
    petersen_graph,
    write_graph6,
)
from autbounds.trees import (
    _interned_tree,
    all_spanning_trees,
    best_greedy_tree,
    greedy_spanning_tree,
    tree_aut_exact,
    tree_aut_upper,
    tree_certificate,
    verify_greedy_tree,
)

from helpers import aut_families, greedy_hosts

GOLDEN = [
    (["--output", "json", "--corollary-mode", "both"],
     "06a594288a12f295407fd4845d3f5c8439187c2f981e2b70c9072ab6ffe0d329"),
    (["--output", "json", "--corollary-mode", "both", "--exhaustive-start"],
     "46d9e25ae58fcd66475283be57bec08a3b27e8644cfc32bb65300740721e1c19"),
    (["--output", "json", "--no-exact-aut",
      "--bounds", "eq8,corollary,thm3,thm3_plain,eq3,eq6"],
     "f72fabe74115781e1aa7a603a8b309a16ec40150017f2e4a8e825286bd274549"),
    (["--output", "csv", "--corollary-mode", "verbatim", "--assert-class5"],
     "0f0dffd23774fb52c2efc73fc0d895bd3f1abe9cae6d8c9bd979643e91b2a3a2"),
]

# One SHA-256 over the graph6 lines of all_graphs(n), n = 1..7 in order.
CORPUS_DIGEST = "227a191bd5aeae8fef6f3b0a782d6b952da0a4e7a5e46a22ae1d8895e31c53b2"

# One SHA-256 over count_labeled_embeddings of the greedy tree from vertex 0,
# one count per line, over embedding_pairs() in order.
EMBEDDINGS_DIGEST = "d97f648121040cbcf032c65c6047c68e1909a58c196f544863857d68a0d7b036"

# One SHA-256 over tree_layer_lines(), in order.
TREES_DIGEST = "d215424afc1c230c6b2a9a05441202953afa370e56b0f259bca581204606ca1b"

# One SHA-256 over census_lines(), in order.
CENSUS_DIGEST = "8d1afca5d14eadde8a5611739a8a04c6dea82475258f19991678f0499e2ec9f4"

# One SHA-256 per host of helpers.greedy_hosts() over best_greedy_lines(g).
BEST_GREEDY_DIGESTS = {
    "grid4x6": "21acd61489d05032fa0073072fc59be3c9bdc40c452338249b160b39ae46a8a1",
    "G(24,60)": "251b37f3dceff0ed81bd49bd05c53be81e513b5950b2022eb3a115767cbc373a",
}

# One SHA-256 over aut_lines(), in order.
AUT_DIGEST = "ec1a708c8fc2217dc6aa98594f728ac2b07c3e8f89162e4616255aabdb7df82f"

# One SHA-256 over `batch --output json --corollary-mode both` on batch_graphs().
BATCH_DIGEST = "203d5a1c1dbbf4d5223c2dee7ee0f45f5e38e6cbf297219e87a03a420e2b8ab1"

PATH_COVER_FLAGS = ["--output", "json", "--no-exact-aut", "--bounds", "eq3,eq7,eq8"]
PATH_COVER_DIGEST = "c90832b2c83359998169ec8909da77b9f93f74ae373a3de88ab105489ab29a7d"


def _write(path, graphs):
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs), encoding="ascii")
    return str(path)


def path_cover_graphs():
    """Two seeded connected graphs per n = 7..14.  The sparse one is a tree
    (or a tree plus one edge) that attaches each vertex to the first half of
    its predecessors; the dense one is a random tree plus n random edges."""
    out = []
    for i in range(16):
        n, sparse = 7 + i // 2, i % 2 == 0
        rng = random.Random(i)
        edges = {(rng.randrange((v + 1) // 2 if sparse else v), v) for v in range(1, n)}
        extra = (i // 2) % 2 if sparse else n
        while len(edges) < n - 1 + extra:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        out.append(Graph.from_edges(n, edges))
    return out


def batch_graphs():
    """The connected graphs with n = 7, then twenty seeded connected G(8, m)
    for each m = 8, 14, 20: the graph sizes a batch over the corpus and
    random 8-vertex graphs reports on."""
    rng = random.Random(2002)
    return list(connected_graphs(7)) + [connected_gnm(8, m, rng)
                                        for m in (8, 14, 20) for _ in range(20)]


def embedding_pairs():
    """(greedy tree from vertex 0, host) for every connected graph with
    n <= 7, then for eight seeded connected G(8, m) per m = 8, 14, 20, 24, 27:
    sparse hosts leave long paths in the tree, dense ones give it big stars."""
    hosts = [g for n in range(1, 8) for g in connected_graphs(n)]
    rng = random.Random(2002)
    hosts += [connected_gnm(8, m, rng) for m in (8, 14, 20, 24, 27) for _ in range(8)]
    return [(greedy_spanning_tree(g, 0).tree, g) for g in hosts]


def tree_layer_lines():
    """For every connected graph with n <= 7 and every start vertex: the
    greedy tree's edges, sequence and step sizes, then the best greedy tree's
    edges and product.  After those, for n <= 6, every spanning tree in
    enumeration order with its certificate and exact and upper automorphism
    counts (the upper count needs n >= 2)."""
    for n in range(1, 8):
        for g in connected_graphs(n):
            per_start = best_greedy_tree(g)
            for v0 in range(n):
                gt = greedy_spanning_tree(g, v0)
                best, product = per_start[v0]
                yield (f"{gt.tree.edges()} {gt.sequence} {gt.step_sizes()} "
                       f"{best.tree.edges()} {product}\n")
    for n in range(1, 7):
        for g in connected_graphs(n):
            for t in all_spanning_trees(g):
                upper = tree_aut_upper(t) if n >= 2 else None
                yield f"{t.edges()} {tree_certificate(t)} {tree_aut_exact(t)} {upper}\n"


def census_lines():
    """labeled, copies and aut_f of the first tree of each spanning-tree class,
    for every connected graph with n <= 6, in theorem1_suite's order: graphs
    in corpus order, classes in order of their first enumerated tree."""
    for n in range(1, 7):
        for g in connected_graphs(n):
            classes = {}
            for t in all_spanning_trees(g):
                classes.setdefault(tree_certificate(t), t)
            for ec in count_embeddings(list(classes.values()), g):
                yield f"{ec.labeled} {ec.copies} {ec.aut_f}\n"


def aut_lines():
    """aut_order's order, orbits and generators for every graph with n <= 7
    in corpus order, then for each of helpers.aut_families()."""
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    graphs += aut_families().values()
    for g in graphs:
        res = aut_order(g)
        yield f"{res.order} {res.orbits} {res.generators}\n"


def best_greedy_lines(g):
    """The best greedy tree's edges and product from every start vertex."""
    for best, product in best_greedy_tree(g):
        yield f"{best.tree.edges()} {product}\n"


@pytest.fixture(scope="module")
def golden_file(tmp_path_factory):
    graphs = [g for n in range(1, 7) for g in all_graphs(n)]
    graphs += [petersen_graph(), cycle_graph(22)]
    assert len(graphs) == 210
    return _write(tmp_path_factory.mktemp("golden") / "graphs.g6", graphs)


@pytest.mark.parametrize("flags,digest", GOLDEN, ids=["json-both", "exhaustive",
                                                      "no-aut-subset", "csv-verbatim"])
def test_batch_output_matches_golden_digest(golden_file, flags, digest, capsys):
    assert main(["batch", golden_file, *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_path_cover_output_matches_golden_digest(tmp_path, capsys):
    path = _write(tmp_path / "path_cover.g6", path_cover_graphs())
    assert main(["batch", path, *PATH_COVER_FLAGS]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == PATH_COVER_DIGEST


def test_batch_on_seven_and_eight_vertices_matches_golden_digest(tmp_path, capsys):
    path = _write(tmp_path / "batch.g6", batch_graphs())
    code = main(["batch", path, "--output", "json", "--corollary-mode", "both"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("\n") == 853 + 60
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == BATCH_DIGEST


def test_corpus_matches_golden_digest():
    # Pins every representative and the output order of corpus generation,
    # not only the class counts.
    text = "".join(write_graph6(g) + "\n" for n in range(1, 8) for g in all_graphs(n))
    assert text.count("\n") == 1252
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == CORPUS_DIGEST


def test_labeled_embedding_counts_match_golden_digest():
    text = "".join(f"{count_labeled_embeddings(f, g)}\n" for f, g in embedding_pairs())
    assert text.count("\n") == 996 + 40
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == EMBEDDINGS_DIGEST


def test_tree_layer_matches_golden_digest():
    # The first pass builds, codes and measures every tree from a cold intern
    # table, the second reads each back from the trees it interned.
    _interned_tree.cache_clear()
    for _ in range(2):
        text = "".join(tree_layer_lines())
        assert text.count("\n") == 17438
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == TREES_DIGEST


def test_copy_census_matches_golden_digest():
    text = "".join(census_lines())
    assert text.count("\n") == 539
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == CENSUS_DIGEST


def test_aut_search_matches_golden_digest():
    aut_order.cache_clear()
    text = "".join(aut_lines())
    assert text.count("\n") == 1252 + 9
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == AUT_DIGEST


@pytest.mark.parametrize("name", BEST_GREEDY_DIGESTS)
def test_best_greedy_on_24_vertex_hosts_matches_golden_digest(name):
    text = "".join(best_greedy_lines(greedy_hosts()[name]))
    assert text.count("\n") == 24
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == BEST_GREEDY_DIGESTS[name]


@pytest.mark.slow
def test_best_greedy_on_q5():
    # Q5 is vertex-transitive, so every start reaches the same product.
    q5 = hypercube(5)
    per_start = best_greedy_tree(q5)
    assert len(per_start) == 32
    for v0, (best, product) in enumerate(per_start):
        assert best.root == v0
        verify_greedy_tree(q5, best)
        assert product == 13824
