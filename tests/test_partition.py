import time

import numpy as np
import pytest

from qwalk import (
    Partition,
    check_equitable,
    coarsest_equitable,
    cycle_graph,
    named_gadget,
    path_graph,
    quotient,
)
from qwalk.errors import NotAPartition, QwalkError, SignInconsistency
from qwalk.graphs import TailSpec, WeightedGraph
from qwalk.partition import EquitableData, EquitableFailure
from qwalk.spectral import SpectralDecomposition


def test_partition_validation():
    p = Partition.of([(0, 2), (1,)])
    p.validate(3)
    with pytest.raises(NotAPartition):
        Partition.of([(0,), (0, 1)]).validate(2)
    with pytest.raises(NotAPartition):
        Partition.of([(0,)]).validate(2)


def test_characteristic_matrix_orthonormal():
    p = Partition.of([(0, 1, 2), (3,), (4, 5)])
    c = p.characteristic_matrix(6)
    np.testing.assert_allclose(c.T @ c, np.eye(3), atol=1e-14)


def test_check_equitable_demo_graph():
    g = named_gadget("c4_quotient").graph
    res = check_equitable(g, Partition.of([(0, 1), (2,), (3, 4), (5,)]))
    assert not isinstance(res, EquitableFailure)
    # each cell-to-cell weighted sum is constant by construction
    bad = check_equitable(g, Partition.of([(0, 1, 2), (3, 4, 5)]))
    assert isinstance(bad, EquitableFailure)


def test_coarsest_equitable_refines_seed():
    g = cycle_graph(6)
    ed = coarsest_equitable(g, Partition.single(6))
    # a cycle is regular: the whole vertex set stays one cell
    assert ed.partition.cells == (tuple(range(6)),)


def test_labels_give_each_vertex_its_cell():
    p = Partition.of([(4, 0), (2,), (1, 3, 5)])
    assert p.labels(6).tolist() == [0, 1, 2, 1, 0, 1]
    assert Partition.of([]).labels(0).shape == (0,)


@pytest.mark.parametrize("n", [0, 1])
def test_refinement_of_the_smallest_graphs(n):
    g, p = WeightedGraph(n, ()), Partition.of([range(n)] if n else [])
    for ed in (coarsest_equitable(g, p), check_equitable(g, p)):
        assert ed.partition == p
        assert ed.constants.shape == ed.charmatrix.shape == (n, n)
        assert not ed.constants.any()


def test_refinement_of_a_long_path_takes_one_product_per_round():
    # the mirror cells {i, 199 - i}, after 100 rounds; splitting cells
    # vertex by vertex took about 4 s here
    start = time.perf_counter()
    ed = coarsest_equitable(path_graph(200), Partition.single(200))
    elapsed = time.perf_counter() - start
    assert ed.partition == Partition.of([(i, 199 - i) for i in range(100)])
    assert elapsed < 1.0


def test_quotient_of_demo_graph_is_scaled_cycle():
    g = named_gadget("c4_quotient").graph
    ed = coarsest_equitable(g, Partition.of([(0, 1), (2,), (3, 4), (5,)]))
    b = quotient(ed)
    target = np.sqrt(2.0) * cycle_graph(4).core_adjacency()
    np.testing.assert_allclose(b, target, atol=1e-12)


def test_quotient_intertwines_transitions():
    g = named_gadget("c4_quotient").graph
    ed = coarsest_equitable(g, Partition.of([(0, 1), (2,), (3, 4), (5,)]))
    b = quotient(ed)
    da = SpectralDecomposition.of(g.core_adjacency())
    db = SpectralDecomposition.of(b)
    for t in (0.4, 1.3, 2.9):
        lhs = da.unitary(t) @ ed.charmatrix
        rhs = ed.charmatrix @ db.unitary(t)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_tail_attach_must_be_singleton():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)), (TailSpec(0),))
    with pytest.raises(NotAPartition):
        check_equitable(g, Partition.of([(0, 2), (1,)]))


def test_discrete_partition_always_equitable():
    g = cycle_graph(5)
    res = check_equitable(g, Partition.discrete(5))
    assert not isinstance(res, EquitableFailure)
    np.testing.assert_allclose(quotient(res), g.core_adjacency())


def _quotient_reference(c):
    # the entry-by-entry definition: sign(c_jk) sqrt(c_jk c_kj), symmetrized
    d = c.shape[0]
    b = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            b[j, k] = np.sign(c[j, k]) * np.sqrt(max(c[j, k] * c[k, j], 0.0))
    return (b + b.T) / 2.0


def test_quotient_matches_entrywise_definition():
    g = named_gadget("c4_quotient").graph
    ed = coarsest_equitable(g, Partition.of([(0, 1), (2,), (3, 4), (5,)]))
    np.testing.assert_array_equal(quotient(ed),
                                  _quotient_reference(ed.constants))


def test_quotient_names_first_sign_inconsistency():
    # c[0,2] c[2,0] < 0 and c[1,2] c[2,1] < 0: the row-major first is (0, 2)
    c = np.array([[0.0, 1.0, 2.0],
                  [1.0, 0.0, -1.0],
                  [-1.0, 1.0, 0.0]])
    ed = EquitableData(cycle_graph(3), Partition.discrete(3), c, np.eye(3))
    with pytest.raises(SignInconsistency, match=r"c\[0,2\]=2\.0 and c\[2,0\]=-1\.0"):
        quotient(ed)


def test_quotient_rejects_constants_that_do_not_intertwine():
    # consistent signs, but twice the cell sums of the graph: A C != C B
    g = cycle_graph(3)
    ed = EquitableData(g, Partition.discrete(3), 2.0 * g.core_adjacency(), np.eye(3))
    with pytest.raises(QwalkError, match=r"quotient intertwining A C = C B failed"):
        quotient(ed)
