"""The two operand gates of ``qherm.core``: ``same_dim`` and ``sample_block``.

Every public entry point that pairs operators of one space or reads a
stack of sample vectors goes through them, so a mismatch raises
:class:`DimensionMismatch` with a message that names what did not match.
"""

import numpy as np
import pytest

from qherm import (
    DimensionMismatch,
    MetricOperator,
    Operator,
    g_inner,
    lattice_norms,
    make_metric,
    verify_intertwining,
    verify_lattice,
    x_family,
    x_properties,
)
from qherm.core import same_dim, sample_block
from qherm.quasihermitian import hermitian_partner

EYE2, EYE3 = np.eye(2), np.eye(3)
M2 = MetricOperator.identity(2)
XF3 = x_family(Operator(np.diag([1.0, 2.0, 3.0])))


def test_same_dim_returns_the_common_dimension():
    assert same_dim(A=3) == 3
    assert same_dim(A=3, B=3, T=3) == 3


def test_same_dim_names_every_operand():
    with pytest.raises(DimensionMismatch, match="^A has dim 3, metric has dim 2$"):
        same_dim(A=3, metric=2)
    with pytest.raises(DimensionMismatch, match="^A has dim 2, B has dim 2, T has dim 1$"):
        same_dim(A=2, B=2, T=1)


def test_sample_block_reads_a_list_of_vectors():
    rows = [np.arange(3.0), 1j * np.ones(3)]
    block = sample_block(rows, (3,), "probe")
    assert block.dtype == np.complex128 and block.shape == (2, 3)
    assert np.array_equal(block, np.array(rows))
    pairs = sample_block([(np.ones(2), np.zeros(2))], (2, 2), "probe")
    assert pairs.shape == (1, 2, 2)


@pytest.mark.parametrize("empty", [[], np.zeros((0, 3))])
def test_sample_block_refuses_an_empty_block(empty):
    with pytest.raises(ValueError, match="^probe needs a nonempty sample list$"):
        sample_block(empty, (3,), "probe")


@pytest.mark.parametrize(
    "samples, shape",
    [
        ([np.ones(3), np.ones(2)], (3,)),  # ragged
        ([np.ones(2), np.ones(2)], (3,)),  # too narrow
        (np.ones(3), (3,)),  # one vector, not a stack
        (np.ones((2, 3, 1)), (3,)),  # one axis too many
        ([(np.ones(3), np.ones(2))], (2, 3)),  # a ragged pair
    ],
)
def test_sample_block_refuses_a_wrong_shape(samples, shape):
    with pytest.raises(DimensionMismatch, match=rf"^probe needs samples of shape \({shape[0]},"):
        sample_block(samples, shape, "probe")


# (call, message) per entry point outside quasihermitian, fed operands of two
# sizes; test_quasihermitian.py checks the messages of that module
MISMATCHES = {
    "verify_intertwining": (
        lambda: verify_intertwining(EYE2, EYE2, np.eye(1)), "A has dim 2, B has dim 2, T has dim 1"
    ),
    "x_properties": (
        lambda: x_properties(XF3, EYE2, [(np.ones(3), np.ones(3))]),
        "family has dim 3, A has dim 2",
    ),
    "x_properties_samples": (
        lambda: x_properties(XF3, EYE3, [(np.ones(2), np.ones(2))]),
        "x_properties needs samples of shape (2, 3), got (2, 2)",
    ),
    "g_inner": (
        lambda: g_inner(M2, np.ones(3), np.ones(3)), "g_inner needs samples of shape (2,), got (3,)"
    ),
    "lattice_norms": (
        lambda: lattice_norms(M2, np.ones(3)), "lattice_norms needs samples of shape (2,), got (3,)"
    ),
    # a rectangular block of the wrong width, read in one piece
    "verify_lattice": (
        lambda: verify_lattice(M2, np.ones((4, 3))),
        "verify_lattice needs samples of shape (2,), got (3,)",
    ),
}


@pytest.mark.parametrize("name", sorted(MISMATCHES))
def test_each_entry_point_names_the_operands_that_differ(name):
    call, message = MISMATCHES[name]
    with pytest.raises(DimensionMismatch) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_lattice(MetricOperator.identity(3), [np.ones(3), np.ones(2)]),
        lambda: x_properties(XF3, EYE3, [(np.ones(3), np.ones(3)), (np.ones(3), np.ones(2))]),
        lambda: g_inner(MetricOperator.identity(3), np.ones(3), np.ones(2)),
    ],
    ids=["verify_lattice", "x_properties", "g_inner"],
)
def test_ragged_samples_raise_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch, match="got ragged rows$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: g_inner(MetricOperator.identity(2), ["a", "b"], np.ones(2)),
        lambda: verify_lattice(MetricOperator.identity(2), [["a", "b"]]),
        lambda: x_properties(XF3, EYE3, [(np.ones(3), ["a", "b", "c"])]),
    ],
    ids=["g_inner", "verify_lattice", "x_properties"],
)
def test_an_entry_that_is_not_a_number_raises_numpys_value_error(call):
    # only rows of different shapes are a dimension mismatch; numpy's own
    # conversion error passes through
    with pytest.raises(ValueError) as info:
        call()
    assert not isinstance(info.value, DimensionMismatch)


@pytest.mark.parametrize(
    "call, caller",
    [
        (lambda: verify_lattice(MetricOperator.identity(2), np.zeros((0, 2))), "verify_lattice"),
        (lambda: x_properties(XF3, EYE3, []), "x_properties"),
    ],
    ids=["verify_lattice", "x_properties"],
)
def test_empty_samples_raise_value_error(call, caller):
    with pytest.raises(ValueError, match=f"^{caller} needs a nonempty sample list$"):
        call()


def test_hermitian_partner_takes_an_array_as_its_siblings_do():
    a = np.array([[1.0, 1.0], [0.0, 2.0]])
    m = make_metric(Operator([[1.0, -1.0], [-1.0, 2.0]]))
    from_array = hermitian_partner(a, m)
    assert isinstance(from_array, Operator)
    assert np.array_equal(from_array.matrix, hermitian_partner(Operator(a), m).matrix)
