"""Quantum rows rebuilt, eigensolved and sector-checked as stacks.

The library turns a whole stack of coordinate vectors into operators with
one sparse pass per tensor factor, which forms the products and sums a
dense einsum over the basis would, in the same order, and eigensolves the
stack with one call.  The per-row einsum recursion and formulas it
replaced live on in oracles.py, and the stacked results must equal them
bit for bit, down to the sign of every zero.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from twirlab import hermitian, pipeline
from twirlab.analysis import build_twirled_world, sector_block_residual
from twirlab.catalog import build_world
from twirlab.core import numerical_rank
from twirlab.pipeline import Options, run_analysis
from twirlab.symmetry import twirl_projector

# the quantum builtins of the benchmark's ladder workload, and bosonic N=3
QUANTUM = [
    ("spinor_su2", {"n": 1}),
    ("spinor_su2", {"n": 2}),
    ("bosonic_u1", {"N": 1, "modes": 2}),
    ("bosonic_u1", {"N": 1, "modes": 1}),
    ("bosonic_u1", {"N": 2, "modes": 1}),
    ("bosonic_u1", {"N": 3, "modes": 1}),
    ("bosonic_u1", {"N": 3, "modes": 2}),
]


def _twirled(name, params):
    bundle = build_world(name, params)
    return bundle, [build_twirled_world(s, twirl_projector(act))
                    for s, act in bundle.system_actions]


def _per_row(vec, dims):
    """The per-row oracle looped over the rows of a stack."""
    vec = np.asarray(vec, dtype=float)
    ops = np.array([oracles.unvectorize_dims(r, dims) for r in vec.reshape(-1, vec.shape[-1])])
    return ops.reshape(vec.shape[:-1] + 2 * (math.prod(dims),))


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


@pytest.mark.parametrize("name, params", QUANTUM, ids=lambda x: str(x))
def test_stacked_rows_equal_the_per_row_oracle(name, params):
    _, twirled = _twirled(name, params)
    for tw in twirled:
        dims = tw.world.hilbert_dims
        for rows in (tw.world.state_generators.T, tw.world.effect_generators):
            assert np.array_equal(hermitian.unvectorize_dims(rows, dims), _per_row(rows, dims))
            assert np.array_equal(hermitian.min_eigenvalue(rows, dims),
                                  [oracles.min_eigenvalue(r, dims) for r in rows])
            assert np.array_equal(hermitian.operator_interval_residual(rows, dims),
                                  [oracles.operator_interval_residual(r, dims) for r in rows])


# ordinary, tiny (subnormal included), huge and signed-zero coordinates
COORDINATES = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300]))


@st.composite
def coordinate_stacks(draw):
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)
                      .filter(lambda ds: math.prod(ds) <= 36)))
    rows = draw(st.sampled_from([0, 1, 2, 9]))
    length = math.prod(d * d for d in dims)
    return dims, draw(hnp.arrays(float, (rows, length), elements=COORDINATES))


@given(coordinate_stacks())
@settings(max_examples=60, deadline=None)
def test_stacks_equal_the_einsum_oracle_bit_for_bit(stack):
    dims, rows = stack
    assert _same_bits(hermitian.unvectorize_dims(rows, dims), _per_row(rows, dims))


@pytest.mark.parametrize("dims, shape", [((4, 4), (2, 32)), ((2,), (3,)), ((2, 3), (5, 37)),
                                         ((3,), ())], ids=str)
def test_wrong_length_is_refused_before_any_work(dims, shape, monkeypatch):
    def no_work(*args):
        raise AssertionError("a factor pass was started")
    monkeypatch.setattr(hermitian, "_factor_plan", no_work)
    want = math.prod(d * d for d in dims)
    got = f"length {shape[-1]}" if shape else "a scalar"
    with pytest.raises(ValueError, match=f"length {want}, got {got}$"):
        hermitian.unvectorize_dims(np.zeros(shape), dims)


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (3, 2, 2)])
def test_one_vector_is_the_stack_of_one(dims):
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(5, int(np.prod([d * d for d in dims]))))
    stack = hermitian.unvectorize_dims(rows, dims)
    assert stack.shape == (5,) + 2 * (int(np.prod(dims)),)
    for r, op in zip(rows, stack):
        assert np.array_equal(hermitian.unvectorize_dims(r, dims), op)
        assert np.array_equal(oracles.unvectorize_dims(r, dims), op)
    assert hermitian.unvectorize_dims(rows[:0], dims).shape == (0,) + stack.shape[1:]


def test_sector_residuals_equal_one_operator_at_a_time():
    bundle, twirled = _twirled("bosonic_u1", {"N": 2, "modes": 2})
    by_id = {tw.base.id: tw for tw in twirled}
    want = {}
    for sid, oracle in bundle.sectors.items():
        w = by_id[sid].world
        ops = _per_row(np.vstack([w.state_generators.T, w.effect_generators]),
                       oracle.hilbert_dims)
        per_op = [sector_block_residual(op, oracle.projectors, oracle.scalar_sectors)
                  for op in ops]
        stacked = sector_block_residual(ops, oracle.projectors, oracle.scalar_sectors)
        assert np.array_equal(stacked, per_op)
        want[sid] = float(max(per_op))
    assert pipeline._sector_residuals(bundle, by_id) == want


@pytest.mark.parametrize("name, params", [("spinor_su2", {"n": 2}),
                                          ("bosonic_u1", {"N": 2, "modes": 2})],
                         ids=lambda x: str(x))
def test_report_bytes_equal_the_per_row_rebuild(name, params, monkeypatch):
    bundle = build_world(name, params)
    shipped = run_analysis(bundle, Options()).to_bytes()
    # every module that binds the function sees the per-row loop
    monkeypatch.setattr(hermitian, "unvectorize_dims", _per_row)
    monkeypatch.setattr(pipeline, "unvectorize_dims", _per_row)
    assert run_analysis(bundle, Options()).to_bytes() == shipped


@pytest.mark.parametrize("name, params", QUANTUM + [("pointer_discrete", {"n": 4}),
                                                    ("boxworld_reflection", {})],
                         ids=lambda x: str(x))
def test_parameter_counts_come_from_the_one_svd(name, params):
    _, twirled = _twirled(name, params)
    for tw in twirled:
        assert tw.K == numerical_rank(tw.world.state_generators)
        ks = set()
        for t in (1e-10, 1e-9, 1e-8, 1e-7):
            k = build_twirled_world(tw.base, tw.projector, rank_tol=t).K
            assert k == numerical_rank(tw.world.state_generators, t)
            ks.add(k)
        assert tw.rank_stable == (len(ks) == 1)


def test_vectorize_dims_rejects_non_hermitian_operators():
    op = np.zeros((4, 4), dtype=complex)
    op[0, 3] = 1.0  # |00><11| alone: every partial contraction is complex
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian.vectorize_dims(op, (2, 2))
    herm = op + op.conj().T
    vec = hermitian.vectorize_dims(herm, (2, 2))
    assert np.max(np.abs(hermitian.unvectorize_dims(vec, (2, 2)) - herm)) < 1e-12
