"""Sector block form read by index where the projectors allow it.

Number sectors and identity sectors are real 0/1 diagonal projectors with
disjoint supports, and the library reads their blocks by index instead of
multiplying by every pair of projectors.  The product form lives on in
oracles.py, and every residual must equal it bit for bit.
"""

import numpy as np
import pytest

import oracles
from twirlab.analysis import _sector_labels, build_twirled_world, sector_block_residual
from twirlab.symmetry import twirl_projector
from twirlab.catalog import build_world, number_sector_projectors
from twirlab.hermitian import unvectorize_dims

WORLDS = ([("spinor_su2", {"n": n}) for n in (1, 2, 3)]
          + [("bosonic_u1", {"N": N, "modes": m}) for N in (1, 2, 3) for m in (1, 2)])


def _same(ops, projectors, flags=None):
    got = sector_block_residual(ops, projectors, flags)
    want = oracles.sector_block_residual(ops, projectors, flags)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    return got


def _hermitian_stack(rng, n, dim, real=False):
    a = rng.normal(size=(n, dim, dim))
    if not real:
        a = a + 1j * rng.normal(size=(n, dim, dim))
    return a + np.swapaxes(a, -1, -2).conj()


def _diagonal_projector(dim, indices):
    p = np.zeros((dim, dim))
    p[indices, indices] = 1.0
    return p


@pytest.mark.parametrize("name, params", WORLDS, ids=lambda x: str(x))
def test_every_sector_oracle_equals_the_product_form(name, params):
    bundle = build_world(name, params)
    by_id = {s.id: (s, act) for s, act in bundle.system_actions}
    for sid, oracle in bundle.sectors.items():
        s, act = by_id[sid]
        tw = build_twirled_world(s, twirl_projector(act))
        rows = np.vstack([tw.world.state_generators.T, tw.world.effect_generators])
        ops = unvectorize_dims(rows, oracle.hilbert_dims)
        res = _same(ops, oracle.projectors, oracle.scalar_sectors)
        assert res.shape == (len(rows),)
        # and off the invariant form, where no residual is near zero
        noisy = ops + _hermitian_stack(np.random.default_rng(1), len(ops), ops.shape[-1])
        _same(noisy, oracle.projectors, oracle.scalar_sectors)


def test_number_and_identity_sectors_are_read_by_index():
    assert np.array_equal(_sector_labels(number_sector_projectors(2, 2)),
                          [0, 1, 2, 1, 2, 3, 2, 3, 4])
    assert np.array_equal(_sector_labels([np.eye(2)]), [0, 0])
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert _sector_labels([(np.eye(4) - swap) / 2, (np.eye(4) + swap) / 2]) is None
    assert _sector_labels([np.eye(2, dtype=complex)]) is None
    assert _sector_labels([2 * np.eye(2)]) is None


def test_an_index_in_no_sector_is_never_seen():
    rng = np.random.default_rng(2)
    ops = _hermitian_stack(rng, 20, 6)
    projs = [_diagonal_projector(6, [0, 3]), _diagonal_projector(6, [1, 5])]
    res = _same(ops, projs, [True, False])
    # entries in the row and column of indices 2 and 4 do not matter
    ops[:, [2, 4], :] = 1e6
    ops[:, :, [2, 4]] = 1e6
    assert np.array_equal(_same(ops, projs, [True, False]), res)


def test_diagonal_projectors_sharing_an_index_keep_the_product_form():
    rng = np.random.default_rng(3)
    ops = _hermitian_stack(rng, 20, 5)
    projs = [_diagonal_projector(5, [0, 1, 2]), _diagonal_projector(5, [2, 3])]
    assert _sector_labels(projs) is None
    _same(ops, projs, [True, True])


def test_a_large_scattered_scalar_sector_keeps_the_trace_order():
    # nine scattered indices: the trace of c is a pairwise sum, and a
    # sum over the gathered diagonal would move the last bit somewhere
    rng = np.random.default_rng(4)
    dim = 14
    sector = [0, 2, 3, 5, 7, 8, 10, 11, 13]
    rest = [i for i in range(dim) if i not in sector]
    ops = _hermitian_stack(rng, 400, dim)
    ops[:, sector, sector] += rng.normal(size=(400, 1)) * 3.0
    projs = [_diagonal_projector(dim, sector), _diagonal_projector(dim, rest)]
    _same(ops, projs, [True, True])
    # near-scalar blocks on the sector, where c carries the residual
    s = np.array(sector)
    blocks = np.zeros_like(ops)
    blocks[:, s[:, None], s] = rng.normal(size=(400, 1, 1)) * np.eye(len(s))
    _same(blocks + 1e-9 * ops, projs, [True, False])


def test_real_operators():
    rng = np.random.default_rng(5)
    ops = _hermitian_stack(rng, 30, 9, real=True)
    res = _same(ops, number_sector_projectors(2, 2), [True] * 5)
    assert res.dtype == np.float64


def test_a_single_operator_gives_a_zero_dimensional_result():
    rng = np.random.default_rng(6)
    op = _hermitian_stack(rng, 1, 9)[0]
    for projs, flags in ((number_sector_projectors(2, 2), [True] * 5),
                         ([np.eye(9)], [True]),
                         ([np.eye(9)], None)):
        res = _same(op, projs, flags)
        assert np.ndim(res) == 0
    assert _same(op, [], None) == 0.0


def test_an_empty_stack():
    ops = np.zeros((0, 9, 9), dtype=complex)
    assert _same(ops, number_sector_projectors(2, 2), [True] * 5).shape == (0,)
