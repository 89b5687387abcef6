"""Tests for sparse tensor generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsity.generators import (
    nonzero_mask,
    operand_masks,
    sparse_matrix,
    sparse_vector,
    sparsify,
    zero_mask,
)
from repro.sparsity.stats import measured_sparsity


class TestZeroMask:
    def test_exact_count(self):
        mask = zero_mask((100,), 0.3, rng=0)
        assert mask.sum() == 30

    def test_zero_sparsity(self):
        assert not zero_mask((64,), 0.0, rng=0).any()

    def test_full_sparsity(self):
        assert zero_mask((64,), 1.0, rng=0).all()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            zero_mask((10,), 1.5)
        with pytest.raises(ValueError):
            zero_mask((10,), -0.1)

    def test_deterministic_with_seed(self):
        a = zero_mask((256,), 0.5, rng=42)
        b = zero_mask((256,), 0.5, rng=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = zero_mask((256,), 0.5, rng=1)
        b = zero_mask((256,), 0.5, rng=2)
        assert not np.array_equal(a, b)

    def test_2d_shape(self):
        mask = zero_mask((16, 16), 0.25, rng=0)
        assert mask.shape == (16, 16)
        assert mask.sum() == 64

    @given(st.floats(0.0, 1.0), st.integers(1, 500))
    @settings(max_examples=30)
    def test_count_matches_rounding(self, sparsity, n):
        mask = zero_mask((n,), sparsity, rng=0)
        assert mask.sum() == int(round(sparsity * n))


class TestSparseGeneration:
    def test_vector_sparsity(self):
        vec = sparse_vector(1000, 0.4, rng=0)
        assert measured_sparsity(vec) == pytest.approx(0.4)

    def test_matrix_sparsity(self):
        mat = sparse_matrix((50, 40), 0.7, rng=0)
        assert measured_sparsity(mat) == pytest.approx(0.7)

    def test_nonzero_magnitudes_bounded(self):
        vec = sparse_vector(1000, 0.0, rng=0)
        mags = np.abs(vec)
        assert (mags >= 0.25).all() and (mags < 2.0).all()

    def test_both_signs_present(self):
        vec = sparse_vector(1000, 0.0, rng=0)
        assert (vec > 0).any() and (vec < 0).any()

    def test_dtype_is_float32(self):
        assert sparse_vector(16, 0.5, rng=0).dtype == np.float32

    def test_nonzeros_survive_bf16_rounding(self):
        from repro.isa.datatypes import bf16_round

        vec = sparse_vector(1000, 0.5, rng=0)
        rounded = bf16_round(vec)
        assert np.array_equal(rounded == 0, vec == 0)


class TestSparsify:
    def test_preserves_input(self):
        values = np.ones(100, dtype=np.float32)
        out = sparsify(values, 0.5, rng=0)
        assert values.all()  # original untouched
        assert measured_sparsity(out) == pytest.approx(0.5)

    def test_zero_rate_is_identity(self):
        values = np.arange(1, 11, dtype=np.float32)
        assert np.array_equal(sparsify(values, 0.0, rng=0), values)


#: Sparsity 0, 1 and off-grid levels whose zero counts collide.
REPLAY_LEVELS = (0.0, 1.0, 0.29, 0.3, 0.5, 0.9)


class TestMaskReplay:
    """``nonzero_mask`` / ``operand_masks`` replay ``sparse_matrix``'s
    draws without its values."""

    @pytest.mark.parametrize("shape", [(2, 3), (4, 16), (16, 96)])
    @pytest.mark.parametrize("sparsity", REPLAY_LEVELS)
    def test_nonzero_mask_replays_sparse_matrix(self, shape, sparsity):
        replayed, drawn = np.random.default_rng(7), np.random.default_rng(7)
        mask = nonzero_mask(shape, sparsity, replayed)
        assert np.array_equal(mask, sparse_matrix(shape, sparsity, drawn) != 0)
        # The generator ends where sparse_matrix leaves it.
        assert replayed.bit_generator.state == drawn.bit_generator.state

    def test_nonzero_mask_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="sparsity"):
            nonzero_mask((4, 4), 1.5, np.random.default_rng(0))

    def test_operand_masks_match_per_point_draws(self):
        a_shape, b_shape = (4, 16), (16, 96)
        # Interleaved seeds, repeated A zero counts (0.29 and 0.3 both
        # zero 19 of 64), and sparsity 0 and 1 on either operand.
        points = [
            (seed, bs, nbs)
            for bs in REPLAY_LEVELS
            for seed in (0, 3)
            for nbs in REPLAY_LEVELS
        ]
        a_masks, b_masks = operand_masks(a_shape, b_shape, points)
        assert a_masks.shape == (len(points), *a_shape)
        assert b_masks.shape == (len(points), *b_shape)
        for index, (seed, bs, nbs) in enumerate(points):
            rng = np.random.default_rng(seed)
            assert np.array_equal(a_masks[index], sparse_matrix(a_shape, bs, rng) != 0)
            assert np.array_equal(b_masks[index], sparse_matrix(b_shape, nbs, rng) != 0)

    def test_operand_masks_reject_out_of_range(self):
        with pytest.raises(ValueError, match="sparsity"):
            operand_masks((2, 3), (3, 32), [(0, 0.5, 0.5), (0, 1.5, 0.5)])
        with pytest.raises(ValueError, match="sparsity"):
            operand_masks((2, 3), (3, 32), [(0, 0.5, 1.5)])
