"""Deterministic generation of unstructured-sparse tensors.

The paper evaluates SAVE on a 2D grid of weight × activation sparsity
with *uniform random* zero placement (Sec. VI: "we simulate SAVE with
both weight and activation sparsities of 0%-90% at 10% intervals, using
a uniform random distribution").  These helpers produce exactly that
kind of data, deterministically from a seed so experiments are
repeatable.

Non-zero values are drawn away from zero (magnitude in ``[0.25, 2)``)
so that "zero" and "non-zero" are unambiguous after FP32/BF16 rounding.
That is what lets :func:`nonzero_mask` and :func:`operand_masks` replay
only the *structure* of :func:`sparse_matrix`: they make exactly its
draws but skip the value arithmetic, because no non-zero draw can round
to zero.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]

_SIGNS = np.array([-1.0, 1.0], dtype=np.float32)


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _zero_count(size: int, sparsity: float) -> int:
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    return int(round(sparsity * size))


def _draw_values(
    size: int, generator: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of :func:`sparse_matrix` that do not depend on sparsity:
    ``size`` magnitudes, then ``size`` signs, flat in C order."""
    magnitudes = generator.uniform(0.25, 2.0, size=size)
    signs = generator.choice(_SIGNS, size=size)
    return magnitudes, signs


def _zero_positions(
    size: int, sparsity: float, generator: np.random.Generator
) -> np.ndarray:
    """Flat positions :func:`zero_mask` zeroes: its one draw."""
    n_zero = _zero_count(size, sparsity)
    if not n_zero:
        return np.empty(0, dtype=np.int64)
    return generator.choice(size, size=n_zero, replace=False)


def zero_mask(shape: tuple[int, ...], sparsity: float, rng: RngLike = None) -> np.ndarray:
    """Return a boolean array where True marks a zeroed element.

    Args:
        shape: output shape.
        sparsity: fraction of elements to zero, in ``[0, 1]``.
        rng: seed or ``numpy.random.Generator``.

    Exactly ``round(sparsity * size)`` elements are zeroed, placed
    uniformly at random — the exact-count variant keeps the measured
    sparsity on-grid even for small tensors.
    """
    size = math.prod(shape)
    mask = np.zeros(size, dtype=bool)
    mask[_zero_positions(size, sparsity, _as_rng(rng))] = True
    return mask.reshape(shape)


def sparse_vector(n: int, sparsity: float, rng: RngLike = None) -> np.ndarray:
    """Return an FP32 vector with the given fraction of exact zeros."""
    return sparse_matrix((n,), sparsity, rng).reshape(n)


def sparse_matrix(
    shape: tuple[int, ...], sparsity: float, rng: RngLike = None
) -> np.ndarray:
    """Return an FP32 tensor with the given fraction of exact zeros.

    Non-zero magnitudes are uniform in ``[0.25, 2)`` with random sign,
    guaranteeing they stay non-zero under BF16 rounding.
    """
    generator = _as_rng(rng)
    magnitudes, signs = _draw_values(math.prod(shape), generator)
    values = (magnitudes.astype(np.float32) * signs).reshape(shape)
    values[zero_mask(shape, sparsity, generator)] = 0.0
    return values


def nonzero_mask(
    shape: tuple[int, ...], sparsity: float, rng: Union[int, np.random.Generator]
) -> np.ndarray:
    """``sparse_matrix(shape, sparsity, rng) != 0`` without the values.

    Makes exactly the draws of :func:`sparse_matrix`, so ``rng`` ends in
    the state that call would leave it in.
    """
    generator = _as_rng(rng)
    _draw_values(math.prod(shape), generator)
    return ~zero_mask(shape, sparsity, generator)


def operand_masks(
    a_shape: tuple[int, ...],
    b_shape: tuple[int, ...],
    points: Sequence[tuple[int, float, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """Non-zero masks of a seeded operand pair, for many points at once.

    Each ``(seed, a_sparsity, b_sparsity)`` point gives the masks of::

        rng = np.random.default_rng(seed)
        a = sparse_matrix(a_shape, a_sparsity, rng)
        b = sparse_matrix(b_shape, b_sparsity, rng)

    stacked on a leading point axis.  A's values and signs depend only
    on the seed, and B's only on the seed and A's zero count, so the
    generator state after each is snapshotted when a later point shares
    it and restored for that point: each shared prefix is drawn once,
    and only the zero placements are drawn per point.
    """
    a_masks = np.empty((len(points), *a_shape), dtype=bool)
    b_masks = np.empty((len(points), *b_shape), dtype=bool)
    a_masks.fill(True)
    b_masks.fill(True)
    a_flat = a_masks.reshape(len(points), -1)
    b_flat = b_masks.reshape(len(points), -1)
    a_size, b_size = a_flat.shape[1], b_flat.shape[1]
    keys = [(seed, _zero_count(a_size, a_sparsity)) for seed, a_sparsity, _ in points]
    last_a = {seed: index for index, (seed, _) in enumerate(keys)}
    last_b = {key: index for index, key in enumerate(keys)}
    generators: dict[int, np.random.Generator] = {}
    # seed -> state after A's values and signs
    after_a: dict[int, dict] = {}
    # (seed, A's zero count) -> (state after B's values and signs, A's zeros)
    after_b: dict[tuple[int, int], tuple[dict, np.ndarray]] = {}
    for index, ((seed, a_sparsity, b_sparsity), key) in enumerate(zip(points, keys)):
        if key in after_b:
            generator = generators[seed]
            state, a_zeros = after_b[key]
            generator.bit_generator.state = state
        else:
            if seed in generators:
                generator = generators[seed]
                generator.bit_generator.state = after_a[seed]
            else:
                generator = generators[seed] = np.random.default_rng(seed)
                _draw_values(a_size, generator)
                if last_a[seed] > index:
                    after_a[seed] = generator.bit_generator.state
            a_zeros = _zero_positions(a_size, a_sparsity, generator)
            _draw_values(b_size, generator)
            if last_b[key] > index:
                after_b[key] = (generator.bit_generator.state, a_zeros)
        a_flat[index][a_zeros] = False
        b_flat[index][_zero_positions(b_size, b_sparsity, generator)] = False
    return a_masks, b_masks


def sparsify(values: np.ndarray, sparsity: float, rng: RngLike = None) -> np.ndarray:
    """Zero a uniformly-random fraction of ``values`` (returns a copy)."""
    out = np.array(values, dtype=np.float32, copy=True)
    out[zero_mask(out.shape, sparsity, rng)] = 0.0
    return out
