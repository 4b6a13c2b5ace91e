import numpy as np
import pytest

from expalign.errors import DimensionError
from expalign.fusion import (
    downsample2x,
    downsample2x_adjoint,
    fuse_down,
    fuse_down_adjoint,
    fuse_up,
    fuse_up_adjoint,
    upsample2x,
    upsample2x_adjoint,
)


def down_oracle(m):
    h, w = m.shape[-2] // 2, m.shape[-1] // 2
    out = np.zeros(m.shape[:-2] + (h, w))
    for i in range(h):
        for j in range(w):
            out[..., i, j] = m[..., 2 * i:2 * i + 2, 2 * j:2 * j + 2].mean(axis=(-2, -1))
    return out


def fuse_down_oracle(m3, m4, m5):
    return (down_oracle((down_oracle(m3) + m4) / 2) + m5) / 2


def up_oracle(m):
    h, w = m.shape[-2], m.shape[-1]
    out = np.zeros(m.shape[:-2] + (2 * h, 2 * w))
    for i in range(2 * h):
        for j in range(2 * w):
            out[..., i, j] = m[..., i // 2, j // 2]
    return out


def fuse_up_oracle(m3, m4, m5):
    return (up_oracle((up_oracle(m5) + m4) / 2) + m3) / 2


# The forms the strided kernels replaced, kept as their bitwise references:
# numpy's mean over a reshaped view, and np.repeat along each axis.

def down_reference(m):
    h, w = m.shape[-2], m.shape[-1]
    return m.reshape(*m.shape[:-2], h // 2, 2, w // 2, 2).mean(axis=(-3, -1))


def up_reference(m):
    return np.repeat(np.repeat(m, 2, axis=-2), 2, axis=-1)


def fuse_down_reference(m3, m4, m5):
    return (down_reference((down_reference(m3) + m4) / 2.0) + m5) / 2.0


def fuse_up_reference(m3, m4, m5):
    return (up_reference((up_reference(m5) + m4) / 2.0) + m3) / 2.0


def fuse_down_adjoint_reference(g):
    ga = up_reference(g / 2.0) / 4.0
    return up_reference(ga / 2.0) / 4.0, ga / 2.0, g / 2.0


def fuse_up_adjoint_reference(g):
    gb = 4.0 * down_reference(g / 2.0)
    return g / 2.0, gb / 2.0, 4.0 * down_reference(gb / 2.0)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def fuzz_arrays(seed, trailing):
    """C-contiguous arrays with 0, 1 or 2 leading axes of sizes 0 to 3, one per
    trailing (h, w), with magnitudes spread from 1e-300 to 1e300."""
    rng = np.random.default_rng(seed)
    for i, (h, w) in enumerate(trailing):
        shape = tuple(int(n) for n in rng.integers(0 if i % 7 == 0 else 1, 4, size=i % 3)) + (h, w)
        yield rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)


def even_sizes(seed, count=96, largest=64):
    """Even (h, w) pairs; every even width from 2 to `largest` appears."""
    rng = np.random.default_rng(seed)
    widths = [2 * (1 + i % (largest // 2)) for i in range(count)]
    return [(2 * int(rng.integers(1, largest // 2 + 1)), w) for w in widths]


def random_pyramid(rng, prompts=2, h3=8, w3=8):
    return (rng.normal(size=(prompts, h3, w3)),
            rng.normal(size=(prompts, h3 // 2, w3 // 2)),
            rng.normal(size=(prompts, h3 // 4, w3 // 4)))


class TestResamplers:
    def test_downsample_constant(self):
        np.testing.assert_array_equal(downsample2x(np.full((4, 6), 2.5)), np.full((2, 3), 2.5))

    def test_downsample_block_mean(self):
        np.testing.assert_array_equal(downsample2x(np.array([[1.0, 2.0], [3.0, 4.0]])), [[2.5]])

    def test_downsample_zeros(self):
        assert not downsample2x(np.zeros((6, 8))).any()

    def test_downsample_odd_dims_rejected(self):
        with pytest.raises(DimensionError):
            downsample2x(np.zeros((3, 4)))

    def test_upsample_replicates(self):
        np.testing.assert_array_equal(upsample2x(np.array([[7.0]])), np.full((2, 2), 7.0))
        np.testing.assert_array_equal(upsample2x(np.full((3, 2), -1.0)), np.full((6, 4), -1.0))

    def test_down_up_roundtrip_is_identity(self):
        m = np.random.default_rng(0).normal(size=(3, 4, 6))
        np.testing.assert_array_equal(downsample2x(upsample2x(m)), m)

    def test_matches_loop_oracles(self):
        m = np.random.default_rng(1).normal(size=(2, 4, 8))
        np.testing.assert_allclose(downsample2x(m), down_oracle(m), atol=1e-15)
        np.testing.assert_allclose(upsample2x(m), up_oracle(m), atol=0)


class TestFusion:
    def test_fuse_down_constants(self):
        a, b, c = 1.5, -2.0, 0.5
        out = fuse_down(np.full((1, 8, 8), a), np.full((1, 4, 4), b), np.full((1, 2, 2), c))
        np.testing.assert_allclose(out, ((a + b) / 2 + c) / 2, atol=1e-15)

    def test_fuse_up_constants(self):
        a, b, c = 0.25, 3.0, -1.0
        out = fuse_up(np.full((1, 8, 8), a), np.full((1, 4, 4), b), np.full((1, 2, 2), c))
        np.testing.assert_allclose(out, ((c + b) / 2 + a) / 2, atol=1e-15)

    def test_zero_pyramid(self):
        m3, m4, m5 = np.zeros((1, 4, 4)), np.zeros((1, 2, 2)), np.zeros((1, 1, 1))
        assert not fuse_down(m3, m4, m5).any()
        assert not fuse_up(m3, m4, m5).any()

    def test_matches_loop_oracles(self):
        m3, m4, m5 = random_pyramid(np.random.default_rng(2))
        np.testing.assert_allclose(fuse_down(m3, m4, m5), fuse_down_oracle(m3, m4, m5), atol=1e-14)
        np.testing.assert_allclose(fuse_up(m3, m4, m5), fuse_up_oracle(m3, m4, m5), atol=1e-14)

    def test_shape_contract(self):
        m3, m4, m5 = random_pyramid(np.random.default_rng(3), prompts=3, h3=16, w3=8)
        assert fuse_down(m3, m4, m5).shape == (3, 4, 2)
        assert fuse_up(m3, m4, m5).shape == (3, 16, 8)

    def test_pyramid_violations_rejected(self):
        with pytest.raises(DimensionError):
            fuse_down(np.zeros((1, 8, 8)), np.zeros((1, 4, 4)), np.zeros((1, 1, 1)))
        with pytest.raises(DimensionError):
            fuse_up(np.zeros((1, 8, 8)), np.zeros((2, 4, 4)), np.zeros((1, 2, 2)))


class TestAdjoints:
    # <A x, y> = <x, A^T y> pins the hand-written backward operators

    def test_resampler_adjoints(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=(2, 3))
        assert abs(np.vdot(downsample2x(x), y) - np.vdot(x, downsample2x_adjoint(y))) <= 1e-12
        y2 = rng.normal(size=(8, 12))
        assert abs(np.vdot(upsample2x(x), y2) - np.vdot(x, upsample2x_adjoint(y2))) <= 1e-12

    def test_fusion_adjoints(self):
        rng = np.random.default_rng(5)
        pyr = random_pyramid(rng)
        y_down = rng.normal(size=(2, 2, 2))
        g3, g4, g5 = fuse_down_adjoint(y_down)
        lhs = np.vdot(fuse_down(*pyr), y_down)
        rhs = sum(np.vdot(x, g) for x, g in zip(pyr, (g3, g4, g5)))
        assert abs(lhs - rhs) <= 1e-12
        y_up = rng.normal(size=(2, 8, 8))
        g3, g4, g5 = fuse_up_adjoint(y_up)
        lhs = np.vdot(fuse_up(*pyr), y_up)
        rhs = sum(np.vdot(x, g) for x, g in zip(pyr, (g3, g4, g5)))
        assert abs(lhs - rhs) <= 1e-12


class TestStridedKernelsBitwise:
    """The strided 2x2 kernels against the forms they replaced, bit for bit."""

    def test_resamplers(self):
        for m in fuzz_arrays(6, even_sizes(6)):
            assert same_bits(downsample2x(m), down_reference(m)), m.shape
            assert same_bits(upsample2x(m), up_reference(m)), m.shape
            assert same_bits(downsample2x_adjoint(m), up_reference(m) / 4.0), m.shape
            assert same_bits(upsample2x_adjoint(m), 4.0 * down_reference(m)), m.shape

    def test_two_column_blocks_sum_in_sequence(self):
        # numpy adds a width-2 input's block as ((a00 + a01) + a10) + a11, which
        # differs in the last bit from the pairwise order on some inputs
        for m in fuzz_arrays(7, [(2 * (1 + i % 30), 2) for i in range(60)]):
            assert same_bits(downsample2x(m), down_reference(m)), m.shape

    def test_fusion(self):
        heights = np.random.default_rng(8).integers(1, 17, 48)
        sizes = [(4 * int(h), 4 * (1 + i % 16)) for i, h in enumerate(heights)]
        for m3 in fuzz_arrays(8, sizes):
            rng = np.random.default_rng(m3.size)
            lead, (h, w) = m3.shape[:-2], m3.shape[-2:]
            m4 = rng.normal(size=lead + (h // 2, w // 2)) * 10.0 ** rng.uniform(-300, 300)
            m5 = rng.normal(size=lead + (h // 4, w // 4)) * 10.0 ** rng.uniform(-300, 300)
            assert same_bits(fuse_down(m3, m4, m5), fuse_down_reference(m3, m4, m5)), m3.shape
            assert same_bits(fuse_up(m3, m4, m5), fuse_up_reference(m3, m4, m5)), m3.shape

    def test_fusion_adjoints(self):
        for g in fuzz_arrays(9, [(1 + i % 16, 1 + (5 * i) % 16) for i in range(48)]):
            for got, ref in zip(fuse_down_adjoint(g), fuse_down_adjoint_reference(g)):
                assert same_bits(got, ref), g.shape
        for g in fuzz_arrays(10, [(4 * (1 + i % 16), 4 * (1 + (7 * i) % 16)) for i in range(48)]):
            for got, ref in zip(fuse_up_adjoint(g), fuse_up_adjoint_reference(g)):
                assert same_bits(got, ref), g.shape

    def test_broadcast_stacks_bitwise_and_inputs_untouched(self):
        # the fusions and adjoints write into arrays they made; the references above are the
        # one-expression forms they replaced. The finite-difference oracle fuses a batch in
        # which one scale moves and the other two are read-only broadcast views of one image.
        rng = np.random.default_rng(11)
        for w3 in (4, 8, 12):  # w3 = 4 and 8 take downsample2x's two-column branch at P4 or P5
            base = random_pyramid(rng, prompts=3, h3=8, w3=w3)
            for s in range(3):
                pyramid = [np.broadcast_to(m, (2,) + m.shape) for m in base]
                pyramid[s] = base[s] + rng.normal(size=(2,) + base[s].shape)
                before = [m.copy() for m in pyramid]
                assert same_bits(fuse_down(*pyramid), fuse_down_reference(*pyramid)), (w3, s)
                assert same_bits(fuse_up(*pyramid), fuse_up_reference(*pyramid)), (w3, s)
                assert all(same_bits(m, b) for m, b in zip(pyramid, before))
            adjoints = ((rng.normal(size=(2, 3, 2, w3 // 4)), fuse_down_adjoint, fuse_down_adjoint_reference),
                        (rng.normal(size=(2, 3, 8, w3)), fuse_up_adjoint, fuse_up_adjoint_reference))
            for g, adjoint, reference in adjoints:
                before = g.copy()
                for got, ref in zip(adjoint(g), reference(g)):
                    assert same_bits(got, ref), (w3, g.shape)
                assert same_bits(g, before)
            assert same_bits(upsample2x_adjoint(g), 4.0 * down_reference(g)) and same_bits(g, before)
