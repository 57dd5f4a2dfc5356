import ast
import hashlib
import math
import random
import sys

import pytest

import chainsim.golden
from chainsim import LayerParams, SampleTensor, golden_convolution, mac_count
from chainsim.fixedpoint import FixedFormat, acc_to_samples, overflow_free
from chainsim.layers import phase_rows, phase_taps, polyphase
from chainsim.presets import ALEXNET
from chainsim.tensors import ShapeError

from conftest import rand_tensor

# AlexNet conv layers, n=1; MAC counts checked by hand per layer:
# m * e^2 * (c/groups) * k^2
ALEXNET_SHAPES = [
    (3, 96, 227, 11, 4, 0, 1, 105_415_200),
    (96, 256, 27, 5, 1, 2, 2, 223_948_800),
    (256, 384, 13, 3, 1, 1, 1, 149_520_384),
    (384, 384, 13, 3, 1, 1, 2, 112_140_288),
    (384, 256, 13, 3, 1, 1, 2, 74_760_192),
]


def test_layer_params_validation():
    with pytest.raises(ShapeError):
        LayerParams(n=1, c=1, m=1, h=7, e=4, k=3)  # e must be 5
    with pytest.raises(ShapeError):
        LayerParams.from_shape(n=1, c=3, m=4, h=7, k=3, groups=2)  # c % groups
    with pytest.raises(ShapeError):
        LayerParams.from_shape(n=1, c=1, m=1, h=3, k=5)  # k > padded h


def test_mac_count_minimal():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=1, k=1)
    assert mac_count(p) == 1


def test_mac_count_groups_halve():
    a = LayerParams.from_shape(n=1, c=4, m=4, h=6, k=3)
    b = LayerParams.from_shape(n=1, c=4, m=4, h=6, k=3, groups=2)
    assert mac_count(b) * 2 == mac_count(a)


@pytest.mark.parametrize("c,m,h,k,stride,pad,groups,want", ALEXNET_SHAPES)
def test_mac_count_alexnet_layers(c, m, h, k, stride, pad, groups, want):
    p = LayerParams.from_shape(n=1, c=c, m=m, h=h, k=k, stride=stride,
                               pad=pad, groups=groups)
    assert mac_count(p) == want


def test_alexnet_macs_total_within_one_percent_of_published():
    total = sum(row[-1] for row in ALEXNET_SHAPES)
    assert total == 665_784_864
    assert abs(total - 666e6) / 666e6 <= 0.01


def test_polyphase_layer_shapes():
    conv1 = ALEXNET.layers[0]
    q = polyphase(conv1)  # 16 phases of 3x3 sub-kernels over 57x57 maps
    assert (q.c, q.m, q.h, q.e, q.k, q.stride, q.pad) == (48, 96, 57, 55, 3, 1, 0)
    assert [phase_taps(conv1, a) for a in range(4)] == [3, 3, 3, 2]
    # the four phases' decimated maps hold every input row exactly once
    assert [len(phase_rows(conv1, a)) for a in range(4)] == [57, 57, 57, 56]
    padded = LayerParams.from_shape(n=1, c=2, m=2, h=7, k=3, pad=1)
    q = polyphase(padded)  # stride 1: one phase, the padded map
    assert (q.c, q.h, q.k, q.pad) == (2, 9, 3, 0)
    assert phase_rows(padded, 0) == range(1, 8)
    small = LayerParams.from_shape(n=1, c=3, m=1, h=9, k=2, stride=3)
    q = polyphase(small)  # k < stride: 1x1 sub-kernels, one per tap
    assert (q.c, q.k, q.h) == (12, 1, 3)


def test_all_ones_window_sums_to_nine():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=3, k=3)
    one = 1 << 8
    ifm = SampleTensor((1, 1, 3, 3), [one] * 9)
    ker = SampleTensor((1, 1, 3, 3), [one] * 9)
    bias = SampleTensor((1,), [0])
    out, ovf = golden_convolution(ifm, ker, bias, p)
    assert ovf == 0
    assert out.payload == (9 * one,)


def test_delta_kernel_is_identity(rng):
    p = LayerParams.from_shape(n=1, c=1, m=1, h=6, k=3, pad=1)
    ifm = rand_tensor(rng, p.ifmap_dims())
    ker_payload = [0] * 9
    ker_payload[4] = 1 << 8  # center tap = 1.0
    ker = SampleTensor(p.kernel_dims(), ker_payload)
    bias = SampleTensor((1,), [0])
    out, _ = golden_convolution(ifm, ker, bias, p)
    assert out.payload == ifm.payload


def _independent_conv(ifm, ker, bias, p):
    """Brute-force oracle with a different loop structure: walks input
    pixels and scatters their exact integer products into output windows,
    then wraps each total into the accumulator and rescales it.  Exact
    wherever no saturating clamp fires: wrapping is modular, so wrapping
    the total is wrapping after every step."""
    fmt = ifm.fmt
    out = [[[[bias.at(m) << fmt.frac_bits for _ in range(p.e)] for _ in range(p.e)]
            for m in range(p.m)] for _ in range(p.n)]
    for n in range(p.n):
        for c in range(p.c):
            g = c // p.c_per_group
            m_range = range(g * p.m_per_group, (g + 1) * p.m_per_group)
            for row in range(p.h):
                for col in range(p.h):
                    pixel = ifm.at(n, c, row, col)
                    for i in range(p.k):
                        num = row + p.pad - i
                        if num % p.stride or not 0 <= num // p.stride < p.e:
                            continue
                        x = num // p.stride
                        for j in range(p.k):
                            den = col + p.pad - j
                            if den % p.stride or not 0 <= den // p.stride < p.e:
                                continue
                            y = den // p.stride
                            for m in m_range:
                                out[n][m][x][y] += pixel * ker.at(m, c - g * p.c_per_group, i, j)
    span = 1 << fmt.accumulator_bits
    return acc_to_samples([(out[n][m][x][y] - fmt.acc_min) % span + fmt.acc_min
                           for n in range(p.n) for m in range(p.m)
                           for x in range(p.e) for y in range(p.e)], fmt)


@pytest.mark.parametrize("case", [
    dict(n=1, c=3, m=2, h=5, k=3),
    dict(n=2, c=2, m=2, h=6, k=3, pad=1),
    dict(n=1, c=2, m=4, h=7, k=3, stride=2, pad=1, groups=2),
    dict(n=1, c=1, m=1, h=5, k=5),
])
def test_golden_matches_independent_scatter_oracle(rng, case):
    # the default format, and an 18-bit wrapping accumulator that clamps
    p = LayerParams.from_shape(**case)
    for fmt in (FixedFormat(), FixedFormat(accumulator_bits=18, overflow="wrap")):
        tensors = [rand_tensor(rng, dims, 300, fmt)
                   for dims in (p.ifmap_dims(), p.kernel_dims(), p.bias_dims())]
        got, ovf = golden_convolution(*tensors, p)
        assert list(got.payload) == _independent_conv(*tensors, p)
        assert (ovf > 0) == (fmt.accumulator_bits == 18), "want the wrap data to clamp"


def test_dimension_mismatch_names_axis(rng):
    p = LayerParams.from_shape(n=1, c=2, m=2, h=5, k=3)
    bad_ifm = rand_tensor(rng, (1, 3, 5, 5))
    ker = rand_tensor(rng, p.kernel_dims())
    bias = rand_tensor(rng, p.bias_dims())
    with pytest.raises(ShapeError):
        golden_convolution(bad_ifm, ker, bias, p)


def test_oracle_outputs_pinned():
    # outputs and overflow counts on strides 1-4 with overflowing 18-bit
    # accumulators, saturating and wrapping: under saturation the digest
    # moves with any change to the chain's order
    r = random.Random(31)
    digest = hashlib.sha256()
    overflow = 0
    for shape in (dict(n=2, c=2, m=2, h=7, k=3, pad=1), dict(c=2, m=3, h=9, k=3, stride=2),
                  dict(c=1, m=2, h=11, k=5, stride=3, pad=1),
                  dict(c=2, m=2, h=13, k=4, stride=4, groups=2),
                  dict(c=1, m=1, h=9, k=2, stride=3)):
        p = LayerParams.from_shape(**{"n": 1, **shape})
        for mode in ("saturate", "wrap"):
            fmt = FixedFormat(accumulator_bits=18, overflow=mode)
            ifm, ker, bias = (rand_tensor(r, dims, bound=300, fmt=fmt)
                              for dims in (p.ifmap_dims(), p.kernel_dims(), p.bias_dims()))
            out, ovf = golden_convolution(ifm, ker, bias, p)
            digest.update(repr((out.payload, ovf)).encode())
            overflow += ovf
    assert overflow > 0, "test wants genuine overflow traffic"
    assert digest.hexdigest() == PINNED_ORACLE_SHA256


PINNED_ORACLE_SHA256 = "c5f337be43dd59dc68cf9ad241336885111c45b06573c4698a2f60e8d6d828c0"


def _clamp_loop(monkeypatch, *args):
    """The oracle with its no-overflow fast path turned off."""
    with monkeypatch.context() as patch:
        patch.setattr(chainsim.golden, "overflow_free", lambda *a: False)
        return golden_convolution(*args)


def test_fast_path_matches_the_clamp_loop(monkeypatch):
    # besides the byte-sized formats: 18- and 33-bit accumulators, and 8- and
    # 24-bit samples
    r = random.Random(10)
    formats = (FixedFormat(), FixedFormat(accumulator_bits=18),
               FixedFormat(accumulator_bits=24, overflow="wrap"),
               FixedFormat(accumulator_bits=33),
               FixedFormat(total_bits=8, frac_bits=4, accumulator_bits=18),
               FixedFormat(total_bits=24, frac_bits=12, accumulator_bits=33, overflow="wrap"))
    fast = 0
    for _ in range(150):
        while True:
            groups = r.choice((1, 2))
            try:
                p = LayerParams.from_shape(
                    n=r.randint(1, 2), c=groups * r.randint(1, 3), m=groups * r.randint(1, 3),
                    h=r.randint(2, 10), k=r.randint(1, 5), stride=r.randint(1, 4),
                    pad=r.randint(0, 2), groups=groups)
                break
            except ShapeError:
                continue
        fmt = r.choice(formats)
        bound = min(r.choice((300, 3000)), fmt.sample_max)
        tensors = [rand_tensor(r, dims, bound, fmt)
                   for dims in (p.ifmap_dims(), p.kernel_dims(), p.bias_dims())]
        fast += overflow_free(*tensors)
        assert golden_convolution(*tensors, p) == _clamp_loop(monkeypatch, *tensors, p)
    assert 20 < fast < 130, "want both paths exercised"
    # strides above k: output columns read every s-th lane of a product
    # whose kernel holds fewer than s taps
    for k in (1, 2, 3):
        for fmt in formats:
            p = LayerParams.from_shape(n=2, c=2, m=4, h=r.randint(k, 14), k=k, stride=4,
                                       pad=r.randint(0, k - 1), groups=r.choice((1, 2)))
            tensors = [rand_tensor(r, dims, 30, fmt)
                       for dims in (p.ifmap_dims(), p.kernel_dims(), p.bias_dims())]
            assert overflow_free(*tensors)
            assert golden_convolution(*tensors, p) == _clamp_loop(monkeypatch, *tensors, p)


def _edge_tensors(p, fmt, above):
    """Every sample of an output channel's kernel positive, ifmaps all 1 and
    bias 1, so |bias << f| + max|x| * sum|w| is exactly acc_max and full
    windows sum to it.  above: the first tap of each kernel is one unit
    larger and negative, so the bound is acc_max + 1, but no sum exceeds it."""
    bias = 1
    total = fmt.acc_max - (bias << fmt.frac_bits)
    taps = p.c_per_group * p.k * p.k
    kernel = [total // taps] * taps
    kernel[0] += total - sum(kernel)
    if above:
        kernel[0] = -kernel[0] - 1
    return (SampleTensor(p.ifmap_dims(), [1] * math.prod(p.ifmap_dims()), fmt),
            SampleTensor(p.kernel_dims(), kernel * p.m, fmt),
            SampleTensor(p.bias_dims(), [bias] * p.m, fmt))


@pytest.mark.parametrize("above", [False, True])
def test_bound_edge_is_bit_exact_on_either_path(above):
    p = LayerParams.from_shape(n=1, c=2, m=2, h=5, k=3, pad=1)
    fmt = FixedFormat(accumulator_bits=18)
    tensors = _edge_tensors(p, fmt, above)
    assert overflow_free(*tensors) == (not above)
    got, ovf = golden_convolution(*tensors, p)
    assert list(got.payload) == _independent_conv(*tensors, p)
    assert ovf == 0
    if not above:   # the full window at (1, 1) sums to acc_max exactly
        assert got.at(0, 0, 1, 1) == round(fmt.acc_max / fmt.scale)


def test_clipped_edge_windows_at_minus_acc_max_stay_in_their_lanes(monkeypatch):
    # Each output channel's weight sits on the 2x2 block of taps that one
    # corner's clipped window keeps: channel 0 the bottom-right block, seen
    # by window (0, 0), channel 1 the top-left block, seen by (e-1, e-1).
    # With every input -1 and bias -1, |bias << f| + max|x| * sum|w| is
    # acc_max exactly, and those windows end at -acc_max.  Their partial
    # sums are negative in the product's edge lanes too (lanes below k - 1
    # and past the last output column), so a lane of fewer than
    # accumulator_bits bits, or one without its half-lane offset, borrows
    # from its neighbour.
    p = LayerParams.from_shape(n=1, c=1, m=2, h=5, k=3, pad=1)
    fmt = FixedFormat(accumulator_bits=18)
    total = fmt.acc_max - (1 << fmt.frac_bits)
    block = [total // 4 + (i < total % 4) for i in range(4)]
    kernel = [0] * 18
    for i, (a, b) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2))):
        kernel[a * 3 + b] = block[i]
        kernel[9 + (a - 1) * 3 + b - 1] = block[i]
    tensors = (SampleTensor(p.ifmap_dims(), [-1] * 25, fmt),
               SampleTensor(p.kernel_dims(), kernel, fmt), SampleTensor((2,), [-1, -1], fmt))
    assert overflow_free(*tensors)
    got, ovf = golden_convolution(*tensors, p)
    assert ovf == 0
    assert list(got.payload) == _independent_conv(*tensors, p)
    assert (got, ovf) == _clamp_loop(monkeypatch, *tensors, p)
    corner = round(-fmt.acc_max / fmt.scale)
    assert got.at(0, 0, 0, 0) == got.at(0, 1, p.e - 1, p.e - 1) == corner


@pytest.mark.parametrize("k,pad", [(1, 1), (3, 3)])
def test_samples_without_an_in_map_tap_are_the_bias(monkeypatch, rng, k, pad):
    p = LayerParams.from_shape(n=2, c=2, m=2, h=3, k=k, pad=pad)
    tensors = [rand_tensor(rng, dims, 300)
               for dims in (p.ifmap_dims(), p.kernel_dims(), p.bias_dims())]
    assert overflow_free(*tensors)
    got, ovf = golden_convolution(*tensors, p)
    assert (got, ovf) == _clamp_loop(monkeypatch, *tensors, p)
    assert [got.at(n, m, 0, 0) for n in range(2) for m in range(2)] == \
        list(tensors[2].payload) * 2


def test_oracle_imports_no_simulator_module():
    # the oracle checks the simulator, so it shares none of its modules,
    # nor the polyphase decomposition the simulator runs
    tree = ast.parse(open(chainsim.golden.__file__).read())
    local, other, names = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.add(node.module)
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            other.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Import):
            other.update(a.name.partition(".")[0] for a in node.names)
    assert local <= {"fixedpoint", "layers", "tensors"}
    assert not any(name.startswith(("phase_", "polyphase")) for name in names)
    assert other <= sys.stdlib_module_names | {"__future__"}
