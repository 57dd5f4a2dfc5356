import hashlib
import itertools
import json
import pathlib
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainsim.simulator
from chainsim import (ChainConfig, LayerParams, SampleTensor, analytic_traffic,
                      golden_convolution, mac_count, plan_tiling, polyphase, reconcile, run_layer,
                      synth_tensors, traffic_from_counters, utilization_report)
from chainsim.cli import main
from chainsim.scheduler import build_schedule, row_groups, validate_schedule
from chainsim.fixedpoint import DEFAULT_FORMAT, FixedFormat, acc_to_sample
from chainsim.layers import phase_rows, phase_side, phase_taps
from chainsim.presets import ALEXNET
from chainsim.tensors import ShapeError

from conftest import rand_tensor, random_layer, small_chain


def synth(p, seed=0):
    return synth_tensors(p, seed)


@pytest.mark.parametrize("entry", ["run_layer", "golden_convolution"])
@pytest.mark.parametrize("name, index, dims", [
    ("ifmaps", 0, (1, 3, 5, 5)), ("kernel", 1, (2, 2, 2, 2)), ("bias", 2, (3,))])
def test_mismatched_tensor_is_named(rng, entry, name, index, dims):
    p = LayerParams.from_shape(n=1, c=2, m=2, h=5, k=3)
    tensors = [rand_tensor(rng, d) for d in (p.ifmap_dims(), p.kernel_dims(), p.bias_dims())]
    tensors[index] = rand_tensor(rng, dims)
    with pytest.raises(ShapeError, match="^%s dims" % name):
        if entry == "run_layer":
            run_layer(p, *tensors, small_chain(p))
        else:
            golden_convolution(*tensors, p)


def test_zero_kernels_give_broadcast_bias(rng):
    p = LayerParams.from_shape(n=1, c=2, m=3, h=6, k=3)
    ifm = rand_tensor(rng, p.ifmap_dims())
    ker = SampleTensor(p.kernel_dims(), [0] * (p.m * p.c * p.k * p.k))
    bias = rand_tensor(rng, p.bias_dims())
    run = run_layer(p, ifm, ker, bias, small_chain(p))
    for m in range(p.m):
        for x in range(p.e):
            for y in range(p.e):
                assert run.ofmaps.at(0, m, x, y) == bias.at(m)


def test_single_pe_primitive_multiplies_by_weight():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=2, k=1)
    fmt = DEFAULT_FORMAT
    ifm = SampleTensor(p.ifmap_dims(), [256, 512, -256, 0])   # 1, 2, -1, 0
    ker = SampleTensor(p.kernel_dims(), [768])                # 3.0
    bias = SampleTensor((1,), [0])
    run = run_layer(p, ifm, ker, bias, ChainConfig(num_pes=1))
    assert run.ofmaps.payload == (768, 1536, -768, 0)


@pytest.mark.parametrize("mode", ["dual", "single"])
def test_bit_exact_against_golden_grid(mode):
    r = random.Random(99)
    for _ in range(12):
        p = random_layer(r)
        ifm, ker, bias = synth_tensors(p, seed=r.randrange(2 ** 32))
        run = run_layer(p, ifm, ker, bias, small_chain(p), mode=mode)
        want, _ = golden_convolution(ifm, ker, bias, p)
        assert run.ofmaps == want, p
        real_macs = run.counters.macs - run.counters.dummy_macs
        assert real_macs == mac_count(p)


@pytest.mark.parametrize("mode", ["dual", "single"])
@pytest.mark.parametrize("shape", [
    dict(c=2, m=3, h=14, k=5, stride=3),
    dict(c=2, m=2, h=19, k=11, stride=4, pad=1),
    dict(c=3, m=2, h=17, k=7, stride=4, pad=2),
    dict(c=2, m=2, h=10, k=2, stride=3, pad=1),      # k < s
    dict(c=2, m=4, h=9, k=1, stride=2, groups=2),    # k < s
    dict(c=1, m=2, h=9, k=4, stride=2),              # strips past the decimated map
    dict(c=2, m=2, h=4, k=3, stride=3),              # 1x1 decimated maps: one channel
])
def test_polyphase_strides_bit_exact(shape, mode):
    p = LayerParams.from_shape(n=1, **shape)
    cfg = small_chain(p)
    ifm, ker, bias = synth_tensors(p, seed=p.h)
    run = run_layer(p, ifm, ker, bias, cfg, mode=mode)
    want, _ = golden_convolution(ifm, ker, bias, p)
    assert run.ofmaps == want
    assert run.counters.macs - run.counters.dummy_macs == mac_count(p)
    assert run.refeed_count == 0
    rec = reconcile(analytic_traffic(p, plan_tiling(p, cfg), cfg, mode),
                    traffic_from_counters(run.counters))
    assert rec.passed, rec


def test_counter_conservation_on_clean_layer():
    p = LayerParams.from_shape(n=1, c=2, m=4, h=8, k=3)  # e = 6, no dummies
    ifm, ker, bias = synth(p)
    run = run_layer(p, ifm, ker, bias, small_chain(p))
    assert run.counters.dummy_macs == 0
    assert run.counters.macs == mac_count(p)
    # one weight fetch per PE per (row group x channel) pass
    plan = plan_tiling(p, small_chain(p))
    passes = plan.num_m_tiles * plan.num_row_groups * p.c_per_group
    assert run.counters.kmem_reads == passes * p.k * p.k * plan.para_tile


def test_pipeline_depth_changes_latency_only():
    p = LayerParams.from_shape(n=1, c=2, m=2, h=7, k=3)
    ifm, ker, bias = synth(p)
    runs = []
    for stages in (1, 3, 5):
        cfg = ChainConfig(num_pes=18, pipeline_stages=stages)
        runs.append(run_layer(p, ifm, ker, bias, cfg))
    a, b, c = runs
    assert a.ofmaps == b.ofmaps == c.ofmaps
    assert a.counters.macs == b.counters.macs == c.counters.macs
    assert a.cycles.compute == b.cycles.compute == c.cycles.compute
    assert b.first_output_cycle - a.first_output_cycle == 2
    assert c.first_output_cycle - b.first_output_cycle == 2
    assert b.cycles.drain - a.cycles.drain == 2


def test_determinism_bitwise():
    p = LayerParams.from_shape(n=1, c=2, m=3, h=9, k=3, pad=1)
    ifm, ker, bias = synth(p, seed=5)
    r1 = run_layer(p, ifm, ker, bias, small_chain(p))
    r2 = run_layer(p, ifm, ker, bias, small_chain(p))
    assert r1.ofmaps == r2.ofmaps
    assert asdict(r1.cycles) == asdict(r2.cycles)
    assert asdict(r1.counters) == asdict(r2.counters)


def test_kernel_load_counts_one_weight_per_cycle():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=5, k=3)
    ifm, ker, bias = synth(p)
    run = run_layer(p, ifm, ker, bias, ChainConfig(num_pes=9))
    assert run.cycles.kernel_load == 9  # nine weights at one per cycle
    assert run.counters.kmem_writes == 9
    assert run.counters.dram_kernel_reads == 9


def test_first_output_cycle_matches_schedule_latency():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=7, k=3)
    cfg = ChainConfig(num_pes=9, pipeline_stages=3)
    ifm, ker, bias = synth(p)
    run = run_layer(p, ifm, ker, bias, cfg)
    s = build_schedule(row_groups(p)[0], p, "dual")
    rep = validate_schedule(s, p)
    kk = p.k * p.k
    load = p.m * p.c_per_group * kk
    # systolic sum drain (kk - 1) plus extra MAC pipeline stages
    assert run.first_output_cycle == load + rep.first_valid_cycle + (kk - 1) + 2


@pytest.mark.parametrize("shape, mode, stages, kmem, reloads", [
    (dict(n=1, c=1, m=1, h=7, k=3), "dual", 3, 256, False),
    (dict(n=1, c=2, m=3, h=9, k=3, stride=2, pad=1), "dual", 1, 256, False),
    (dict(n=1, c=1, m=2, h=15, k=5, stride=4), "single", 2, 256, False),
    (dict(n=1, c=3, m=4, h=8, k=3), "single", 1, 2, True),
    (dict(n=2, c=2, m=3, h=10, k=4, stride=2, pad=1), "dual", 4, 2, True),
])
def test_first_output_cycle_closed_form_across_shapes(shape, mode, stages, kmem, reloads):
    p = LayerParams.from_shape(**shape)
    kk = polyphase(p).k ** 2
    cfg = ChainConfig(num_pes=2 * kk, pipeline_stages=stages, kmem_capacity=kmem)
    ifm, ker, bias = synth(p)
    run = run_layer(p, ifm, ker, bias, cfg, mode)
    s = build_schedule(row_groups(p)[0], p, mode)
    rep = validate_schedule(s, p)
    # the first pass waits for the first residency phase's weights only
    first = plan_tiling(p, cfg).phases[0]
    load = sum(map(len, first.tiles)) * len(first.c_range) * kk
    assert (load < run.cycles.kernel_load) == reloads
    # systolic sum drain (kk - 1) plus extra MAC pipeline stages
    assert run.first_output_cycle == load + rep.first_valid_cycle + (kk - 1) + (stages - 1)


def corrupt_schedule(group, p, mode="dual"):
    """A schedule with one mux entry moved to a cycle where no window uses it."""
    s = build_schedule(group, p, mode)
    key = max(s.mux)
    ch = s.mux.pop(key)
    s.mux[(key[0], key[1] + 50)] = ch
    return s


def test_validator_rejects_moved_mux_entry_without_operand_table():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=5, k=3)
    s = build_schedule(row_groups(p)[0], p, "dual")
    assert validate_schedule(s, p).ok
    assert len(s.operands) == s.num_outputs * s.kk
    bad = corrupt_schedule(row_groups(p)[0], p)
    rep = validate_schedule(bad, p)
    assert any(v.startswith("feasibility:") for v in rep.violations)
    assert bad.operands is None


def test_verify_exits_4_on_schedule_that_fails_validation(monkeypatch, capsys):
    monkeypatch.setattr(chainsim.simulator, "build_schedule", corrupt_schedule)
    assert main(["verify", "--pes", "9", "--k", "3", "--h", "5"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal fault: scan schedule failed validation")


@pytest.mark.parametrize("mode", ["dual", "single"])
@pytest.mark.parametrize("shape", [dict(h=23, k=11, stride=4), dict(h=9, k=3, pad=1)])
def test_run_layer_builds_and_validates_one_schedule(monkeypatch, shape, mode):
    # a k=11 stride-4 layer has 2 row groups x 16 phases, the padded
    # stride-1 layer 3 row groups: one scan serves them all
    calls = []
    for name in ("build_schedule", "validate_schedule"):
        def counted(*args, _name=name, _fn=getattr(chainsim.simulator, name), **kw):
            calls.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(chainsim.simulator, name, counted)
    p = LayerParams.from_shape(n=1, c=2, m=2, **shape)
    ifm, ker, bias = synth(p)
    run = run_layer(p, ifm, ker, bias, ChainConfig(num_pes=18), mode=mode)
    assert sorted(calls) == ["build_schedule", "validate_schedule"]
    assert run.ofmaps == golden_convolution(ifm, ker, bias, p)[0]


@pytest.mark.parametrize("pad", [0, 1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2, 3, 4])
def test_row_group_strip_is_a_block_of_its_phase_map(stride, pad):
    # strip position (a, b) of row group g is pixel (g*k + a, b) of its
    # phase's decimated map, in coordinate and pad flag, so the strip is
    # read at base address g*k*strip_cols of that map in iMemory
    p = LayerParams.from_shape(n=1, c=1, m=1, h=11, k=5, stride=stride, pad=pad)
    q = polyphase(p)
    ifm = SampleTensor(p.ifmap_dims(), range(1, p.h * p.h + 1))
    t = phase_side(p)
    real = [phase_rows(p, a) for a in range(t)]
    imem = chainsim.simulator.fill_imem(p, ifm, real, (-(-p.e // q.k) + 1) * q.k - 1, q.h)
    for g in row_groups(p):
        pa, pb = g.phase
        dmap = imem[pa * t + pb]
        for a in range(g.strip_rows):
            for b in range(g.strip_cols):
                i, j = g.index * g.k + a, b
                row, col = stride * i + pa - pad, stride * j + pb - pad
                pad_pixel = not (i < q.h and j < q.h and 0 <= row < p.h and 0 <= col < p.h)
                assert g.coordinate(a, b) == (row, col)
                assert g.is_pad(a, b) == pad_pixel
                want = 0 if pad_pixel else ifm.at(0, 0, row, col)
                assert dmap[g.index * g.k * g.strip_cols + a * g.strip_cols + b] == want


def test_batch_scales_compute_but_not_kernel_load():
    base = LayerParams.from_shape(n=1, c=2, m=2, h=7, k=3)
    cfg = small_chain(base)
    runs = {}
    for n in (1, 3):
        p = LayerParams.from_shape(n=n, c=2, m=2, h=7, k=3)
        ifm, ker, bias = synth(p)
        runs[n] = run_layer(p, ifm, ker, bias, cfg)
    assert runs[3].cycles.kernel_load == runs[1].cycles.kernel_load
    assert runs[3].cycles.compute == 3 * runs[1].cycles.compute


def test_idle_primitives_do_not_mac():
    # m=1 on a two-primitive chain leaves one primitive idle per pass
    p = LayerParams.from_shape(n=1, c=1, m=1, h=7, k=3)
    ifm, ker, bias = synth(p)
    cfg = ChainConfig(num_pes=18)
    run = run_layer(p, ifm, ker, bias, cfg)
    assert run.counters.macs == 9 * 3 * p.e * -(-p.e // 3) * 1  # one primitive only
    _, temporal = utilization_report(run, plan_tiling(p, cfg).chain)
    assert temporal <= 0.5


def test_channel_chunked_phases_stay_bit_exact():
    # weight store smaller than the channel count forces mid-layer kernel
    # reloads with output-buffer accumulation across phases
    p = LayerParams.from_shape(n=1, c=6, m=4, h=7, k=3, groups=2)
    cfg = ChainConfig(num_pes=18, kmem_capacity=2)
    ifm, ker, bias = synth(p, seed=3)
    run = run_layer(p, ifm, ker, bias, cfg)
    want, _ = golden_convolution(ifm, ker, bias, p)
    assert run.ofmaps == want
    assert plan_tiling(p, cfg).num_phases >= 4
    # every weight still streams in exactly once, phase by phase
    weights = p.m * p.c_per_group * p.k * p.k
    assert run.cycles.kernel_load == weights
    assert run.counters.kmem_writes == run.counters.dram_kernel_reads == weights


def test_wrap_overflow_mode_stays_bit_exact(rng):
    # modular accumulation is order-independent, so deliberately
    # overflowing windows still match the oracle under wrap
    from chainsim.fixedpoint import FixedFormat
    fmt = FixedFormat(overflow="wrap", accumulator_bits=18)
    p = LayerParams.from_shape(n=1, c=2, m=2, h=6, k=3)
    def rt(dims):
        size = 1
        for d in dims:
            size *= d
        return SampleTensor(dims, [rng.randint(-2000, 2000) for _ in range(size)], fmt)
    ifm, ker, bias = rt(p.ifmap_dims()), rt(p.kernel_dims()), rt(p.bias_dims())
    run = run_layer(p, ifm, ker, bias, small_chain(p))
    want, ovf = golden_convolution(ifm, ker, bias, p)
    assert ovf > 0, "test wants genuine overflow traffic"
    assert run.ofmaps == want
    assert run.counters.overflow_events > 0


def test_cycle_trace_on_tiny_layer():
    p = LayerParams.from_shape(n=1, c=1, m=2, h=5, k=3)
    ifm, ker, bias = synth(p)
    trace = []
    cfg = ChainConfig(num_pes=18)
    run = run_layer(p, ifm, ker, bias, cfg, cycle_trace=trace)
    # one line per compute cycle per active primitive
    s = build_schedule(row_groups(p)[0], p, "dual")
    assert len(trace) == s.span_cycles * 2
    load = p.m * p.c_per_group * 9  # trace cycles are absolute, after the load
    assert trace[0].startswith("%d compute prim=0 feeds=even:(0,0)" % load)
    assert any("out=(m0,0,0)" in line for line in trace)
    assert any("out=(m1,0,0)" in line for line in trace)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_bit_exactness(seed):
    r = random.Random(seed)
    p = random_layer(r, h_max=12)
    ifm, ker, bias = synth_tensors(p, seed=seed)
    run = run_layer(p, ifm, ker, bias, small_chain(p),
                    mode=r.choice(["dual", "single"]))
    want, _ = golden_convolution(ifm, ker, bias, p)
    assert run.ofmaps == want


@st.composite
def _accepted_runs(draw):
    """A layer, its data and a chain from the space the tools accept: k 1-5,
    strides 1-4, pad up to k-1, groups, batch 1-2, 16- to 32-bit
    accumulators of either overflow mode, dual and single mode, 1-3
    primitives, kMemory of 1, 2 or 256 contexts and 1-3 pipeline stages.
    Samples up to +-3000 overflow the narrow accumulators."""
    k, groups = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    pad = draw(st.integers(0, k - 1))
    p = LayerParams.from_shape(
        n=draw(st.integers(1, 2)), c=groups * draw(st.integers(1, 2)),
        m=groups * draw(st.integers(1, 3)), h=draw(st.integers(max(1, k - 2 * pad), 10)),
        k=k, stride=draw(st.integers(1, 4)), pad=pad, groups=groups)
    fmt = FixedFormat(accumulator_bits=draw(st.integers(16, 32)),
                      overflow=draw(st.sampled_from(("saturate", "wrap"))))
    r, bound = random.Random(draw(st.integers(0, 2 ** 32))), draw(st.sampled_from((30, 300, 3000)))
    tensors = [rand_tensor(r, dims, bound, fmt)
               for dims in (p.ifmap_dims(), p.kernel_dims(), p.bias_dims())]
    cfg = ChainConfig(num_pes=draw(st.integers(1, 3)) * k * k,
                      kmem_capacity=draw(st.sampled_from((1, 2, 256))),
                      pipeline_stages=draw(st.integers(1, 3)))
    return p, tensors, cfg, draw(st.sampled_from(("dual", "single")))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_accepted_runs())
def test_chain_matches_the_oracle_on_the_accepted_space(case):
    # differential test: outputs and overflow events, clamping or not, and
    # the analytic traffic reconciles with the counters
    p, tensors, cfg, mode = case
    run = run_layer(p, *tensors, cfg, mode)
    assert golden_convolution(*tensors, p) == (run.ofmaps, run.counters.overflow_events)
    rec = reconcile(analytic_traffic(p, plan_tiling(p, cfg), cfg, mode),
                    traffic_from_counters(run.counters))
    assert rec.passed


def _refuse_scalar_pass(*args):
    raise AssertionError("the clamp-per-step pass ran")


def _rows(monkeypatch, *args):
    """run_layer(*args) with the clamp-per-step pass refused, so that every
    tile must take the row kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(chainsim.simulator, "_run_pass", _refuse_scalar_pass)
        return run_layer(*args)


def _clamped(monkeypatch, *args):
    """run_layer(*args) on the clamp-per-step pass, whatever the data."""
    with monkeypatch.context() as patch:
        patch.setattr(chainsim.simulator, "overflow_free", lambda *a: False)
        return run_layer(*args)


def _same_run(a, b) -> bool:
    """Whether two runs report the same outputs, cycles, events and latency."""
    return (a.ofmaps == b.ofmaps and asdict(a.cycles) == asdict(b.cycles)
            and asdict(a.counters) == asdict(b.counters)
            and a.first_output_cycle == b.first_output_cycle)


def _edge_layer(fmt, over):
    """A layer whose two output channels meet the lane bound with
    |bias << f| + max|x| * sum|w| = acc_max + over.  Every window is full
    (no pads) and every pixel is x.  Channel 1 has weights -w and bias -b,
    so its windows sum to -acc_max - over, acc_min at over=1.  Channel 0
    has weights w and bias b, summing to acc_max at over=0; at over=1 its
    bias is -b, so its sums stay far below acc_max."""
    p = LayerParams.from_shape(n=1, c=2, m=2, h=5, k=3)
    per, x, w = p.c_per_group * p.k * p.k, 2047, 200
    target = fmt.acc_max + over
    last = next(v for v in range(fmt.scale)
                if (target - x * ((per - 1) * w + v)) % fmt.scale == 0)
    b = (target - x * ((per - 1) * w + last)) >> fmt.frac_bits
    weights = [w] * (per - 1) + [last]
    ifm = SampleTensor(p.ifmap_dims(), [x] * (p.h * p.h * p.c), fmt)
    ker = SampleTensor(p.kernel_dims(), weights + [-v for v in weights], fmt)
    return p, ifm, ker, SampleTensor(p.bias_dims(), [-b if over else b, -b], fmt)


@pytest.mark.parametrize("overflow", ["saturate", "wrap"])
def test_lane_bound_edge_is_bit_exact_on_both_paths(monkeypatch, overflow):
    # data at the bound never reaches the clamp-per-step pass, and data one
    # unit above always does
    fmt = FixedFormat(accumulator_bits=24, overflow=overflow)
    for over in (0, 1):
        p, ifm, ker, bias = _edge_layer(fmt, over)
        assert chainsim.simulator.overflow_free(ifm, ker, bias) == (not over)
        want, golden_overflow = golden_convolution(ifm, ker, bias, p)
        assert golden_overflow == 0
        with monkeypatch.context() as patch:
            patch.setattr(chainsim.simulator, "_run_pass", _refuse_scalar_pass)
            if over:
                with pytest.raises(AssertionError, match="clamp-per-step"):
                    run_layer(p, ifm, ker, bias, small_chain(p))
                patch.undo()
            run = run_layer(p, ifm, ker, bias, small_chain(p))
        assert run.ofmaps == want
        assert run.counters.overflow_events == 0
        # channel 1's windows sum to -acc_max - over, channel 0's to acc_max at over=0
        assert run.ofmaps.at(0, 1, 1, 1) == acc_to_sample(-fmt.acc_max - over, fmt)[0]
        if not over:
            assert run.ofmaps.at(0, 0, 1, 1) == acc_to_sample(fmt.acc_max, fmt)[0]


def test_lane_pass_matches_clamp_per_step_pass(monkeypatch):
    # bounded data takes the row kernel; forcing the clamp-per-step pass on
    # the same data must change nothing the run reports
    formats = (DEFAULT_FORMAT, FixedFormat(accumulator_bits=24),
               FixedFormat(accumulator_bits=24, overflow="wrap"))
    r = random.Random(8)
    seen = set()
    for stride, pad, fmt in itertools.product((1, 2, 3, 4), (0, 1, 2), formats):
        k = r.choice((1, 2, 3, 5))
        groups, n = r.choice((1, 2)), r.choice((1, 2))
        mode, kmem = r.choice(("dual", "single")), r.choice((1, 2, 256))
        c, m = groups * r.randint(1, 2), groups * r.randint(1, 3)
        h = r.randint(max(k - 2 * pad, 1), 9)
        p = LayerParams.from_shape(n=n, c=c, m=m, h=h, k=k, stride=stride, pad=pad,
                                   groups=groups)
        seen.update({("mode", mode), ("kmem", kmem), ("groups", groups), ("n", n)})
        ifm, ker, bias = synth_tensors(p, r.randrange(2 ** 32), fmt)
        cfg = small_chain(p, kmem=kmem)
        phases = plan_tiling(p, cfg).phases
        # a tile resident in several phases carries its packed accumulators across them
        if len(phases) > len({tile for ph in phases for tile in ph.tiles}):
            seen.add("tile across phases")
        scalar = _clamped(monkeypatch, p, ifm, ker, bias, cfg, mode)
        assert _same_run(_rows(monkeypatch, p, ifm, ker, bias, cfg, mode), scalar), p
    assert seen == {("mode", "dual"), ("mode", "single"), ("kmem", 1), ("kmem", 2),
                    ("kmem", 256), ("groups", 1), ("groups", 2), ("n", 1), ("n", 2),
                    "tile across phases"}


@pytest.mark.parametrize("mode", ["dual", "single"])
@pytest.mark.parametrize("kmem", [2, 5, 256])
def test_conv1_geometry_lane_and_clamp_passes_agree(monkeypatch, kmem, mode):
    # AlexNet conv1's kernel and stride (k = 11, stride 4, pad 0) on a small
    # map: 16 phases per input channel, 23 of every 144 sub-kernel taps a
    # zero past the kernel.  kMemory of 2 contexts splits an input channel's
    # 16 sub-channels into resident runs of 2, and of 5 unevenly into runs
    # of 5, 1, 4 and 2, so the row kernel's products span partial sets of
    # phases; the clamp path reads one sub-channel per pass
    p = LayerParams.from_shape(n=2, c=2, m=3, h=23, k=11, stride=4)
    cfg = ChainConfig(num_pes=18, kmem_capacity=kmem)
    # the sizes of the runs of one input channel's phases resident together
    sizes = {len([c for c in ph.c_range if c // 16 == i])
             for ph in plan_tiling(p, cfg).phases for i in range(p.c)} - {0}
    assert sizes == {2: {2}, 5: {1, 2, 4, 5}, 256: {16}}[kmem]
    ifm, ker, bias = synth(p)
    scalar = _clamped(monkeypatch, p, ifm, ker, bias, cfg, mode)
    assert golden_convolution(ifm, ker, bias, p) == (scalar.ofmaps, 0)
    assert _same_run(_rows(monkeypatch, p, ifm, ker, bias, cfg, mode), scalar)


# (layer, chain primitives, kMemory contexts) on which the row kernel and
# the clamp-per-step pass must agree.  A tile of prims primitives takes
# bands of min(e, max(1, prims // k)) output rows, k the sub-kernel size
ROW_CASES = (
    # k = 3, e = 5: a 7-primitive tile takes bands of 2, 2 and 1 rows, and
    # the 2-primitive tail tile of the same phase one-row bands
    (dict(n=2, c=2, m=9, h=7, k=3, pad=0), 7, 256),
    # k = 2, e = 4: an 8-primitive tile takes one band of all 4 rows
    (dict(n=1, c=3, m=8, h=5, k=2), 8, 256),
    # AlexNet conv1's geometry (k = 3, e = 4): phases of 3 and 2 sub-kernel
    # rows and columns, so a 2-tap kernel row is padded to 3 lanes; a
    # 9-primitive tile takes bands of 3 and 1 rows
    (dict(n=2, c=1, m=9, h=23, k=11, stride=4), 9, 256),
    # stride 2 with pads and two filter groups (k = 3, e = 5): phases of 3
    # and 2 taps, 6-primitive tiles in bands of 2, 2 and 1
    (dict(n=1, c=4, m=12, h=9, k=5, stride=2, pad=2, groups=2), 6, 256),
    # a 3-context kMemory splits each tile's 8 sub-channels across phases;
    # k = 2, e = 4: 4-primitive tiles in bands of 2 rows
    (dict(n=1, c=2, m=8, h=8, k=3, stride=2, pad=1), 4, 3),
    # e = 2: 2-primitive tiles take one-row bands
    (dict(n=1, c=2, m=3, h=4, k=3), 2, 256),
)


def test_row_kernel_bands_agree_with_the_clamp_pass_and_the_oracle(monkeypatch):
    seen = set()
    for (shape, prims, kmem), mode in itertools.product(ROW_CASES, ("dual", "single")):
        p = LayerParams.from_shape(**shape)
        k = polyphase(p).k
        cfg = ChainConfig(num_pes=prims * k ** 2, kmem_capacity=kmem)
        ifm, ker, bias = synth(p)
        phases = plan_tiling(p, cfg).phases
        if len(phases) > len({tile for ph in phases for tile in ph.tiles}):
            seen.add("tile across phases")
        for ph in phases:
            bands = {min(p.e, max(1, len(tile) // k)) for tile in ph.tiles}
            for band in bands:
                seen.add("one-row bands" if band == 1 else "one band" if band == p.e
                         else "short last band" if p.e % band else "even bands")
            if len(bands) > 1:
                seen.add("two band sizes in one phase")
        scalar = _clamped(monkeypatch, p, ifm, ker, bias, cfg, mode)
        assert golden_convolution(ifm, ker, bias, p) == (scalar.ofmaps, 0)
        assert _same_run(_rows(monkeypatch, p, ifm, ker, bias, cfg, mode), scalar), (mode, p)
        seen.update({("mode", mode), ("groups", p.groups), ("n", p.n),
                     ("t > 1", phase_side(p) > 1),
                     ("short phases", k > phase_taps(p, phase_side(p) - 1))})
    assert seen == {("mode", "dual"), ("mode", "single"), ("groups", 1), ("groups", 2),
                    ("n", 1), ("n", 2), ("t > 1", True), ("t > 1", False),
                    ("short phases", True), ("short phases", False), "tile across phases",
                    "one-row bands", "one band", "even bands", "short last band",
                    "two band sizes in one phase"}


def test_fullsize_alexnet_conv1_and_conv5_match_their_committed_digests():
    # conv1: 64- and 32-primitive tiles against 55 output columns at stride
    # 4, in bands of 21 and 10 rows; conv5: 64-primitive tiles against 13
    # columns, in one band of all 13 rows
    table = json.loads((pathlib.Path(__file__).resolve().parents[1] / "scripts" / "out"
                        / "alexnet_fullsize_sha256.json").read_text())
    for name, p in (("conv1", ALEXNET.layers[0]), ("conv5", ALEXNET.layers[4])):
        run = run_layer(p, *synth_tensors(p, 0), ChainConfig())
        assert hashlib.sha256(run.ofmaps.dump_bytes()).hexdigest() == table[name], name


@pytest.mark.parametrize("overflow, want, events", [
    ("saturate", (121, 121, 512, 512), 5), ("wrap", (-415, -415, -24, -20), 4)])
def test_bias_seed_clamps_into_the_accumulator(overflow, want, events):
    # bias 1000 << 8 = 256,000 does not fit an 18-bit accumulator (acc_max
    # 131,071): oMemory starts from the clamped seed, as the oracle does,
    # with one overflow event per output sample
    fmt = FixedFormat(accumulator_bits=18, overflow=overflow)
    p = LayerParams.from_shape(n=1, c=1, m=1, h=2, k=1)
    ifm = SampleTensor(p.ifmap_dims(), [-500, -500, 0, 5], fmt)
    ker = SampleTensor(p.kernel_dims(), [200], fmt)
    bias = SampleTensor(p.bias_dims(), [1000], fmt)
    run = run_layer(p, ifm, ker, bias, ChainConfig(num_pes=1))
    assert golden_convolution(ifm, ker, bias, p) == (run.ofmaps, events)
    assert run.ofmaps.payload == want
    assert run.counters.overflow_events == events


@pytest.mark.parametrize("overflow", ["saturate", "wrap"])
def test_clamp_pass_lanes_never_leak(overflow):
    # Output channels A, B, B, A with constant input channels: every A sum
    # is acc_max + 2**18 and every B sum acc_min - 2**18, in monotone steps,
    # so both modes overflow and end at the accumulator's limits (lanes all
    # ones and all zeros).  A 2-primitive chain packs A next to B both ways
    # round, a 1-primitive chain packs nothing; with k = 1 each window is
    # one product, so the chain's order is also the oracle's.
    fmt = FixedFormat(accumulator_bits=18, overflow=overflow)
    p = LayerParams.from_shape(n=1, c=3, m=4, h=2, k=1)
    a, b = [423, 427, 436], [-436, -420, -436]
    ifm = SampleTensor(p.ifmap_dims(), [x for x in (300, 301, 299) for _ in range(4)], fmt)
    ker = SampleTensor(p.kernel_dims(), a + b + b + a, fmt)
    bias = SampleTensor(p.bias_dims(), [29, -22, -22, 29], fmt)
    assert not chainsim.simulator.overflow_free(ifm, ker, bias)
    packed, alone = (run_layer(p, ifm, ker, bias, small_chain(p, primitives=prims))
                     for prims in (2, 1))
    assert packed.ofmaps == alone.ofmaps == golden_convolution(ifm, ker, bias, p)[0]
    assert packed.counters.overflow_events == alone.counters.overflow_events > 0
    hi, lo = (acc_to_sample(v, fmt)[0] for v in (fmt.acc_max, fmt.acc_min))
    assert packed.ofmaps.payload == (hi,) * 4 + (lo,) * 8 + (hi,) * 4


# Run unchecked, these plans give outputs off the oracle (pad 0 plans 3 row
# groups of the 4), an index error (c = 4), and 1184 cycles instead of 808
# (a chain of 9 PEs: one primitive, not two).
@pytest.mark.parametrize("other", [
    dict(layer=dict(c=2, m=3, h=10, k=3, pad=0)),
    dict(layer=dict(c=4, m=3, h=10, k=3, pad=1)),
    dict(layer=dict(c=2, m=3, h=10, k=3, pad=1), pes=9),
])
def test_plan_for_another_layer_or_chain_is_rejected(other):
    p = LayerParams.from_shape(n=1, c=2, m=3, h=10, k=3, pad=1)
    cfg = ChainConfig(num_pes=18)
    plan = plan_tiling(LayerParams.from_shape(n=1, **other["layer"]),
                       ChainConfig(num_pes=other.get("pes", 18)))
    ifm, ker, bias = synth(p)
    with pytest.raises(ValueError) as err:
        run_layer(p, ifm, ker, bias, cfg, plan=plan)
    assert "\n" not in str(err.value)
    # the matching plan runs
    run = run_layer(p, ifm, ker, bias, cfg, plan=plan_tiling(p, cfg))
    assert run.ofmaps == golden_convolution(ifm, ker, bias, p)[0]


# the counter fields the digests hash, named so that a field added to or
# removed from EventCounters cannot move them
DIGEST_COUNTERS = ("macs", "dummy_macs", "imem_reads", "kmem_reads", "kmem_writes",
                   "omem_reads", "omem_writes", "dram_ifmap_reads", "dram_kernel_reads",
                   "dram_ofmap_writes", "overflow_events")


def _saturating_digest(shapes, seed, chain=small_chain):
    """Digest of outputs, cycles and counters of layers whose 18-bit
    saturating accumulators overflow, in dual and single mode, and their
    overflow count.  The outputs depend on the chain's summation order: PE
    order within a window, then oMemory across (sub-)channels."""
    fmt = FixedFormat(accumulator_bits=18)
    r = random.Random(seed)
    digest = hashlib.sha256()
    overflow = 0
    for shape in shapes:
        p = LayerParams.from_shape(**{"n": 1, **shape})
        ifm, ker, bias = (rand_tensor(r, dims, bound=300, fmt=fmt)
                          for dims in (p.ifmap_dims(), p.kernel_dims(), p.bias_dims()))
        for mode in ("dual", "single"):
            run = run_layer(p, ifm, ker, bias, chain(p), mode=mode)
            counters = tuple(getattr(run.counters, name) for name in DIGEST_COUNTERS)
            digest.update(repr((run.ofmaps.payload, asdict(run.cycles),
                                counters)).encode())
            overflow += run.counters.overflow_events
    return digest.hexdigest(), overflow


def test_saturating_overflow_outputs_pinned():
    # stride-1 layers are their own single phase, so the polyphase
    # decomposition must leave their summation order and digest unchanged
    digest, overflow = _saturating_digest(
        (dict(c=2, m=3, h=6, k=3), dict(c=1, m=2, h=7, k=3, pad=1),
         dict(c=2, m=2, h=5, k=2), dict(c=2, m=4, h=8, k=3, pad=1, groups=2)), 2024)
    assert overflow > 0, "test wants genuine overflow traffic"
    assert digest == PINNED_SATURATE_SHA256


def test_saturating_overflow_stride2_pinned():
    # stride 2 sums each window phase by phase (one sub-channel per phase,
    # accumulated in oMemory), so it has a digest of its own
    digest, overflow = _saturating_digest((dict(c=3, m=2, h=9, k=3, stride=2),), 2025)
    assert overflow > 0, "test wants genuine overflow traffic"
    assert digest == PINNED_SATURATE_STRIDE2_SHA256


def test_saturating_overflow_across_residency_phases_pinned():
    # batch 2, two filter groups, stride 2 and a 2-entry weight store: 8
    # kernel-residency phases, with oMemory carrying each window's partial
    # sum from phase to phase (123 overflow events per mode)
    shape = dict(n=2, c=4, m=4, h=9, k=3, stride=2, groups=2)
    chain = ChainConfig(num_pes=18, kmem_capacity=2)
    assert plan_tiling(LayerParams.from_shape(**shape), chain).num_phases == 8
    digest, overflow = _saturating_digest((shape,), 7, chain=lambda p: chain)
    assert overflow == 2 * 123
    assert digest == PINNED_SATURATE_PHASES_SHA256


PINNED_SATURATE_SHA256 = "e8070c2c56649ed59c95d76a0d9b09db10267eea2e3e1ebb07fa35620dfcd3fd"
PINNED_SATURATE_STRIDE2_SHA256 = "d23f11c7730af91b695cc80eebe7f529ccfbef35b984aa06e63befa68b7878c8"
PINNED_SATURATE_PHASES_SHA256 = "437b96d5977bcacaf45f51c4d13301a0368f5e24d022055d5c5c5b4e91660c9e"
