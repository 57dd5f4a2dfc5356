"""Command-line entry point.

Commands: map, schedule, simulate, verify, report, sweep.  Each accepts
only the setting flags it reads (COMMAND_SETTINGS), so a flag it would
ignore is a usage error.  Exit codes: 0 success, 1 verification mismatch,
2 configuration or usage error, 3 capacity or planning error, 4 internal
invariant violation.  All machine-readable outputs (JSON, CSV, traces,
tensor dumps) are byte-deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import ConfigError, RunConfig, parse_config, validate_config
from .golden import golden_convolution
from .layers import LayerParams, mac_count
from .mapping import CapacityError, partition_chain
from .memmodel import analytic_traffic, energy_proxy, reconcile, traffic_from_counters
from .perf import (PUBLISHED, analytic_layer_cycles, misprinted_efficiency,
                   network_report, peak_throughput, utilization_report)
from .presets import PRESETS, synth_tensors
from .scheduler import (DUAL, SINGLE, build_schedule, row_groups, schedule_trace,
                        validate_schedule)
from .simulator import SimulationFault, run_layer
from .tensors import DUMP_BITS, ShapeError
from .tiling import plan_tiling

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError("%s: %s" % (args.config, exc)) from None
    else:
        cfg = RunConfig()
    for f in dataclasses.fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    validate_config(cfg)
    return cfg


def _select_layers(cfg: RunConfig, small: bool) -> list[tuple[str, LayerParams]]:
    """Layers to operate on, at batch cfg.batch: a preset (whole or one
    1-based index) or the custom layer from the configuration."""
    if cfg.layer and not cfg.preset:
        raise ConfigError("layer %d indexes a preset, but no preset is set" % cfg.layer)
    if small and not cfg.preset:
        raise ConfigError("--small scales a preset down, but no preset is set")
    if cfg.preset:
        preset = PRESETS[cfg.preset]
        chosen = list(enumerate(preset.layers, start=1))
        if cfg.layer:
            if not 1 <= cfg.layer <= len(preset.layers):
                raise ConfigError("preset %s has layers 1..%d, got %d"
                                  % (cfg.preset, len(preset.layers), cfg.layer))
            chosen = [chosen[cfg.layer - 1]]
        out = []
        for idx, p in chosen:
            if small:
                scale = 32

                def shrink(v):
                    return max(p.groups, v // scale // p.groups * p.groups)

                p = LayerParams.from_shape(
                    n=1, c=shrink(p.c), m=shrink(p.m),
                    h=min(p.h, 19 if p.stride > 1 else 15 + p.k), k=p.k,
                    stride=p.stride, pad=p.pad, groups=p.groups)
            out.append(("conv%d" % idx, dataclasses.replace(p, n=cfg.batch)))
        return out
    return [("layer", cfg.custom_layer())]


def _list_option(values, flag: str, default: list) -> list:
    """A list option's values, each checked to be at least 1."""
    for v in values or ():
        if v < 1:
            raise ConfigError("%s values must be >= 1, got %d" % (flag, v))
    return values or default


def cmd_map(cfg: RunConfig, args) -> int:
    chain = cfg.chain()
    ks = _list_option(args.k_list, "--k-list", list(PUBLISHED["active_pe_table"]))
    rows = [partition_chain(chain, k) for k in ks]
    print("%6s %16s %12s %12s %12s" % ("kernel", "pes/primitive", "primitives",
                                       "active PEs", "efficiency"))
    for cm in rows:
        printed = misprinted_efficiency(chain, cm)
        note = "" if printed is None else "  # published table prints %.1f%%" % (100 * printed)
        print("%6d %16d %12d %12d %11.1f%%%s"
              % (cm.k, cm.pes_per_primitive, cm.active_primitives,
                 cm.active_pes, 100 * cm.efficiency, note))
    print("peak: %.1f GOPS" % (peak_throughput(chain) / 1e9))
    return EXIT_OK


def cmd_schedule(cfg: RunConfig, args) -> int:
    name, p = _select_layers(cfg, small=False)[0]
    groups = row_groups(p)
    if not 0 <= args.group < len(groups):
        raise ConfigError("layer has (row group, phase) placements 0..%d" % (len(groups) - 1))
    g = groups[args.group]
    sched = build_schedule(g, p, cfg.mode)
    rep = validate_schedule(sched, p)
    place = "" if p.stride == 1 else ", row group %d, phase %d,%d" % (g.index, *g.phase)
    print("%s group %d (%s, stride %d%s): outputs=%d feeds=%d" %
          (name, args.group, cfg.mode, p.stride, place, sched.num_outputs, sched.feed_count))
    print("first valid window: cycle %d (budget k*k = %d)" %
          (rep.first_valid_cycle, g.k * g.k))
    print("steady throughput: %s outputs/cycle over %d cycles" %
          (rep.measured_throughput, rep.steady_cycles_observed))
    print("validation: %s" % ("PASS" if rep.ok else "FAIL"))
    for v in rep.violations:
        print("  violation: %s" % v)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(schedule_trace(sched))
        print("trace written to %s" % args.trace_out)
    if not rep.ok:
        return EXIT_INTERNAL
    print("mac events: %d" % (sched.num_outputs * sched.kk))
    return EXIT_OK


def _simulate_one(cfg: RunConfig, name: str, p: LayerParams, cycle_trace=None):
    fmt = cfg.fixed_format()
    ifm, ker, bias = synth_tensors(p, cfg.seed, fmt)
    chain = cfg.chain()
    plan = plan_tiling(p, chain)
    run = run_layer(p, ifm, ker, bias, chain, mode=cfg.mode, cycle_trace=cycle_trace,
                    plan=plan)
    mapping, temporal = utilization_report(run, plan.chain)
    sim_traffic = traffic_from_counters(run.counters)
    ana_traffic = analytic_traffic(p, plan, chain, cfg.mode)
    rec = reconcile(ana_traffic, sim_traffic)
    energy, shares = energy_proxy(sim_traffic, run.counters.macs, cfg.energy_table())
    summary = {
        "layer": name,
        "params": dataclasses.asdict(p),
        "cycles": {"load": run.cycles.kernel_load, "compute": run.cycles.compute,
                   "drain": run.cycles.drain, "total": run.cycles.total},
        "counters": {
            "macs": run.counters.macs, "dummy_macs": run.counters.dummy_macs,
            "imem_reads": run.counters.imem_reads,
            "kmem_reads": run.counters.kmem_reads,
            "kmem_writes": run.counters.kmem_writes,
            "omem_reads": run.counters.omem_reads,
            "omem_writes": run.counters.omem_writes,
            "dram_reads": sim_traffic.dram.reads,
            "dram_writes": sim_traffic.dram.writes,
            "overflow_events": run.counters.overflow_events,
        },
        "utilization": {"mapping": mapping, "temporal": temporal},
        "first_output_cycle": run.first_output_cycle,
        "mac_count": mac_count(p),
        "reconcile_pass": rec.passed,
        "energy_proxy": {"total": energy, "shares": shares},
        "plan": {
            "primitives": plan.chain.active_primitives,
            "para_tile": plan.para_tile,
            "m_tiles": plan.num_m_tiles,
            "phases": plan.num_phases,
            "kernel_context_demand": plan.kernel_context_demand,
            "needs_kernel_reload": plan.needs_kernel_reload,
            "row_groups": plan.num_row_groups,
            "loop_nest": [{"name": l.name, "trips": l.trips} for l in plan.loop_nest],
        },
    }
    return run, summary, sim_traffic


def cmd_simulate(cfg: RunConfig, args) -> int:
    results = []
    trace = [] if args.cycle_trace else None
    layers = _select_layers(cfg, small=args.small)
    if args.traffic_csv and len(layers) > 1:
        raise ConfigError("--traffic-csv holds one layer; choose it with --layer")
    for name, p in layers:
        run, summary, traffic = _simulate_one(cfg, name, p, cycle_trace=trace)
        results.append(summary)
        print("%s: %d cycles, temporal utilization %.3f, reconcile %s"
              % (name, run.cycles.total, summary["utilization"]["temporal"],
                 "PASS" if summary["reconcile_pass"] else "FAIL"))
        if args.traffic_csv:
            with open(args.traffic_csv, "w") as fh:
                fh.write(traffic.to_csv())
    if args.cycle_trace:
        with open(args.cycle_trace, "w") as fh:
            fh.write("\n".join(trace) + "\n")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    fmt = cfg.fixed_format()
    if args.dump_tensors and fmt.total_bits > DUMP_BITS:
        raise ConfigError("--dump-tensors stores %d-bit samples, got total_bits %d"
                          % (DUMP_BITS, fmt.total_bits))
    status = EXIT_OK
    for name, p in _select_layers(cfg, small=args.small):
        ifm, ker, bias = synth_tensors(p, cfg.seed, fmt)
        run = run_layer(p, ifm, ker, bias, cfg.chain(), mode=cfg.mode)
        want, _ = golden_convolution(ifm, ker, bias, p)
        if run.ofmaps == want:
            print("%s: OK (%d samples bit-exact)" % (name, len(want.payload)))
        else:
            bad = [i for i, (a, b) in enumerate(zip(run.ofmaps.payload, want.payload)) if a != b]
            nm, xy = divmod(bad[0], p.e * p.e)
            print("%s: MISMATCH (%d of %d samples differ); first (n, m, x, y) = (%d, %d, %d, %d): "
                  "expected %d, simulated %d" % (name, len(bad), len(want.payload),
                                                 *divmod(nm, p.m), *divmod(xy, p.e),
                                                 want.payload[bad[0]], run.ofmaps.payload[bad[0]]))
            status = EXIT_MISMATCH
        if args.dump_tensors:
            run.ofmaps.dump("%s_simulated.cnnt" % name)
            want.dump("%s_golden.cnnt" % name)
    return status


def cmd_report(cfg: RunConfig, args) -> int:
    chain = cfg.chain()
    layers = [analytic_layer_cycles(p, chain, model=args.model, name=name, mode=cfg.mode)
              for name, p in _select_layers(cfg, small=False)]
    rep = network_report(layers, chain, cfg.batch)
    print(rep.to_text(), end="")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(rep.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    ks = _list_option(args.k_list, "--k-list", list(PUBLISHED["active_pe_table"]))
    pes_list = _list_option(args.pes_list, "--pes-list", [cfg.num_pes])
    batches = _list_option(args.batch_list, "--batch-list", [cfg.batch])
    rows = ["num_pes,kernel,batch,primitives,active_pes,efficiency,peak_gops,"
            "effective_gops,ideal_fps" + ("_" + cfg.preset if cfg.preset else "")]
    base = cfg.chain()
    net = _select_layers(cfg, small=False) if cfg.preset or cfg.layer else []
    for pes in pes_list:
        chain = dataclasses.replace(base, num_pes=pes)
        # the network's fps depends on the chain and the batch, not the row's kernel
        try:
            layers = [analytic_layer_cycles(p, chain, model="ideal", name=name)
                      for name, p in net]
            fps = {b: "%.2f" % network_report(layers, chain, b, include_reference=False).fps
                   if net else "" for b in batches}
        except CapacityError:
            fps = dict.fromkeys(batches, "")
        for k in ks:
            try:
                cm = partition_chain(chain, k)
            except CapacityError:
                continue
            for batch in batches:
                rows.append("%d,%d,%d,%d,%d,%.4f,%.2f,%.2f,%s" % (
                    pes, k, batch, cm.active_primitives, cm.active_pes, cm.efficiency,
                    peak_throughput(chain) / 1e9,
                    peak_throughput(chain, cm) / 1e9, fps[batch]))
    text = "\n".join(rows) + "\n"
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


# flag -> add_argument keywords; each dest but --config's is a RunConfig field
SETTINGS = {
    "--config": dict(help="flat key: value configuration file"),
    "--pes": dict(type=int, dest="num_pes", metavar="PES"),
    "--stages": dict(type=int, dest="pipeline_stages", metavar="STAGES"),
    "--mode": dict(choices=[DUAL, SINGLE]),
    "--seed": dict(type=int),
    "--batch": dict(type=int),
    "--preset": dict(choices=sorted(PRESETS)),
    "--layer": dict(type=int, help="1-based preset layer index; 0 = all"),
    "--k": dict(type=int, dest="kernel", metavar="K"),
    "--h": dict(type=int, dest="ifmap", metavar="H", help="input map size"),
    "--in-channels": dict(type=int, dest="in_channels"),
    "--out-channels": dict(type=int, dest="out_channels"),
    "--stride": dict(type=int),
    "--pad": dict(type=int),
    "--groups": dict(type=int),
}
_SHAPE = "--preset --layer --k --h --stride --pad"
_LAYER = _SHAPE + " --in-channels --out-channels --groups"
COMMAND_SETTINGS = {   # the settings each command reads, besides --config
    "map": "--pes",
    "schedule": "--mode " + _SHAPE,
    "simulate": "--pes --stages --mode --seed --batch " + _LAYER,
    "verify": "--pes --mode --seed --batch " + _LAYER,
    "report": "--pes --mode --batch " + _LAYER,
    "sweep": "--preset --layer",
}


def _command(subs, name: str, func, help: str):
    sub = subs.add_parser(name, help=help, allow_abbrev=False)  # map --k is not --k-list
    for flag in ("--config " + COMMAND_SETTINGS[name]).split():
        sub.add_argument(flag, **SETTINGS[flag])
    sub.set_defaults(func=func, command_parser=sub)
    return sub


class _Parser(argparse.ArgumentParser):
    """A parser that reports arguments its command leaves over with that
    command's usage; argparse's own reports them with the top level's."""

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            args.command_parser.error("unrecognized arguments: %s" % " ".join(extra))
        return args


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="chainsim", description="1D-chain CNN accelerator model")
    subs = ap.add_subparsers(dest="command", required=True)

    sub = _command(subs, "map", cmd_map, "chain partitioning table")
    sub.add_argument("--k-list", type=int, nargs="*", dest="k_list")

    sub = _command(subs, "schedule", cmd_schedule, "build and validate a group schedule")
    sub.add_argument("--group", type=int, default=0)
    sub.add_argument("--trace-out")

    sub = _command(subs, "simulate", cmd_simulate, "cycle-level layer simulation")
    sub.add_argument("--small", action="store_true", help="scale preset channel counts down")
    sub.add_argument("--json-out")
    sub.add_argument("--traffic-csv")
    sub.add_argument("--cycle-trace", help="per-cycle per-primitive trace file (tiny layers)")

    sub = _command(subs, "verify", cmd_verify, "simulate and diff against the direct convolution")
    sub.add_argument("--small", action="store_true")
    sub.add_argument("--dump-tensors", action="store_true")

    sub = _command(subs, "report", cmd_report, "performance report against published figures")
    sub.add_argument("--model", choices=["ideal", "scheduled"], default="ideal")
    sub.add_argument("--json-out")

    sub = _command(subs, "sweep", cmd_sweep, "grid sweep to CSV")
    sub.add_argument("--k-list", type=int, nargs="*", dest="k_list")
    sub.add_argument("--pes-list", type=int, nargs="*", dest="pes_list")
    sub.add_argument("--batch-list", type=int, nargs="*", dest="batch_list")
    sub.add_argument("--csv-out")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(_load_config(args), args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print("capacity error: %s" % exc, file=sys.stderr)
        return EXIT_CAPACITY
    except (ShapeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except SimulationFault as exc:
        print("internal fault: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
