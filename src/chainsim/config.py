"""Flat `key: value` run configuration with strict parsing.

Unknown keys are errors and every field has a documented default.  The
grammar is one `key: value` pair per line; blank lines and `#` comments
are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .fixedpoint import FixedFormat
from .layers import LayerParams
from .mapping import ChainConfig
from .memmodel import EnergyCostTable
from .presets import PRESETS
from .scheduler import DUAL, SINGLE


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Every setting of one run.  The hardware, number-format and energy
    settings are the fields of ChainConfig, FixedFormat and EnergyCostTable
    (energy ones prefixed energy_), with their defaults; each object is
    built from its own class's field list."""

    num_pes: int = ChainConfig.num_pes
    pipeline_stages: int = ChainConfig.pipeline_stages
    clock_hz: float = ChainConfig.clock_hz
    kmem_capacity: int = ChainConfig.kmem_capacity
    imem_bytes: int = ChainConfig.imem_bytes
    total_bits: int = FixedFormat.total_bits
    frac_bits: int = FixedFormat.frac_bits
    accumulator_bits: int = FixedFormat.accumulator_bits
    overflow: str = FixedFormat.overflow
    mode: str = DUAL
    seed: int = 0
    batch: int = 1
    preset: str = ""
    layer: int = 0            # 1-based index into the preset; 0 = whole network
    kernel: int = 3
    ifmap: int = 7
    in_channels: int = 1
    out_channels: int = 1
    stride: int = 1
    pad: int = 0
    groups: int = 1
    energy_mac: float = EnergyCostTable.mac
    energy_kmem: float = EnergyCostTable.kmem
    energy_imem: float = EnergyCostTable.imem
    energy_omem: float = EnergyCostTable.omem
    energy_dram: float = EnergyCostTable.dram

    def _build(self, cls, prefix: str = ""):
        return cls(**{f.name: getattr(self, prefix + f.name) for f in fields(cls)})

    def chain(self) -> ChainConfig:
        return self._build(ChainConfig)

    def fixed_format(self) -> FixedFormat:
        return self._build(FixedFormat)

    def custom_layer(self) -> LayerParams:
        return LayerParams.from_shape(
            n=self.batch, c=self.in_channels, m=self.out_channels, h=self.ifmap,
            k=self.kernel, stride=self.stride, pad=self.pad, groups=self.groups)

    def energy_table(self) -> EnergyCostTable:
        return self._build(EnergyCostTable, "energy_")


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _convert(key: str, raw: str, lineno: int):
    kind = _FIELDS[key].type
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError("line %d: key %r needs a %s, got %r" % (lineno, key, kind, raw))


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if ":" not in body:
            raise ConfigError("line %d: expected 'key: value', got %r" % (lineno, line))
        key, raw = body.split(":", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        setattr(cfg, key, _convert(key, raw, lineno))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """The one check of a finished configuration, whatever set its fields.
    The hardware, format and energy objects check their own ranges."""
    try:
        cfg.chain()
        cfg.fixed_format()
        cfg.energy_table()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.mode not in (DUAL, SINGLE):
        raise ConfigError("mode must be %r or %r, got %r" % (DUAL, SINGLE, cfg.mode))
    if cfg.preset and cfg.preset not in PRESETS:
        raise ConfigError("unknown preset %r" % cfg.preset)
    for name in ("batch", "kernel", "ifmap", "in_channels", "out_channels", "stride",
                 "groups"):
        if getattr(cfg, name) < 1:
            raise ConfigError("%s must be >= 1" % name)
    if cfg.pad < 0 or cfg.seed < 0 or cfg.layer < 0:
        raise ConfigError("pad, seed and layer must be >= 0")
