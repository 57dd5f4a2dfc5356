"""Bit-exact cycle-level model of a 1D-chain CNN accelerator.

The chain is built from dual-channel processing engines grouped into
k*k-PE systolic primitives; input maps stream in with a column-wise scan
pattern that completes one convolution window per cycle in steady state.
"""

from .fixedpoint import DEFAULT_FORMAT, FixedFormat
from .golden import golden_convolution
from .layers import LayerParams, mac_count, polyphase
from .mapping import CapacityError, ChainConfig, ChainMap, partition_chain
from .memmodel import (EnergyCostTable, TrafficCounters, analytic_traffic, energy_proxy,
                       ifmap_reuse_factor, kmem_activity, reconcile, traffic_from_counters)
from .perf import cycle_lower_bound, network_report, peak_throughput, utilization_report
from .presets import ALEXNET, PRESETS, VGG16, synth_tensors
from .scheduler import (RowGroup, StreamSchedule, build_schedule, row_groups, schedule_trace,
                        validate_schedule)
from .simulator import LayerRun, SimulationFault, run_layer
from .tensors import SampleTensor, ShapeError
from .tiling import TilingPlan, plan_tiling

__version__ = "0.1.0"
