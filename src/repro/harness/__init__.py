"""Measurement harness: regenerates every table and figure of the paper."""

from repro.harness.hostops import (
    CostsOfDetail,
    HostOpMeter,
    hostops_per_instruction,
    table3,
)
from repro.harness.loc import IsaCharacteristics, count_adl_lines, table1
from repro.harness.speed import (
    DEFAULT_KERNELS,
    INTERFACE_GRID,
    SpeedMeasurement,
    bench_environment,
    bench_scale,
    measure_buildset,
    measure_interpreter,
    table2,
)
from repro.harness.tables import render_table

__all__ = [
    "CostsOfDetail",
    "DEFAULT_KERNELS",
    "HostOpMeter",
    "INTERFACE_GRID",
    "IsaCharacteristics",
    "SpeedMeasurement",
    "bench_environment",
    "bench_scale",
    "count_adl_lines",
    "hostops_per_instruction",
    "measure_buildset",
    "measure_interpreter",
    "render_table",
    "table1",
    "table2",
    "table3",
]
