"""Experiment C1 — static cost model vs measured Table III deltas.

:mod:`repro.check.costmodel` predicts each interface's host ops per
simulated instruction from static bytecode lengths alone — no guest
execution.  The claim is not numeric accuracy but *structure*: the
predicted costs-of-detail deltas (decode information, full information,
multiple calls, speculation) must agree in sign with the measured
Table III analogue.  The paper's qualitative result — information and
call-splitting cost host work, speculation is cheap but not free —
is thus recoverable before ever running a workload.

Kept out of tier-1 (this directory is not in ``testpaths``): it
measures real host-op counts under the host-op meter, a few seconds
per ISA.
"""

from repro.check.costmodel import compare_with_measured
from repro.harness.hostops import CostsOfDetail

#: Fast-but-stable measurement: two kernels at half scale keep the
#: whole experiment under ~10 s while leaving every delta far from 0.
_KERNELS = ("checksum", "sieve")
_SCALE = 0.5

ISAS = ("alpha", "arm", "ppc", "sparc")


def _measured_deltas(isa: str) -> dict[str, float]:
    column = CostsOfDetail.measure(isa, kernels=_KERNELS, scale=_SCALE)
    return {
        "decode": column.incr_decode_info,
        "full": column.incr_full_info,
        "multi_call": column.incr_multiple_calls,
        "speculation": column.incr_speculation,
    }


def test_costmodel_sign_agreement(publish_json):
    reports = {
        isa: compare_with_measured(isa, _measured_deltas(isa)) for isa in ISAS
    }
    publish_json(
        "C1",
        {
            "experiment": "check_costmodel_sign_agreement",
            "unit": "host bytecode ops per simulated instruction (deltas)",
            "reports": reports,
        },
    )
    # Acceptance floor: every Table III-style delta of the Alpha column
    # agrees in sign between the static prediction and the measurement.
    alpha = reports["alpha"]
    assert alpha["comparable"] == 4, alpha
    assert alpha["agreements"] == alpha["comparable"], alpha
    # The structure is not Alpha-specific: every ISA agrees on every row.
    for isa, report in reports.items():
        assert report["agreements"] == report["comparable"], (isa, report)
