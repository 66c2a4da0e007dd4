"""The benchmark's trajectory files.

`BENCH_<workload>.json`, at the root of the repository, is the record of a
workload's perfbench runs: a list of records, each holding the two lines
that one run of `perfbench/run.py` printed (`run`, the machine and sample
counts; `result`, the metrics), the side it measured (`parent` or
`change`) and the pair it belongs to. A performance change appends the
runs of its alternating parent/change pairs.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MACHINE = ("python", "cpu_model", "nproc", "git_commit", "src_sha256")


@pytest.mark.parametrize("workload", [workload["name"] for workload in SPEC["workloads"]])
def test_every_record_is_a_correct_run_with_its_machine_and_every_metric(workload):
    records = json.loads((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert records
    for record in records:
        run, result = record["run"], record["result"]
        assert record["side"] in ("parent", "change") and record["pair"] >= 0, record
        assert run["workload"] == workload, run
        assert all(run["machine"].get(key) for key in MACHINE), run["machine"]
        assert result["correct"] is True and result["failed"] == 0, result
        metrics = result["metrics"]
        assert {name: metrics[name]["unit"] for name in units if name in metrics} == units, metrics
