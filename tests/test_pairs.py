"""tools/pairs.py's summary, on fixed result records; no process is started."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

METRICS = [
    {"name": "job_ref", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def record(job_ref, rss, failed=0):
    return {"correct": not failed, "attempted": 40, "failed": failed, "metrics": {
        "job_ref": {"value": job_ref, "unit": "ref"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}


def test_summary_of_fixed_pairs():
    parent = [record(0.90, 15.5), record(0.88, 15.5), record(0.92, 15.5), record(0.86, 15.5),
              record(0.94, 15.5)]
    change = [record(0.85, 15.5), record(0.84, 15.4), record(0.93, 15.6), record(0.80, 15.5),
              record(0.82, 15.5, failed=2)]
    assert pairs.summarize(parent, change, METRICS) == [
        "job_ref (ref, lower is better)",
        "  parent 0.900 0.880 0.920 0.860 0.940   median 0.900, quartiles 0.880-0.920",
        "  change 0.850 0.840 0.930 0.800 0.820   median 0.840, quartiles 0.820-0.850",
        "  change better in 4 of 5 pairs (0 tied); median -0.060 (-6.7%) "
        "against the parent's interquartile range 0.040",
        "peak_rss_mb (MB, lower is better)",
        "  parent 15.500 15.500 15.500 15.500 15.500   median 15.500, quartiles 15.500-15.500",
        "  change 15.500 15.400 15.600 15.500 15.500   median 15.500, quartiles 15.500-15.500",
        "  change better in 1 of 5 pairs (3 tied); median +0.000 (+0.0%) "
        "against the parent's interquartile range 0.000",
        "failed parent: 0/40 0/40 0/40 0/40 0/40",
        "failed change: 0/40 0/40 0/40 0/40 2/40",
    ]


def test_higher_is_better_and_one_pair():
    metrics = [{"name": "job_ref", "unit": "ref", "better": "higher", "bound": 0.25}]
    lines = pairs.summarize([record(0.9, 15.0)], [record(1.0, 15.0)], metrics)
    assert lines[1] == "  parent 0.900   median 0.900, quartiles 0.900-0.900"
    assert lines[3].startswith("  change better in 1 of 1 pairs (0 tied); median +0.100 (+11.1%)")
