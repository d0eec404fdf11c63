"""scripts/bench_record.py: parsing bench/run.py's output and pairing runs,
on canned output, with no live run."""

import runpy

import pytest

from conftest import REPO

SCRIPT = runpy.run_path(str(REPO / "scripts" / "bench_record.py"))

# bench/run.py --workload fixedpoint-shell --seed 1 --seconds 1 --trace 0,
# with its raw sample lists cut short
CANNED = """\
{"environment": {"numba": false, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2, \
"threads": {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}}, \
"workload": "fixedpoint-shell", "seed": 1, "setup_samples_s": [0.10658250100004807], \
"setup_speeds": [1.3243223643375779], "host_speeds": [0.8080214552349259], \
"wall_samples_s": [0.03555292200007898], "rescaled_wall_samples_s": [0.028727523772357627], \
"traced_wall_samples_s": []}
wall_s                                            0.017593902912195033 s
setup_s                                            0.12265429583849502 s
peak_rss_mb                                                42.44140625 MB
{"correct": true, "attempted": 27, "failed": 0, "metrics": {"wall_s": {"value": 0.017593902912195033, \
"unit": "s"}, "setup_s": {"value": 0.12265429583849502, "unit": "s"}, "peak_rss_mb": {"value": 42.44140625, \
"unit": "MB"}}}
"""

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def test_parses_the_environment_and_the_result_object():
    run = SCRIPT["parse_run_output"](CANNED)
    assert run == {
        "environment": {"numba": False, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2,
                        "threads": dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")},
        "correct": True, "attempted": 27, "failed": 0,
        "metrics": {"wall_s": 0.017593902912195033, "setup_s": 0.12265429583849502, "peak_rss_mb": 42.44140625},
    }


def test_a_failed_operation_is_kept():
    text = CANNED.replace('"correct": true, "attempted": 27, "failed": 0',
                          '"correct": false, "attempted": 27, "failed": 1')
    text = text.replace("wall_s    ", "FAIL op 3: exit code 1\nwall_s    ", 1)
    run = SCRIPT["parse_run_output"](text)
    assert (run["correct"], run["attempted"], run["failed"]) == (False, 27, 1)


def test_output_without_a_result_line_is_refused():
    with pytest.raises(ValueError, match="no environment and result lines"):
        SCRIPT["parse_run_output"](CANNED.splitlines()[0])


def test_pairs_are_compared_in_the_metrics_direction():
    def run(wall, rss):
        return {"metrics": {"wall_s": wall, "setup_s": 0.1, "peak_rss_mb": rss}}

    runs = {"base": [run(0.018, 43.0), run(0.017, 43.0), run(0.019, 43.0), run(0.018, 43.0)],
            "head": [run(0.015, 43.0), run(0.018, 42.9), run(0.014, 43.1), run(0.015, 43.0)]}
    metrics = SCRIPT["compare"](runs, END_TO_END)
    assert sorted(metrics) == ["peak_rss_mb", "wall_s"]
    wall = metrics["wall_s"]
    assert wall["head_better_in"] == "3 of 4" and metrics["peak_rss_mb"]["head_better_in"] == "1 of 4"
    assert wall["base"]["samples"] == [0.018, 0.017, 0.019, 0.018]
    assert wall["base"]["median"] == pytest.approx(0.018) and wall["head"]["median"] == pytest.approx(0.015)
    assert wall["base"]["q1"] <= wall["base"]["median"] <= wall["base"]["q3"]
    assert SCRIPT["summary"]([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "samples": [2.0]}
