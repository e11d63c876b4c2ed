"""Verdicts of ``bench/compare.py`` against the bounds."""

import json

import compare


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, base, "lower", 0.1)[0] == "same"
    assert compare.verdict(base, [v * 1.3 for v in base], "lower", 0.1)[0] \
        == "worse"
    assert compare.verdict(base, [v * 1.3 for v in base], "higher", 0.1)[0] \
        == "better"
    noisy = [50.0, 100.0, 150.0, 200.0, 130.0]
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"


def _record(workload, seed, value, failed=0):
    return {
        "workload": workload, "seed": seed, "trace": False,
        "attempted": 100, "failed": failed,
        "metrics": {m: value for m in (
            "throughput_per_s", "latency_ms", "setup_s", "peak_rss_mb",
        )},
        "exact": {"digest": "x"},
    }


def test_exit_code_flags_regressions_and_failures(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(
        {"runs": [_record("campaign", s, 100.0 + s) for s in range(5)]}
    ))
    same = tmp_path / "same.json"
    same.write_text(json.dumps(
        {"runs": [_record("campaign", s, 100.0 + s) for s in range(5)]}
    ))
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(
        {"runs": [_record("campaign", s, 100.0 + s, failed=1)
                  for s in range(5)]}
    ))
    assert compare.main([str(a), str(same)]) == 0
    assert compare.main([str(a), "--", str(failing)]) == 1
    assert "failed_frac" in capsys.readouterr().out
