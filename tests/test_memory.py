"""Peak memory of the doubly robust path on continuous event times.

With continuous times the default grid grows with the cohort, so the
influence evaluation must not hold rows x grid matrices.
"""

from rss_probe import decompose_peak_rss


def test_continuous_time_decompose_stays_under_300_mb(tmp_path):
    # n = 5k jittered times give a grid of ~1.9k points; holding the
    # per-row influence matrices took ~900 MB here
    result = decompose_peak_rss(5000, tmp_path)
    assert result["exit_code"] == 0, result["stderr"]
    assert result["grid_points"] > 1500
    assert result["peak_rss_mb"] < 300.0, result
