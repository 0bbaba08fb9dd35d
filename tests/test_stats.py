import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlab.errors import DegenerateSampleError, MissingPairError
from padlab.stats import (RunGroup, bar_chart_svg,
                          betainc_reg, groups_from_csv, load_reference_runs,
                          mean, pooled_t_one_sided, sample_stdev, summarize,
                          t_cdf, variance_ratio_one_sided, welch_t_one_sided)

# printed aggregates for the committed reference runs
PRINTED = {
    "vgg11-bn": dict(mean_base=71.071, mean_pc=71.070, sd_base=0.165, sd_pc=0.099,
                     p=0.5018, mean_diff=-0.000, sd_diff=-0.066),
    "vgg16-bn": dict(mean_base=74.218, mean_pc=74.240, sd_base=0.149, sd_pc=0.103,
                     p=0.3928, mean_diff=0.023, sd_diff=-0.046),
    "resnet18": dict(mean_base=70.301, mean_pc=70.321, sd_base=0.126, sd_pc=0.113,
                     p=0.3988, mean_diff=0.020, sd_diff=-0.013),
    "resnet50": dict(mean_base=76.432, mean_pc=76.640, sd_base=0.130, sd_pc=0.097,
                     p=0.0104, mean_diff=0.208, sd_diff=-0.032),
}


@pytest.fixture(scope="module")
def report():
    return summarize(load_reference_runs())


def test_mean_and_stdev_vgg11_row():
    runs = [71.276, 71.154, 70.894, 70.910, 71.120]
    assert round(mean(runs), 3) == 71.071
    assert round(sample_stdev(runs), 3) == 0.165


def test_mean_and_stdev_resnet50_pc_row():
    runs = [76.582, 76.702, 76.780, 76.592, 76.546]
    assert round(mean(runs), 3) == 76.640
    assert round(sample_stdev(runs), 3) == 0.097


def test_stdev_of_constant_list_is_zero():
    assert sample_stdev([5.0, 5.0, 5.0]) == 0.0


def test_degenerate_samples_rejected():
    with pytest.raises(DegenerateSampleError):
        mean([])
    with pytest.raises(DegenerateSampleError):
        sample_stdev([1.0])


def test_all_sixteen_aggregates_match_at_3_decimals(report):
    assert len(report.rows) == 4
    for row in report.rows:
        want = PRINTED[row.arch]
        assert round(row.mean_base, 3) == want["mean_base"]
        assert round(row.mean_pc, 3) == want["mean_pc"]
        assert round(row.stdev_base, 3) == want["sd_base"]
        assert round(row.stdev_pc, 3) == want["sd_pc"]
        assert round(row.mean_diff, 3) == pytest.approx(want["mean_diff"], abs=1e-9)
        assert round(row.stdev_diff, 3) == pytest.approx(want["sd_diff"], abs=1e-9)


def test_p_values_match_within_half_a_thousandth(report):
    for row in report.rows:
        assert abs(row.p_one_sided - PRINTED[row.arch]["p"]) <= 0.0005


T_TESTS = pytest.mark.parametrize("test", [pooled_t_one_sided, welch_t_one_sided])


@T_TESTS
def test_identical_groups_give_half(test):
    t, p = test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0 and p == 0.5


@T_TESTS
def test_zero_variance_unequal_means(test):
    t, p = test([1.0, 1.0], [2.0, 2.0])
    assert t == math.inf and p == 0.0
    t, p = test([2.0, 2.0], [1.0, 1.0])
    assert t == -math.inf and p == 1.0
    assert test([3.0, 3.0], [3.0, 3.0, 3.0]) == (0.0, 0.5)


@pytest.mark.parametrize("test, equal_var", [(pooled_t_one_sided, True),
                                             (welch_t_one_sided, False)])
def test_t_tests_match_scipy_ttest_ind(test, equal_var):
    ttest_ind = pytest.importorskip("scipy.stats").ttest_ind
    rng = random.Random(17)
    for _ in range(200):
        base = [rng.gauss(70.0, rng.uniform(0.05, 2.0)) for _ in range(rng.randint(2, 9))]
        treated = [rng.gauss(70.3, rng.uniform(0.05, 2.0))
                   for _ in range(rng.randint(2, 9))]
        t, p = test(base, treated)
        want = ttest_ind(treated, base, equal_var=equal_var, alternative="greater")
        assert t == pytest.approx(want.statistic, rel=1e-9)
        assert abs(p - want.pvalue) < 1e-10, (base, treated)


@pytest.mark.parametrize("test", [pooled_t_one_sided, welch_t_one_sided,
                                  variance_ratio_one_sided])
def test_one_run_group_is_rejected(test):
    for base, treated in (([1.0], [1.0, 2.0]), ([1.0, 2.0], [2.0]), ([], [])):
        with pytest.raises(DegenerateSampleError, match="at least two runs"):
            test(base, treated)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=8),
       st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=8))
def test_antisymmetry_swapping_groups(a, b):
    _, p_ab = pooled_t_one_sided(a, b)
    _, p_ba = pooled_t_one_sided(b, a)
    assert p_ab + p_ba == pytest.approx(1.0, abs=1e-9)


def test_t_cdf_closed_form_df1_df2():
    for t in (0.0, 1.0, -1.0, 2.0, -2.0):
        arctan_form = 0.5 + math.atan(t) / math.pi
        algebraic_form = 0.5 + t / (2.0 * math.sqrt(2.0 + t * t))
        assert abs(t_cdf(t, 1) - arctan_form) < 1e-9
        assert abs(t_cdf(t, 2) - algebraic_form) < 1e-9


def test_t_cdf_zero_is_exactly_half():
    for df in range(1, 51):
        assert t_cdf(0.0, df) == 0.5


def test_t_cdf_monotone_on_grid():
    for df in (1, 2, 5, 8, 30):
        grid = [t_cdf(-6 + 0.25 * i, df) for i in range(49)]
        assert all(a <= b + 1e-15 for a, b in zip(grid, grid[1:]))
        assert grid[0] < 0.06 and grid[-1] > 0.94


def test_betainc_edges():
    assert betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert betainc_reg(2.0, 3.0, 1.0) == 1.0
    # symmetric point of the uniform case: I_x(1,1) = x
    assert betainc_reg(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)


def test_welch_close_to_pooled_for_balanced_groups(report):
    welch = summarize(load_reference_runs(), use_welch=True)
    for pooled_row, welch_row in zip(report.rows, welch.rows):
        assert welch_row.p_one_sided == pytest.approx(
            pooled_row.p_one_sided, abs=0.02)


def test_summarize_single_pair_cardinality():
    groups = [RunGroup("m", "base", [1.0, 2.0]), RunGroup("m", "pc", [2.0, 3.0])]
    report = summarize(groups)
    assert len(report.rows) == 1


def test_summarize_missing_pair():
    with pytest.raises(MissingPairError):
        summarize([RunGroup("m", "base", [1.0, 2.0])])


def test_csv_columns(report):
    header = report.to_csv().splitlines()[0]
    assert header == ("arch,n,mean_base,mean_pc,mean_diff,stdev_base,stdev_pc,"
                      "stdev_diff,t,p_one_sided")
    assert len(report.to_csv().splitlines()) == 5


def test_svg_has_paired_bars(report):
    svg = bar_chart_svg(report, "mean")
    assert svg.startswith("<svg") and svg.count("<rect") == 8
    svg_sd = bar_chart_svg(report, "stdev")
    assert "stdev" in svg_sd


def test_groups_from_csv_roundtrip():
    text = ("arch,variant,run,best_top1\n"
            "m,base,1,70.0\nm,base,2,71.0\nm,pc,1,71.5\nm,pc,2,70.5\n")
    groups = groups_from_csv(text)
    assert [g.variant for g in groups] == ["base", "pc"]
    assert groups[0].best_top1 == [70.0, 71.0]


def _scaled(n, scale):
    # n values with sample variance scale**2 * var(range(n))
    return [scale * i for i in range(n)]


@pytest.mark.parametrize("ratio", [0.25, 1.0, 3.0, 40.0])
def test_variance_ratio_closed_form_d2_d2(ratio):
    f, p = variance_ratio_one_sided(_scaled(3, math.sqrt(ratio)), _scaled(3, 1.0))
    assert f == pytest.approx(ratio, rel=1e-12)
    assert p == pytest.approx(1.0 / (1.0 + f), abs=1e-12)


def test_variance_ratio_matches_scipy_f_sf():
    fdist = pytest.importorskip("scipy.stats").f
    for n1 in (2, 3, 5, 8, 21):
        for n2 in (2, 3, 5, 8, 21):
            for ratio in (0.05, 0.5, 1.0, 1.7, 4.0, 30.0):
                f, p = variance_ratio_one_sided(_scaled(n1, math.sqrt(ratio)),
                                                _scaled(n2, 1.0))
                expect_f = (sample_stdev(_scaled(n1, math.sqrt(ratio))) ** 2
                            / sample_stdev(_scaled(n2, 1.0)) ** 2)
                assert f == pytest.approx(expect_f, rel=1e-12)
                assert abs(p - fdist.sf(f, n1 - 1, n2 - 1)) < 1e-10, (n1, n2, ratio)


def test_variance_ratio_degenerate_groups():
    with pytest.raises(DegenerateSampleError):
        variance_ratio_one_sided([1.0], [1.0, 2.0])
    assert variance_ratio_one_sided([1.0, 2.0], [3.0, 3.0]) == (math.inf, 0.0)
    assert variance_ratio_one_sided([3.0, 3.0], [1.0, 2.0]) == (0.0, 1.0)
    f, p = variance_ratio_one_sided([3.0, 3.0], [1.0, 1.0])
    assert f == 1.0 and p == pytest.approx(0.5, abs=1e-12)


def test_variance_ratio_on_reference_runs():
    # every pc arm is less variable, none significantly so on its own
    table = {"vgg11-bn": (2.78, 0.17), "vgg16-bn": (2.10, 0.25),
             "resnet18": (1.24, 0.42), "resnet50": (1.78, 0.30)}
    groups = {(g.arch, g.variant): g.best_top1 for g in load_reference_runs()}
    for arch, (f_printed, p_printed) in table.items():
        f, p = variance_ratio_one_sided(groups[arch, "base"], groups[arch, "pc"])
        assert (round(f, 2), round(p, 2)) == (f_printed, p_printed), arch
