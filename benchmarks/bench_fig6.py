"""Experiment E6: Figure 6 — sizes of the finite models found.

The paper's histogram shows every model found during the evaluation has
total sort cardinality between 3 and 12, concentrated at the small end
(the x-axis is the sum of all sort cardinalities).  We collect the same
statistic from RInGen's SAT answers over the De Angelis campaign and
check the shape: all sizes small, mass at the minimum sizes.
"""

from repro.harness import figure6_data, format_histogram

from conftest import write_artifact


def test_figure6_model_sizes(benchmark, adtbench_campaign):
    campaign, _ = adtbench_campaign
    histogram = benchmark.pedantic(
        lambda: figure6_data(campaign), rounds=1, iterations=1
    )
    text = format_histogram(
        histogram, title="Figure 6: finite model sizes (sum of sort"
        " cardinalities)"
    )
    write_artifact("figure6.txt", text)
    print("\n" + text)

    assert histogram, "no models found — campaign misconfigured"
    sizes = sorted(histogram)
    # paper shape: every model small (their x-axis tops out at 12)
    assert sizes[0] >= 2
    assert sizes[-1] <= 12
    # mass concentrated at the small end
    small_mass = sum(c for s, c in histogram.items() if s <= 6)
    assert small_mass >= sum(histogram.values()) * 0.5


def test_bench_model_size_extraction(benchmark, adtbench_campaign):
    campaign, _ = adtbench_campaign
    benchmark(lambda: figure6_data(campaign))


def test_bench_single_model_search(benchmark):
    """The raw finite-model search on the paper's motivating example."""
    from repro.chc.transform import preprocess
    from repro.mace.finder import find_model
    from repro.problems import even_system

    prepared = preprocess(even_system())
    result = benchmark(lambda: find_model(prepared, max_total_size=6))
    assert result.found
    assert result.model.size() == 2
