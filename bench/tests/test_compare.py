"""The section-8 verdict rule."""

import compare

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def word(change, **options):
    options.setdefault("better", "lower")
    options.setdefault("bound", 0.10)
    return compare.verdict(PARENT, change, **options)[0]


def test_a_clear_gain_on_ten_pairs_is_improved():
    assert word([v * 0.8 for v in PARENT]) == "improved"


def test_a_gain_needs_ten_pairs_and_nine_tenths_of_them():
    assert compare.verdict(PARENT[:5], [v * 0.8 for v in PARENT[:5]],
                           better="lower", bound=0.10)[0] == "no-worse"
    mixed = [v * 0.8 for v in PARENT[:8]] + [v * 1.01 for v in PARENT[8:]]
    assert word(mixed) == "no-worse"


def test_a_gain_smaller_than_the_parent_s_own_spread_is_not_claimed():
    assert word([v - 0.05 for v in PARENT]) == "no-worse"


def test_beyond_the_bound_is_regressed():
    assert word([v * 1.2 for v in PARENT]) == "regressed"
    assert word([v * 1.05 for v in PARENT]) == "no-worse"


def test_higher_is_better_flips_the_direction():
    assert word([v * 0.8 for v in PARENT], better="higher") == "regressed"
    assert word([v * 1.3 for v in PARENT], better="higher") == "improved"


def test_noise_wider_than_the_bound_is_unresolved():
    noisy_parent = [10.0, 13.0, 8.0, 12.5, 9.0, 13.5, 8.5, 12.0, 9.5, 11.0]
    same = list(reversed(noisy_parent))
    assert compare.verdict(noisy_parent, same, better="lower",
                           bound=0.10)[0] == "unresolved"
    # ...unless every run of one side beats every run of the other.
    assert compare.verdict(noisy_parent, [v * 2.0 for v in noisy_parent],
                           better="lower", bound=0.10)[0] == "regressed"
    assert compare.verdict(noisy_parent, [7.0] * 10, better="lower",
                           bound=0.10)[0] == "no-worse"
