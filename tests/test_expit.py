"""Canary for the logit rule that ``pipeline.infer`` binarizes masks by.

``infer`` never takes the sigmoid of a whole (K, N) block of mask logits:
NMS reads ``x > core.BINARIZE_LOGIT``, which must give the same bits as
``core.binarize(scipy.special.expit(x))``. The cut rests on how scipy's
``expit`` rounds near 0.5. If a scipy upgrade moves it, these tests fail
first, with a message that names the pinned behaviour, instead of an
opaque parity diff in the predictions.
"""

import numpy as np
import pytest
from scipy.special import expit

from pciseg.core import BINARIZE_LOGIT, binarize

PINNED = (
    "scipy.special.expit no longer rounds to 0.5 exactly where core.BINARIZE_LOGIT says; "
    "find the new cut and revisit pipeline.infer"
)


def assert_rule_holds(x: np.ndarray) -> None:
    want = binarize(expit(x))
    got = x > BINARIZE_LOGIT
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, f"{PINNED}: x = {x[bad[:5]].tolist()}"


def steps(start: float, toward: float, count: int) -> np.ndarray:
    """``count`` consecutive doubles from ``start`` toward ``toward``."""
    out = np.empty(count)
    out[0] = start
    for i in range(1, count):
        out[i] = np.nextafter(out[i - 1], toward)
    return out


def test_cut_is_the_last_logit_at_one_half():
    assert expit(BINARIZE_LOGIT) == 0.5, PINNED
    assert expit(np.nextafter(BINARIZE_LOGIT, np.inf)) > 0.5, PINNED


@pytest.mark.parametrize("center", [0.0, BINARIZE_LOGIT])
def test_consecutive_doubles_across_zero_and_the_cut(center):
    around = np.concatenate([steps(center, -np.inf, 3000), steps(center, np.inf, 3000)])
    assert_rule_holds(around)


def test_doubles_between_zero_and_the_cut():
    # Every subnormal and normal magnitude up to the cut, one per binade.
    assert_rule_holds(np.ldexp(1.0, np.arange(-1074, -51)))
    assert_rule_holds(np.linspace(0.0, 4 * BINARIZE_LOGIT, 100_001))


@pytest.mark.parametrize("exponent", range(-320, 309, 8))
def test_random_logits_of_every_magnitude(exponent):
    rng = np.random.default_rng(exponent + 1000)
    assert_rule_holds(rng.standard_normal(20_000) * 10.0**exponent)


def test_signed_zeros_infinities_and_nan():
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    assert_rule_holds(specials)
    assert (specials > BINARIZE_LOGIT).tolist() == [False, False, True, False, False, False], PINNED
