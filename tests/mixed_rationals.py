"""Random exact inputs whose denominators mix 1, 2, 3, 5 and 7.

The verify suites draw entries ``p/q`` with ``q`` in ``{1, 2}`` only, where a
wrong integer scaling (``max`` in place of ``lcm``, say) still gives the right
answer.  Every vector drawn here has an entry with denominator 2 and one with
denominator 3, so its scale must be a multiple of 6.
"""

import itertools
import random
from fractions import Fraction
from typing import List

from hodge_residue.forms import AntiSymForm

DENOMINATORS = (1, 2, 3, 5, 7)


def mixed_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS))


def mixed_vector(n: int, rng: random.Random) -> List[Fraction]:
    """A length-``n`` vector (``n >= 2``) whose first two entries are
    ``+-1/2`` or ``+-3/2`` and ``+-1/3`` or ``+-2/3``."""
    head = [
        Fraction(rng.choice((-3, -1, 1, 3)), 2),
        Fraction(rng.choice((-2, -1, 1, 2)), 3),
    ]
    vec = head + [mixed_rational(rng) for _ in range(n - 2)]
    rng.shuffle(vec)
    return vec


def mixed_form(n: int, degree: int, rng: random.Random) -> AntiSymForm:
    entries = {
        idx: mixed_rational(rng)
        for idx in itertools.combinations(range(1, n + 1), degree)
    }
    return AntiSymForm(n, degree, entries)
