"""Seeded random structure matrices for fuzzing and demos."""

import random

from .algebra import EvolutionAlgebra
from .errors import AnswerTooLarge, InvalidArgument, SamplingExhausted
from .fields import QQ
from .linalg import Matrix

MAX_ENTRIES = 10 ** 6   # cap on dim^2, the entries drawn per try
MAX_TRIES = 100000      # draws before rejection sampling gives up


def random_algebra(field, dim, rng=None, seed=None, perfect=False,
                   nondegenerate=False):
    """A random evolution algebra: small-integer entries over Q, uniform
    residues over GF(p).  Rejection sampling enforces the flags, so the
    output is a deterministic function of the seed; it gives up after
    MAX_TRIES draws.  A dimension whose dim^2 entries exceed MAX_ENTRIES is
    refused before any is drawn."""
    if dim < 1:
        raise InvalidArgument(f"dimension must be at least 1, got {dim}")
    if dim * dim > MAX_ENTRIES:
        raise AnswerTooLarge(f"dimension {dim} has more than {MAX_ENTRIES} matrix entries")
    if rng is None:
        rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        if field == QQ:
            rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        else:
            rows = [[rng.randrange(field.p) for _ in range(dim)] for _ in range(dim)]
        algebra = EvolutionAlgebra(field, Matrix._from_plain(field, rows))
        if perfect and not algebra.is_perfect():
            continue
        if nondegenerate and not algebra.is_nondegenerate():
            continue
        return algebra
    raise SamplingExhausted(f"rejection sampling found no algebra in {MAX_TRIES} tries")
