"""The seeded stream of ``init_params`` against numpy's ``SeedSequence``,
``PCG64`` and ``Generator.uniform``, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from synwatch._pcg64 import Pcg64, seed_words

#: Seeds of one to five 32-bit words: the pool holds four, and numpy mixes
#: any further word into it after the first pass.
seeds = st.one_of(st.integers(0, 2**32 + 1), st.integers(0, 2**64),
                  st.integers(0, 2**160),
                  st.sampled_from([2**32 - 1, 2**32, 2**63 + 5, 2**128 + 7,
                                   10**40]))


@settings(max_examples=200, deadline=None)
@given(seed=seeds)
def test_seed_words_equal_seed_sequence(seed):
    assert seed_words(seed) == \
        np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(seed=seeds, before=st.integers(0, 8),
       skip=st.one_of(st.integers(0, 1000), st.integers(0, 2**128 - 1)),
       after=st.integers(1, 8))
def test_raw_outputs_and_advance_equal_pcg64(seed, before, skip, after):
    ours, theirs = Pcg64(seed), np.random.PCG64(seed)
    assert [ours.next64() for _ in range(before)] == \
        theirs.random_raw(before).tolist()
    ours.advance(skip)
    theirs.advance(skip)
    assert [ours.next64() for _ in range(after)] == \
        theirs.random_raw(after).tolist()


@settings(max_examples=200, deadline=None)
@given(seed=seeds,
       bounds=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
       size=st.integers(0, 40))
def test_uniform_equals_generator_uniform(seed, bounds, size):
    low, high = sorted(bounds)
    ours = np.array(Pcg64(seed).uniform(low, high, size), dtype=np.float64)
    theirs = np.random.default_rng(seed).uniform(low, high, size)
    assert ours.view(np.uint64).tolist() == theirs.view(np.uint64).tolist()
