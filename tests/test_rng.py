import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodespec.data import make_split
from nodespec.rng import permutation, splitmix64

# Published reference outputs for the SplitMix64 stream seeded with 0
# (the same vector used by the rand_core and xoshiro test suites).
SEED0_OUTPUTS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix_reference_vector():
    out = splitmix64(0, 3)
    assert out.dtype == np.uint64
    assert out.tolist() == SEED0_OUTPUTS


def test_splitmix_seed_masked_to_64_bits():
    np.testing.assert_array_equal(splitmix64(1 << 64, 5), splitmix64(0, 5))
    np.testing.assert_array_equal(splitmix64(-1, 5),
                                  splitmix64((1 << 64) - 1, 5))


def test_splitmix_prefix_and_empty_stream():
    np.testing.assert_array_equal(splitmix64(42, 1000)[:10],
                                  splitmix64(42, 10))
    assert splitmix64(42, 0).shape == (0,)
    with pytest.raises(ValueError):
        splitmix64(42, -1)


def test_permutation_is_a_permutation():
    for seed in (0, 1, 999):
        perm = permutation(50, seed)
        assert np.array_equal(np.sort(perm), np.arange(50))


def test_permutation_depends_on_seed_not_runs():
    assert np.array_equal(permutation(100, 7), permutation(100, 7))
    assert not np.array_equal(permutation(100, 7), permutation(100, 8))


def test_permutation_frozen_value():
    # Frozen output of the pinned algorithm; guards against accidental
    # reordering of the Fisher-Yates loop or stream changes.
    assert permutation(8, 123).tolist() == _fisher_yates_reference(8, 123)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 3000), seed=st.integers(-(1 << 70), 1 << 70))
@example(n=0, seed=0)
@example(n=1, seed=-1)
@example(n=3000, seed=(1 << 64) - 1)
@example(n=257, seed=1 << 70)
def test_permutation_matches_reference(n, seed):
    perm = permutation(n, seed)
    assert perm.dtype == np.int64
    assert perm.tolist() == _fisher_yates_reference(n, seed)


def _fisher_yates_reference(n, seed):
    # Independent re-derivation: drive the published SplitMix64 update rule
    # (written out inline, one Python integer at a time) through the classic
    # downward Fisher-Yates loop.
    mask = (1 << 64) - 1
    state = seed

    def nxt():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = nxt() % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _split_digest(split):
    h = hashlib.sha256()
    for name in ("train", "validation", "test", "observed_test",
                 "unobserved_test"):
        arr = getattr(split, name)
        if arr is None:
            h.update(b"-")
            continue
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
        h.update(b"|")
    return h.hexdigest()


# SHA-256 of make_split(n, mode, seed=17) under the pinned scheme, frozen from
# the sequential one-draw-at-a-time implementation. "stratified" is a dense
# split stratified over the labels (7 * i) % 5.
FROZEN_SPLIT_DIGESTS = {
    (10, "dense"): "f2510e76e4d43ca62041ae8be62346262ea9b98355478abc29cc7441cc2e5675",
    (10, "sparse"): "b3df94850d50f0afcd073d51f1afc7b9a3129e834e2a7c451c4ff1e5025dabe8",
    (10, "inductive"): "e2107ed6cba74d6056cb061ec084fa59448ba442a728171c42aa6431b37980f9",
    (10, "stratified"): "ef026eedc593937a51774abde64ada8d5cb91bc0cd8bebcdfffaf33720115a40",
    (2500, "dense"): "fb01f54a9d36a0fcaa7aaff8e07e01392f6fd747df161d21e0492bf984954de3",
    (2500, "sparse"): "63e6f7f406d28772a8c7a529e59932e7bd8a3a86ec914bdb394bb323626ee59c",
    (2500, "inductive"): "ec806f949f274a36bb399b8bbe56f62249e03e7e69d89fc48deecce55d3e1c48",
    (2500, "stratified"): "3cce01a57a9ceaaaab78e26b9fd6d5c12fb0f3e87511b0e354c7d1deac354c4c",
    (3000, "dense"): "3a3e0e7f047b4b0438397711903df1c4ce72b7aecaca7650b09ce0f954da7471",
    (3000, "sparse"): "4b27c617c5a11bab2863831cb517ff045034bbc4720c6be7dbf17942e0a2ce69",
    (3000, "inductive"): "dd65617075bd5c2fdb650d09b3dc0f48c4ad4ccb86141c73b62741fde2d9dba8",
    (3000, "stratified"): "4fd396a1a5d7299e60e078015a19246f990fbf36613f75ced9fa43b9b6a1c1f2",
    (50000, "dense"): "b9f1156d9079ee6f6fa98808ea05af781746547a9990afc09385737cfb90b075",
    (50000, "sparse"): "91833bd3ce6e456a469e51230d8472cd414aa6c3ef89fd5b1657af19095e620b",
    (50000, "inductive"): "4695cae4d64e12d60436a6a9f7db503f991d0edb75bf80301568710bdd42eb8b",
    (50000, "stratified"): "91a3ae78bc12a17d93fff7f4d79d00c94e89c5f98ab8115986eeae8fdc9b286b",
}


@pytest.mark.parametrize("n,kind", sorted(FROZEN_SPLIT_DIGESTS))
def test_make_split_frozen_digest(n, kind):
    if kind == "stratified":
        split = make_split(n, "dense", 17, stratified=True,
                           labels=(np.arange(n) * 7) % 5)
    else:
        split = make_split(n, kind, 17)
    assert _split_digest(split) == FROZEN_SPLIT_DIGESTS[n, kind]
