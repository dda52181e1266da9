import numpy as np
import pytest

from nicecf.errors import ConfigError
from nicecf.rng import SplitMix64


def test_reference_vectors_seed_zero():
    # Published test vectors for the splitmix64 stream at seed 0.
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(5)] != [b.next_u64() for _ in range(5)]


def test_uniform_bounds_and_spread():
    r = SplitMix64(7)
    values = [r.uniform() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(sum(values) / len(values) - 0.5) < 0.03


def test_uniform_custom_interval():
    r = SplitMix64(7)
    values = [r.uniform(-2.0, 3.0) for _ in range(500)]
    assert all(-2.0 <= v < 3.0 for v in values)


def test_randrange_covers_all_values():
    r = SplitMix64(12)
    seen = {r.randrange(6) for _ in range(300)}
    assert seen == {0, 1, 2, 3, 4, 5}


@pytest.mark.parametrize("seed, numpy_seed", [
    (3, np.int64(3)), (-3, np.int64(-3)), (2**63, np.uint64(2**63)),
    (2**64 - 1, np.uint64(2**64 - 1)), (7, np.int8(7)),
])
def test_numpy_integer_seed_gives_the_plain_stream(seed, numpy_seed):
    a, b = SplitMix64(seed), SplitMix64(numpy_seed)
    got = [b.next_u64() for _ in range(20)]
    assert got == [a.next_u64() for _ in range(20)]
    assert all(type(v) is int for v in got)


def test_seed_is_taken_mod_two_to_the_64():
    a, b = SplitMix64(5), SplitMix64(5 + 2**64)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


@pytest.mark.parametrize("seed", [1.5, True, np.True_, "3", None, np.float64(3.0)])
def test_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ConfigError, match=r"^seed must be an integer, got "):
        SplitMix64(seed)


def test_randrange_rejects_bad_n():
    r = SplitMix64(0)
    with pytest.raises(ValueError):
        r.randrange(0)


def test_shuffle_is_a_permutation_and_deterministic():
    items = list(range(30))
    a = list(items)
    b = list(items)
    SplitMix64(99).shuffle(a)
    SplitMix64(99).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items
