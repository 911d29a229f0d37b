import math

import pytest

from diffpareto.rng import SplitMix64


def test_same_seed_same_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]


def test_different_seeds_differ():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_uniform_range_and_mean():
    rng = SplitMix64(777)
    draws = [rng.uniform() for _ in range(20_000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    mean = sum(draws) / len(draws)
    assert mean == pytest.approx(0.5, abs=0.02)


def test_below_is_unbiased_range():
    rng = SplitMix64(5)
    draws = [rng.below(7) for _ in range(5_000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.below(0)


def test_normals_moments():
    rng = SplitMix64(2024)
    draws = rng.normals(40_000)
    n = len(draws)
    mean = sum(draws) / n
    var = sum((x - mean) ** 2 for x in draws) / n
    assert mean == pytest.approx(0.0, abs=0.02)
    assert var == pytest.approx(1.0, abs=0.03)
    assert all(math.isfinite(x) for x in draws)


def test_normals_exact_count_and_determinism():
    assert len(SplitMix64(3).normals(7)) == 7
    assert SplitMix64(3).normals(7) == SplitMix64(3).normals(7)


def scalar_normals(rng: SplitMix64, n: int) -> list[float]:
    """Box-Muller pairs from the stream one output at a time, the last draw
    dropped when n is odd."""
    out: list[float] = []
    while len(out) < n:
        u1 = ((rng.next_u64() >> 11) + 1) * 2.0**-53
        u2 = rng.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return out[:n]


@pytest.mark.parametrize("seed", [0, 1, 2024, 2**63 + 12345, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 1001])
def test_normals_equal_the_scalar_stream_and_leave_its_state(seed, n):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    draws = fast.normals(n)
    assert draws == scalar_normals(slow, n)
    assert all(type(x) is float for x in draws)
    assert fast.next_u64() == slow.next_u64()
