"""Key-selection machinery: Zipfian sampling and delete compensation.

The paper calls out two practical driver challenges: "accounting for
deleted products while not impacting key distribution and providing
safe concurrent accesses to data that form transaction inputs".  The
:class:`ProductKeyRegistry` solves the first: popularity ranks are
stable, and a deleted product's rank is transparently remapped to a
fresh replacement product, so the Zipfian shape of the workload never
drifts as deletes accumulate.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
import typing

#: Ranks :class:`ZipfSampler` covers with an exact CDF table.  Fixed
#: regardless of n, so memory stays constant; every keyspace up to
#: this size is sampled exactly.
_EXACT_HEAD = 4096


@functools.lru_cache(maxsize=16)
def _head_cdf(head: int, s: float) -> tuple[float, ...]:
    """Unnormalised CDF of the first ``head`` Zipf ranks.

    Memoised: it is a pure function of its arguments, costs 0.4 ms at
    the full head, and every driver a process builds (a serial matrix,
    a comparison across stacks) would otherwise recompute it.
    """
    return tuple(itertools.accumulate(
        1.0 / (rank ** s) for rank in range(1, head + 1)))


class ZipfSampler:
    """Samples ranks 0..n-1 with probability proportional to 1/(r+1)^s.

    ``s = 0`` degenerates to uniform.  The first ``_EXACT_HEAD`` ranks
    — where the skewed mass is densest — are drawn by inverse
    transform over an exact CDF table; an n-entry table is unaffordable
    at 10^6-10^7 ranks, so the tail beyond it is approximated with the
    continuous density ``x**-s`` sampled by closed-form inverse
    transform.  The midpoint-rule pairing of rank ``k`` with the
    interval ``[k + 0.5, k + 1.5)`` keeps the per-rank error at
    O(s*(s+1)/k^2) relative, Gray-style.  One uniform draw per sample,
    deterministic given the RNG.
    """

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        if n < 1:
            raise ValueError("need at least one rank")
        if s < 0:
            raise ValueError("zipf exponent must be >= 0")
        self.n = n
        self.s = s
        self._rng = rng
        head = min(n, _EXACT_HEAD)
        self._head_cdf = _head_cdf(head, s)
        self._head_mass = self._head_cdf[-1]
        # Continuous tail over x in [head + 0.5, n + 0.5): value k + 1
        # owns [k + 0.5, k + 1.5), so the integral of x**-s over each
        # interval midpoint-approximates the true weight (k + 1)**-s.
        self._tail_lo = head + 0.5
        self._tail_hi = n + 0.5
        self._tail_mass = self._integral(self._tail_lo, self._tail_hi)
        self._total = self._head_mass + self._tail_mass

    def _integral(self, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        if self.s == 1.0:
            return math.log(hi / lo)
        p = 1.0 - self.s
        return (hi ** p - lo ** p) / p

    def sample(self) -> int:
        """Draw one rank."""
        point = self._rng.random() * self._total
        if point < self._head_mass:
            return bisect.bisect_left(self._head_cdf, point)
        fraction = (point - self._head_mass) / self._tail_mass
        if self.s == 1.0:
            x = self._tail_lo * (self._tail_hi / self._tail_lo) ** fraction
        else:
            p = 1.0 - self.s
            x = (self._tail_lo ** p
                 + fraction * self._tail_mass * p) ** (1.0 / p)
        rank = int(x + 0.5) - 1
        return min(self.n - 1, max(len(self._head_cdf), rank))

    def probability(self, rank: int) -> float:
        """The probability mass of ``rank`` (exact for n within the
        head table, under the approximated normaliser beyond it)."""
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} out of range")
        return (1.0 / ((rank + 1) ** self.s)) / self._total


class HotspotSampler:
    """A toggleable hot-key overlay on a base rank sampler.

    While a hotspot is armed, each draw routes to one of the designated
    hot ranks with the configured probability and falls through to the
    base (Zipfian) sampler otherwise — the temporary skew spike of a
    flash sale.  Scenario controllers arm and clear the hotspot at
    phase boundaries; with no hotspot armed the overlay is transparent.
    """

    def __init__(self, base: ZipfSampler,
                 rng: random.Random) -> None:
        self.base = base
        self._rng = rng
        self._hot_ranks: list[int] = []
        self._probability = 0.0
        self.hot_draws = 0

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def active(self) -> bool:
        return bool(self._hot_ranks)

    def set_hotspot(self, ranks: typing.Sequence[int],
                    probability: float) -> None:
        if not ranks:
            raise ValueError("need at least one hot rank")
        if not 0 < probability <= 1:
            raise ValueError("probability must be in (0, 1]")
        for rank in ranks:
            if not 0 <= rank < self.base.n:
                raise ValueError(f"rank {rank} out of range")
        self._hot_ranks = list(ranks)
        self._probability = probability

    def clear_hotspot(self) -> None:
        self._hot_ranks = []
        self._probability = 0.0

    def sample(self) -> int:
        if self._hot_ranks and self._rng.random() < self._probability:
            self.hot_draws += 1
            return self._rng.choice(self._hot_ranks)
        return self.base.sample()


class ProductKeyRegistry:
    """Stable popularity ranks over a mutable product population.

    Each rank maps to the currently live product occupying it.  When a
    product is deleted the rank is immediately rebound to a replacement
    drawn from the reserve pool, keeping the key distribution intact.
    When the reserve pool runs dry, deletes are refused (the driver then
    skips the delete and picks another transaction), which bounds the
    experiment instead of distorting it.

    Rank <-> key is arithmetic over the dataset's id layout (seller
    ``s`` owns product ids ``(s-1)*block + 1 .. s*block`` with the
    first ``products_per_seller`` live and the rest reserve); only the
    deviations deletes introduce are stored, so memory is O(deletes)
    no matter how many ranks exist.  Reserve keys are handed out from
    the END of the reserve pool (last seller's last reserve first).
    """

    def __init__(self, sellers: int, products_per_seller: int,
                 reserve_per_seller: int) -> None:
        if min(sellers, products_per_seller, reserve_per_seller) < 1:
            raise ValueError("need >= 1 seller, product and reserve each")
        self._per_seller = products_per_seller
        self._reserve_per_seller = reserve_per_seller
        self._block = products_per_seller + reserve_per_seller
        self._n = sellers * products_per_seller
        #: Index (in id order over all reserve keys) of the next
        #: reserve key to hand out; counts DOWN from the end.
        self._reserve_next = sellers * reserve_per_seller - 1
        self._rebound: dict[int, tuple[int, int]] = {}  # rank -> new key
        self.deletes = 0
        self.refused_deletes = 0

    def __len__(self) -> int:
        return self._n

    def _initial_at(self, rank: int) -> tuple[int, int]:
        seller = rank // self._per_seller + 1
        offset = rank % self._per_seller
        return seller, (seller - 1) * self._block + offset + 1

    def _reserve_key(self, index: int) -> tuple[int, int]:
        seller = index // self._reserve_per_seller + 1
        offset = index % self._reserve_per_seller
        product_id = ((seller - 1) * self._block
                      + self._per_seller + offset + 1)
        return seller, product_id

    def product_at(self, rank: int) -> tuple[int, int]:
        """(seller_id, product_id) currently bound to ``rank``."""
        if not 0 <= rank < self._n:
            raise IndexError(f"rank {rank} out of range")
        rebound = self._rebound.get(rank)
        if rebound is not None:
            return rebound
        return self._initial_at(rank)

    def delete_at(self, rank: int) -> tuple[tuple[int, int],
                                            tuple[int, int]] | None:
        """Delete the product at ``rank``; rebind to a replacement.

        Returns (deleted key, replacement key), or None when no reserve
        product is available (delete refused).
        """
        if self._reserve_next < 0:
            self.refused_deletes += 1
            return None
        deleted = self.product_at(rank)
        replacement = self._reserve_key(self._reserve_next)
        self._reserve_next -= 1
        self._rebound[rank] = replacement
        self.deletes += 1
        return deleted, replacement

    def live_products(self) -> list[tuple[int, int]]:
        """Materialise every live key — O(n); for small-world tests."""
        return [self.product_at(rank) for rank in range(self._n)]
