"""The world model: configuration, dataset, key selection, input leases.

One module for the one model.  Three contracts are load-bearing for
both the small-world payloads and the million-key scaling claim:

* :class:`Dataset` derives every record from ``(seed, kind, id)``, so
  ANY touch order produces identical records and a partially touched
  world agrees with a fully enumerated one.
* :class:`ZipfSampler` is exact wherever its head table reaches (every
  keyspace of at most 4096 ranks) and O(1) in memory beyond it.
* :class:`ProductKeyRegistry` does its rank bookkeeping arithmetically
  in O(deletes) memory; a plain list model is the oracle.
"""

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workload import (
    Dataset,
    InputCoordinator,
    ProductKeyRegistry,
    TransactionMix,
    WorkloadConfig,
    ZipfSampler,
)
from repro.core.workload.dataset import entity_draw

SMALL = dict(sellers=3, customers=8, products_per_seller=4,
             reserve_fraction=0.5)


def small_config(**overrides) -> WorkloadConfig:
    return WorkloadConfig(**{**SMALL, **overrides})


class TestTransactionMix:
    def test_normalised_sums_to_one(self):
        weights = TransactionMix().normalised()
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_custom_weights(self):
        mix = TransactionMix(checkout=50, price_update=50,
                             product_delete=0, update_delivery=0,
                             dashboard=0)
        weights = mix.normalised()
        assert weights["checkout"] == pytest.approx(0.5)
        assert weights["product_delete"] == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="sum to > 0"):
            TransactionMix(checkout=0, price_update=0, product_delete=0,
                           update_delivery=0, dashboard=0)


class TestWorkloadConfig:
    def test_defaults_valid(self):
        config = WorkloadConfig()
        assert config.total_products == \
            config.sellers * config.products_per_seller

    def test_reserve_per_seller_is_at_least_one(self):
        assert WorkloadConfig(products_per_seller=5,
                              reserve_fraction=0.4).reserve_per_seller == 2
        assert WorkloadConfig(products_per_seller=3,
                              reserve_fraction=0.0).reserve_per_seller == 1

    @pytest.mark.parametrize("kwargs", [
        dict(sellers=0),
        dict(customers=0),
        dict(products_per_seller=0),
        dict(customers=float("nan")),
        dict(duplicate_submit_probability=float("inf")),
        dict(products_per_seller=0.5),
        dict(zipf_s=-0.1),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadConfig(**kwargs)


# ---------------------------------------------------------------------------
# Dataset: enumeration, touch-order independence, id layout
# ---------------------------------------------------------------------------

class TestDataset:
    def test_counts_match_config(self):
        config = WorkloadConfig(sellers=4, customers=10,
                                products_per_seller=5,
                                reserve_fraction=0.4)
        dataset = Dataset(config, seed=1)
        assert len(dataset.sellers) == 4
        assert len(dataset.customers) == 10
        assert len(dataset.products) == 20
        assert len(dataset.reserve_products) == 4 * 2  # 40% of 5
        assert len(dataset.stock) == 20 + 8
        assert dataset.size == 4 + 10 + 20 + 8

    def test_id_layout(self):
        """Globally sequential product ids in per-seller blocks: the
        first P of a block are live, the trailing R reserve."""
        dataset = Dataset(small_config(), seed=9)  # P=4, R=2
        assert list(dataset.seller_ids) == [1, 2, 3]
        assert list(dataset.customer_ids) == list(range(1, 9))
        assert [p.key for p in dataset.products] == [
            "1/1", "1/2", "1/3", "1/4", "2/7", "2/8", "2/9", "2/10",
            "3/13", "3/14", "3/15", "3/16"]
        assert [p.key for p in dataset.reserve_products] == [
            "1/5", "1/6", "2/11", "2/12", "3/17", "3/18"]
        assert dataset.products[4].name == "product-7"
        assert dataset.sellers[2].name == "seller-3"
        assert dataset.customers[0].name == "customer-1"
        assert list(dataset.stock) == [
            p.key for p in dataset.products + dataset.reserve_products]
        ids = [p.product_id
               for p in dataset.products + dataset.reserve_products]
        assert sorted(ids) == list(range(1, 19))

    def test_every_product_has_stock(self, workload_constants):
        workload_constants(INITIAL_STOCK=55)
        config = WorkloadConfig(sellers=3, products_per_seller=4)
        dataset = Dataset(config, seed=3)
        for product in dataset.products + dataset.reserve_products:
            assert dataset.stock[product.key].qty_available == 55

    def test_deterministic_for_seed(self):
        config = WorkloadConfig()
        first = Dataset(config, seed=9)
        second = Dataset(config, seed=9)
        assert [p.as_dict() for p in first.products] == \
            [p.as_dict() for p in second.products]

    def test_different_seeds_differ(self):
        config = WorkloadConfig()
        first = Dataset(config, seed=9)
        second = Dataset(config, seed=10)
        assert [p.price_cents for p in first.products] != \
            [p.price_cents for p in second.products]

    def test_prices_within_configured_range(self, workload_constants):
        workload_constants(PRICE_CENTS=(500, 600))
        dataset = Dataset(WorkloadConfig(), seed=4)
        prices = {product.price_cents
                  for product in dataset.products + dataset.reserve_products}
        assert all(500 <= price <= 600 for price in prices)
        assert len(prices) > 1

    def _touches(self, config: WorkloadConfig) -> list[tuple]:
        dataset = Dataset(config)
        touches = [("seller", i) for i in dataset.seller_ids]
        touches += [("customer", i) for i in dataset.customer_ids]
        touches += [("product", p.seller_id, p.product_id)
                    for p in dataset.products + dataset.reserve_products]
        return touches

    def _touch(self, dataset: Dataset, touch: tuple):
        if touch[0] == "seller":
            return dataset.seller(touch[1])
        if touch[0] == "customer":
            return dataset.customer(touch[1])
        return (dataset.product(touch[1], touch[2]),
                dataset.stock_item(touch[1], touch[2]))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
    def test_touch_order_independent(self, data, seed):
        config = small_config()
        touches = self._touches(config)
        order = data.draw(st.permutations(touches))
        shuffled = Dataset(config, seed=seed)
        sequential = Dataset(config, seed=seed)
        by_touch = {touch: self._touch(shuffled, touch)
                    for touch in order}
        for touch in touches:
            assert by_touch[touch] == self._touch(sequential, touch)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_partial_touches_agree_with_enumeration(self, seed):
        config = small_config()
        touched = Dataset(config, seed=seed)
        # Touch a few records first, in a scattered order ...
        early_product = touched.product(2, 7)
        early_seller = touched.seller(3)
        # ... then enumerate a fresh world and check the early touches
        # are the records the enumeration produces.
        fresh = Dataset(config, seed=seed)
        assert early_product == fresh.product(2, 7)
        assert early_seller == fresh.sellers[2]
        # And the full worlds agree record for record.
        for view in ("sellers", "customers", "products",
                     "reserve_products", "stock"):
            assert getattr(touched, view) == getattr(fresh, view)
        # Enumeration hands out the memoised records, not copies.
        assert touched.products[4] is early_product

    def test_out_of_range_touches_raise(self):
        dataset = Dataset(small_config(), seed=1)  # blocks of 6 ids
        for call in (lambda: dataset.seller(0), lambda: dataset.seller(4),
                     lambda: dataset.customer(9),
                     lambda: dataset.product(1, 7),
                     lambda: dataset.stock_item(4, 1)):
            with pytest.raises(KeyError):
                call()

    def test_summary_tracks_touched_set(self):
        dataset = Dataset(small_config(), seed=1)
        assert dataset.summary()["touched_products"] == 0
        dataset.product(1, 1)
        dataset.seller(2)
        summary = dataset.summary()
        assert summary["touched_products"] == 1
        assert summary["touched_sellers"] == 1
        assert summary["products"] == 12
        assert summary["reserve_products"] == 6
        assert summary["stock_items"] == 18
        assert summary["customers"] == 8

    def test_a_million_key_world_costs_nothing_until_touched(self):
        dataset = Dataset(WorkloadConfig(
            sellers=1000, products_per_seller=1000, customers=100_000))
        assert dataset.size == 1000 + 100_000 + 1_250_000
        assert dataset.product(1000, 999 * 1250 + 1000).name == \
            "product-1249750"
        assert dataset.summary()["touched_products"] == 1
        assert len(dataset.customer_ids) == 100_000

    def test_entity_draw_is_stable_and_distinct(self):
        assert entity_draw(1, "product", "2/7") == \
            entity_draw(1, "product", "2/7")
        assert entity_draw(1, "product", "2/7") != \
            entity_draw(2, "product", "2/7")
        assert entity_draw(1, "product", "2/7") != \
            entity_draw(1, "seller", "2/7")
        # A pinned value: the derivation is part of the golden baseline
        # and must not depend on the process (PYTHONHASHSEED).
        assert entity_draw(5, "product", "1/1") == 0x36AA6FD6A8DA7C5B


# ---------------------------------------------------------------------------
# Zipf sampling: exact head, O(1) tail
# ---------------------------------------------------------------------------

def zipf_pmf(n: int, s: float) -> list[float]:
    """The closed form: 1/(r+1)^s / H_n."""
    weights = [(rank + 1) ** -s for rank in range(n)]
    total = sum(weights)
    return [weight / total for weight in weights]


class TestZipfSampler:
    def test_uniform_when_s_zero(self):
        rng = random.Random(1)
        sampler = ZipfSampler(10, 0.0, rng)
        counts = [0] * 10
        for _ in range(10_000):
            counts[sampler.sample()] += 1
        assert max(counts) < 2 * min(counts)

    def test_skewed_prefers_low_ranks(self):
        rng = random.Random(1)
        sampler = ZipfSampler(100, 1.2, rng)
        counts = [0] * 100
        for _ in range(20_000):
            counts[sampler.sample()] += 1
        assert counts[0] > counts[10] > counts[50]

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(20, 0.9, random.Random(1))
        total = sum(sampler.probability(rank) for rank in range(20))
        assert total == pytest.approx(1.0)

    def test_samples_within_range(self):
        sampler = ZipfSampler(5, 2.0, random.Random(3))
        for _ in range(1000):
            assert 0 <= sampler.sample() < 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, random.Random(1))
        with pytest.raises(ValueError):
            ZipfSampler(5, -1.0, random.Random(1))
        with pytest.raises(IndexError):
            ZipfSampler(5, 1.0, random.Random(1)).probability(5)

    @pytest.mark.parametrize("n", [1, 48, 100, 4096])
    @pytest.mark.parametrize("s", [0.0, 0.8, 1.0, 1.3])
    def test_pmf_is_exact_within_the_head_table(self, n, s):
        sampler = ZipfSampler(n, s, random.Random(1))
        for rank, expected in enumerate(zipf_pmf(n, s)):
            assert abs(sampler.probability(rank) - expected) < 1e-12

    @pytest.mark.parametrize("n,s", [(48, 1.0), (100, 0.8), (4096, 0.9)])
    def test_draws_are_inverse_transform_within_the_head_table(self, n, s):
        """Same uniform in, same rank out as bisecting the exact CDF."""
        cdf, cumulative = [], 0.0
        for mass in zipf_pmf(n, s):
            cumulative += mass
            cdf.append(cumulative)
        cdf[-1] = 1.0
        sampler = ZipfSampler(n, s, random.Random(5))
        oracle = random.Random(5)
        for _ in range(5000):
            assert sampler.sample() == bisect.bisect_left(
                cdf, oracle.random())

    def test_samples_in_range_at_scale(self):
        n = 1_000_000
        for s in (0.5, 0.8, 1.0, 1.3):
            sampler = ZipfSampler(n, s, random.Random(7))
            ranks = [sampler.sample() for _ in range(2000)]
            assert all(0 <= rank < n for rank in ranks)
            # The tail beyond the head table is reachable ...
            assert any(rank >= 4096 for rank in ranks)
            # ... and the head is over-represented by roughly its pmf
            # mass (under uniform the top-100 share would be 1e-4).
            head_share = sum(rank < 100 for rank in ranks) / len(ranks)
            expected = sum(sampler.probability(rank) for rank in range(100))
            assert expected > 100 / n * 10
            assert abs(head_share - expected) < 0.05

    def test_pmf_beyond_the_head_table_tracks_the_closed_form(self):
        """probability(rank) stays within 1e-6 relative error of the
        exact normalised Zipf pmf when the tail is approximated."""
        n, s = 100_000, 0.8
        sampler = ZipfSampler(n, s, random.Random(1))
        exact = zipf_pmf(n, s)
        for rank in (0, 1, 4095, 4096, 50_000, 99_999):
            assert abs(sampler.probability(rank) - exact[rank]) \
                / exact[rank] < 1e-6

    def test_tail_draws_follow_the_pmf(self):
        """Empirical mass of rank bands on both sides of the head
        table's edge matches the closed form."""
        n, s, draws = 20_000, 0.8, 40_000
        sampler = ZipfSampler(n, s, random.Random(3))
        exact = zipf_pmf(n, s)
        ranks = [sampler.sample() for _ in range(draws)]
        for lo, hi in ((0, 1), (2048, 4096), (4096, 8192), (8192, n)):
            observed = sum(lo <= rank < hi for rank in ranks) / draws
            assert abs(observed - sum(exact[lo:hi])) < 0.01


# ---------------------------------------------------------------------------
# ProductKeyRegistry against a list model
# ---------------------------------------------------------------------------

class ListRegistry:
    """The obvious O(n) model: one key per rank, reserves popped off
    the end of a list built in id order."""

    def __init__(self, dataset: Dataset) -> None:
        def keys(products):
            return [(p.seller_id, p.product_id) for p in products]
        self.by_rank = keys(dataset.products)
        self.reserve = keys(dataset.reserve_products)
        self.refused = 0

    def delete_at(self, rank):
        if not self.reserve:
            self.refused += 1
            return None
        deleted, self.by_rank[rank] = self.by_rank[rank], self.reserve.pop()
        return deleted, self.by_rank[rank]


class TestProductKeyRegistry:
    def make(self):
        # One seller: live (1, 1)..(1, 5), reserve (1, 6)..(1, 8).
        return ProductKeyRegistry(1, 5, 3)

    def test_rank_lookup(self):
        registry = self.make()
        assert registry.product_at(0) == (1, 1)
        assert registry.product_at(2) == (1, 3)
        with pytest.raises(IndexError):
            registry.product_at(5)

    def test_delete_rebinds_rank_to_reserve(self):
        registry = self.make()
        outcome = registry.delete_at(0)
        assert outcome is not None
        deleted, replacement = outcome
        assert deleted == (1, 1)
        assert replacement == (1, 8)  # reserves are taken from the end
        assert registry.product_at(0) == (1, 8)
        assert (1, 1) not in registry.live_products()

    def test_population_size_invariant_under_deletes(self):
        registry = self.make()
        for _ in range(3):
            registry.delete_at(1)
        assert len(registry) == 5
        assert len(set(registry.live_products())) == 5

    def test_delete_refused_when_reserve_empty(self):
        registry = self.make()
        for _ in range(3):
            assert registry.delete_at(0) is not None
        assert registry.delete_at(0) is None
        assert registry.refused_deletes == 1
        assert registry.deletes == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductKeyRegistry(1, 1, 0)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_delete_sequences_match_the_list_model(self, data):
        config = small_config()
        registry = ProductKeyRegistry(
            config.sellers, config.products_per_seller,
            config.reserve_per_seller)
        model = ListRegistry(Dataset(config))
        ranks = len(model.by_rank)
        assert len(registry) == ranks
        assert registry.live_products() == model.by_rank
        # Delete more than the reserve can cover so refusals happen too.
        deletes = data.draw(st.lists(
            st.integers(min_value=0, max_value=ranks - 1),
            min_size=1, max_size=ranks))
        gone = set()
        for rank in deletes:
            outcome = model.delete_at(rank)
            assert registry.delete_at(rank) == outcome
            if outcome is not None:
                gone.add(outcome[0])
        assert registry.deletes == len(gone)
        assert registry.refused_deletes == model.refused
        assert registry.live_products() == model.by_rank
        assert not gone & set(registry.live_products())

    def test_memory_is_o_deletes(self):
        """A million-rank registry costs nothing until deletes happen."""
        registry = ProductKeyRegistry(1000, 1000, 100)
        assert len(registry) == 1_000_000
        # Product ids are globally sequential per-seller blocks of
        # 1000 live + 100 reserve, the dataset's layout.
        assert registry.product_at(0) == (1, 1)
        assert registry.product_at(999_999) == (1000, 999 * 1100 + 1000)
        before = len(registry._rebound)
        registry.delete_at(123_456)
        assert len(registry._rebound) == before + 1


class TestInputCoordinator:
    def make(self):
        registry = ProductKeyRegistry(1, 5, 1)
        sampler = ZipfSampler(5, 0.5, random.Random(7))
        return InputCoordinator([1, 2, 3], registry, sampler,
                                random.Random(8))

    def test_lease_customer_exclusive(self):
        coordinator = self.make()
        leased = set()
        for _ in range(3):
            customer = coordinator.lease_customer()
            assert customer is not None
            assert customer not in leased
            leased.add(customer)
        assert coordinator.lease_customer() is None

    def test_release_customer_allows_release(self):
        coordinator = self.make()
        customer = coordinator.lease_customer()
        coordinator.release_customer(customer)
        assert coordinator.lease_customer() is not None

    def test_lease_product_exclusive(self):
        coordinator = self.make()
        seen = set()
        for _ in range(5):
            lease = coordinator.lease_product(attempts=50)
            if lease is None:
                break
            rank, key = lease
            assert key not in seen
            seen.add(key)
        assert len(seen) >= 2

    def test_release_product(self):
        coordinator = self.make()
        rank, key = coordinator.lease_product(attempts=50)
        coordinator.release_product(key)
        # Can lease the same key again.
        for _ in range(100):
            lease = coordinator.lease_product(attempts=50)
            if lease and lease[1] == key:
                break
            if lease:
                coordinator.release_product(lease[1])
        else:
            pytest.fail("released product never leasable again")

    def test_sample_product_returns_live_keys(self):
        coordinator = self.make()
        for _ in range(50):
            key = coordinator.sample_product()
            assert key in [(1, i) for i in range(1, 6)]

    def test_customer_ids_may_be_a_range(self):
        registry = ProductKeyRegistry(1, 1, 1)
        sampler = ZipfSampler(1, 0.0, random.Random(1))
        coordinator = InputCoordinator(range(1, 100_001), registry,
                                       sampler, random.Random(1))
        assert 1 <= coordinator.lease_customer() <= 100_000

    def test_empty_customer_list_rejected(self):
        registry = ProductKeyRegistry(1, 1, 1)
        sampler = ZipfSampler(1, 0.0, random.Random(1))
        with pytest.raises(ValueError):
            InputCoordinator([], registry, sampler, random.Random(1))
