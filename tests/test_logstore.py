"""Unit tests for the append-only audit log storage."""

import pytest

from repro.apps.logstore import AuditLogStore
from repro.runtime import Environment


def make_log(latency=0.001):
    env = Environment()
    return env, AuditLogStore(env, write_latency=latency)


def test_append_is_asynchronous():
    env, log = make_log(latency=0.5)
    log.append_async("checkout", "o1", {"total": 100})
    assert len(log) == 0
    assert log.pending == 1
    env.run()
    assert len(log) == 1
    assert log.pending == 0


def test_records_carry_metadata():
    env, log = make_log()
    log.append_async("checkout", "o1", {"total": 100})
    env.run()
    record = log.all()[0]
    assert record.operation == "checkout"
    assert record.subject == "o1"
    assert record.payload == {"total": 100}
    assert record.time == 0.001


def test_sequence_is_monotonic():
    env, log = make_log()
    for index in range(5):
        log.append_async("op", f"s{index}")
    env.run()
    sequences = [record.sequence for record in log.all()]
    assert sequences == sorted(sequences)
    assert len(set(sequences)) == 5


def test_query_by_operation_and_subject():
    env, log = make_log()
    log.append_async("checkout", "o1")
    log.append_async("checkout", "o2")
    log.append_async("update_price", "1/1")
    env.run()
    assert len(log.by_operation("checkout")) == 2
    assert len(log.by_subject("o1")) == 1
    assert log.by_subject("missing") == []


def test_query_between_times():
    env, log = make_log(latency=0.0)

    def scenario():
        log.append_async("a", "x")
        yield env.timeout(1.0)
        log.append_async("b", "y")
        yield env.timeout(1.0)
        log.append_async("c", "z")

    env.process(scenario())
    env.run()
    middle = log.between(0.5, 1.5)
    assert [record.operation for record in middle] == ["b"]
    with pytest.raises(ValueError):
        log.between(2.0, 1.0)


def test_tail():
    env, log = make_log()
    for index in range(5):
        log.append_async("op", f"s{index}")
    env.run()
    assert [record.subject for record in log.tail(2)] == ["s3", "s4"]
    assert log.tail(0) == []
    with pytest.raises(ValueError):
        log.tail(-1)


def test_customized_app_populates_audit_log():
    from repro.apps import ALL_APPS, AppConfig
    from repro.core import Dataset, WorkloadConfig
    from repro.marketplace.constants import PaymentMethod

    env = Environment(seed=3)
    app = ALL_APPS["customized-orleans"](
        env, AppConfig(silos=1, cores_per_silo=2))
    app.ingest(Dataset(
        WorkloadConfig(sellers=2, customers=5, products_per_seller=3),
        seed=3))

    def scenario():
        yield from app.add_item(1, 1, 1, 1)
        yield from app.checkout(1, "o-1", PaymentMethod.CREDIT_CARD)
        yield from app.update_price(1, 1, 777)
        yield from app.update_delivery()

    process = env.process(scenario())
    env.run(until=process)
    env.run(until=env.now + 0.5)
    operations = {record.operation for record in app.audit_log.all()}
    assert operations == {"checkout", "update_price", "update_delivery"}
    assert app.audit_log.by_subject("o-1")[0].payload["customer_id"] == 1
    assert app.runtime_stats()["audit_records"] == 3
