"""Unit tests for the append-only audit log storage."""

from repro.apps.logstore import AUDIT_WRITE_LATENCY, AuditLogStore
from repro.runtime import Environment


def make_log():
    env = Environment()
    return env, AuditLogStore(env)


def test_append_is_asynchronous():
    env, log = make_log()
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
    record = log.records[0]
    assert record.operation == "checkout"
    assert record.subject == "o1"
    assert record.payload == {"total": 100}
    assert record.time == AUDIT_WRITE_LATENCY


def test_sequence_is_monotonic():
    env, log = make_log()
    for index in range(5):
        log.append_async("op", f"s{index}")
    env.run()
    sequences = [record.sequence for record in log.records]
    assert sequences == sorted(sequences)
    assert len(set(sequences)) == 5


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
    records = app.audit_log.records
    operations = {record.operation for record in records}
    assert operations == {"checkout", "update_price", "update_delivery"}
    (checkout,) = [record for record in records if record.subject == "o-1"]
    assert checkout.payload["customer_id"] == 1
    assert app.runtime_stats()["audit_records"] == 3
