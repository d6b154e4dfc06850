"""The one description of a deployment: :class:`AppConfig`.

Every app, and every runtime under it (``Cluster``, ``StatefunRuntime``,
``TransactionRunner``), reads its settings from the one ``AppConfig``
the app was built with, and its costs from ``config.costs``.  A value
no caller varies is a module constant beside its code (delivery
attempts and failure detection in ``actors/cluster.py``, ring virtual
nodes in ``actors/placement.py``, retry backoff in
``txn/coordinator.py``); a test that needs another value monkeypatches
the constant.
"""

from __future__ import annotations

import dataclasses

from repro.costs import CostModel


@dataclasses.dataclass
class AppConfig:
    """Deployment knobs shared by all implementations."""

    #: Orleans silos; statefun partitions.
    silos: int = 4
    #: Orleans stacks only: a statefun partition serves one message at
    #: a time whatever this says.
    cores_per_silo: int = 4
    #: Message-loss probability (exercised by the anomaly experiments;
    #: the eventual stack does not recover from a lost message).
    drop_probability: float = 0.0
    #: Payment approval rate (deterministic per order id).
    approval_rate: float = 1.0
    #: Every simulated latency, CPU charge and pause (see
    #: :mod:`repro.costs`); its ``replication_lag`` drives both the
    #: eventual stack's broker and the customized stack's KV replicas.
    costs: CostModel = dataclasses.field(default_factory=CostModel)
    #: Checkpoint interval (statefun app only; 0 disables).
    checkpoint_interval: float = 0.5
    #: Working-set budget: max resident grain activations per silo
    #: (statefun: max resident addresses per worker).  None = unbounded,
    #: the historical behaviour.  Under a budget, least-recently-used
    #: quiet grains page their state out and deactivate; re-activation
    #: reads it back (see ``actors/cluster.py``).
    activation_limit: int | None = None
    #: 2PC stacks only, the ablation switches of bench A1: with False,
    #: every lock is granted at once / commit skips the prepare round.
    enable_locking: bool = True
    enable_two_phase_commit: bool = True

    def __post_init__(self) -> None:
        # Checked once, here: nothing downstream looks again.  Every
        # rule is a comparison that NaN fails.
        limit = self.activation_limit
        rules = [(name, ">= 1", getattr(self, name) >= 1)
                 for name in ("silos", "cores_per_silo")]
        rules += [(name, "in [0, 1]", 0.0 <= getattr(self, name) <= 1.0)
                  for name in ("drop_probability", "approval_rate")]
        rules += [("checkpoint_interval", ">= 0",
                   self.checkpoint_interval >= 0),
                  ("activation_limit", ">= 1 or None",
                   limit is None or limit >= 1)]
        for name, rule, holds in rules:
            if not holds:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)}")
