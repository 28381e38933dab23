"""Fault models and retry policies for the reconfigurable fabric.

Real partial reconfiguration is not perfect: bitstream writes through the
SelectMap/ICAP port fail transiently (CRC errors, configuration-clock
glitches) and the reconfigurable regions themselves wear out — an Atom
Container can die permanently after enough reconfiguration cycles.  The
paper's robustness guarantee is that an SI remains *executable* through
all of this, because the base-ISA trap path never depends on the fabric.

This module supplies the *decision* side of that story:

* :class:`FaultModel` — a deterministic, seed-driven oracle the
  :class:`~repro.fabric.reconfig.ReconfigPort` consults whenever a load
  is about to complete.  It answers "did this write succeed?", and if
  not, whether the failure is :attr:`LoadFault.TRANSIENT` (the bitstream
  is garbage, the container survives) or :attr:`LoadFault.PERMANENT`
  (the container itself is dead).
* :class:`RetryPolicy` — how the port reacts to transient failures:
  how often to retry one load and how long to back off between attempts
  (expressed in reconfiguration cycles, the port's natural time unit).

All models are deterministic under a fixed seed: the port drives them
strictly in load-completion order, so a simulation with the same
workload, scheduler and fault seed reproduces bit-for-bit.
"""

from __future__ import annotations

import enum
import random
from abc import ABC, abstractmethod
from typing import Dict, Optional

from ..errors import FabricError

__all__ = [
    "LoadFault",
    "FaultModel",
    "NoFaults",
    "BernoulliLoadFaults",
    "ContainerWearFaults",
    "RetryPolicy",
    "backoff_delay",
]


def backoff_delay(
    base: float,
    factor: float,
    failures: int,
    jitter: float = 0.0,
    rng: Optional[random.Random] = None,
) -> float:
    """Exponential backoff with optional seeded jitter.

    The delay before the retry after failure number ``failures``
    (1-based) is ``base * factor**(failures - 1)``, stretched by up to
    ``jitter`` (a fraction in ``[0, 1]``) drawn from ``rng``.  The RNG
    is the *caller's* — always an explicitly seeded
    :class:`random.Random`, never module-level entropy — so a retried
    run replays the identical delay schedule.  Both the fabric's
    :class:`RetryPolicy` (delays in reconfiguration cycles) and the
    sweep supervisor (:mod:`repro.exec.supervise`, delays in seconds)
    compute their backoff through this one helper.
    """
    if failures <= 0:
        return 0.0
    delay = base * factor ** (failures - 1)
    if jitter > 0.0 and rng is not None:
        delay += delay * jitter * rng.random()
    return delay


class LoadFault(enum.Enum):
    """Outcome classification of a failed atom load."""

    #: The bitstream write failed but the container is healthy; a retry
    #: of the same load can succeed.
    TRANSIENT = "transient"
    #: The Atom Container itself is broken; no future load into it can
    #: succeed and the fabric must shrink its usable-AC count.
    PERMANENT = "permanent"


class FaultModel(ABC):
    """Oracle deciding the fate of each completing atom load.

    The reconfiguration port calls :meth:`check_load` exactly once per
    load completion (including retries), in strict simulation-time
    order.  Implementations must be deterministic functions of their
    constructor arguments and the call sequence, so that
    :meth:`reset` restores bit-for-bit reproducibility across runs.
    """

    name: str = "abstract"

    @abstractmethod
    def check_load(
        self, atom_type: str, container_index: int, cycle: int
    ) -> Optional[LoadFault]:
        """Fault verdict for one completing load, or ``None`` on success."""

    def reset(self) -> None:
        """Restore the initial state (start of a fresh run)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoFaults(FaultModel):
    """The perfect fabric: every load succeeds (the default)."""

    name = "none"

    def check_load(
        self, atom_type: str, container_index: int, cycle: int
    ) -> Optional[LoadFault]:
        return None


class BernoulliLoadFaults(FaultModel):
    """Independent transient failure of each load with probability ``rate``.

    Models CRC/SelectMap bit errors: each completing bitstream write
    fails with the given probability, independently of history.  The
    container survives; the port may retry under its
    :class:`RetryPolicy`.

    Parameters
    ----------
    rate:
        Per-load failure probability in ``[0, 1]``.
    seed:
        Seed of the private RNG; fixes the exact failure schedule.
    """

    name = "bernoulli"

    def __init__(self, rate: float, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise FabricError(
                f"fault rate must be within [0, 1], got {rate!r}"
            )
        self.rate = float(rate)
        self.seed = int(seed)
        #: Seeded on the first draw: a run that never draws never pays
        #: for seeding, and the stream is the same.
        self._rng: Optional[random.Random] = None

    def check_load(
        self, atom_type: str, container_index: int, cycle: int
    ) -> Optional[LoadFault]:
        if self.rate == 0.0:
            return None
        if self.rate >= 1.0:
            return LoadFault.TRANSIENT
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.seed)
        if rng.random() < self.rate:
            return LoadFault.TRANSIENT
        return None

    def reset(self) -> None:
        self._rng = None

    def __repr__(self) -> str:
        return (
            f"BernoulliLoadFaults(rate={self.rate}, seed={self.seed})"
        )


class ContainerWearFaults(FaultModel):
    """Permanent Atom-Container death after a fixed number of load cycles.

    Every completed write into a container ages it by one load cycle;
    the write that exceeds ``lifetime_loads`` fails with
    :attr:`LoadFault.PERMANENT` and the container is marked dead.  With
    ``lifetime_loads=0`` every container dies on its very first load —
    the all-ACs-dead chaos scenario.

    Parameters
    ----------
    lifetime_loads:
        How many loads a container survives (>= 0).
    """

    name = "wear"

    def __init__(self, lifetime_loads: int):
        if lifetime_loads < 0:
            raise FabricError(
                f"container lifetime must be >= 0, got {lifetime_loads!r}"
            )
        self.lifetime_loads = int(lifetime_loads)
        self._wear: Dict[int, int] = {}

    def wear_of(self, container_index: int) -> int:
        """Accumulated load cycles of one container (diagnostics)."""
        return self._wear.get(container_index, 0)

    def check_load(
        self, atom_type: str, container_index: int, cycle: int
    ) -> Optional[LoadFault]:
        wear = self._wear.get(container_index, 0) + 1
        self._wear[container_index] = wear
        if wear > self.lifetime_loads:
            return LoadFault.PERMANENT
        return None

    def reset(self) -> None:
        self._wear.clear()

    def __repr__(self) -> str:
        return f"ContainerWearFaults(lifetime_loads={self.lifetime_loads})"


class RetryPolicy:
    """How the reconfiguration port reacts to transient load failures.

    A failed load may be re-attempted up to ``max_retries`` times; the
    ``k``-th retry is delayed by ``backoff_cycles * backoff_factor**(k-1)``
    reconfiguration cycles (exponential backoff — a real configuration
    controller re-arms the SelectMap interface before rewriting).  When
    the retry budget is exhausted the load is *abandoned*: the affected
    SIs simply keep executing through the base-ISA trap path
    (``on_exhausted="software"``, the graceful default), or, for strict
    test setups, a :class:`~repro.errors.TransientLoadError` is raised
    (``on_exhausted="raise"``).

    Parameters
    ----------
    max_retries:
        Additional attempts after the first failure (0 = never retry).
    backoff_cycles:
        Base delay before the first retry, in cycles.
    backoff_factor:
        Multiplicative growth of the delay per further retry (>= 1).
    on_exhausted:
        ``"software"`` (degrade gracefully) or ``"raise"`` (fail fast).
    jitter:
        Fraction in ``[0, 1]`` by which each backoff delay may be
        stretched (0 = the exact exponential schedule).  Jitter is drawn
        from a *private* RNG seeded by ``seed`` — never from the shared
        module-level generator — so retried fault runs stay
        bit-reproducible (RL001).
    seed:
        Seed of the jitter RNG; :meth:`reset` replays the identical
        jitter schedule for a fresh run.
    """

    def __init__(
        self,
        max_retries: int = 3,
        backoff_cycles: int = 0,
        backoff_factor: float = 2.0,
        on_exhausted: str = "software",
        jitter: float = 0.0,
        seed: int = 0,
    ):
        if max_retries < 0:
            raise FabricError(
                f"max_retries must be >= 0, got {max_retries!r}"
            )
        if backoff_cycles < 0:
            raise FabricError(
                f"backoff_cycles must be >= 0, got {backoff_cycles!r}"
            )
        if backoff_factor < 1.0:
            raise FabricError(
                f"backoff_factor must be >= 1, got {backoff_factor!r}"
            )
        if on_exhausted not in ("software", "raise"):
            raise FabricError(
                f"on_exhausted must be 'software' or 'raise', "
                f"got {on_exhausted!r}"
            )
        if not 0.0 <= jitter <= 1.0:
            raise FabricError(
                f"jitter must be within [0, 1], got {jitter!r}"
            )
        self.max_retries = int(max_retries)
        self.backoff_cycles = int(backoff_cycles)
        self.backoff_factor = float(backoff_factor)
        self.on_exhausted = on_exhausted
        self.jitter = float(jitter)
        self.seed = int(seed)
        #: Seeded on the first jitter draw: a run without jitter (or
        #: without a retry) never pays for seeding.
        self._rng: Optional[random.Random] = None

    def allows_retry(self, failures: int) -> bool:
        """May a load that failed ``failures`` times be re-attempted?"""
        return failures <= self.max_retries

    def delay(self, failures: int) -> int:
        """Backoff (in cycles) before the retry after failure number
        ``failures`` (1-based)."""
        rng = self._rng
        if rng is None and self.jitter > 0.0:
            rng = self._rng = random.Random(self.seed)
        return int(
            backoff_delay(
                self.backoff_cycles,
                self.backoff_factor,
                failures,
                jitter=self.jitter,
                rng=rng,
            )
        )

    def reset(self) -> None:
        """Restore the initial jitter schedule (start of a fresh run)."""
        self._rng = None

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_retries={self.max_retries}, "
            f"backoff_cycles={self.backoff_cycles}, "
            f"backoff_factor={self.backoff_factor}, "
            f"on_exhausted={self.on_exhausted!r}, "
            f"jitter={self.jitter}, seed={self.seed})"
        )
