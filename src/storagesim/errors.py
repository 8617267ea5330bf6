"""Exception types shared across the simulator."""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulator errors."""


class TopologyValidationError(SimError):
    """Raised when a cluster topology violates one or more invariants.

    Carries every violation found, not just the first one.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


class NoCandidateHostError(SimError):
    """All hosts were eliminated by the scheduler filters."""


class InsufficientCapacityError(SimError):
    """Target host lacks free vcpus, RAM, or disk space."""


class MigrationDisabledError(SimError):
    """The VM's spec forbids migration (Hadoop VMs are pinned)."""


class VmNotFoundError(SimError):
    """No running VM with the given id."""


class InsufficientSpaceError(SimError):
    """No backing device has enough free capacity for the volume."""


class NoLocalPersistentGroupError(SimError):
    """Host has no local-persistent partition group to attach from."""


class VolumeNotAttachedError(SimError):
    """Volume is not attached to the given VM."""


class InsufficientVmsError(SimError):
    """Fewer DFS member VMs than the requested replication factor."""


class NoFreeSlotsError(SimError):
    """No VM has a free map-task slot."""


class EmptyStatsError(SimError):
    """Benchmark metrics are undefined over an empty task list."""


class UnknownResourceError(SimError):
    """A flow path references a resource id with no known capacity."""


class SimulationStalledError(SimError):
    """Active flows exist but none can make progress (zero rates)."""


class ScenarioParseError(SimError):
    """Scenario file could not be parsed; message carries line/field info."""


class ScenarioValidationError(SimError):
    """Scenario parsed but its contents are inconsistent."""
