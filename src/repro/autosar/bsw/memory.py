"""Static memory management.

Classical AUTOSAR BSW offers no dynamic heap; memory is carved into
statically configured fixed-size block pools.  The plug-in SW-C's VM is
"assigned its own memory" (paper Sec. 3.1.1), which it sub-allocates to
plug-ins — modelled here as a dedicated :class:`MemoryPool` charged per
installed binary and per VM instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryPoolError


@dataclass(frozen=True)
class Allocation:
    """A granted allocation: opaque handle plus its footprint."""

    pool: str
    handle: int
    blocks: int
    requested_bytes: int


class MemoryPool:
    """Fixed-size block allocator with exhaustion semantics."""

    def __init__(self, name: str, block_size: int, block_count: int) -> None:
        if block_size <= 0 or block_count <= 0:
            raise MemoryPoolError(
                f"pool {name}: block size and count must be positive"
            )
        self.name = name
        self.block_size = block_size
        self.block_count = block_count
        self._free = block_count
        self._next_handle = 1
        self._live: dict[int, Allocation] = {}
        self.peak_used = 0
        self.failed_allocations = 0

    @property
    def free_blocks(self) -> int:
        return self._free

    @property
    def used_blocks(self) -> int:
        return self.block_count - self._free

    def blocks_for(self, size_bytes: int) -> int:
        """Blocks needed to hold ``size_bytes``."""
        if size_bytes < 0:
            raise MemoryPoolError(f"negative allocation size {size_bytes}")
        return max(1, -(-size_bytes // self.block_size))

    def can_allocate(self, size_bytes: int) -> bool:
        """Whether an allocation of ``size_bytes`` would succeed."""
        return self.blocks_for(size_bytes) <= self._free

    def allocate(self, size_bytes: int) -> Allocation:
        """Allocate blocks for ``size_bytes``; raises on exhaustion."""
        blocks = self.blocks_for(size_bytes)
        if blocks > self._free:
            self.failed_allocations += 1
            raise MemoryPoolError(
                f"pool {self.name} exhausted: need {blocks} blocks, "
                f"{self._free} free"
            )
        self._free -= blocks
        allocation = Allocation(self.name, self._next_handle, blocks, size_bytes)
        self._next_handle += 1
        self._live[allocation.handle] = allocation
        self.peak_used = max(self.peak_used, self.used_blocks)
        return allocation

    def release(self, allocation: Allocation) -> None:
        """Return an allocation's blocks to the pool."""
        if allocation.pool != self.name:
            raise MemoryPoolError(
                f"allocation belongs to pool {allocation.pool}, "
                f"not {self.name}"
            )
        if allocation.handle not in self._live:
            raise MemoryPoolError(
                f"double free or foreign handle {allocation.handle} "
                f"in pool {self.name}"
            )
        del self._live[allocation.handle]
        self._free += allocation.blocks

    def live_allocations(self) -> list[Allocation]:
        """Currently outstanding allocations."""
        return list(self._live.values())


__all__ = ["Allocation", "MemoryPool"]
