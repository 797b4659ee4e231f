"""Operation counters backing the library's structural assertions.

The counters are plain integers on a module-level singleton; hot paths
increment them once per batch, not once per word, so they are always on.
Tests snapshot before/after an operation and assert on the delta.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class Counters:
    row_adds: int = 0           # row-level XOR additions, batched ops count rows
    table_adds: int = 0         # row additions spent building combination tables
    c_writes: int = 0           # destination-row updates during M4RM products
    strassen_entries: int = 0   # entries into the recursive multiply
    strassen_products: int = 0  # quadrant products dispatched by the schedule
    quadrant_adds: int = 0      # quadrant-level additions inside the schedule
    temp_quadrants: int = 0     # scratch quadrant buffers allocated for recursion
    words_allocated: int = 0    # cumulative 64-bit words allocated for matrices

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


counters = Counters()
