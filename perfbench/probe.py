"""Host-speed probe: a fixed GF(2) kernel that shares no code with gf2mat.

The benchmark host is shared, and its speed drifts by 20-30% over tens of
seconds, longer than one run, so a raw median moves between runs by more
than any useful bound. The probe is a miniature of the library's own
instruction mix, written here in plain numpy and never changed: a Gray-code
table build (a Python loop of small row XORs), stripe index reads, a
t-table gather-and-XOR combine, and a cubic-style AND/XOR-fold/popcount
row loop, on narrow (8-word) and wide (32-word) rows. Timed next to the
library, it measures how fast the host runs that mix at that moment;
dividing by it removes the drift, while a change to the library moves only
the library's time.
"""

from __future__ import annotations

import numpy as np

# Nominal probe time: scaled figures read as seconds on a host where one
# probe takes this long, as it does on the reference host when quiet.
REFERENCE_S = 0.1


class _Kernel:
    """One M4RM-style product (k=4, t=8) plus a cubic-style row loop."""

    def __init__(self, rng, m: int, width: int):
        self.a = rng.integers(0, 1 << 63, size=(m, 8), dtype=np.uint64)
        self.b = rng.integers(0, 1 << 63, size=(512, width), dtype=np.uint64)
        self.bt = rng.integers(0, 1 << 63, size=(48, width), dtype=np.uint64)
        self.tables = np.zeros((8, 16, width), dtype=np.uint64)
        self.acc = np.empty((m, width), dtype=np.uint64)
        self.c = np.zeros((m, width), dtype=np.uint64)
        self.fold = np.empty((48, width), dtype=np.uint64)
        self.row = np.empty(width, dtype=np.uint64)

    def __call__(self) -> None:
        for g0 in range(0, 512, 32):
            for t in range(8):
                slots = list(self.tables[t])
                src = list(self.b[g0 + 4 * t:g0 + 4 * t + 4])
                prev = slots[0]
                for j in range(1, 16):
                    code = j ^ (j >> 1)
                    flipped = (code ^ (j - 1) ^ ((j - 1) >> 1)).bit_length()
                    np.bitwise_xor(prev, src[4 - flipped], out=slots[code])
                    prev = slots[code]
            wi, off = divmod(g0, 64)
            ids = [((self.a[:, wi] >> np.uint64(60 - off - 4 * t))
                    & np.uint64(15)).astype(np.intp) for t in range(8)]
            np.take(self.tables[0], ids[0], axis=0, out=self.acc)
            for t in range(1, 8):
                self.acc ^= self.tables[t][ids[t]]
            self.c ^= self.acc
        for i in range(160):
            np.copyto(self.row, self.b[i])
            np.bitwise_and(self.bt, self.row, out=self.fold)
            np.bitwise_count(np.bitwise_xor.reduce(self.fold, axis=1))


class Probe:
    """Call to run the probe once (about 0.1 s on the reference host)."""

    def __init__(self):
        rng = np.random.default_rng(20081114)
        self._narrow = _Kernel(rng, 512, 8)
        self._wide = _Kernel(rng, 2048, 32)

    def __call__(self) -> None:
        for _ in range(12):
            self._narrow()
        for _ in range(5):
            self._wide()
