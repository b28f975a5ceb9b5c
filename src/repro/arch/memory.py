"""Sparse paged guest memory.

The functional simulators synthesized by :mod:`repro.synth` perform all
loads and stores through this class, so the common aligned, within-page
case is kept on a fast path.  Pages are demand-zero ``bytearray`` objects
allocated on first touch, which lets workloads use scattered code, stack
and heap regions without an explicit mapping step.

Endianness is a property of the memory (PowerPC descriptions run
big-endian, Alpha and ARM little-endian), mirroring how the paper's
functional simulators bind byte order once per instruction set.
"""

from __future__ import annotations

from typing import Iterator

PAGE_BITS = 16
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1
_ZERO_PAGE = bytes(PAGE_SIZE)


class Memory:
    """Byte-addressable sparse memory with fixed endianness.

    Parameters
    ----------
    endian:
        ``"little"`` or ``"big"``.
    """

    __slots__ = ("endian", "_pages")

    def __init__(self, endian: str = "little") -> None:
        if endian not in ("little", "big"):
            raise ValueError(f"endian must be 'little' or 'big', got {endian!r}")
        self.endian = endian
        self._pages: dict[int, bytearray] = {}

    # -- page management ------------------------------------------------

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return page

    def pages_allocated(self) -> int:
        """Number of pages currently materialized."""
        return len(self._pages)

    def clear(self) -> None:
        """Release every page (memory reads as zero afterwards)."""
        self._pages.clear()

    # -- scalar access ---------------------------------------------------

    def read(self, addr: int, size: int) -> int:
        """Read ``size`` bytes at ``addr`` as an unsigned integer."""
        off = addr & PAGE_MASK
        if off + size <= PAGE_SIZE:
            page = self._pages.get(addr >> PAGE_BITS)
            if page is None:
                return 0
            return int.from_bytes(page[off : off + size], self.endian)
        return int.from_bytes(self.read_bytes(addr, size), self.endian)

    def write(self, addr: int, size: int, value: int) -> None:
        """Write the low ``size`` bytes of ``value`` at ``addr``."""
        off = addr & PAGE_MASK
        data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, self.endian)
        if off + size <= PAGE_SIZE:
            self._page(addr >> PAGE_BITS)[off : off + size] = data
        else:
            self.write_bytes(addr, data)

    # Convenience fixed-width accessors used by generated code and tests.

    def read_u8(self, addr: int) -> int:
        page = self._pages.get(addr >> PAGE_BITS)
        return page[addr & PAGE_MASK] if page is not None else 0

    def read_u16(self, addr: int) -> int:
        return self.read(addr, 2)

    def read_u32(self, addr: int) -> int:
        return self.read(addr, 4)

    def read_u64(self, addr: int) -> int:
        return self.read(addr, 8)

    def write_u8(self, addr: int, value: int) -> None:
        self._page(addr >> PAGE_BITS)[addr & PAGE_MASK] = value & 0xFF

    def write_u16(self, addr: int, value: int) -> None:
        self.write(addr, 2, value)

    def write_u32(self, addr: int, value: int) -> None:
        self.write(addr, 4, value)

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, 8, value)

    # -- bulk access -----------------------------------------------------

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Read ``length`` raw bytes starting at ``addr``."""
        out = bytearray()
        while length > 0:
            off = addr & PAGE_MASK
            take = min(length, PAGE_SIZE - off)
            page = self._pages.get(addr >> PAGE_BITS)
            if page is None:
                out.extend(b"\x00" * take)
            else:
                out.extend(page[off : off + take])
            addr += take
            length -= take
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write raw ``data`` starting at ``addr``."""
        pos = 0
        length = len(data)
        while pos < length:
            off = addr & PAGE_MASK
            take = min(length - pos, PAGE_SIZE - off)
            self._page(addr >> PAGE_BITS)[off : off + take] = data[pos : pos + take]
            addr += take
            pos += take

    def read_cstring(self, addr: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated byte string (without the NUL).

        Scans one page at a time with ``bytes.find`` rather than one call
        per byte; an unallocated page reads as zeros and therefore
        terminates the string immediately.
        """
        out = bytearray()
        while len(out) < limit:
            page = self._pages.get(addr >> PAGE_BITS)
            if page is None:
                break  # demand-zero page: the next byte is NUL
            off = addr & PAGE_MASK
            end = min(PAGE_SIZE, off + (limit - len(out)))
            nul = page.find(0, off, end)
            if nul >= 0:
                out += page[off:nul]
                break
            out += page[off:end]
            addr += end - off
        return bytes(out)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict[int, bytes]:
        """Capture page contents for later :meth:`restore`.

        The snapshot is canonical: all-zero pages read exactly like
        unallocated ones, so they are left out, and two memories with
        equal contents snapshot equal however their pages were touched.
        """
        return {
            index: bytes(page)
            for index, page in self._pages.items()
            if page != _ZERO_PAGE
        }

    def restore(self, snap: dict[int, bytes]) -> None:
        """Restore contents captured by :meth:`snapshot`."""
        self._pages = {index: bytearray(page) for index, page in snap.items()}

    def iter_nonzero_pages(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(base_address, contents)`` for pages holding any data."""
        for index in sorted(self._pages):
            page = self._pages[index]
            if any(page):
                yield index << PAGE_BITS, bytes(page)
