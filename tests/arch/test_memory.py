"""Unit tests for the sparse paged guest memory."""

import pytest

from repro.arch.memory import PAGE_SIZE, Memory


class TestScalarAccess:
    def test_read_unwritten_is_zero(self):
        mem = Memory()
        assert mem.read_u64(0x1234) == 0
        assert mem.read_u8(0) == 0

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_write_read_roundtrip(self, size):
        mem = Memory()
        value = 0xA5A5A5A5A5A5A5A5 & ((1 << (size * 8)) - 1)
        mem.write(0x4000, size, value)
        assert mem.read(0x4000, size) == value

    def test_write_truncates_to_size(self):
        mem = Memory()
        mem.write(0x10, 2, 0x12345678)
        assert mem.read(0x10, 2) == 0x5678

    def test_little_endian_layout(self):
        mem = Memory("little")
        mem.write_u32(0x100, 0x11223344)
        assert mem.read_u8(0x100) == 0x44
        assert mem.read_u8(0x103) == 0x11

    def test_big_endian_layout(self):
        mem = Memory("big")
        mem.write_u32(0x100, 0x11223344)
        assert mem.read_u8(0x100) == 0x11
        assert mem.read_u8(0x103) == 0x44

    def test_bad_endian_rejected(self):
        with pytest.raises(ValueError):
            Memory("middle")

    def test_page_crossing_access(self):
        mem = Memory()
        addr = PAGE_SIZE - 2  # 4-byte access straddling a page boundary
        mem.write_u32(addr, 0xDEADBEEF)
        assert mem.read_u32(addr) == 0xDEADBEEF
        assert mem.pages_allocated() == 2

    def test_page_crossing_read_of_unwritten_page(self):
        mem = Memory()
        mem.write_u8(PAGE_SIZE - 1, 0xFF)
        assert mem.read_u16(PAGE_SIZE - 1) == 0x00FF

    def test_adjacent_writes_do_not_interfere(self):
        mem = Memory()
        mem.write_u32(0x200, 0xAAAAAAAA)
        mem.write_u32(0x204, 0xBBBBBBBB)
        assert mem.read_u32(0x200) == 0xAAAAAAAA
        assert mem.read_u32(0x204) == 0xBBBBBBBB


class TestBulkAccess:
    def test_bytes_roundtrip(self):
        mem = Memory()
        data = bytes(range(256))
        mem.write_bytes(0x8000, data)
        assert mem.read_bytes(0x8000, 256) == data

    def test_bytes_roundtrip_across_pages(self):
        mem = Memory()
        data = bytes((i * 7) & 0xFF for i in range(PAGE_SIZE + 100))
        mem.write_bytes(PAGE_SIZE - 50, data)
        assert mem.read_bytes(PAGE_SIZE - 50, len(data)) == data

    def test_read_bytes_unwritten_region(self):
        mem = Memory()
        assert mem.read_bytes(0x9999, 10) == b"\x00" * 10

    def test_read_cstring(self):
        mem = Memory()
        mem.write_bytes(0x300, b"hello\x00world")
        assert mem.read_cstring(0x300) == b"hello"

    def test_read_cstring_limit(self):
        mem = Memory()
        mem.write_bytes(0x300, b"a" * 64)
        assert mem.read_cstring(0x300, limit=8) == b"a" * 8

    def test_read_cstring_crosses_page_boundary(self):
        mem = Memory()
        start = PAGE_SIZE - 3
        mem.write_bytes(start, b"abcdef\x00")
        assert mem.read_cstring(start) == b"abcdef"

    def test_read_cstring_nul_at_page_boundary(self):
        mem = Memory()
        start = PAGE_SIZE - 4
        mem.write_bytes(start, b"abcd\x00")
        assert mem.read_cstring(start) == b"abcd"

    def test_read_cstring_ends_at_unmapped_page(self):
        # The string runs off the end of its (only) mapped page; the
        # demand-zero next page supplies the terminator.
        mem = Memory()
        mem.write_bytes(PAGE_SIZE - 2, b"xy")
        assert mem.read_cstring(PAGE_SIZE - 2) == b"xy"

    def test_read_cstring_limit_across_pages(self):
        mem = Memory()
        start = PAGE_SIZE - 5
        mem.write_bytes(start, b"b" * 32)
        assert mem.read_cstring(start, limit=12) == b"b" * 12


class TestSnapshots:
    def test_snapshot_restore(self):
        mem = Memory()
        mem.write_u64(0x100, 123)
        snap = mem.snapshot()
        mem.write_u64(0x100, 456)
        mem.write_u64(0x900, 789)
        mem.restore(snap)
        assert mem.read_u64(0x100) == 123
        assert mem.read_u64(0x900) == 0

    def test_snapshot_is_deep(self):
        mem = Memory()
        mem.write_u8(0, 1)
        snap = mem.snapshot()
        mem.write_u8(0, 2)
        assert snap[0][0] == 1

    def test_snapshot_omits_all_zero_pages(self):
        # canonical: a touched-but-zero page reads like an unmapped one
        mem = Memory()
        mem.write_u8(0x10, 7)
        mem.write_u8(PAGE_SIZE + 5, 0)
        assert list(mem.snapshot()) == [0]

    def test_clear(self):
        mem = Memory()
        mem.write_u64(0x100, 5)
        mem.clear()
        assert mem.read_u64(0x100) == 0
        assert mem.pages_allocated() == 0

    def test_iter_nonzero_pages_skips_zero_pages(self):
        mem = Memory()
        mem.write_u8(0x10, 7)
        mem.write_u8(PAGE_SIZE + 5, 0)  # allocates page, stays zero
        pages = dict(mem.iter_nonzero_pages())
        assert list(pages) == [0]
