"""Tests for CXL.io: config space, BAR sizing, enumeration."""

import pytest

from repro.cxl.io import (
    BarRegister,
    ConfigSpace,
    CxlIoPort,
    enumerate_devices,
)


def make_config(bar_size=1 << 20, device_type=2):
    return ConfigSpace(
        vendor_id=ConfigSpace.VENDOR_CXL,
        device_id=0xC02,
        device_type=device_type,
        bars=[BarRegister(0, bar_size)],
    )


def test_bar_size_power_of_two():
    with pytest.raises(ValueError):
        BarRegister(0, 3000)


def test_bar_sizing_protocol():
    cfg = make_config(bar_size=1 << 16)
    cfg.write("bar", 0xFFFF_FFFF_FFFF_FFFF)
    mask = cfg.read("bar")
    size = (~mask & 0xFFFF_FFFF_FFFF_FFFF) + 1
    assert size == 1 << 16
    # Subsequent reads return the base again.
    assert cfg.read("bar") == 0


def test_bar_base_alignment_enforced():
    cfg = make_config(bar_size=1 << 16)
    with pytest.raises(ValueError):
        cfg.write("bar", 0x1234)  # not size-aligned
    cfg.write("bar", 0x10000)
    assert cfg.read("bar") == 0x10000


def test_identity_registers():
    cfg = make_config()
    assert cfg.read("vendor_id") == ConfigSpace.VENDOR_CXL
    assert cfg.read("device_type") == 2
    with pytest.raises(KeyError):
        cfg.read("nonsense")
    with pytest.raises(KeyError):
        cfg.write("vendor_id", 1)


def test_enumeration_assigns_disjoint_windows():
    devices = [
        (0, 0, make_config(bar_size=1 << 20)),
        (0, 1, make_config(bar_size=1 << 16)),
        (0, 2, make_config(bar_size=1 << 24)),
    ]
    enumerated = enumerate_devices(devices)
    assert len(enumerated) == 3
    windows = [e.bar_windows[0] for e in enumerated]
    for w in windows:
        assert w.start % w.size == 0  # natural alignment
    for a, b in zip(windows, windows[1:]):
        assert not a.overlaps(b)


def test_enumeration_skips_empty_slot():
    empty = ConfigSpace(0xFFFF, 0, 3, [BarRegister(0, 1 << 12)])
    enumerated = enumerate_devices([(0, 0, empty)])
    assert enumerated == []


def test_io_port_mmap():
    enumerated = enumerate_devices([(0, 0, make_config())])[0]
    port = CxlIoPort(enumerated)
    window = port.mmap(0)
    assert port.is_mapped(window.start)
    assert not port.is_mapped(window.end)
