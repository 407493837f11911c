"""CXL sub-protocol implementations and device types."""

from repro.cxl.transactions import DcohResult
from repro.cxl.dcoh import Dcoh
from repro.cxl.io import BarRegister, ConfigSpace, CxlIoPort, enumerate_devices
from repro.cxl.device import CxlDevice, DeviceType, Type1Device, Type2Device
from repro.cxl.switch import CxlSwitch, SwitchFabric

__all__ = [
    "DcohResult",
    "Dcoh",
    "BarRegister",
    "ConfigSpace",
    "CxlIoPort",
    "enumerate_devices",
    "CxlDevice",
    "DeviceType",
    "Type1Device",
    "Type2Device",
    "CxlSwitch",
    "SwitchFabric",
]
