"""Table II: SimCXL versus prior CXL simulators/emulators."""

from __future__ import annotations

from typing import Dict, List

from repro.harness.tables import render_table

TABLE2_COLUMNS = (
    "Cohet Support",
    "CXL.cache Support",
    "CXL.mem&io Support",
    "CXL XPU Models",
    "Full System",
    "Hardware Calibration",
    "Configurability",
    "Sim. Error",
    "Sim. Speed",
)

SIMULATOR_COMPARISON: Dict[str, Dict[str, str]] = {
    "CXLMemSim": {
        "Cohet Support": "No",
        "CXL.cache Support": "No",
        "CXL.mem&io Support": "No",
        "CXL XPU Models": "No",
        "Full System": "No",
        "Hardware Calibration": "No",
        "Configurability": "Medium",
        "Sim. Error": "High",
        "Sim. Speed": "Medium",
    },
    "CXL-DMSim": {
        "Cohet Support": "No",
        "CXL.cache Support": "No",
        "CXL.mem&io Support": "Yes",
        "CXL XPU Models": "No",
        "Full System": "Yes",
        "Hardware Calibration": "Yes",
        "Configurability": "High",
        "Sim. Error": "Low",
        "Sim. Speed": "Low",
    },
    "Mess+gem5": {
        "Cohet Support": "No",
        "CXL.cache Support": "No",
        "CXL.mem&io Support": "No",
        "CXL XPU Models": "No",
        "Full System": "No",
        "Hardware Calibration": "No",
        "Configurability": "High",
        "Sim. Error": "Medium",
        "Sim. Speed": "Low",
    },
    "QEMU": {
        "Cohet Support": "No",
        "CXL.cache Support": "No",
        "CXL.mem&io Support": "Yes",
        "CXL XPU Models": "No",
        "Full System": "Yes",
        "Hardware Calibration": "No",
        "Configurability": "High",
        "Sim. Error": "High",
        "Sim. Speed": "High",
    },
    "Remote NUMA": {
        "Cohet Support": "No",
        "CXL.cache Support": "No",
        "CXL.mem&io Support": "No",
        "CXL XPU Models": "No",
        "Full System": "No",
        "Hardware Calibration": "N/A",
        "Configurability": "Low",
        "Sim. Error": "High",
        "Sim. Speed": "High",
    },
    "SimCXL": {
        "Cohet Support": "Yes",
        "CXL.cache Support": "Yes",
        "CXL.mem&io Support": "Yes",
        "CXL XPU Models": "Yes",
        "Full System": "Yes",
        "Hardware Calibration": "Yes",
        "Configurability": "High",
        "Sim. Error": "Low",
        "Sim. Speed": "Low",
    },
}


def render_table2() -> str:
    rows: List[List[str]] = []
    for name, caps in SIMULATOR_COMPARISON.items():
        rows.append([name] + [caps[c] for c in TABLE2_COLUMNS])
    return render_table(
        ["Simulator/Emulator"] + list(TABLE2_COLUMNS),
        rows,
        title="Table II: comparison between SimCXL and prior CXL simulators/emulators",
    )
