"""Error metrics for hardware calibration."""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple


def absolute_percentage_error(measured: float, reference: float) -> float:
    """|measured - reference| / |reference|."""
    if reference == 0:
        raise ValueError("reference value must be nonzero")
    return abs(measured - reference) / abs(reference)


def mape(pairs: Iterable[Tuple[float, float]]) -> float:
    """Mean absolute percentage error over ``(measured, reference)`` pairs."""
    errors = [absolute_percentage_error(m, r) for m, r in pairs]
    if not errors:
        raise ValueError("no calibration points")
    return sum(errors) / len(errors)


def _numeric_pairs(
    measured: Mapping, reference: Mapping
) -> Iterable[Tuple[float, float]]:
    """Yield ``(measured, reference)`` numeric leaves with matching keys.

    Keys are compared as strings so that series loaded back from JSON
    (where integer keys become strings) still pair with in-memory
    reference data; nested mappings are descended recursively.
    """
    ref_by_str = {str(k): v for k, v in reference.items()}
    for key, value in measured.items():
        ref_value = ref_by_str.get(str(key))
        if ref_value is None:
            continue
        if isinstance(value, Mapping) and isinstance(ref_value, Mapping):
            yield from _numeric_pairs(value, ref_value)
        elif (
            isinstance(value, (int, float))
            and isinstance(ref_value, (int, float))
            and not isinstance(value, bool)
            and not isinstance(ref_value, bool)
        ):
            yield (float(value), float(ref_value))


def series_mape(measured: Mapping, reference: Mapping) -> float:
    """MAPE between two (possibly nested) numeric series mappings.

    Used by the experiment report layer to compare stored (JSON
    round-tripped) series against :mod:`repro.calibration.reference`
    data.  Raises :class:`ValueError` when the mappings share no
    numeric points.
    """
    return mape(_numeric_pairs(measured, reference))
