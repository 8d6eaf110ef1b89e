"""Calendar-month helpers. Months are plain "YYYY-MM" strings throughout."""
from __future__ import annotations

import calendar
import re

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})(?:-([0-9]{2}))?")


def normalize_month(text: str) -> str:
    """Validate a month string, truncating a day component, which must be a
    day of that month, if present."""
    m = _MONTH_RE.fullmatch(text)
    if not m:
        raise ValueError(f"invalid month {text!r}, expected YYYY-MM")
    month = int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"invalid month {text!r}, month component out of range")
    day = m.group(3)
    if day and not 1 <= int(day) <= calendar.monthrange(int(m.group(1)), month)[1]:
        raise ValueError(f"invalid month {text!r}, day component out of range")
    return f"{m.group(1)}-{m.group(2)}"


def month_index(month: str) -> int:
    """Months since 0000-01; orders the same as the string itself."""
    year, mon = month.split("-")
    return int(year) * 12 + (int(mon) - 1)


def month_from_index(index: int) -> str:
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def month_range(first: str, last: str) -> list[str]:
    """Inclusive list of months from first to last."""
    lo, hi = month_index(normalize_month(first)), month_index(normalize_month(last))
    if hi < lo:
        raise ValueError(f"empty month window {first}..{last}")
    return [month_from_index(i) for i in range(lo, hi + 1)]


def year_of(month: str) -> int:
    return int(month.split("-")[0])
