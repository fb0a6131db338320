"""README's library quick start runs as documented."""

import re
from pathlib import Path

import spectralfactors as sf

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs_and_every_report_passes(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    reports = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            reports.append(out[1])
            return out
        return wrapper

    for name in ("minimal_factor", "extract_left_divisor"):
        monkeypatch.setattr(sf, name, recording(getattr(sf, name)))
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # eight enumerated factors, then the extraction of the last one
    assert len(reports) == len(namespace["family"]) + 1 == 9
    assert all(report.passed for report in reports)
    assert namespace["t_l"].n == namespace["divisor"].degree
