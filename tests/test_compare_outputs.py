import importlib.util
import os
from pathlib import Path
from unittest import mock

COMPARE = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE)
compare = importlib.util.module_from_spec(_spec)
with mock.patch.dict(os.environ):  # the tool pins BLAS threads for its own process only
    _spec.loader.exec_module(compare)

CSV = "time,route,N\n0.0,kraus,1.0\n0.5,kraus,0.6065306597\n"


def _outputs(root: Path, timestamp: str, csv: str = CSV) -> Path:
    run = root / "single"
    run.mkdir(parents=True)
    (run / "single__kraus__N.csv").write_text(csv)
    (run / "single__ode__N.csv").write_text(csv.replace("kraus", "ode"))
    (run / "single__manifest.txt").write_text(f"name=single\ntimestamp={timestamp}\nstatus=ok\n")
    return root


def _summary(capsys) -> str:
    return capsys.readouterr().out.splitlines()[-1]


def test_diff_of_identical_outputs_counts_every_file(tmp_path, capsys):
    a = _outputs(tmp_path / "a", "2026-01-01T00:00:00")
    b = _outputs(tmp_path / "b", "2026-01-02T00:00:00")
    assert compare.main(["diff", str(a), str(b)]) == 0
    assert _summary(capsys) == ("summary: 2 of 2 CSVs byte-equal, "
                                "1 of 1 manifests with identical non-timestamp lines")


def test_diff_fails_on_a_missing_file(tmp_path, capsys):
    a = _outputs(tmp_path / "a", "t0")
    b = _outputs(tmp_path / "b", "t0")
    (b / "single" / "single__ode__N.csv").unlink()
    assert compare.main(["diff", str(a), str(b)]) == 1
    assert _summary(capsys).startswith("summary: 1 of 2 CSVs byte-equal")


def test_diff_fails_on_a_changed_header(tmp_path, capsys):
    a = _outputs(tmp_path / "a", "t0")
    b = _outputs(tmp_path / "b", "t0", csv=CSV.replace("time,", "t,"))
    assert compare.main(["diff", str(a), str(b)]) == 1
    assert _summary(capsys).startswith("summary: 0 of 2 CSVs byte-equal")


def test_diff_counts_changed_values_without_failing(tmp_path, capsys):
    # a value or a manifest line may change; only the count says so
    a = _outputs(tmp_path / "a", "t0")
    b = _outputs(tmp_path / "b", "t0", csv=CSV.replace("0.6065306597", "0.6065306598"))
    manifest = b / "single" / "single__manifest.txt"
    manifest.write_text(manifest.read_text().replace("status=ok", "status=drift"))
    assert compare.main(["diff", str(a), str(b)]) == 0
    assert _summary(capsys) == ("summary: 0 of 2 CSVs byte-equal, "
                                "0 of 1 manifests with identical non-timestamp lines")
