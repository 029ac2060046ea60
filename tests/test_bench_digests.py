"""The closed-form bench ops, run in-process, must reproduce the stdout and
CSV digests recorded in ``bench/digests.json`` (read only)."""

import hashlib
import json
from pathlib import Path

import pytest

from lvweights.cli import run

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text()
)

CLOSED_FORM_KEYS = [
    "families --n 4 --prime 5 --max-k 80",
    "families --n 3 --prime 7 --max-k 400",
    "count --n 20 --k 200",
    "count --n 24 --k 100",
    "coeff --n 2000",
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key", CLOSED_FORM_KEYS)
def test_closed_form_digests(key, tmp_path, capsys):
    expected = DIGESTS[key]
    argv = key.split()
    csv = tmp_path / "out.csv"
    if "csv_sha256" in expected:
        argv += ["--csv", str(csv)]
    assert run(argv) == 0
    assert _sha256(capsys.readouterr().out.encode()) == expected["stdout_sha256"]
    if "csv_sha256" in expected:
        assert _sha256(csv.read_bytes()) == expected["csv_sha256"]
