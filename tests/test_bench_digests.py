"""Bench ops of every workload, run in-process, must reproduce the stdout
and CSV digests recorded in ``bench/digests.json`` (read only)."""

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

# Serial scans (the digest does not depend on --jobs) and the verify op.
SCAN_FORWARD_OPS = [
    ("enumerate --n 4 --prime 7 --k 4", ["--jobs", "1"]),
    ("enumerate --n 14 --prime 17 --k 1", ["--jobs", "1"]),
    ("verify --samples 4000", []),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check(key, extra, tmp_path, capsys):
    expected = DIGESTS[key]
    argv = key.split() + extra
    csv = tmp_path / "out.csv"
    if "csv_sha256" in expected:
        argv += ["--csv", str(csv)]
    assert run(argv) == 0
    assert _sha256(capsys.readouterr().out.encode()) == expected["stdout_sha256"]
    if "csv_sha256" in expected:
        assert _sha256(csv.read_bytes()) == expected["csv_sha256"]


@pytest.mark.parametrize("key", CLOSED_FORM_KEYS)
def test_closed_form_digests(key, tmp_path, capsys):
    _check(key, [], tmp_path, capsys)


@pytest.mark.parametrize(
    "key,extra", SCAN_FORWARD_OPS, ids=[key for key, _ in SCAN_FORWARD_OPS]
)
def test_scan_and_forward_digests(key, extra, tmp_path, capsys):
    _check(key, extra, tmp_path, capsys)
