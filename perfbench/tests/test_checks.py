"""Output checks: a file with one byte flipped must count as a failed command."""

import dataclasses

import pytest

import checks
import run
import workloads
from interference_lab import cli

META = next(c for c in workloads.CSV_IO.commands if c.argv[0] == "meta")
META_ONLY = dataclasses.replace(workloads.CSV_IO, commands=(META,))


@pytest.fixture
def meta_pass(tmp_path):
    (tmp_path / "meta_in.csv").write_text(workloads.META_INPUT, encoding="utf-8")
    out = tmp_path / "pass0"
    out.mkdir()
    code = cli.main(META.args(str(tmp_path), str(out), run.DEFAULT_SEED, 1))
    return out, code


def _error_rate(out, code, seed):
    tally = run.Tally()
    reference = run.reference_digests("csv_io", seed)
    run.check_pass(META_ONLY, seed, out, [code], reference and reference[0], tally, "meta")
    return tally.failed / tally.attempted


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def test_reference_output_passes(meta_pass):
    out, code = meta_pass
    assert _error_rate(out, code, run.DEFAULT_SEED) == 0


def test_one_flipped_byte_raises_the_error_rate(meta_pass):
    out, code = meta_pass
    path = out / META.out
    _flip(path, len(path.read_bytes()) - 3)   # the 15th digit of sigma_distance
    assert checks.meta(path, run.DEFAULT_SEED) == []   # only the digest sees it
    assert _error_rate(out, code, run.DEFAULT_SEED) > 0


def test_a_flipped_header_fails_on_any_seed(meta_pass):
    out, code = meta_pass
    _flip(out / META.out, 0)
    assert _error_rate(out, code, run.DEFAULT_SEED + 1) > 0


def test_a_failed_exit_code_counts(meta_pass):
    out, _ = meta_pass
    assert _error_rate(out, 1, run.DEFAULT_SEED + 1) == 1


@pytest.mark.parametrize("rows, problem", [
    ("0,0\n1,2\n2,1\n", ""),
    ("0,0\n1,2\n2,2\n", "dense"),
    ("0,0\n2,1\n1,1\n", "in order"),
])
def test_partition_ids_must_be_dense(tmp_path, rows, problem):
    path = tmp_path / "part.csv"
    path.write_text("article_id,cluster_id\n" + rows, encoding="utf-8")
    found = checks.partition(path, 0, n=3)
    assert (problem in " ".join(found)) if problem else found == []


@pytest.mark.parametrize("shares, ok", [
    ("0.5,0.25,0.25", True),
    ("0.5,0.25,0.30000000000000004", False),
    ("nan,0.5,0.5", False),
    ("1.5,-0.25,-0.25", False),
])
def test_exposure_shares_must_form_a_distribution(tmp_path, shares, ok):
    path = tmp_path / "exposure.csv"
    path.write_text(f"share_both,share_treated_only,share_control_only,session_count\n"
                    f"{shares},10\n", encoding="utf-8")
    assert (checks.exposure(path, 0, sessions=10) == []) == ok
