"""Every certificate named in perfbench/golden.json, rebuilt through the
CLI and compared with its recorded sha256, so that a change in the bytes
of a certificate fails here and not only in the benchmark.

The cases and their checks come from perfbench/workloads.py
(`all_cert_variants`, `cert_ops`), which this test only reads.
"""

import os
import sys

import pytest

import groupcoh

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

GOLDEN = workloads.load_golden()
CASES = workloads.all_cert_variants(groupcoh)


def test_every_golden_certificate_has_a_case():
    assert sorted(case.key for case in CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", CASES, ids=[case.key for case in CASES])
def test_certificate_bytes_match_the_golden_sha256(case, tmp_path, monkeypatch):
    monkeypatch.delenv("COCYCLE_MAX_TUPLES", raising=False)
    ops, cert_path = workloads.cert_ops(case, str(tmp_path), GOLDEN)
    trivialize = ops[0]
    assert trivialize.phase == "trivialize"
    assert trivialize.check(trivialize.run()) is None
    assert workloads.sha256_file(cert_path) == GOLDEN[case.key]
