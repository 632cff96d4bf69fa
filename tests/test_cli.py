import hashlib
import json
import os

from ospq.cli import main
from ospq.checks import (CheckConfig, run_checks, check_borel_rll_classical,
                         check_hopf_classical_limit, check_rtt_classical_limit)

SEEDED_CHECKS = (check_rtt_classical_limit, check_hopf_classical_limit,
                 check_borel_rll_classical)
EXPORT_DIGEST = "bc8a6fbc3d6c66902a309d25b37dbe99fd06428241209b0d2607f966e89fa6b1"


def test_fast_group_passes(capsys):
    code = main(["ybe"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ybe.braid-identity" in out
    assert "FAIL" not in out


def test_json_schema(capsys):
    code = main(["borel-ansatz", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and data
    for item in data:
        assert set(item) == {"name", "status", "details", "elapsed_ms", "config"}
        assert item["status"] in ("pass", "fail", "skipped")
        assert item["config"]["truncation"] == 16


def test_reports_sorted_by_name(capsys):
    main(["borel-coproduct"])
    out = capsys.readouterr().out.splitlines()[:-1]
    names = [line.split()[0] for line in out]
    assert names == sorted(names)


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["no-such-thing"]) == 2


def test_bad_truncation_is_usage_error(capsys):
    assert main(["ybe", "--truncation", "7"]) == 2


def test_truncation_ceiling_is_40(capsys):
    # the ybe group does not read the truncation, so 40 costs nothing here
    assert main(["ybe", "--truncation", "42"]) == 2
    assert "from 4 to 40" in capsys.readouterr().err
    assert main(["ybe", "--truncation", "40"]) == 0


def test_seed_does_not_change_statuses():
    # the classical-limit checks are the only ones that read the seed
    # (tests/test_structure.py keeps it so); borel-rll runs one of them
    first = None
    for seed in range(10):
        config = CheckConfig(seed=seed)
        verdicts = ([(r.name, r.status) for r in run_checks("borel-rll", config)]
                    + [check(config) for check in SEEDED_CHECKS])
        first = first or verdicts
        assert verdicts == first


def test_truncation_flag_flows_into_checks():
    reports = run_checks("borel-coproduct", CheckConfig(truncation=8))
    assert all(r.status == "pass" for r in reports)
    assert all(r.config["truncation"] == 8 for r in reports)


def test_export_writes_artifacts(tmp_path, capsys):
    target = tmp_path / "artifacts"
    code = main(["classical", "--export", str(target)])
    assert code == 0
    names = sorted(os.listdir(target))
    assert "matrix_r.txt" in names
    assert "relations_defining.txt" in names
    assert "relation_unimodularity.txt" in names
    assert "series_ansatz_particular.txt" in names
    text = (target / "matrix_r.txt").read_text()
    assert text.splitlines()[0] == "9"
    # the artifact bytes are pinned: sorted names, each name and each file's
    # bytes followed by a NUL, hashed with SHA-256
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((target / name).read_bytes())
        h.update(b"\0")
    assert h.hexdigest() == EXPORT_DIGEST


def test_exit_code_contract_on_failure(monkeypatch, capsys):
    from ospq import checks as checks_mod

    def failing_check(config):
        return False, "forced failure"

    monkeypatch.setitem(checks_mod.CHECKS, "ybe", [("ybe.forced", failing_check)])
    assert main(["ybe"]) == 1


def test_every_registered_check_appears_exactly_once():
    from ospq.checks import CHECKS
    names = [name for group in CHECKS.values() for name, _ in group]
    assert len(names) == len(set(names))


def test_unwritable_export_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert main(["ybe", "--export", str(blocker)]) == 2
