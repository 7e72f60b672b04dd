import hashlib
import json

import pytest

from wildprim import enumerator
from wildprim.cli import main
from wildprim.errors import InvariantViolation, PrecisionExhausted


def run(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return main(args)


def test_enumerate_quartics_json(tmp_path, monkeypatch):
    out = tmp_path / "cat.json"
    code = run(["enumerate", "--p", "2", "--f", "1", "--char", "0", "--n", "2",
                "--out", str(out)], tmp_path, monkeypatch)
    assert code == 0
    cat = json.loads(out.read_bytes())
    assert cat["schema_version"] == 1
    assert len(cat["records"]) == 4
    assert sorted(r["closure_label"] for r in cat["records"]) == \
        ["A4", "S4", "S4", "S4"]
    assert cat["metadata"]["base"] == {"p": 2, "f": 1, "char": "0"}


def test_enumerate_charp_level_bound_counts(tmp_path, monkeypatch):
    out = tmp_path / "cat.json"
    code = run(["enumerate", "--p", "2", "--f", "1", "--char", "p", "--n", "1",
                "--level-bound", "5", "--out", str(out)], tmp_path, monkeypatch)
    assert code == 0
    assert len(json.loads(out.read_bytes())["records"]) == 15


def test_byte_identical_reruns_and_thread_modes(tmp_path, monkeypatch):
    # reruns are byte-identical; the retired thread and cache flags are gone
    args = ["enumerate", "--p", "2", "--f", "1", "--char", "0", "--n", "2"]
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(args + ["--out", str(out)], tmp_path, monkeypatch) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]
    for retired in (["--single-thread"], ["--workers", "7"],
                    ["--cache-dir", str(tmp_path / "elsewhere")], ["--no-cache"]):
        with pytest.raises(SystemExit):
            run(args + retired, tmp_path, monkeypatch)


def test_no_cache_is_read_or_written(tmp_path, monkeypatch, capsys):
    # a stale file where the retired simple-class cache kept its entries
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / "classes-p2-f1-char0-n2-seed0-v0.1.0.json"
    stale.write_text("not json")
    args = ["--p", "2", "--f", "1", "--char", "0", "--n", "2"]
    out = tmp_path / "cat.json"
    assert run(["enumerate"] + args + ["--out", str(out)], tmp_path, monkeypatch) == 0
    assert len(json.loads(out.read_bytes())["records"]) == 4
    assert run(["reps"] + args, tmp_path, monkeypatch) == 0
    assert "simple classes of dimension 2: 2" in capsys.readouterr().out
    assert list(cache.iterdir()) == [stale]


# full sha256 of `enumerate --format csv` (seed 0), recorded from output whose
# rows parse back to exactly the records of the matching JSON catalog
CSV_DIGESTS = [
    (["--p", "2", "--f", "1", "--char", "0", "--n", "2"],
     "e1d5151e0e41016f53a4e4857c40095d64a7be7b4eb4345ed52cd173b9a20c6d"),
    (["--p", "2", "--f", "1", "--char", "p", "--n", "2", "--level-bound", "5"],
     "45ee188e1017239dcdc7e954ac44034ff16a93ea2c0ce1d01577c098bee66196"),
    (["--p", "7", "--f", "2", "--char", "0", "--n", "1"],
     "9d76b1433026cd8091ed8109eba44bd5bb7fd90d7efcf4d5c763ca5891f9fa71"),
]


@pytest.mark.parametrize("args,digest", CSV_DIGESTS,
                         ids=["Q_2,n=2", "F_2((t)),n=2,B=5", "Q_49,n=1"])
def test_csv_bytes_are_pinned(args, digest, tmp_path, monkeypatch):
    out = tmp_path / "cat.csv"
    assert run(["enumerate"] + args + ["--format", "csv", "--out", str(out)],
               tmp_path, monkeypatch) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_reps_output(tmp_path, monkeypatch, capsys):
    code = run(["reps", "--p", "2", "--f", "1", "--char", "0", "--n", "2"],
               tmp_path, monkeypatch)
    assert code == 0
    text = capsys.readouterr().out
    assert "simple classes of dimension 2: 2" in text
    assert "2d-0" in text and "2d-1" in text
    # reps reads no seed, so it takes none
    with pytest.raises(SystemExit):
        run(["reps", "--p", "2", "--f", "1", "--char", "0", "--n", "2", "--seed", "1"],
            tmp_path, monkeypatch)


def test_reps_n1(tmp_path, monkeypatch, capsys):
    code = run(["reps", "--p", "2", "--f", "1", "--char", "0", "--n", "1"],
               tmp_path, monkeypatch)
    assert code == 0
    assert "simple classes of dimension 1: 1" in capsys.readouterr().out


def test_exit_code_invariant_violation(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise InvariantViolation("forced")
    monkeypatch.setattr("wildprim.cli.enumerate_primitive", boom)
    code = run(["enumerate", "--p", "2", "--f", "1", "--char", "0", "--n", "1"],
               tmp_path, monkeypatch)
    assert code == 2


def test_failed_invariant_exits_2(tmp_path, monkeypatch):
    real = enumerator.simple_classes

    def one_degree_too_high(tower):
        classes = real(tower)
        for c in classes:
            c.end_degree += 1
        return classes
    monkeypatch.setattr(enumerator, "simple_classes", one_degree_too_high)
    code = run(["enumerate", "--p", "2", "--f", "1", "--char", "0", "--n", "2"],
               tmp_path, monkeypatch)
    assert code == 2


def test_exit_code_precision_exhausted(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise PrecisionExhausted("forced")
    monkeypatch.setattr("wildprim.cli.enumerate_primitive", boom)
    code = run(["enumerate", "--p", "2", "--f", "1", "--char", "0", "--n", "1"],
               tmp_path, monkeypatch)
    assert code == 3


def test_missing_level_bound_is_a_usage_error(tmp_path, monkeypatch, capsys):
    code = run(["enumerate", "--p", "2", "--f", "1", "--char", "p", "--n", "1"],
               tmp_path, monkeypatch)
    assert code == 1
    assert "level bound" in capsys.readouterr().err


def test_level_bound_in_characteristic_zero_is_a_usage_error(tmp_path, monkeypatch, capsys):
    code = run(["enumerate", "--p", "2", "--f", "1", "--char", "0", "--n", "1",
                "--level-bound", "-3"], tmp_path, monkeypatch)
    assert code == 1
    assert "level bound applies only in equal characteristic" in capsys.readouterr().err


@pytest.mark.parametrize("precision,char_args", [
    ("-5", ["--char", "0"]), ("-5", ["--char", "p", "--level-bound", "2"]),
    ("0", ["--char", "0"])], ids=["char0", "charp", "char0-zero"])
def test_precision_below_one_is_a_usage_error(precision, char_args, tmp_path,
                                              monkeypatch, capsys):
    code = run(["enumerate", "--p", "2", "--f", "1", "--n", "1", "--precision", precision]
               + char_args, tmp_path, monkeypatch)
    assert code == 1
    assert "precision" in capsys.readouterr().err


def test_exponential_hom_scan_is_refused(tmp_path, monkeypatch, capsys):
    # Q_{2^17}, n = 1: Hom(S, V) has dimension 19, 2^19 - 1 lines to scan
    from wildprim import modrep

    def forbidden(*args):
        raise AssertionError("the line table was built")
    monkeypatch.setattr(modrep, "_line_blocks", forbidden)
    code = run(["enumerate", "--p", "2", "--f", "17", "--char", "0", "--n", "1"],
               tmp_path, monkeypatch)
    assert code == 1
    assert "too many lines to scan" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_an_unwritable_out_path_is_an_error(command, tmp_path, monkeypatch, capsys):
    # the missing directory is found before the run: exit 1 with a
    # message, no traceback, and neither the enumeration nor the suite runs
    from wildprim import cli
    calls = []
    monkeypatch.setattr(cli, "enumerate_primitive", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "_verify_suite", lambda *a: calls.append(a))
    args = (["enumerate", "--p", "2", "--f", "1", "--char", "0", "--n", "1"]
            if command == "enumerate" else ["verify", "--suite", "quick"])
    code = run(args + ["--out", str(tmp_path / "missing" / "x.json")], tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "No such file or directory" in err
    assert "Traceback" not in err
    assert calls == []


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_a_failed_run_leaves_an_existing_out_file_untouched(command, tmp_path, monkeypatch):
    # the early --out check leaves the file alone: a failed run keeps it
    from wildprim import cli

    def fail(*args, **kwargs):
        raise InvariantViolation("stop")
    monkeypatch.setattr(cli, "enumerate_primitive", fail)
    monkeypatch.setattr(cli, "_verify_suite", fail)
    out = tmp_path / "x.json"
    out.write_text("old")
    args = (["enumerate", "--p", "2", "--f", "1", "--char", "0", "--n", "1"]
            if command == "enumerate" else ["verify", "--suite", "quick"])
    assert run(args + ["--out", str(out)], tmp_path, monkeypatch) == 2
    assert out.read_text() == "old"
    assert [f.name for f in tmp_path.iterdir()] == ["x.json"]


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_an_out_path_that_is_a_directory_fails_at_the_write(command, tmp_path, monkeypatch,
                                                            capsys):
    # past the early check, the final write keeps its own error: exit 1
    from wildprim import cli
    from wildprim.verify import VerificationReport
    monkeypatch.setattr(cli, "_verify_suite", lambda suite, seed: VerificationReport())
    args = (["enumerate", "--p", "2", "--f", "1", "--char", "0", "--n", "1"]
            if command == "enumerate" else ["verify", "--suite", "quick"])
    code = run(args + ["--out", str(tmp_path)], tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Is a directory" in err


def test_verify_quick_suite(tmp_path, monkeypatch, capsys):
    report_path = tmp_path / "report.json"
    code = run(["verify", "--suite", "quick", "--out", str(report_path)],
               tmp_path, monkeypatch)
    text = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in text
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_stdout_output(tmp_path, monkeypatch, capsys):
    code = run(["enumerate", "--p", "2", "--f", "1", "--char", "0", "--n", "1"],
               tmp_path, monkeypatch)
    assert code == 0
    captured = capsys.readouterr().out
    cat = json.loads(captured)
    assert len(cat["records"]) == 7


def test_full_suite_tower_list_is_well_formed():
    from wildprim.cli import FULL_TOWERS
    for base, n, bound in FULL_TOWERS:
        assert base.char in (0, base.p)
        assert (bound is not None) == (base.char != 0)


@pytest.mark.slow
def test_verify_full_suite_end_to_end(tmp_path, monkeypatch, capsys):
    code = run(["verify", "--suite", "full"], tmp_path, monkeypatch)
    text = capsys.readouterr().out
    assert code == 0, text
    assert "all checks passed" in text
    assert "FAIL" not in text
