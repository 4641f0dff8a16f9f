"""Command-line behavior: pipelines, report schemas, exit codes."""

import csv
import gc
import json
import math
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chshkit import ResortPolicy, RngSpec, ingest_csv, resort_cascade, trim_to_shortest, write_subrun_csv
from chshkit import cli, sources
from chshkit.cli import main
from helpers import (
    CLI_DIGESTS,
    cli_digest_versions,
    cli_digests,
    exact_two_dataset,
    just_above_two_dataset,
    random_counterfactual,
    shared_run_dataset,
    spawn_peak_rss_mb,
)


def run_proc(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "chshkit", *args], capture_output=True, text=True
    )


def read_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def cf_csv(tmp_path):
    path = tmp_path / "cf.csv"
    assert main(["simulate", "--mode", "lhv", "--n", "400", "--seed", "11", "--out", str(path)]) == 0
    return path


@pytest.fixture
def qm_csv(tmp_path):
    path = tmp_path / "qm.csv"
    code = main(["simulate", "--mode", "qm", "--n-per", "300", "--seed", "12", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture
def shared_csv(tmp_path):
    path = tmp_path / "shared.csv"
    data = shared_run_dataset(random_counterfactual(RngSpec(13), 12))
    write_subrun_csv(data, path)
    return path


class TestSimulate:
    def test_lhv_writes_counterfactual_rows(self, cf_csv):
        lines = cf_csv.read_text().splitlines()
        assert lines[0] == "j,a,d,b,c"
        assert len(lines) == 401
        assert lines[1].startswith("1,")

    def test_qm_writes_subrun_rows(self, qm_csv):
        lines = qm_csv.read_text().splitlines()
        assert lines[0] == "pair,outcome_a,outcome_b"
        assert len(lines) == 1 + 4 * 300

    def test_lhv_requires_n(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "lhv", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_qm_requires_n_per(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "qm", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mode, flag", [("qm", "--n"), ("lhv", "--n-per")])
    def test_count_flag_of_the_other_mode_is_usage_error(self, tmp_path, capsys, mode, flag):
        # The mode would ignore the flag, so taking it silently would mislead.
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", mode, "--n", "10", "--n-per", "10", "--seed", "1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert f"--mode {mode} takes no {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_law_with_lhv_angles_is_usage_error(self, tmp_path, capsys):
        # The angles fix all four settings, so lhv mode would ignore the law.
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "lhv", "--angles", "10,50,30,70", "--law", "spin-half",
                  "--n", "10", "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "--mode lhv takes no --law with --angles" in capsys.readouterr().err
        assert not out.exists()

    def test_law_picks_the_lhv_default_quad(self, tmp_path):
        written = {}
        for name, flags in (("law", ["--law", "spin-half"]), ("angles", ["--angles", "90,0,45,135"]),
                            ("default", [])):
            out = tmp_path / f"{name}.csv"
            assert main(["simulate", "--mode", "lhv", "--n", "500", "--seed", "3", *flags,
                         "--out", str(out)]) == 0
            written[name] = out.read_bytes()
        assert written["law"] == written["angles"] != written["default"]

    def test_missing_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "lhv", "--n", "10", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_zero_trials_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "lhv", "--n", "0", "--seed", "1",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("angles", ["1,2,3", "a,b,c,d", "0,0,10,20"])
    def test_bad_angles_are_usage_errors(self, tmp_path, angles):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "lhv", "--n", "10", "--seed", "1",
                  "--angles", angles, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2



class TestSizeBeyondTheHost:
    """A size no host can allocate exits 1 with one error line.

    10^16 trials or rows need petabytes, more than a process's address
    space, so the first allocation fails at once under any overcommit
    setting, before anything is drawn or written.
    """

    @pytest.mark.parametrize("argv", [
        "simulate --mode lhv --n 10000000000000000 --seed 1",
        "simulate --mode qm --n-per 10000000000000000 --seed 1",
        "sweep --steps 10000000000000000 --n-per 10 --seed 1",
    ])
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        code = main([*argv.split(), "--out", str(out)])
        # Each takes a few ms; tracemalloc cannot show it, as it counts the
        # failed petabyte request.
        assert time.perf_counter() - start < 1.0
        stdout, err = capsys.readouterr()
        assert code == 1 and stdout == ""
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()


class TestCommandsReturnTheirOutput:
    """A command returns its report; ``main`` alone writes it."""

    @pytest.mark.parametrize("command", [
        ["estimate", "--in", "{qm}"],
        ["resort", "--in", "{qm}"],
        ["audit", "--in", "{qm}", "--policy", "uniform-random", "--seed", "4"],
        ["sweep", "--steps", "2", "--n-per", "50", "--seed", "4"],
    ], ids=["estimate", "resort", "audit", "sweep"])
    def test_main_writes_what_the_command_returns(self, qm_csv, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [a.format(qm=qm_csv) for a in command] + ["--out", str(out)]
        args = cli._build_parser().parse_args(argv)
        output = args.run(args)
        assert capsys.readouterr() == ("", "") and not out.exists()
        assert main(argv) == 0
        text = output if command[0] == "sweep" else json.dumps(output, indent=2) + "\n"
        assert out.read_text() == text


class TestDigestManifest:
    """Every CLI case's stdout, stderr, exit code and written files, pinned.

    ``tests/data/cli_digests.json`` was computed at commit 95f8653 with
    ``helpers.regen_cli_digests()``; the two ``header-field-over-limit``
    cases were added when ``estimate`` came to give ``resort``'s error
    for such a header, and ``estimate-out-missing-dir`` when an ``--out``
    error came to name the path as given.  The three ``sweep`` cases were
    recomputed when ``sweep`` came to print each offset as the shortest
    text that reads back as it, and the ``usage-stable-with-seed``,
    ``usage-qm-with-n`` and ``usage-lhv-with-n-per`` cases were added when
    a flag the command would ignore became a usage error, and
    ``usage-lhv-angles-with-law`` when ``--law`` joined them.  Its qm, lhv
    and split files keep the digests first pinned at 8c57a30, whose
    writers built one Python string per row.  The digests pin numpy's
    Generator streams, which numpy does not promise to keep across
    releases, and argparse's usage text, so a failure names the versions
    the manifest was computed with.
    """

    def test_every_case_matches_the_manifest(self, tmp_path, capsys):
        manifest = json.loads(CLI_DIGESTS.read_text())
        got = cli_digests(tmp_path, capsys.readouterr)
        expected = manifest["cases"]
        changed = [name for name in expected if got.get(name) != expected[name]]
        now = cli_digest_versions()
        assert not changed and list(got) == list(expected), (
            f"cases changed: {changed}; added: {sorted(got.keys() - expected.keys())}. "
            f"The manifest was computed with numpy {manifest['numpy']} and Python "
            f"{manifest['python']}; this run has numpy {now['numpy']} and Python {now['python']}."
        )


class TestEstimate:
    def test_counterfactual_report(self, cf_csv, capsys):
        assert main(["estimate", "--in", str(cf_csv)]) == 0
        report = read_json(capsys)
        assert report["kind"] == "counterfactual"
        assert report["bound_satisfied"] is True
        assert abs(report["gamma"]) <= 2.0
        assert report["per_trial_max_abs"] == 2.0
        assert report["n_used"] == [400] * 4
        assert report["gamma"] == round(report["gamma"], 6)

    def test_subrun_report_at_strong_settings(self, tmp_path, capsys):
        path = tmp_path / "strong.csv"
        main(["simulate", "--mode", "qm", "--n-per", "20000", "--seed", "3",
              "--out", str(path)])
        assert main(["estimate", "--in", str(path)]) == 0
        report = read_json(capsys)
        assert report["kind"] == "subruns"
        assert report["gamma"] == pytest.approx(2 * math.sqrt(2), abs=0.05)
        assert report["bound_satisfied"] is False
        assert "per_trial_max_abs" not in report

    def test_writes_report_file(self, cf_csv, tmp_path):
        out = tmp_path / "report.json"
        assert main(["estimate", "--in", str(cf_csv), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "counterfactual"

    def test_bound_flag_is_exact(self, tmp_path, capsys):
        # Exact gamma is 2; the float sum of the four terms is an ulp above.
        path = tmp_path / "exact2.csv"
        write_subrun_csv(exact_two_dataset(), path)
        assert main(["estimate", "--in", str(path)]) == 0
        report = read_json(capsys)
        assert report["gamma"] == 2.0
        assert report["bound_satisfied"] is True

    def test_bound_flag_reads_the_exact_gamma_above_2(self, tmp_path, capsys):
        # Exact gamma is 2 + 2/812702998307594909; its float is 2.0.
        path = tmp_path / "above2.csv"
        write_subrun_csv(just_above_two_dataset(), path)
        assert main(["estimate", "--in", str(path)]) == 0
        report = read_json(capsys)
        assert report["gamma"] == 2.0
        assert report["bound_satisfied"] is False

    def test_bound_flag_reads_the_exact_gamma_below_minus_2(self, tmp_path, capsys):
        # Exact gamma is -(2 + 2/812702998307594909); its float is -2.0.
        path = tmp_path / "below2.csv"
        write_subrun_csv(just_above_two_dataset(sign=-1), path)
        assert main(["estimate", "--in", str(path)]) == 0
        report = read_json(capsys)
        assert report["gamma"] == -2.0
        assert report["bound_satisfied"] is False

    def test_failed_report_write_keeps_the_earlier_file(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_bytes(b"earlier report\n")
        with pytest.raises(UnicodeEncodeError), sources._output(str(out)) as stream:
            stream.write("{\n  \"unencodable\": \"\ud800\"\n}\n")
        assert out.read_bytes() == b"earlier report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_out_error_names_the_path_as_given(self, cf_csv, tmp_path, capsys, monkeypatch):
        # The temporary file's name holds the process id; the message must not.
        monkeypatch.chdir(tmp_path)
        errors = []
        for pid in (28720, 28762):
            monkeypatch.setattr(os, "getpid", lambda pid=pid: pid)
            assert main(["estimate", "--in", str(cf_csv), "--out", "nodir/report.json"]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0] == "error: [Errno 2] No such file or directory: 'nodir/report.json'\n"
        assert ".tmp" not in errors[0]

    def test_out_dev_stdout_writes_to_the_pipe(self):
        proc = run_proc(
            "simulate", "--mode", "qm", "--n-per", "2", "--seed", "3", "--out", "/dev/stdout"
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "pair,outcome_a,outcome_b"
        assert len(lines) == 9

    @pytest.mark.parametrize("fd, dev", [(1, "/dev/stdout"), (2, "/dev/stderr")])
    @pytest.mark.parametrize("append", [False, True])
    def test_out_dev_stdout_writes_at_a_redirected_file_offset(self, tmp_path, fd, dev, append):
        # `{ echo before; chshkit ... --out /dev/stdout; echo after; } > log`, and the same
        # with `>> log`: the output lands between the lines, and the file is not replaced.
        args = ["simulate", "--mode", "qm", "--n-per", "10", "--seed", "1", "--out"]
        assert run_proc(*args, str(tmp_path / "plain.csv")).returncode == 0
        log = tmp_path / "log"
        log.write_bytes(b"prior\n")
        out = os.open(log, os.O_WRONLY | (os.O_APPEND if append else os.O_TRUNC))
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        streams["stdout" if fd == 1 else "stderr"] = out
        try:
            os.write(out, b"before\n")
            proc = subprocess.run([sys.executable, "-m", "chshkit", *args, dev], **streams)
            os.write(out, b"after\n")
        finally:
            os.close(out)
        assert proc.returncode == 0, proc.stderr
        prior = b"prior\n" if append else b""
        assert log.read_bytes() == prior + b"before\n" + (tmp_path / "plain.csv").read_bytes() + b"after\n"

    def test_out_dev_stderr_with_stdout_closed(self, tmp_path):
        # `{ echo before >&2; chshkit ... --out /dev/stderr; echo after >&2; } 2> log >&-`:
        # a closed fd 1 matches no file, so fd 2 is still found and written at its offset.
        args = ["simulate", "--mode", "qm", "--n-per", "2", "--seed", "1", "--out"]
        assert run_proc(*args, str(tmp_path / "plain.csv")).returncode == 0
        log = tmp_path / "log"
        err = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        closing = "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])"
        try:
            os.write(err, b"before\n")
            proc = subprocess.run([sys.executable, "-c", closing, sys.executable, "-m", "chshkit",
                                   *args, "/dev/stderr"], stderr=err)
            os.write(err, b"after\n")
        finally:
            os.close(err)
        assert proc.returncode == 0
        assert log.read_bytes() == b"before\n" + (tmp_path / "plain.csv").read_bytes() + b"after\n"

    @pytest.mark.parametrize("via_symlink", [False, True], ids=["file", "symlink"])
    def test_out_keeps_the_replaced_file_mode(self, tmp_path, via_symlink):
        # A private file stays private; a new file gets the umask's mode.
        args = ["simulate", "--mode", "qm", "--n-per", "2", "--seed", "1", "--out"]
        private, new = tmp_path / "private.csv", tmp_path / "new.csv"
        private.write_text("earlier\n")
        private.chmod(0o600)
        dest = private
        if via_symlink:
            dest = tmp_path / "link.csv"
            dest.symlink_to(private)
        umask = os.umask(0o022)
        try:
            assert main([*args, str(dest)]) == 0
            assert main([*args, str(new)]) == 0
        finally:
            os.umask(umask)
        assert private.read_text().startswith("pair,")
        assert dest.is_symlink() is via_symlink
        assert stat.S_IMODE(private.stat().st_mode) == 0o600
        assert stat.S_IMODE(new.stat().st_mode) == 0o644

    def test_in_dev_stdin_reads_the_pipe(self, qm_csv):
        piped = subprocess.run(
            [sys.executable, "-m", "chshkit", "estimate", "--in", "/dev/stdin"],
            input=qm_csv.read_bytes(), capture_output=True,
        )
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout.decode() == run_proc("estimate", "--in", str(qm_csv)).stdout

    def test_byte_order_mark_is_read_as_utf8_signature(self, qm_csv, tmp_path, capsys):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + qm_csv.read_bytes())
        assert main(["estimate", "--in", str(qm_csv)]) == 0
        plain = capsys.readouterr().out
        assert main(["estimate", "--in", str(marked)]) == 0
        assert capsys.readouterr().out == plain

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["estimate", "--in", str(tmp_path / "absent.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_header_only_file_reports_no_trials(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("pair,outcome_a,outcome_b\n")
        assert main(["estimate", "--in", str(path)]) == 1
        assert "no trials" in capsys.readouterr().err

    def test_quoted_header_is_recognized(self, tmp_path, capsys):
        path = tmp_path / "quoted.csv"
        path.write_text('"pair","outcome_a","outcome_b"\nab,+1,+1\nac,+1,+1\ndb,+1,+1\ndc,+1,-1\n')
        assert main(["estimate", "--in", str(path)]) == 0
        assert read_json(capsys)["gamma"] == 4.0

    def test_unrecognized_header(self, tmp_path, capsys):
        path = tmp_path / "odd.csv"
        path.write_text("x,y\n1,2\n")
        assert main(["estimate", "--in", str(path)]) == 1
        assert "unrecognized" in capsys.readouterr().err

    def test_unrecognized_header_message_is_bounded(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("x," * 400_000 + "y\n1,2\n")
        assert main(["estimate", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: unrecognized trial CSV header: no 'pair' or 'j' column\n"
        assert len(err.encode()) < 100

    @pytest.mark.parametrize(
        "header, err",
        [
            # A `pair` column makes a sub-run file, even with a `j` column before it.
            ("j,pair,outcome_a,outcome_b", "error: unexpected column(s): j\n"),
            # Names are stripped to pick the kind, and only for that.
            (" j ,a,d,b,c", "error: missing column(s): j\n"),
        ],
    )
    def test_kind_rule(self, tmp_path, capsys, header, err):
        path = tmp_path / "kind.csv"
        path.write_text(header + "\n")
        assert main(["estimate", "--in", str(path)]) == 1
        assert capsys.readouterr().err == err


class TestSplit:
    def test_pipeline_preserves_trial_count(self, cf_csv, tmp_path, capsys):
        out = tmp_path / "split.csv"
        assert main(["split", "--in", str(cf_csv), "--seed", "5", "--out", str(out)]) == 0
        assert main(["estimate", "--in", str(out)]) == 0
        report = read_json(capsys)
        assert report["kind"] == "subruns"
        assert sum(report["n_used"]) == 400

    def test_requires_seed(self, cf_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--in", str(cf_csv), "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2


class TestResort:
    def test_identical_copies_close(self, shared_csv, capsys):
        assert main(["resort", "--in", str(shared_csv)]) == 0
        report = read_json(capsys)
        assert report["closure"] is True
        assert report["hamming_b"] == 0
        assert report["feasible"] == [True, True, True]
        assert report["gamma_resorted"] == report["gamma_subruns"]

    def test_open_cascade_is_still_exit_zero(self, qm_csv, capsys):
        assert main(["resort", "--in", str(qm_csv)]) == 0
        report = read_json(capsys)
        assert report["closure"] is False
        assert report["hamming_b"] > 0

    def test_unequal_lengths_need_trim(self, tmp_path, capsys):
        path = tmp_path / "uneven.csv"
        path.write_text(
            "pair,outcome_a,outcome_b\n"
            "ab,+1,+1\nab,-1,+1\nac,+1,-1\ndb,-1,-1\ndc,+1,+1\n"
        )
        assert main(["resort", "--in", str(path)]) == 1
        assert "equal sub-run lengths" in capsys.readouterr().err
        assert main(["resort", "--in", str(path), "--trim"]) == 0
        captured = capsys.readouterr()
        assert "trimming" in captured.err
        assert json.loads(captured.out)["feasible"] is not None

    @pytest.mark.parametrize("command", ["resort", "audit"])
    @pytest.mark.parametrize("trim", [[], ["--trim"]])
    def test_empty_list_is_named_before_any_trimming(self, tmp_path, capsys, command, trim):
        path = tmp_path / "no-dc.csv"
        path.write_text(
            "pair,outcome_a,outcome_b\n"
            "ab,+1,+1\nab,-1,+1\nac,+1,-1\nac,-1,-1\ndb,-1,-1\ndb,+1,+1\n"
        )
        assert main([command, "--in", str(path), *trim]) == 1
        assert capsys.readouterr().err == "error: empty sub-run list: dc\n"

    def test_uniform_policy_requires_seed(self, qm_csv):
        with pytest.raises(SystemExit) as exc:
            main(["resort", "--in", str(qm_csv), "--policy", "uniform-random"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["resort", "audit"])
    def test_stable_policy_rejects_seed(self, qm_csv, capsys, command):
        # The stable policy draws nothing: a seed would be ignored.
        with pytest.raises(SystemExit) as exc:
            main([command, "--in", str(qm_csv), "--seed", "5"])
        assert exc.value.code == 2
        assert "--seed is used only with --policy uniform-random" in capsys.readouterr().err

    def test_uniform_policy_deterministic(self, qm_csv):
        runs = [
            run_proc("resort", "--in", str(qm_csv), "--policy", "uniform-random", "--seed", "1")
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout


class TestSweep:
    def test_curve_matches_theory(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--steps", "4", "--n-per", "4000", "--seed", "6",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "offset_deg,gamma_theory,gamma_empirical"
        assert len(lines) == 6  # steps + 1 rows
        rows = [line.split(",") for line in lines[1:]]
        offsets = [float(r[0]) for r in rows]
        assert offsets == [0.0, 22.5, 45.0, 67.5, 90.0]
        theory = {r[0]: float(r[1]) for r in rows}
        assert theory["0.0"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
        assert theory["22.5"] == pytest.approx(2.0, abs=1e-6)
        assert theory["45.0"] == pytest.approx(0.0, abs=1e-6)
        assert theory["90.0"] == pytest.approx(-2 * math.sqrt(2), abs=1e-6)
        for r in rows:
            assert abs(float(r[2]) - float(r[1])) <= 0.15

    def test_offsets_print_exactly(self, tmp_path):
        # Two decimals printed these five offsets as 0.00 twice and 0.01 three times.
        out = tmp_path / "sweep.csv"
        main(["sweep", "--steps", "4", "--offset-max", "0.01", "--n-per", "10", "--seed", "1",
              "--out", str(out)])
        texts = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert [float(t) for t in texts] == np.linspace(0, 0.01, 5).tolist()
        assert len(set(texts)) == 5

    def test_offset_range_keeps_theory_in_band(self, tmp_path):
        # A quarter-turn offset on arm B walks gamma across [-2sqrt2, 2sqrt2];
        # the mid-band values stay inside the two-sided classical range.
        out = tmp_path / "sweep2.csv"
        main(["sweep", "--steps", "8", "--offset-min", "10", "--offset-max", "35",
              "--n-per", "1000", "--seed", "7", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 9
        assert all(-2 <= float(r[1]) <= 2.83 for r in rows)

    @pytest.mark.parametrize("flag, value", [("--offset-min", "nan"), ("--offset-max", "inf"),
                                             ("--offset-min", "-inf")])
    def test_non_finite_offset_is_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--steps", "1", "--n-per", "10", "--seed", "1",
                  f"{flag}={value}", "--out", str(tmp_path / "sweep.csv")])
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_offset_span_beyond_float_range_is_usage_error(self, tmp_path):
        # Each bound is finite, but their difference overflows to inf.
        out = tmp_path / "sweep.csv"
        proc = run_proc("sweep", "--steps", "1", "--n-per", "10", "--seed", "1",
                        "--offset-min=-1e308", "--offset-max=1e308", "--out", str(out))
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("low, high, bad", [("0", "1e20", "5e+19"),
                                                ("-1e300", "1e300", "-1e+300")])
    def test_huge_finite_offset_is_usage_error(self, tmp_path, capsys, low, high, bad):
        # Added to the base angles, such an offset rounds b and c together.
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--steps", "2", f"--offset-min={low}", f"--offset-max={high}",
                  "--n-per", "10", "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"offset {bad} degrees" in err and "b == c" in err
        assert not out.exists()

    def test_checking_every_row_keeps_no_settings(self, tmp_path, capsys):
        # Only the last 15 of 100,001 offsets round b and c together, so
        # the command checks 99,986 rows' settings and exits before any
        # draw.  Keeping each row's settings cost about 62 MB here.
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--steps", "100000", "--offset-max", "1.0324e18",
                      "--n-per", "10", "--seed", "1", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert "offset 1.03226e+18 degrees" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 2_000_000


class TestAudit:
    def test_shared_fixture_verdict(self, shared_csv, capsys):
        assert main(["audit", "--in", str(shared_csv)]) == 0
        report = read_json(capsys)
        assert report["verdict"] == "re-sortable; Bell bound applies"
        assert report["resort"]["closure"] is True
        ctx = report["closure_context"]
        assert ctx["n"] == 12
        assert ctx["counts_match"] is True
        assert ctx["coincidence_probability"] == pytest.approx(
            1 / math.comb(12, ctx["plus_count_b1"])
        )

    def test_independent_fixture_verdict(self, qm_csv, capsys):
        assert main(["audit", "--in", str(qm_csv)]) == 0
        report = read_json(capsys)
        assert report["verdict"] == "not re-sortable; Bell bound inapplicable"
        assert report["estimate"]["kind"] == "subruns"
        assert len(report["resort"]["count_deficits"]) == 3

    def test_count_mismatch_reports_deficits(self, tmp_path, capsys):
        path = tmp_path / "mismatch.csv"
        path.write_text(
            "pair,outcome_a,outcome_b\n"
            "ab,+1,+1\nac,+1,-1\ndb,+1,+1\ndc,-1,+1\n"
        )
        assert main(["audit", "--in", str(path)]) == 0
        report = read_json(capsys)
        assert report["verdict"] == "not re-sortable; Bell bound inapplicable"
        assert report["resort"]["count_deficits"] == [0, -1, -1]
        assert report["resort"]["gamma_resorted"] is None


class TestOneCascadePath:
    """`resort` and `audit` ingest, check, trim and run the cascade alike."""

    @pytest.fixture
    def uneven_csv(self, tmp_path):
        # Shared-origin lists of 40 trials without the last 3 ab and 1 dc rows: 37, 40, 40 and
        # 39.  Trimmed, every step stays feasible, so the uniform policy's draws show in the report.
        shared = tmp_path / "shared.csv"
        write_subrun_csv(shared_run_dataset(random_counterfactual(RngSpec(13), 40)), shared)
        header, *rows = shared.read_text().splitlines()
        lists = {label: [row for row in rows if row.startswith(label)] for label in ("ab", "ac", "db", "dc")}
        kept = lists["ab"][:37] + lists["ac"] + lists["db"] + lists["dc"][:39]
        path = tmp_path / "uneven.csv"
        path.write_text("\n".join([header, *kept]) + "\n")
        return path

    @pytest.mark.parametrize("policy", [["--policy", "stable"], ["--policy", "uniform-random", "--seed", "7"]],
                             ids=["stable", "uniform-random"])
    @pytest.mark.parametrize("trim", [[], ["--trim"]], ids=["untrimmed", "trimmed"])
    def test_audit_resort_part_is_the_resort_report(self, uneven_csv, capsys, policy, trim):
        args = ["--in", str(uneven_csv), *policy, *trim]
        resort_code = main(["resort", *args])
        resort = capsys.readouterr()
        audit_code = main(["audit", *args])
        audit = capsys.readouterr()
        assert resort.err == audit.err
        if not trim:
            assert resort_code == audit_code == 1
            assert resort.err == (
                "error: cascade requires equal sub-run lengths, got (37, 40, 40, 39) "
                "(pass --trim to truncate all lists to the shortest; lossy)\n"
            )
            return
        assert resort_code == audit_code == 0
        assert resort.err == "note: trimming sub-run lists (37, 40, 40, 39) to 37 trials each\n"
        report = json.loads(audit.out)
        assert report["resort"] == json.loads(resort.out)
        # The estimate covers every loaded trial; the cascade and its odds, the trimmed lists.
        assert report["estimate"]["n_used"] == [37, 40, 40, 39]
        assert report["closure_context"]["n"] == 37
        seed = RngSpec(int(policy[-1])) if "--seed" in policy else None
        expected = resort_cascade(trim_to_shortest(ingest_csv(uneven_csv)), ResortPolicy(seed))
        assert report["resort"] == cli._report_dict(expected)


class TestMalformedInput:
    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("command", ["estimate", "resort", "audit", "split"])
    def test_oversized_cell_is_a_one_line_error(self, tmp_path, capsys, command, quoted):
        # csv's field size limit is 131,072 characters.
        cell = "1" * 200_000
        if quoted:
            cell = f'"{cell}"'
        path = tmp_path / "huge.csv"
        if command == "split":
            path.write_text(f"j,a,d,b,c\n1,{cell},+1,+1,+1\n")
        else:
            path.write_text(f"pair,outcome_a,outcome_b\nab,{cell},+1\n")
        argv = [command, "--in", str(path)]
        if command == "split":
            argv += ["--seed", "1", "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(" at row 1\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "lead, message",
        [(b"", f"field larger than field limit ({csv.field_size_limit()})"), (b"\xff", "invalid UTF-8")],
    )
    @pytest.mark.parametrize("command", ["estimate", "resort", "audit", "split"])
    def test_header_field_over_the_limit_is_the_ingest_error(self, tmp_path, capsys, command, lead, message):
        # estimate picks the kind from the header before the ingest reads it,
        # and must not echo the header instead of naming what is wrong.
        path = tmp_path / "huge-header.csv"
        path.write_bytes(lead + b"pair,outcome_a," + b"b" * 140_000 + b"\nab,+1,+1\n")
        argv = [command, "--in", str(path)]
        if command == "split":
            argv += ["--seed", "1", "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message} in the header\n"


class TestSeedRange:
    COMMANDS = {
        "simulate": ["simulate", "--mode", "qm", "--n-per", "2", "--out", "{out}"],
        "split": ["split", "--in", "{cf}", "--out", "{out}"],
        "sweep": ["sweep", "--steps", "1", "--n-per", "10", "--out", "{out}"],
        "resort": ["resort", "--in", "{qm}", "--policy", "uniform-random"],
    }

    def _argv(self, command, seed, tmp_path, cf_csv, qm_csv):
        paths = {"out": tmp_path / "out.csv", "cf": cf_csv, "qm": qm_csv}
        return [a.format(**paths) for a in self.COMMANDS[command]] + ["--seed", seed]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_seed_outside_64_bits_is_usage_error(
        self, tmp_path, cf_csv, qm_csv, capsys, command, seed
    ):
        with pytest.raises(SystemExit) as exc:
            main(self._argv(command, seed, tmp_path, cf_csv, qm_csv))
        assert exc.value.code == 2
        assert "2**64" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_largest_seed_is_accepted(self, tmp_path, cf_csv, qm_csv, command):
        assert main(self._argv(command, str(2**64 - 1), tmp_path, cf_csv, qm_csv)) == 0

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("command", ["resort", "audit"])
    def test_boundary_seed_drives_the_uniform_policy(self, shared_csv, capsys, command, seed):
        # Seed 0 is falsy; it must still draw, not fall back to the stable cascade.
        argv = [command, "--in", str(shared_csv), "--policy", "uniform-random", "--seed", str(seed)]
        assert main(argv) == 0
        report = read_json(capsys)
        data = ingest_csv(shared_csv)
        expected = cli._report_dict(resort_cascade(data, ResortPolicy.uniform_random(RngSpec(seed))))
        assert (report if command == "resort" else report["resort"]) == expected
        assert expected != cli._report_dict(resort_cascade(data, ResortPolicy()))


class TestUsage:
    def test_no_command_is_usage_error(self):
        proc = run_proc()
        assert proc.returncode == 2

    def test_unknown_command_is_usage_error(self):
        proc = run_proc("frobnicate")
        assert proc.returncode == 2

    def test_help_exits_zero(self):
        proc = run_proc("--help")
        assert proc.returncode == 0
        assert "simulate" in proc.stdout


class TestEntryPoint:
    """``python -m chshkit`` and the ``chshkit`` script run ``__main__.run``:
    ``cli.main``, then a ``gc.freeze()`` that spares shutdown its collections."""

    CASES = {
        "simulate": ["simulate", "--mode", "qm", "--n-per", "3000", "--seed", "5", "--out", "{out}"],
        "estimate": ["estimate", "--in", "{out}"],
        "data-error": ["estimate", "--in", "{absent}"],
        "usage-error": ["sweep", "--steps", "0", "--seed", "1", "--out", "{out}"],
    }

    def _argv(self, case, directory):
        paths = {"out": directory / "qm.csv", "absent": directory / "absent.csv"}
        return [a.format(**paths) for a in self.CASES[case]]

    def test_module_gives_what_main_gives(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        for side in ("main", "module"):
            (tmp_path / side).mkdir()
        got = {}
        for case in self.CASES:
            try:
                code = main(self._argv(case, tmp_path / "main"))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "chshkit", *self._argv(case, tmp_path / "module")],
                capture_output=True,
            )
            err = err.replace(str(tmp_path / "main"), str(tmp_path / "module"))
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
            got[case] = code
        assert got == {"simulate": 0, "estimate": 0, "data-error": 1, "usage-error": 2}
        written = (tmp_path / "module" / "qm.csv").read_bytes()
        assert written == (tmp_path / "main" / "qm.csv").read_bytes()
        assert written.count(b"\n") == 1 + 4 * 3000

    @pytest.mark.parametrize("case, code", [("estimate", 0), ("data-error", 1), ("usage-error", 2)])
    def test_module_freezes_before_it_exits(self, tmp_path, case, code):
        assert main(self._argv("simulate", tmp_path)) == 0
        # atexit handlers run after the exit code is set, before shutdown collects.
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            f"sys.argv = ['chshkit', *{self._argv(case, tmp_path)!r}]\n"
            "runpy.run_module('chshkit', run_name='__main__')\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == code
        assert int(proc.stderr.splitlines()[-1]) > 10_000

    def test_main_does_not_freeze(self, tmp_path, capsys):
        frozen = gc.get_freeze_count()
        for case in self.CASES:
            try:
                main(self._argv(case, tmp_path))
            except SystemExit:
                pass
        assert gc.get_freeze_count() == frozen

    def test_script_runs_the_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"chshkit": "chshkit.__main__:run"}

    def test_version_is_stated_once(self):
        # The package metadata reads chshkit.__version__; pyproject names none.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        assert "version" not in config["project"] and config["project"]["dynamic"] == ["version"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "chshkit.__version__"}


class TestSpawnPeakRss:
    """CI reports a command's peak RSS through ``spawn_peak_rss_mb``."""

    def test_reads_the_command_not_its_caller(self):
        # This process holds numpy and the suite, several times a bare
        # interpreter's peak; a spawned child must not inherit that figure.
        bare = spawn_peak_rss_mb([sys.executable, "-S", "-c", "pass"])
        holding = spawn_peak_rss_mb([sys.executable, "-S", "-c", "x = b'x' * (64 << 20)"])
        assert 0 < bare < 30
        assert 60 < holding - bare < 80

    def test_a_failing_command_raises(self):
        with pytest.raises(subprocess.CalledProcessError) as failed:
            spawn_peak_rss_mb([sys.executable, "-S", "-c", "import sys; sys.exit('no')"])
        assert failed.value.returncode == 1 and "no" in failed.value.stderr
