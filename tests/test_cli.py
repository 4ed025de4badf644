"""Command-line surface: files written, exit codes, budgets, replays."""

import hashlib
import shutil
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import seqent.cli
import seqent.entropy
import seqent.formats
import seqent.independence
import seqent.model
from seqent.cli import (
    EXIT_CLOSED_OUTPUT,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INVALID,
    EXIT_PASS,
    EXIT_SOFTWARE,
    main,
)
from seqent.formats import config_hash


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seqent_command():
    """The argv prefix that starts the `seqent` console script.

    An installed `seqent` on PATH is used as it is. Otherwise the script is
    read from `[project.scripts]` (the `console_scripts` group) in
    `pyproject.toml` and started the way pip's generated launcher starts it,
    so a checkout run with `PYTHONPATH=src` and no install still checks the
    declared target.
    """
    script = shutil.which("seqent")
    if script is not None:
        return [script]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    ep = EntryPoint(name="seqent", value=scripts["seqent"],
                    group="console_scripts")
    launcher = (f"import sys; from {ep.module} import {ep.attr}; "
                f"sys.argv[0] = {ep.name!r}; sys.exit({ep.attr}())")
    return [sys.executable, "-c", launcher]


def data_lines(path):
    return path.read_text(encoding="utf-8").splitlines()[4:]


class TestBuild:
    def test_writes_manifest_and_symbols(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "build", "--family", "log-m",
                               "--m", "2", "--kmax", "3",
                               "--out", str(tmp_path))
        assert code == EXIT_PASS
        assert "manifest:" in out and "symbols:" in out
        assert (tmp_path / "manifest-log-m-m2-k3.txt").exists()
        assert (tmp_path / "symbols-log-m-m2-k3.txt").exists()

    def test_first_wind_walks_from_a0_back_to_a0(self, tmp_path, capsys):
        run_cli(capsys, "build", "--family", "log-m", "--m", "2",
                "--kmax", "3", "--out", str(tmp_path))
        rows = data_lines(tmp_path / "symbols-log-m-m2-k3.txt")[:8]
        walk = [0, 1, 2, 3, -3, -2, -1, 0]
        for t, (row, head) in enumerate(zip(rows, walk)):
            assert row == f"{t}\ta{head}\tB1/P1/W1"

    def test_dense_block_two_lists_27_pieces(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "build", "--family", "log-infty",
                             "--nmax", "2", "--out", str(tmp_path))
        assert code == EXIT_PASS
        text = (tmp_path / "manifest-log-infty-n2.txt").read_text()
        block2 = next(line for line in text.splitlines()
                      if line.startswith("block[2]:"))
        pieces = block2.split("pieces=", 1)[1].split(",")
        assert len(pieces) == 27
        assert sum(1 for line in text.splitlines()
                   if line.startswith("segment: path=B2/S")) == 27

    def test_rebuild_is_byte_identical(self, tmp_path, capsys):
        one, two = tmp_path / "one", tmp_path / "two"
        for out in (one, two):
            run_cli(capsys, "build", "--family", "log-m", "--m", "3",
                    "--kmax", "2", "--out", str(out))
        for name in ("manifest-log-m-m3-k2.txt", "symbols-log-m-m3-k2.txt"):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_symbol_count_flag(self, tmp_path, capsys):
        run_cli(capsys, "build", "--family", "log-m", "--m", "2",
                "--kmax", "1", "--symbols", "12", "--out", str(tmp_path))
        assert len(data_lines(tmp_path / "symbols-log-m-m2-k1.txt")) == 12

    @pytest.mark.parametrize("count", ["100000", "368", "-5"])
    def test_symbol_count_outside_the_build_is_invalid(self, tmp_path,
                                                       capsys, count):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "build", "--family", "log-infty",
                               "--nmax", "2", "--symbols", count,
                               "--out", str(out_dir))
        assert code == EXIT_INVALID
        assert f"--symbols {count} outside [0, 367]" in err
        assert not out_dir.exists()

    def test_symbol_count_up_to_the_horizon(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "build", "--family", "log-infty",
                               "--nmax", "2", "--symbols", "367",
                               "--out", str(tmp_path))
        assert code == EXIT_PASS
        assert "(367 lines)" in out
        lines = (tmp_path / "symbols-log-infty-n2.txt").read_text(
            encoding="utf-8").splitlines()
        assert lines[3] == "range: 0,366" and len(lines) == 4 + 367

    def test_symbols_zero_skips_file(self, tmp_path, capsys):
        run_cli(capsys, "build", "--family", "log-m", "--m", "2",
                "--kmax", "1", "--symbols", "0", "--out", str(tmp_path))
        assert not (tmp_path / "symbols-log-m-m2-k1.txt").exists()

    def test_internal_error_exits_70_with_its_traceback(self, monkeypatch,
                                                        capsys):
        # any exception that is no SeqentError is a bug: exit 70, never 1
        # (a failed check) or 2 (bad input)
        def broken(_args):
            raise RuntimeError("command bug")
        monkeypatch.setattr(seqent.cli, "_cmd_build", broken)
        code, out, err = run_cli(capsys, "build", "--family", "log-m",
                                 "--m", "2", "--kmax", "1")
        assert (code, out) == (EXIT_SOFTWARE, "") and EXIT_SOFTWARE == 70
        assert err.startswith("Traceback")
        assert err.endswith("RuntimeError: command bug\n")

    def test_the_parser_is_built_once(self, capsys, monkeypatch):
        # later calls reuse it; a bad argument still exits 2 from it
        seqent.cli._build_parser()
        monkeypatch.setattr(seqent.cli.argparse, "ArgumentParser", None)
        code, out, _ = run_cli(capsys, "build", "--family", "log-m",
                               "--m", "2", "--kmax", "1", "--symbols", "0")
        assert code == EXIT_PASS and out.startswith("built log-m")
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "log-m", "--nmax", "x"])
        assert exc.value.code == EXIT_INVALID
        capsys.readouterr()

    def test_times_past_the_decimal_limit_are_invalid(self, tmp_path,
                                                      capsys):
        # m=5 kmax=4 builds in ~0.3 s, but its 7,837-digit times pass the
        # 4,300 digits Python converts to text, and its manifest would
        # hold ~74,000 such numbers at ~1 ms each
        code, out, err = run_cli(capsys, "build", "--family", "log-m",
                                 "--m", "5", "--kmax", "4", "--symbols", "0",
                                 "--out", str(tmp_path / "out"))
        assert (code, out) == (EXIT_INVALID, "")
        assert err == ("invalid configuration: the m=5 kmax=4 build has "
                       "times of more than 4300 decimal digits, past the "
                       "limit of Python's int-to-text conversion\n")
        assert not (tmp_path / "out").exists()

    def test_dense_manifest_past_nmax_6_is_refused(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "build", "--family", "log-infty",
                                 "--nmax", "7", "--out", str(tmp_path / "d"))
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("invalid configuration: --nmax 7 --out: ")
        assert "written up to --nmax 6" in err
        assert not (tmp_path / "d").exists()
        # without --out the build runs and writes nothing
        code, out, _ = run_cli(capsys, "build", "--family", "log-infty",
                               "--nmax", "7")
        assert code == EXIT_PASS
        assert out.startswith("built log-infty trajectory: ")

    def test_missing_m_is_invalid(self, capsys):
        code, _, err = run_cli(capsys, "build", "--family", "log-m")
        assert code == EXIT_INVALID
        assert "invalid configuration" in err

    def test_undersized_alphabet_is_invalid(self, capsys):
        code, _, _ = run_cli(capsys, "build", "--family", "log-m",
                             "--m", "1", "--kmax", "1")
        assert code == EXIT_INVALID


class TestVerifySuites:
    def test_r1_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "R1",
                               "--m", "2", "--kmax", "1")
        assert code == EXIT_PASS
        assert "PASS block-independence" in out

    def test_kmax_without_m_applies_to_both_default_alphabets(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "R1",
                               "--kmax", "1")
        assert code == EXIT_PASS
        assert [line.split(" (")[0] for line in out.splitlines()] == [
            "PASS block-independence [m=2 k=1 assignments=4]",
            "PASS block-independence [m=3 k=1 assignments=9]"]

    def test_all_suites_small_config(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                               "--m", "2", "--kmax", "2", "--nmax", "2",
                               "--out", str(out_dir))
        assert code == EXIT_PASS
        reports = sorted(out_dir.glob("report-*.txt"))
        certs = sorted(out_dir.glob("cert-*.txt"))
        assert len(reports) == 10
        assert len(certs) == 11
        assert (out_dir / "manifest-log-m-2-2.txt").exists()
        hashes = set()
        for path in reports:
            text = path.read_text(encoding="utf-8")
            line = next(l for l in text.splitlines()
                        if l.startswith("config-hash: "))
            hashes.add(line)
        assert len(hashes) == 1

    def test_identical_runs_write_identical_reports(self, tmp_path, capsys):
        texts = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(capsys, "verify", "--suite", "section3",
                                 "--nmax", "3", "--out", str(out_dir))
            assert code == EXIT_PASS
            texts.append({p.name: p.read_bytes()
                          for p in sorted(out_dir.glob("report-*.txt"))})
        assert texts[0]
        assert texts[0] == texts[1]

    def test_section3_keeps_the_assignment_cap_at_nmax_6(self, capsys):
        # block 6 has 7^7 = 823,543 assignments: the cap is checked before
        # any of them is proposed
        code, out, err = run_cli(capsys, "verify", "--suite", "section3",
                                 "--nmax", "6")
        assert code == EXIT_INCONCLUSIVE
        assert "7^7 assignments exceed the cap 200000" in err
        assert out == ""

    def test_output_files_use_inf_token(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        run_cli(capsys, "verify", "--suite", "R2", "--m", "2", "--kmax", "2",
                "--out", str(out_dir))
        for path in out_dir.iterdir():
            text = path.read_text(encoding="utf-8")
            assert "∞" not in text
        report = next(out_dir.glob("report-*far-pair*.txt")).read_text()
        assert "inf" in report

    def test_nothing_written_outside_out_dir(self, tmp_path, monkeypatch,
                                             capsys):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "verify", "--suite", "growth",
                             "--m", "2", "--kmax", "1",
                             "--out", str(out_dir))
        assert code == EXIT_PASS
        assert list(workdir.iterdir()) == []

    def test_suite_or_replay_required(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == EXIT_INVALID
        assert "needs --suite or --replay" in err

    def test_node_budget_env_gives_inconclusive(self, monkeypatch, capsys):
        monkeypatch.setenv("SEQENT_NODE_BUDGET", "10")
        code, _, err = run_cli(capsys, "verify", "--suite", "R2",
                               "--m", "2", "--kmax", "3")
        assert code == EXIT_INCONCLUSIVE
        assert "inconclusive" in err

    def test_node_budget_flag_gives_inconclusive(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "R2",
                             "--m", "2", "--kmax", "3",
                             "--budget-nodes", "10")
        assert code == EXIT_INCONCLUSIVE

    def test_flag_overrides_budget_env(self, monkeypatch, capsys):
        monkeypatch.setenv("SEQENT_NODE_BUDGET", "10")
        code, _, _ = run_cli(capsys, "verify", "--suite", "R2",
                             "--m", "2", "--kmax", "2",
                             "--budget-nodes", "10000000")
        assert code == EXIT_PASS


class TestReplay:
    @pytest.fixture()
    def built(self, tmp_path, capsys):
        run_cli(capsys, "build", "--family", "log-m", "--m", "2",
                "--kmax", "2", "--symbols", "64", "--out", str(tmp_path))
        return (tmp_path / "manifest-log-m-m2-k2.txt",
                tmp_path / "symbols-log-m-m2-k2.txt")

    def test_manifest_replay_passes(self, built, capsys):
        manifest, _ = built
        code, out, _ = run_cli(capsys, "verify", "--replay", str(manifest))
        assert code == EXIT_PASS
        assert "byte for byte" in out

    def test_clean_symbols_replay_passes(self, built, capsys):
        manifest, symbols = built
        code, out, _ = run_cli(capsys, "verify", "--replay", str(symbols),
                               "--manifest", str(manifest))
        assert code == EXIT_PASS
        assert "64 symbol lines reproduced" in out

    def test_single_edited_symbol_fails_with_counterexample(self, built,
                                                            capsys):
        manifest, symbols = built
        lines = symbols.read_text(encoding="utf-8").splitlines()
        t, _sym, path = lines[10].split("\t")
        lines[10] = f"{t}\ta9\t{path}"
        bad = symbols.with_name("bad.txt")
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--replay", str(bad),
                               "--manifest", str(manifest))
        assert code == EXIT_FAIL
        assert "file has" in out and "rebuild gives" in out

    def test_symbols_replay_needs_manifest(self, built, capsys):
        _, symbols = built
        code, _, err = run_cli(capsys, "verify", "--replay", str(symbols))
        assert code == EXIT_INVALID
        assert "--manifest" in err

    def test_crlf_manifest_fails(self, built, capsys):
        manifest, _ = built
        text = manifest.read_text(encoding="utf-8")
        manifest.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        code, out, _ = run_cli(capsys, "verify", "--replay", str(manifest))
        assert code == EXIT_FAIL
        assert out == (f"FAIL replay {manifest}: line 1 ending differs: "
                       f"file has '\\r\\n', rebuild '\\n'\n")

    def test_tampered_manifest_is_invalid(self, built, capsys):
        manifest, _ = built
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("m: 2", "m: 3", 1),
                            encoding="utf-8")
        code, _, _ = run_cli(capsys, "verify", "--replay", str(manifest))
        assert code == EXIT_INVALID

    def test_missing_files_are_invalid(self, built, tmp_path, capsys):
        manifest, symbols = built
        missing = tmp_path / "missing.txt"
        for argv, what in (([str(missing)], "--replay file"),
                           ([str(symbols), "--manifest", str(missing)],
                            "manifest")):
            code, out, err = run_cli(capsys, "verify", "--replay", *argv)
            assert code == EXIT_INVALID and out == ""
            assert err == (f"invalid configuration: cannot read {what} "
                           f"{missing}: No such file or directory\n")

    @pytest.mark.parametrize("old, new, message", [
        ("kmax: 2\n", "", "is missing its kmax line"),
        ("kmax: 2", "kmax: two", "kmax line: invalid literal for int()")],
        ids=["missing-line", "bad-number"])
    def test_unreadable_manifest_field_is_invalid(self, built, capsys, old,
                                                  new, message):
        manifest, _ = built
        text = manifest.read_text(encoding="utf-8").replace(old, new, 1)
        body = text.rsplit("hash: ", 1)[0]
        manifest.write_text(body + f"hash: {config_hash(body)}\n",
                            encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", "--replay", str(manifest))
        assert code == EXIT_INVALID
        assert f"invalid configuration: manifest {manifest} {message}" in err

    def test_certificate_replay_via_cli(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        run_cli(capsys, "verify", "--suite", "R2", "--m", "2", "--kmax", "2",
                "--out", str(out_dir))
        code, out, _ = run_cli(
            capsys, "verify",
            "--replay", str(out_dir / "cert-01.txt"),
            "--manifest", str(out_dir / "manifest-log-m-2-2.txt"))
        assert code == EXIT_PASS
        assert "PASS replay" in out


class TestCertificateReplay:
    """Certificate headers that the build cannot reproduce are refused
    before any search runs."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("certs")
        assert main(["verify", "--suite", "R2", "--m", "2", "--kmax", "2",
                     "--out", str(out)]) == EXIT_PASS
        assert main(["flower", "--petals", "p2=2,p3=3",
                     "--out", str(out)]) == EXIT_PASS
        return out

    def replay(self, capsys, run, tmp_path, monkeypatch, name, old="",
               new=""):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a refused certificate must not be searched")
        monkeypatch.setattr(seqent.formats, "max_independence", refuse)
        text = (run / name).read_text(encoding="utf-8")
        assert old in text
        path = tmp_path / "forged.txt"
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        return run_cli(capsys, "verify", "--replay", str(path),
                       "--manifest", str(run / "manifest-log-m-2-2.txt"))

    def test_horizon_past_the_build_fails(self, run, tmp_path, capsys,
                                          monkeypatch):
        code, out, _ = self.replay(
            capsys, run, tmp_path, monkeypatch, "cert-01.txt",
            "horizon: 929923726997268949140226350", f"horizon: {10**40}")
        assert code == EXIT_FAIL
        assert out.startswith("FAIL replay")
        assert (f"horizon mismatch: recorded {10**40}, build horizon "
                "93922296426724163863162861451") in out

    def test_unknown_search_is_invalid(self, run, tmp_path, capsys,
                                       monkeypatch):
        code, out, err = self.replay(capsys, run, tmp_path, monkeypatch,
                                     "cert-01.txt", "search: level-shapes",
                                     "search: banana")
        assert code == EXIT_INVALID
        assert out == ""
        assert "unknown search 'banana'" in err

    @pytest.mark.parametrize("old, new, message", [
        ("tuple: U1(a0),U1(a2)\n", "", "{path} is missing its tuple line"),
        ("horizon: 9", "horizon: x9",
         "{path} horizon line: invalid literal for int()"),
        ("target-length: 5", "target-length: 0",
         "{path} target-length line: must be at least 1"),
        ("frontier: 1,0", "frontier: 1,", "{path} frontier line: invalid"),
        ("tuple: U1(a0)", "tuple: U0(a0)",
         "tuple: neighborhood levels are 1-based")],
        ids=["missing-line", "bad-number", "zero-target-length",
             "bad-frontier", "level-zero"])
    def test_unreadable_field_is_invalid(self, run, tmp_path, capsys,
                                         monkeypatch, old, new, message):
        code, out, err = self.replay(capsys, run, tmp_path, monkeypatch,
                                     "cert-01.txt", old, new)
        assert code == EXIT_INVALID and out == ""
        path = tmp_path / "forged.txt"
        assert (f"invalid configuration: certificate "
                f"{message.format(path=path)}") in err

    def test_depth_first_label_replays(self, run, tmp_path, capsys):
        # format-1 certificates of the former depth-first search record the
        # same frontier as level-shapes ones, so both labels replay
        text = (run / "cert-11.txt").read_text(encoding="utf-8")
        assert "search: level-shapes\nfrontier: 1," in text
        path = tmp_path / "relabeled.txt"
        path.write_text(text.replace("search: level-shapes",
                                     "search: depth-first"), encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--replay", str(path),
                               "--manifest",
                               str(run / "manifest-log-m-2-2.txt"))
        assert code == EXIT_PASS
        assert out == f"PASS replay {path}: certificate reproduced\n"

    def test_composite_certificate_is_refused(self, run, tmp_path, capsys,
                                              monkeypatch):
        code, _, err = self.replay(capsys, run, tmp_path, monkeypatch,
                                   "cert-cross-01.txt")
        assert code == EXIT_INVALID
        assert "composite certificates cannot be replayed yet" in err

    def test_fixed_head_certificate_past_the_cap_is_inconclusive(
            self, run, tmp_path, capsys):
        # the limit head lies in both neighborhoods, so the replay would
        # answer the target length with 2^40 realizers
        text = (run / "cert-11.txt").read_text(encoding="utf-8")
        text = text.replace("tuple: U1(a0),U1(a_inf)",
                            "tuple: U1(a_inf),U2(a_inf)", 1)
        text = text.replace("target-length: 5", "target-length: 40", 1)
        path = tmp_path / "forged.txt"
        path.write_text(text, encoding="utf-8")
        started = time.monotonic()
        code, out, err = run_cli(capsys, "verify", "--replay", str(path),
                                 "--manifest",
                                 str(run / "manifest-log-m-2-2.txt"),
                                 "--budget-nodes", "1")
        assert time.monotonic() - started < 5
        assert code == EXIT_INCONCLUSIVE
        assert out == ""
        assert "2^40 assignments exceed the cap" in err

    def test_fixed_head_certificate_past_the_budget_is_inconclusive(
            self, run, tmp_path, capsys):
        # the limit head lies in U1(a_inf): the answer's times are paid for
        # one node each, before any is built, and past the assignment cap
        # they are refused before any is paid for
        for length, message in (
                (200_000, "node budget 1000 exhausted"),
                (1_000_000_000, "length 1000000000 exceeds the cap 200000")):
            text = (run / "cert-11.txt").read_text(encoding="utf-8")
            text = text.replace("tuple: U1(a0),U1(a_inf)", "tuple: U1(a_inf)",
                                1)
            text = text.replace("target-length: 5",
                                f"target-length: {length}", 1)
            path = tmp_path / "forged.txt"
            path.write_text(text, encoding="utf-8")
            started = time.monotonic()
            code, out, err = run_cli(capsys, "verify", "--replay", str(path),
                                     "--manifest",
                                     str(run / "manifest-log-m-2-2.txt"),
                                     "--budget-nodes", "1000")
            assert time.monotonic() - started < 5
            assert code == EXIT_INCONCLUSIVE
            assert out == ""
            assert message in err

    @pytest.mark.parametrize("flags, env", [
        (["--budget-nodes", "1"], {}),
        ([], {"SEQENT_NODE_BUDGET": "1"})], ids=["flag", "env"])
    def test_node_budget_stops_the_replay(self, run, capsys, monkeypatch,
                                          flags, env):
        # cert-11 records a search of ~51,000 nodes
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, out, err = run_cli(capsys, "verify", "--replay",
                                 str(run / "cert-11.txt"), "--manifest",
                                 str(run / "manifest-log-m-2-2.txt"), *flags)
        assert code == EXIT_INCONCLUSIVE
        assert out == ""
        assert "node budget 1 exhausted" in err


class TestSymbolReplayFailures:
    """Replay verdicts for edited symbol files: exit code and the message
    that names the first difference."""

    LINES = 50_000

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        # m=2 kmax=2 runs a0..a40850 over times 817..41665, one long run
        out = tmp_path_factory.mktemp("replay")
        assert main(["build", "--family", "log-m", "--m", "2", "--kmax", "2",
                     "--symbols", str(self.LINES), "--out", str(out)]) == 0
        symbols = out / "symbols-log-m-m2-k2.txt"
        return (out / "manifest-log-m-m2-k2.txt",
                symbols.read_text(encoding="utf-8").splitlines())

    def replay(self, capsys, tmp_path, manifest, lines):
        path = tmp_path / "edited.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--replay", str(path),
                               "--manifest", str(manifest))
        prefix = f"replay {path}: "
        assert out.startswith(("PASS " + prefix, "FAIL " + prefix))
        return code, out.strip().split(prefix, 1)[1]

    def test_unedited_file_passes(self, built, tmp_path, capsys):
        manifest, lines = built
        assert self.replay(capsys, tmp_path, manifest, lines) == (
            EXIT_PASS, "50000 symbol lines reproduced")

    def test_dropped_line(self, built, tmp_path, capsys):
        manifest, lines = built
        assert self.replay(capsys, tmp_path, manifest,
                           lines[:1000] + lines[1001:]) == (
            EXIT_FAIL, "49999 data lines do not cover range 0,49999")

    def test_appended_line(self, built, tmp_path, capsys):
        manifest, lines = built
        assert self.replay(capsys, tmp_path, manifest,
                           lines + ["50000\ta1\tB1/IG2"]) == (
            EXIT_FAIL, "50001 data lines do not cover range 0,49999")

    def test_symbol_edited_deep_inside_a_long_run(self, built, tmp_path,
                                                  capsys):
        manifest, lines = built
        edited = list(lines)
        assert edited[4 + 30_000] == "30000\ta29185\tB1/IG2"
        edited[4 + 30_000] = "30000\ta29186\tB1/IG2"
        assert self.replay(capsys, tmp_path, manifest, edited) == (
            EXIT_FAIL, "line 30005: file has '30000\\ta29186\\tB1/IG2', "
                       "rebuild gives '30000\\ta29185\\tB1/IG2'")

    @pytest.mark.parametrize("t", [17_200, 17_201],
                             ids=["last-of-first-piece",
                                  "first-of-second-piece"])
    def test_symbol_edited_at_a_piece_boundary(self, built, tmp_path, capsys,
                                               m2k2, t):
        manifest, lines = built
        # the long run from time 817 on is cut after PIECE_TIMES times
        starts = [t0 for t0, _, _ in m2k2.symbol_pieces(817, 40_000)]
        assert starts[1] == 817 + seqent.model.PIECE_TIMES == 17_201
        edited = list(lines)
        want = f"{t}\ta{t - 815}\tB1/IG2"
        assert edited[4 + t] == want
        edited[4 + t] = f"{t}\ta{t - 814}\tB1/IG2"
        assert self.replay(capsys, tmp_path, manifest, edited) == (
            EXIT_FAIL, f"line {t + 5}: file has {edited[4 + t]!r}, "
                       f"rebuild gives {want!r}")

    def test_two_edits_in_different_pieces_name_the_earlier(
            self, built, tmp_path, capsys, m2k2):
        manifest, lines = built
        starts = [t0 for t0, _, _ in m2k2.symbol_pieces(817, 40_000)]
        assert starts[1] <= 20_000 < starts[2] <= 40_000
        edited = list(lines)
        for t in (20_000, 40_000):
            assert edited[4 + t] == f"{t}\ta{t - 815}\tB1/IG2"
            edited[4 + t] = f"{t}\ta{t - 814}\tB1/IG2"
        assert self.replay(capsys, tmp_path, manifest, edited) == (
            EXIT_FAIL, "line 20005: file has '20000\\ta19186\\tB1/IG2', "
                       "rebuild gives '20000\\ta19185\\tB1/IG2'")

    def test_family_mismatch(self, built, tmp_path, capsys):
        manifest, lines = built
        edited = ["family: log-infty" if line == "family: log-m" else line
                  for line in lines[:10]]
        assert self.replay(capsys, tmp_path, manifest, edited) == (
            EXIT_FAIL, "family mismatch: file log-infty, build log-m")

    def test_dense_round_trip(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "build", "--family", "log-infty",
                             "--nmax", "2", "--out", str(tmp_path))
        assert code == EXIT_PASS
        manifest = tmp_path / "manifest-log-infty-n2.txt"
        lines = (tmp_path / "symbols-log-infty-n2.txt").read_text(
            encoding="utf-8").splitlines()
        assert self.replay(capsys, tmp_path, manifest, lines) == (
            EXIT_PASS, "367 symbol lines reproduced")

    def test_forged_range_fails_before_rendering(self, built, tmp_path,
                                                 capsys, monkeypatch):
        manifest, lines = built

        def refuse(*_args):
            raise AssertionError("a forged range must not be rendered")
        monkeypatch.setattr(seqent.model.Trajectory, "symbol_pieces", refuse)
        edited = ["range: 0,99999999999" if line == "range: 0,49999"
                  else line for line in lines]
        assert self.replay(capsys, tmp_path, manifest, edited) == (
            EXIT_FAIL, "50000 data lines do not cover range 0,99999999999")


class TestClosedOutput:
    def test_broken_pipe_gives_one_exit_code(self, tmp_path, capsys,
                                             monkeypatch):
        class ClosedPipe:
            """Buffers what is printed; the pipe is gone when it flushes."""

            def write(self, text):
                return len(text)

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["build", "--family", "log-m", "--m", "2",
                     "--kmax", "1", "--out", str(tmp_path)])
        monkeypatch.undo()
        assert code == EXIT_CLOSED_OUTPUT
        assert capsys.readouterr().err == ""
        assert (tmp_path / "manifest-log-m-m2-k1.txt").exists()
        assert (tmp_path / "symbols-log-m-m2-k1.txt").exists()

    def test_closed_pipe_exits_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "seqent", "verify", "--suite", "growth",
             "--m", "2", "--kmax", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_CLOSED_OUTPUT
        assert err == b""


class TestEntropy:
    def test_three_heads_give_log_three(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--family", "log-m",
                               "--m", "3")
        assert code == EXIT_PASS
        assert ("h-star lower bound: log 3 = 1.098612 "
                "(centers a0,a1,a2; level1=3 level2=3; cap 3)") in out

    def test_distant_centers_fall_back_to_trivial_bound(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--family", "log-m",
                               "--m", "2", "--kmax", "2",
                               "--centers", "a0,a9", "--cap", "2")
        assert code == EXIT_PASS
        assert "h-star lower bound: log 1 = 0.000000" in out

    def test_needs_m(self, capsys):
        code, _, _ = run_cli(capsys, "entropy", "--family", "log-m")
        assert code == EXIT_INVALID

    def test_dense_blocks_give_log_five(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--family", "log-infty",
                               "--nmax", "4", "--cap", "4")
        assert code == EXIT_PASS
        assert out == ("h-star lower bound: log 5 = 1.609438 (centers "
                       "e1,e2,e3,e4,e5; level1=4 level2=4 level3=4 "
                       "level4=4; cap 4)\n")

    def test_sixth_dense_center_is_refuted(self, capsys):
        # the six-center search dies at the root; the five other centers
        # pass every level on the construction's own witnesses
        code, out, _ = run_cli(capsys, "entropy", "--family", "log-infty",
                               "--nmax", "4", "--centers",
                               "e1,e2,e3,e4,e5,e6", "--cap", "4")
        assert code == EXIT_PASS
        assert out == ("h-star lower bound: log 5 = 1.609438 (centers "
                       "e1,e2,e3,e4,e5; level1=4 level2=4 level3=4 "
                       "level4=4; cap 4)\n")

    def test_dense_blocks_give_log_seven_at_nmax_6(self, capsys,
                                                   monkeypatch):
        # block 6 proposes a realizer for each of the 7^3 assignments at
        # every level; no hit list, fold or search is needed
        def refuse(*_args, **_kwargs):
            raise AssertionError("the fold or the search ran")
        monkeypatch.setattr(seqent.entropy, "is_independence_set", refuse)
        monkeypatch.setattr(seqent.entropy, "max_independence", refuse)
        code, out, _ = run_cli(capsys, "entropy", "--family", "log-infty",
                               "--nmax", "6")
        assert code == EXIT_PASS
        assert out == ("h-star lower bound: log 7 = 1.945910 (centers "
                       "e1,e2,e3,e4,e5,e6,e7; level1=3 level2=3 level3=3 "
                       "level4=3 level5=3 level6=3; cap 3)\n")

    def test_node_budget_stops_the_witness_check(self, capsys, monkeypatch):
        # block 2's designated times are checked before any search runs
        def refuse(*_args, **_kwargs):
            raise AssertionError("the search ran")
        monkeypatch.setattr(seqent.entropy, "max_independence", refuse)
        code, out, err = run_cli(capsys, "entropy", "--family", "log-infty",
                                 "--nmax", "4", "--budget-nodes", "1")
        assert code == EXIT_INCONCLUSIVE
        assert out == ""
        assert "node budget 1 exhausted" in err

    def test_internal_value_error_is_not_invalid_input(self, monkeypatch,
                                                       capsys):
        # a ValueError inside the engine is a bug, not a bad option
        def broken(*_args, **_kwargs):
            raise ValueError("engine bug")
        monkeypatch.setattr(seqent.independence, "_extensions", broken)
        code, out, err = run_cli(capsys, "entropy", "--family", "log-m",
                                 "--m", "2", "--kmax", "1")
        assert code == EXIT_SOFTWARE
        assert "Traceback" in err and "ValueError: engine bug" in err

    def test_internal_error_is_not_invalid_input(self, monkeypatch, capsys):
        # the limit head answers an all-infinity tuple before any search;
        # without it the candidate generator has nothing to anchor on, a
        # bug that must not read as a bad configuration (exit 2). Cap 3
        # passes block 1's two designated times, so the search runs.
        monkeypatch.setattr(seqent.independence, "_fixed_head_everywhere",
                            lambda specs, traj: None)
        code, _, err = run_cli(capsys, "entropy", "--family", "log-m",
                               "--m", "2", "--kmax", "1", "--centers",
                               "a_inf", "--cap", "3")
        assert code == EXIT_SOFTWARE
        assert "RuntimeError" in err and "anchor" in err


class TestFlower:
    def test_active_pair_gives_log_three(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "flower", "--petals", "p2=2,p3=3",
                               "--out", str(out_dir))
        assert code == EXIT_PASS
        assert "composite value: log 3" in out
        assert "PASS cross-petal" in out
        report = (out_dir / "report-cross-petal.txt").read_text()
        assert "config-hash: " in report
        assert "param cap: 2\n" in report

    def test_node_budget_stops_the_cross_pairs(self, capsys):
        code, out, err = run_cli(capsys, "flower", "--petals", "p2=2,p3=3",
                                 "--budget-nodes", "1")
        assert code == EXIT_INCONCLUSIVE
        assert out == "composite value: log 3\n"
        assert "node budget 1 exhausted" in err

    def test_ample_budget_changes_only_the_config_hash(self, tmp_path,
                                                       capsys):
        runs = []
        for name, flags in (("free", []),
                            ("budgeted", ["--budget-nodes", "10000000"])):
            out_dir = tmp_path / name
            code, _, _ = run_cli(capsys, "flower", "--petals", "p2=2,p3=3",
                                 "--out", str(out_dir), *flags)
            assert code == EXIT_PASS
            runs.append({p.name: p.read_text(encoding="utf-8")
                         for p in sorted(out_dir.iterdir())})
        free, budgeted = runs
        assert sorted(free) == ["cert-cross-01.txt", "cert-cross-02.txt",
                                "report-cross-petal.txt"]
        assert "nodes: 3999\n" in free["cert-cross-01.txt"]
        for name in free:
            differ = [(a, b) for a, b in zip(free[name].splitlines(),
                                             budgeted[name].splitlines())
                      if a != b]
            assert all(a.startswith("config-hash: ") for a, _ in differ)
            assert len(differ) == (name == "report-cross-petal.txt")

    def test_cap_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["flower", "--petals", "p2=2,p3=3", "--cap", "3"])
        assert exc.value.code == EXIT_INVALID
        assert capsys.readouterr().out == ""

    def test_all_frozen_gives_zero(self, capsys):
        code, out, _ = run_cli(capsys, "flower", "--petals", "p2=2,p3=3",
                               "--modes", "p2=frozen,p3=frozen")
        assert code == EXIT_PASS
        assert "composite value: 0" in out

    def test_unbounded_family_gives_inf(self, capsys):
        code, out, _ = run_cli(capsys, "flower", "--petals", "p2=2,p3=3",
                               "--unbounded")
        assert code == EXIT_PASS
        assert "composite value: inf" in out

    def test_unknown_mode_is_invalid(self, capsys):
        code, _, _ = run_cli(capsys, "flower", "--petals", "p2=2,p3=3",
                             "--modes", "p2=melted")
        assert code == EXIT_INVALID


R2_SMALL = ["verify", "--suite", "R2", "--m", "2", "--kmax", "1"]


# sha256 of every file the two commands write, with its `nodes:` lines
# dropped: search refactors may change how many nodes a search spends, but
# not one other byte of the artifacts
ARTIFACT_SHA256 = {
    ("verify", "--suite", "all", "--m", "2", "--kmax", "2", "--nmax", "2"): {
        "cert-01.txt":
            "4ea09aed99921f58716558c86b0c71fc5b2f5cb021eef4ebef37e3011a8cc853",
        "cert-02.txt":
            "a6c38f89dc1e8e8290db516ccfd0539458f7add7ab78c6f407d4ab03f703a959",
        "cert-03.txt":
            "cf3a0052be098e66a09897e268a498135abb898249f1d76454b37446f6588b6b",
        "cert-04.txt":
            "418e2d2ef707a8d9562224de45c6f530cdbc106a9f59b9f2590f40386dab8dcd",
        "cert-05.txt":
            "8cf54c996cf412a375db0207509aaf5f1d05af9c9c05d60a51013c6b64ca0022",
        "cert-06.txt":
            "2d87213a9b63a87e0ca16386b8a04c2d7e628e5a745542c3a0f4292577e9d5fd",
        "cert-07.txt":
            "2bfa4dc6ae38faff9214ecc015423e060c465c33f697604cf8d09a014ab00d4a",
        "cert-08.txt":
            "c7b01ab7f99cdd0c5b04e1c3551d50e4497dffe27912e851272fd7c87253d31b",
        "cert-09.txt":
            "af35cb5eeff9922a27ec7f78ad67bef0b96476cd25197e9528a263a654d04bac",
        "cert-10.txt":
            "e2606b4b6d23bb1ad0a1c86496ac7945d0de58ab09acdeaef1caa3e33b60369c",
        "cert-11.txt":
            "bd1e8253fee3c505880a68ba1d9a1bdace3124ae3b6a7d5d91fb33ff9ff6607a",
        "manifest-log-infty-2.txt":
            "2ff494a26b8fda7d356d69f78082043c0d17c5890d471a72effc01ebdb121261",
        "manifest-log-m-2-2.txt":
            "344bd1dbd1181eb0604dc08e57ba97f48431ff47977f7d50f864e8cd65bdd94b",
        "report-01-block-independence.txt":
            "3bbeaea83e4466f608f633259723c27eb55be10e3a5c7e858f33aef87e0ff02e",
        "report-02-block-independence.txt":
            "ee8b8175e920c0b2903647e679034bd09576a8ace516e163186f4789550360f2",
        "report-03-far-pair-exclusion.txt":
            "344c4c0e1f10d9e5d1cea0cdba77ce60192acfb7289c49858fd205e5545ad067",
        "report-04-growth.txt":
            "fdaac3330dc67f405896f09371e94c0f9a09ca4e3bf5d0cda7bd13706d300e0a",
        "report-05-dense-block-independence.txt":
            "6ded61071a04d25a3e5b36b5956ec136c126bdcbd6adea448af14a839ef76a7e",
        "report-06-dense-block-independence.txt":
            "4f0d5a9da7eebd13ed3ce91c1843085ade8a2fdc6733ca62f0b86ef3f8cb08e3",
        "report-07-block-parts.txt":
            "d1d2506cfcb8907a3e7895f035e8143d830b980772c82abbcf69bf5d929057c9",
        "report-08-block-parts.txt":
            "d7d0263778b839a4f17cfc34762a6a32e4f4d024b9bc6d6c52600dff6f96937d",
        "report-09-shiftability.txt":
            "f60105199f2c79e295a82e059890b1b63ae44b5ca62b8f37ec31187f0b0685e2",
        "report-10-growth.txt":
            "9be3ddb827e57756f89ea0459963a4b2144774107955d47e0c240a00875bdb6f",
    },
    ("flower", "--petals", "p2=2,p3=3"): {
        "cert-cross-01.txt":
            "203f619829dea487c871331c27266e8bc49e9b7988f8cab0ed5cf35a3e43ace0",
        "cert-cross-02.txt":
            "ac89b156d4c03fe6b03178c33c5315f90637edc8dcd174e1823076f2cb476bd0",
        "report-cross-petal.txt":
            "5d218e557d50ecf0df3ad926bf8b8c28458e730e8d29e6782095b96a199e6080",
    },
}


class TestArtifactDigests:
    @pytest.mark.parametrize("argv", list(ARTIFACT_SHA256),
                             ids=["verify-all", "flower"])
    def test_files_are_pinned_except_node_counts(self, argv, tmp_path,
                                                 capsys):
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == EXIT_PASS
        got = {}
        for path in sorted(tmp_path.iterdir()):
            kept = [line for line in path.read_bytes().splitlines(True)
                    if not line.startswith(b"nodes: ")]
            got[path.name] = hashlib.sha256(b"".join(kept)).hexdigest()
        assert got == ARTIFACT_SHA256[argv]

    def test_infinity_certificate_spends_pinned_nodes(self, tmp_path, capsys):
        # the a_inf certificate's work counter, as one filter per
        # neighborhood spent it; a search change that moves it says why.
        # The pigeonhole count skips the pair nodes whose difference sets
        # leave a child list fewer than k starts (44,689 before it), and
        # its re-read of the root's differences spends one node per hit.
        argv = ("verify", "--suite", "all", "--m", "2", "--kmax", "2",
                "--nmax", "2")
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == EXIT_PASS
        text = (tmp_path / "cert-11.txt").read_text(encoding="utf-8")
        assert "tuple: U1(a0),U1(a_inf)\n" in text
        assert "nodes: 13781\n" in text


class TestBadOptions:
    """Bad option values are invalid input (exit 2) whose message names the
    option or the neighborhood, reported before any search runs."""

    @pytest.mark.parametrize("argv, env, message", [
        (["entropy", "--m", "2", "--cap", "0"], {},
         "--cap 0: must be at least 1"),
        (R2_SMALL + ["--cap", "0"], {}, "--cap 0: must be at least 1"),
        (["entropy", "--m", "2", "--levels", "0"], {},
         "--levels 0: must be at least 1"),
        (["entropy", "--m", "2", "--centers", "a0,a0"], {},
         "--centers a0,a0 names a center twice"),
        (["entropy", "--m", "2", "--centers", "x"], {},
         "--centers x: unrecognized symbol token: 'x'"),
        (["entropy", "--m", "2", "--centers", "e0"], {},
         "--centers e0: dense symbols are 1-based"),
        (["entropy", "--family", "log-infty", "--nmax", "2",
          "--centers", "a0,a1"], {}, "U1(a0) needs the head-indexed family"),
        (["flower", "--petals", "p2=2,p3=x"], {},
         "--petals p3=x: invalid literal for int()"),
        (["flower", "--petals", "p2=2,p3=3", "--modes", "p2"], {},
         "--modes 'p2' must look like name=value"),
        (["flower", "--petals", "p2=2,p3=3", "--collapse", "p2"], {},
         "--collapse 'p2' must look like name=value"),
        (R2_SMALL, {"SEQENT_NODE_BUDGET": "abc"},
         "SEQENT_NODE_BUDGET=abc: invalid literal for int()"),
        (R2_SMALL, {"SEQENT_TIME_BUDGET": "abc"},
         "SEQENT_TIME_BUDGET=abc: could not convert string to float"),
        (R2_SMALL + ["--budget-nodes", "-1"], {},
         "--budget-nodes -1: must be at least 0"),
        (R2_SMALL + ["--budget-seconds", "-1"], {},
         "--budget-seconds -1.0: must be at least 0"),
    ], ids=["entropy-cap", "verify-cap", "levels", "twice-named-center",
            "unknown-center", "dense-center-e0", "center-of-other-family",
            "petal-base", "modes",
            "collapse", "node-budget-env", "time-budget-env",
            "negative-node-budget", "negative-time-budget"])
    def test_bad_value_names_the_option(self, argv, env, message,
                                        monkeypatch, capsys):
        def refuse(*_args, **_kwargs):
            raise AssertionError("bad input must not reach the search")
        monkeypatch.setattr(seqent.independence, "_extensions", refuse)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith(f"invalid configuration: {message}")


class TestEntryPoints:
    def test_console_script(self):
        proc = subprocess.run(
            seqent_command() + ["verify", "--suite", "growth", "--m", "2",
                                "--kmax", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "PASS growth" in proc.stdout

    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqent", "build", "--family", "log-m",
             "--m", "2", "--kmax", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "built log-m trajectory" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "R2", "--mode", "level"],
        ["entropy", "--mode", "dfs"]])
    def test_mode_option_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INVALID
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["build", "--family", "log-m", "--m", "2", "--budget-nodes", "1"],
        ["build", "--family", "log-m", "--m", "2", "--budget-seconds", "1"],
        ["entropy", "--m", "2", "--out", "out"],
        ["flower", "--petals", "p2=2,p3=3", "--m", "2"],
        ["flower", "--petals", "p2=2,p3=3", "--nmax", "4"]],
        ids=["build-budget-nodes", "build-budget-seconds", "entropy-out",
             "flower-m", "flower-nmax"])
    def test_unread_option_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INVALID
        assert capsys.readouterr().out == ""

    def test_unknown_suite_rejected_by_parser(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqent", "verify", "--suite", "bogus"],
            capture_output=True, text=True)
        assert proc.returncode == 2
