"""Serialization: manifests, symbol files, certificates, reports, replay."""

import hashlib
import random

import pytest

import seqent.formats
import seqent.model
from _oracles import naive_symbol_lines

from seqent.checks import validate_growth, verify_far_pair_exclusion
from seqent.cli import EXIT_INVALID, main
from seqent.construct import (
    build_log_infty,
    build_log_m,
    default_dense_schedule,
    minimal_schedule,
)
from seqent.errors import InvalidConfig
from seqent.formats import (
    FORMAT_VERSION,
    config_hash,
    certificate_string,
    manifest_string,
    parse_spec,
    parse_tuple,
    read_certificate,
    read_manifest,
    rebuild_from_manifest,
    replay_certificate,
    replay_manifest,
    replay_symbols,
    report_string,
    write_certificate,
    write_report,
    write_manifest,
    write_symbols,
)
from seqent.independence import max_independence
from seqent.model import NeighborhoodSpec, Symbol


class TestSpecParsing:
    def test_round_trip(self):
        for spec in (NeighborhoodSpec(Symbol.head(0), 1),
                     NeighborhoodSpec(Symbol.head(-4), 2),
                     NeighborhoodSpec(Symbol.head_inf(), 3),
                     NeighborhoodSpec(Symbol.dense(5), 2)):
            assert parse_spec(spec.render()) == spec

    def test_tuple_round_trip(self):
        text = "U1(a0),U1(a1),U2(a_inf)"
        specs = parse_tuple(text)
        assert ",".join(s.render() for s in specs) == text


# sha256 of the head-indexed manifests, taken from the writer that made a
# record per segment; DENSE4_DIGEST in test_construct pins a dense one
HEAD_MANIFEST_SHA256 = {
    "m2k3": (96, "3ee0a2957845f63b29db5e1d5a44b137"
                 "94ede3c1165a2ee57fd22fd7a5372af9"),
    "m3k3": (423, "b0ea0f61feb1d1eeee6049a665eecadd"
                  "1279aa865f25466426aae6779cee01e4"),
}


class TestManifest:
    @pytest.mark.parametrize("build", list(HEAD_MANIFEST_SHA256))
    def test_head_indexed_manifest_pinned(self, request, build):
        text = manifest_string(request.getfixturevalue(build))
        segments, digest = HEAD_MANIFEST_SHA256[build]
        assert text.count("\nsegment: ") == segments
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_deterministic_and_hash_stable(self, m2k2):
        a = manifest_string(m2k2)
        b = manifest_string(build_log_m(2, 2, minimal_schedule(2, 2)))
        assert a == b
        body, hash_line = a.rsplit("hash: ", 1)
        assert hash_line.strip() == config_hash(body)

    def test_round_trip_rebuild(self, tmp_path, m2k2):
        path = tmp_path / "m.txt"
        write_manifest(m2k2, path)
        rebuilt = rebuild_from_manifest(read_manifest(path))
        assert rebuilt.n_points == m2k2.n_points
        assert manifest_string(rebuilt) == manifest_string(m2k2)

    def test_replay_reports_byte_identity(self, tmp_path, m2k2):
        path = tmp_path / "m.txt"
        write_manifest(m2k2, path)
        ok, message = replay_manifest(path)
        assert ok
        assert "byte for byte" in message

    @pytest.mark.parametrize("build", ["m2k2", "dense4"])
    def test_written_manifest_is_the_string(self, tmp_path, request, build):
        # dense4's 6,000-odd segment lines take more than one batch
        traj = request.getfixturevalue(build)
        path = tmp_path / "m.txt"
        digest = write_manifest(traj, path)
        text = manifest_string(traj)
        assert path.read_bytes() == text.encode("utf-8")
        assert text.endswith(f"\nhash: {digest}\n")
        assert text.count("\n") > 4096 or build == "m2k2"

    def test_tampered_hash_detected(self, tmp_path, m2k2):
        path = tmp_path / "m.txt"
        write_manifest(m2k2, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("points:", "points: 1 #", 1),
                        encoding="utf-8")
        with pytest.raises(InvalidConfig):
            read_manifest(path)

    def test_zero_denominator_eps_is_invalid(self, tmp_path, dense2):
        path = tmp_path / "d.txt"
        lines = manifest_string(dense2).splitlines()[:-1]
        lines = [line.split(": ")[0] + ": 1/0" if line.startswith("eps[1]")
                 else line for line in lines]
        body = "\n".join(lines) + "\n"
        path.write_text(body + f"hash: {config_hash(body)}\n",
                        encoding="utf-8")
        with pytest.raises(InvalidConfig, match=r"eps\[1\] line: Fraction"):
            read_manifest(path)

    def test_dense_manifest_round_trip(self, tmp_path, dense2):
        path = tmp_path / "d.txt"
        write_manifest(dense2, path)
        ok, message = replay_manifest(path)
        assert ok, message

    def test_dense_manifest_past_nmax_6_is_refused(self, tmp_path):
        # a manifest of seven dense blocks would list ~33 M segments, so
        # replay refuses it before it rebuilds anything
        schedule = default_dense_schedule(7)
        body = "".join(
            ["format: 1\nkind: manifest\nfamily: log-infty\nm: 7\n"
             "kmax: 7\n"]
            + [f"eps[{n}]: {eps}\ntimes[{n}]: {','.join(map(str, times))}\n"
               for n, (eps, times) in enumerate(
                   zip(schedule.eps, schedule.times), 1)])
        path = tmp_path / "d7.txt"
        path.write_text(body + f"hash: {config_hash(body)}\n",
                        encoding="utf-8")
        with pytest.raises(InvalidConfig, match="kmax 7 is past the 6 "
                                                "blocks of a dense manifest"):
            replay_manifest(path)

    @pytest.mark.parametrize("ending, changed", [
        ("\r\n", slice(None)), ("\r", slice(2, 3)), ("", slice(-1, None))],
        ids=["crlf", "lone-cr", "no-final-newline"])
    def test_line_ending_differences_fail_replay(self, tmp_path, m2k2,
                                                 ending, changed):
        rows = manifest_string(m2k2).splitlines(keepends=True)
        numbers = range(1, len(rows) + 1)[changed]
        for i in numbers:
            rows[i - 1] = rows[i - 1][:-1] + ending
        path = tmp_path / "m.txt"
        path.write_bytes("".join(rows).encode("utf-8"))
        assert replay_manifest(path) == (
            False, f"line {numbers[0]} ending differs: file has {ending!r}, "
                   f"rebuild '\\n'")

    def test_hash_covers_the_bytes_as_written(self, tmp_path, m2k2):
        path = tmp_path / "m.txt"
        path.write_bytes(manifest_string(m2k2).replace(
            "\n", "\r\n").encode("utf-8"))
        with pytest.raises(InvalidConfig, match="does not match its hash"):
            read_manifest(path)

    def test_function_table_present(self, m2k2):
        text = manifest_string(m2k2)
        assert "functions[1]: 0,0;0,1;1,0;1,1" in text


class TestSymbols:
    def test_symbol_lines_carry_segment_paths(self, tmp_path, m2k3):
        path = tmp_path / "s.txt"
        write_symbols(m2k3, path, 0, 10)
        lines = path.read_text().splitlines()
        assert lines[0] == f"format: {FORMAT_VERSION}"
        assert lines[4] == "0\ta0\tB1/P1/W1"
        assert lines[11] == "7\ta0\tB1/P1/W1"
        assert lines[12] == "8\ta1\tB1/IG1"

    def test_oversized_span_rejected(self, tmp_path, m2k3):
        with pytest.raises(InvalidConfig):
            write_symbols(m2k3, tmp_path / "s.txt", 0, 2_000_000)

    @pytest.mark.parametrize("lo,hi", [(5, 4), (-1, 10), (0, 367),
                                       (367, 367)])
    def test_spans_outside_the_build_rejected(self, tmp_path, dense2, lo, hi):
        path = tmp_path / "s.txt"
        with pytest.raises(InvalidConfig):
            write_symbols(dense2, path, lo, hi)
        assert not path.exists()


class TestSymbolReplayEdges:
    HEADER = "format: 1\nkind: symbols\nfamily: log-infty\n"

    def replay(self, tmp_path, dense2, text):
        path = tmp_path / "s.txt"
        path.write_text(self.HEADER + text, encoding="utf-8")
        return replay_symbols(path, dense2)

    def test_empty_range_with_no_lines_passes(self, tmp_path, dense2):
        assert self.replay(tmp_path, dense2, "range: 5,4\n") == (
            True, "0 symbol lines reproduced")

    def test_reversed_range_fails_on_the_count(self, tmp_path, dense2):
        assert self.replay(tmp_path, dense2, "range: 10,3\n") == (
            False, "0 data lines do not cover range 10,3")

    def test_range_before_time_zero_fails(self, tmp_path, dense2):
        lines = "".join(f"{t}\te1\tB1/S1\n" for t in range(4))
        assert self.replay(tmp_path, dense2, "range: -1,2\n" + lines) == (
            False, "range -1,2 does not lie in [0, 366] within 1000000 lines")

    @pytest.mark.parametrize("line, edited, number", [
        ("range: 3,40", "range: 003,+40", 4),
        ("family: log-infty", "log-infty", 3)])
    def test_header_not_as_written_fails(self, tmp_path, dense2, line,
                                         edited, number):
        # the header reads the same, but a rebuild writes other bytes
        path = tmp_path / "s.txt"
        write_symbols(dense2, path, 3, 40)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(line + "\n", edited + "\n", 1),
                        encoding="utf-8")
        assert replay_symbols(path, dense2) == (
            False, f"line {number}: file has {edited!r}, "
                   f"rebuild gives {line!r}")

    def test_missing_final_newline_still_replays(self, tmp_path, dense2):
        path = tmp_path / "s.txt"
        write_symbols(dense2, path, 3, 40)
        path.write_text(path.read_text(encoding="utf-8").rstrip("\n"),
                        encoding="utf-8")
        assert replay_symbols(path, dense2) == (
            True, "38 symbol lines reproduced")

    def test_crlf_symbol_file_still_replays(self, tmp_path, dense2):
        path = tmp_path / "s.txt"
        write_symbols(dense2, path, 3, 40)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert replay_symbols(path, dense2) == (
            True, "38 symbol lines reproduced")

    def test_canonical_file_replays_without_the_line_reread(
            self, tmp_path, monkeypatch, dense2):
        # a file as written is compared piece by piece as bytes; only its
        # header is read as lines
        path = tmp_path / "s.txt"
        write_symbols(dense2, path, 3, 340)
        entered = self._spy_on_the_reread(monkeypatch)
        assert replay_symbols(path, dense2) == (
            True, "338 symbol lines reproduced")
        assert entered == [path]

    @staticmethod
    def _spy_on_the_reread(monkeypatch):
        """The paths ``_file_lines`` is called with: the header read, then
        the decoding reread."""
        file_lines = seqent.formats._file_lines
        entered = []

        def counted(p):
            entered.append(p)
            return file_lines(p)

        monkeypatch.setattr(seqent.formats, "_file_lines", counted)
        return entered

    @pytest.mark.parametrize("family, lo, hi", [
        ("dense2", 3, 340), ("m3k3", 0, 5000)])
    def test_crlf_copy_replays_without_the_line_reread(
            self, tmp_path, monkeypatch, request, family, lo, hi):
        # m3k3's span has runs rendered by digit columns, as bytearrays
        traj = request.getfixturevalue(family)
        path = tmp_path / "s.txt"
        write_symbols(traj, path, lo, hi)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        entered = self._spy_on_the_reread(monkeypatch)
        assert replay_symbols(path, traj) == (
            True, f"{hi - lo + 1} symbol lines reproduced")
        assert entered == [path]

    def test_edited_crlf_line_named_by_its_number(self, tmp_path, dense2):
        path = tmp_path / "s.txt"
        write_symbols(dense2, path, 3, 340)
        rows = path.read_bytes().replace(b"\n", b"\r\n").split(b"\r\n")
        want = rows[299].decode()
        rows[299] = rows[299].replace(b"\te", b"\te9")
        path.write_bytes(b"\r\n".join(rows))
        assert replay_symbols(path, dense2) == (
            False, f"line 300: file has {rows[299].decode()!r}, "
                   f"rebuild gives {want!r}")

    @pytest.mark.parametrize("ending, other", [(b"\r\n", b"\n"),
                                               (b"\n", b"\r\n")],
                             ids=["crlf", "lf"])
    def test_one_other_ending_takes_the_reread(
            self, tmp_path, monkeypatch, dense2, ending, other):
        # line 200 alone ends otherwise; the reread passes the file
        path = tmp_path / "s.txt"
        write_symbols(dense2, path, 3, 340)
        rows = path.read_bytes().split(b"\n")
        path.write_bytes(ending.join(rows[:200]) + other
                         + ending.join(rows[200:]))
        entered = self._spy_on_the_reread(monkeypatch)
        assert replay_symbols(path, dense2) == (
            True, "338 symbol lines reproduced")
        assert entered == [path, path]

    def test_non_utf8_byte_deep_in_the_file_is_invalid(
            self, tmp_path, capsys, dense4):
        # the last data line lies well past the header's first decoded read
        path = tmp_path / "s.txt"
        write_symbols(dense4, path, 0, 3000)
        data = bytearray(path.read_bytes())
        last_digit = data.rindex(b"\t", 0, -1) - 1
        assert last_digit > 8 * 1024
        data[last_digit] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidConfig, match="is not UTF-8 text"):
            replay_symbols(path, dense4)
        manifest = tmp_path / "manifest.txt"
        write_manifest(dense4, manifest)
        code = main(["verify", "--replay", str(path), "--manifest",
                     str(manifest)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_INVALID, "")
        assert f"symbol file {path} is not UTF-8 text" in captured.err


# sha256 of symbol files written before symbol lines were rendered per
# piece; the piece renderer must reproduce them byte for byte
M3K3_FIRST_MILLION_SHA256 = (
    "d3162746971377a864b302f45ce8b5cef26550e616cb13556d49a31fae1a3bc2")
DENSE4_FULL_SHA256 = (
    "7293612a97be13822a1614cea717a9e4cd4bc19a8e99a311e63e9de04f1a3e4a")


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSymbolDigests:
    def test_first_million_lines_of_m3k3(self, tmp_path, m3k3):
        path = tmp_path / "s.txt"
        assert write_symbols(m3k3, path, 0, 999_999) == 1_000_000
        assert file_sha256(path) == M3K3_FIRST_MILLION_SHA256
        assert replay_symbols(path, m3k3) == (
            True, "1000000 symbol lines reproduced")

    def test_full_dense4_file(self, tmp_path, dense4):
        path = tmp_path / "s.txt"
        assert write_symbols(dense4, path) == 243_994
        assert file_sha256(path) == DENSE4_FULL_SHA256
        assert replay_symbols(path, dense4) == (
            True, "243994 symbol lines reproduced")


def boundary_spans(rng, horizon, boundaries, count, longest):
    """Random (lo, hi) spans that start or end on, or one before, a run or
    segment boundary; every fourth is a single line."""
    spans = []
    for i in range(count):
        edge = max(0, min(horizon, rng.choice(boundaries) - rng.randrange(2)))
        length = 1 if i % 4 == 0 else rng.randrange(2, longest)
        if i % 2:
            spans.append((edge, min(horizon, edge + length - 1)))
        else:
            spans.append((max(0, edge - length + 1), edge))
    return spans


def width_spans(runs, reach=250):
    """Spans of 2 * reach times centred where a time, or an index of one of
    the (start, first, length) runs, first has 3 to 7 digits, where a
    falling index last has 2 to 5 (at -10 to -10,000), and where an index
    turns from -1 to 0."""
    widths = (100, 1000, 10_000, 100_000, 1_000_000)
    values = widths + (-10, -100, -1000, -10_000, 0)
    centres = set(widths) | {start + v - first for start, first, length in runs
                             for v in values if 0 <= v - first < length}
    return [(max(0, t - reach), t + reach - 1) for t in sorted(centres)]


class _Runs:
    """A head-indexed stand-in whose symbol_pieces yields given pieces."""

    family = seqent.model.FAMILY_LOG_M

    def __init__(self, pieces):
        self.pieces = pieces

    def symbol_pieces(self, lo, hi):
        return iter(self.pieces)


class TestSymbolEmitterDifferential:
    """The piece renderer against a per-point oracle built on symbol_at and
    the manifest's path, for both families."""

    @pytest.mark.parametrize("piece_times",
                             [seqent.model.PIECE_TIMES, 250, 5])
    def test_head_indexed_family(self, tmp_path, monkeypatch, m2k3, m3k3,
                                 piece_times):
        monkeypatch.setattr(seqent.model, "PIECE_TIMES", piece_times)
        window = 9_000_000
        runs = [r for r in m2k3.runs if r[0] < window]
        boundaries = sorted(
            {r[0] for r in runs}
            | {s for s in m2k3.manifest.starts if s < window})
        rng = random.Random(7100 + piece_times)
        self._check(tmp_path, m2k3,
                    boundary_spans(rng, m2k3.horizon, boundaries, 40, 3000)
                    + width_spans(runs))
        # one run, index t - 10, goes from a-5 through a0 and a99 to a550
        self._check(tmp_path, m3k3, [(5, 560)])

    def test_synthetic_runs_match_a_line_format(self):
        # (t0, range(i0, i0 + n), path) pieces crossing a power of ten or
        # zero of the time or the index, against one f-string per line
        rng = random.Random(7300)
        edges = [0] + [s * 10 ** k for k in range(1, 8) for s in (1, -1)]
        cuts = 0
        for _ in range(150):
            n = rng.randrange(1, 3000)
            t0 = max(0, abs(rng.choice(edges)) - rng.randrange(n))
            i0 = rng.choice(edges) - rng.randrange(n)
            path = rng.choice(["B2/S7", "B1/%d%%{0}%s}/S2é"])
            chunks = list(seqent.formats._symbol_chunks(
                _Runs([(t0, range(i0, i0 + n), path)]), 0, 0))
            got = b"".join(piece for _, piece in chunks).decode().splitlines(
                keepends=True)
            want = [f"{t0 + r}\ta{i0 + r}\t{path}\n" for r in range(n)]
            # the first differing line, not a diff of thousands
            bad = next((r for r, pair in enumerate(zip(got, want))
                        if pair[0] != pair[1]), None)
            assert (len(got), bad) == (n, None), (
                t0, i0, n, bad is not None and (got[bad], want[bad]))
            # each chunk is named by the time of its first line
            assert all(piece.startswith(b"%d\t" % t) for t, piece in chunks)
            cuts += len(chunks) - 1
        assert cuts >= 150

    @pytest.mark.parametrize("piece_times", [seqent.model.PIECE_TIMES, 5])
    def test_dense_family(self, tmp_path, monkeypatch, dense2, dense4,
                          piece_times):
        monkeypatch.setattr(seqent.model, "PIECE_TIMES", piece_times)
        rng = random.Random(7200 + piece_times)
        for traj in (dense2, dense4):
            boundaries = list(traj.manifest.starts)
            self._check(tmp_path, traj,
                        boundary_spans(rng, traj.horizon, boundaries, 30, 1500)
                        + [(0, min(traj.horizon, 3000)),
                           (traj.horizon, traj.horizon)])

    @pytest.mark.parametrize("family", ["dense2", "m2k3"])
    def test_format_characters_in_a_segment_path(self, tmp_path, request,
                                                 monkeypatch, family):
        # m2k3's second segment holds a run past a100 and one of negative
        # indices, so its path goes through both renderers
        traj = request.getfixturevalue(family)
        odd = "B1/%d%%{0}%s}/S2é"
        manifest = traj.manifest
        walk = manifest.walk
        monkeypatch.setattr(manifest, "walk", lambda i=0: (
            (odd, *step[1:]) if j == 1 else step
            for j, step in enumerate(walk(i), range(len(manifest.starts))[i])))
        assert manifest.path(1) == odd
        self._check(tmp_path, traj, [(0, min(traj.horizon, 1000))])
        text = (tmp_path / "s.txt").read_text(encoding="utf-8")
        assert text.count(f"\t{odd}\n") == traj.manifest.lengths[1] > 0

    @staticmethod
    def _check(tmp_path, traj, spans):
        path = tmp_path / "s.txt"
        for lo, hi in spans:
            assert write_symbols(traj, path, lo, hi) == hi - lo + 1
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[3] == f"range: {lo},{hi}"
            assert lines[4:] == naive_symbol_lines(traj, lo, hi), (lo, hi)
            assert replay_symbols(path, traj)[0], (lo, hi)


@pytest.fixture(scope="module")
def cert(m2k2):
    specs = (NeighborhoodSpec(Symbol.head(0), 1),
             NeighborhoodSpec(Symbol.head(4), 1))
    res = max_independence(specs, cap=4, traj=m2k2,
                           horizon=m2k2.block_range(2)[1])
    assert res.certificate is not None
    return res.certificate


class TestCertificates:
    def test_round_trip(self, tmp_path, cert):
        path = tmp_path / "c.txt"
        write_certificate(cert, path)
        back = read_certificate(path)
        assert back == cert

    def test_certificate_replays_identically(self, cert, m2k2):
        ok, message = replay_certificate(cert, m2k2)
        assert ok, message

    def test_replay_flags_wrong_horizon(self, cert, m2k2):
        lying = cert._replace(died_level=cert.died_level + 1)
        ok, message = replay_certificate(lying, m2k2)
        assert not ok

    def test_composite_certificates_not_replayable(self, cert, m2k2):
        tagged = cert._replace(tuple_rendered="a:U1(a0),b:U1(a0)")
        with pytest.raises(InvalidConfig):
            replay_certificate(tagged, m2k2)


class TestReports:
    def test_report_string_embeds_config_hash(self, m2k2):
        rep = verify_far_pair_exclusion(m2k2, offsets=(2,), cap=2,
                                        horizon=m2k2.block_range(1)[1])
        fingerprint = config_hash("suite=R2;m=2;kmax=2")
        text = report_string(rep, fingerprint)
        assert "format: 1" in text
        assert f"config-hash: {fingerprint}" in text
        assert ("result: PASS" in text) == rep.passed

    def test_fingerprint_line_optional(self, m2k2):
        rep = validate_growth(m2k2)
        text = report_string(rep)
        assert "config-hash:" not in text
        assert "result: PASS" in text

    def test_write_report_round_trip_text(self, tmp_path, m2k2):
        rep = validate_growth(m2k2)
        fingerprint = config_hash("suite=growth")
        text = write_report(rep, tmp_path / "r.txt", fingerprint)
        assert (tmp_path / "r.txt").read_text(encoding="utf-8") == text
