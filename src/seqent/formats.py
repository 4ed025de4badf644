"""Deterministic file formats: manifests, symbol listings, certificates,
reports.

Every file is line-oriented UTF-8 with LF line endings, a leading
``format: 1`` header and a ``kind`` line. Manifests carry the full build
schedule plus the segmentation for audit, and a sha256 content hash;
rebuilding from the schedule must reproduce the manifest byte for byte.
Infinity renders as the token ``inf``.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from pathlib import Path

from .construct import GrowthSchedule, build_log_infty, build_log_m, patterns
from .errors import InvalidConfig
from .independence import (
    ExhaustionCertificate, SearchBudget, max_independence,
)
from .model import (
    FAMILY_LOG_INFTY, FAMILY_LOG_M, NeighborhoodSpec, Trajectory, parse_symbol,
)

FORMAT_VERSION = 1
SYMBOL_LINE_CAP = 1_000_000
# a dense manifest lists every segment, about 2 (n+1)^(n+1) in block n:
# 1.6 M lines and 130 MB at nmax=6, 33 M lines at nmax=7
MANIFEST_NMAX = 6


def config_hash(text: str) -> str:
    import hashlib  # loads OpenSSL: only the runs that hash pay for it

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_field(label: str, text, parse=str, low=None):
    """parse(text), at least low; bad input is an InvalidConfig naming label."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidConfig(f"{label}: {exc}") from None
    if low is not None and not value >= low:
        raise InvalidConfig(f"{label}: must be at least {low}")
    return value


@contextmanager
def input_file(path, what: str, newline=None, binary=False):
    """An input file opened as UTF-8 text, its line endings translated to
    newlines unless newline is "" (as ``open`` takes it), or as bytes if
    binary; a missing, unreadable or undecodable file is an InvalidConfig
    naming it."""
    try:
        with (open(path, "rb") if binary else
              open(path, encoding="utf-8", newline=newline)) as fh:
            yield fh
    except OSError as exc:
        raise InvalidConfig(
            f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InvalidConfig(f"{what} {path} is not UTF-8 text") from None


def parse_spec(token: str) -> NeighborhoodSpec:
    """Inverse of NeighborhoodSpec.render for standard specs."""
    token = token.strip()
    if not token.startswith("U") or "(" not in token or not token.endswith(")"):
        raise ValueError(f"unrecognized neighborhood token: {token!r}")
    level_part, sym_part = token[1:-1].split("(", 1)
    level = int(level_part)
    if level < 1:
        raise ValueError("neighborhood levels are 1-based")
    return NeighborhoodSpec(parse_symbol(sym_part), level)


def parse_tuple(token: str) -> tuple[NeighborhoodSpec, ...]:
    return tuple(parse_spec(t) for t in token.split(","))


# ---------------------------------------------------------------------------
# manifests


def _manifest_lines(traj: Trajectory):
    """The manifest's lines before its hash line, without line endings."""
    sched = traj.schedule
    yield from (f"format: {FORMAT_VERSION}", "kind: manifest",
                f"family: {traj.family}", f"m: {traj.m}",
                f"kmax: {traj.kmax}", f"points: {traj.n_points}")
    if traj.family == FAMILY_LOG_M:
        for k in range(1, traj.kmax + 1):
            yield (f"winds[{k}]: " +
                   ",".join(str(w) for w in sched.winds[k - 1]))
            yield (f"inner-gaps[{k}]: " +
                   ",".join(str(g) for g in sched.inner_gaps[k - 1]))
        yield ("outer-gaps: " +
               ",".join(str(g) for g in sched.outer_gaps[:traj.kmax]))
        for k in range(1, traj.kmax + 1):
            yield f"functions[{k}]: " + ";".join(
                ",".join(str(v) for v in f) for f in patterns(traj.m, k))
    else:
        for n in range(1, traj.kmax + 1):
            yield f"eps[{n}]: {sched.eps[n - 1]}"
            yield (f"times[{n}]: " +
                   ",".join(str(t) for t in sched.times[n - 1]))
    for b in traj.manifest.blocks:
        extra = ""
        if traj.family == FAMILY_LOG_M:
            extra = f" outer-gap-start={b.end}"
        yield (f"block[{b.level}]: start={b.start} end={b.end} "
               f"times={','.join(str(t) for t in b.times)} "
               f"pieces={','.join(str(p) for p in b.piece_starts)}" + extra)
    manifest = traj.manifest
    for (path, kind, plan, function), start, length in zip(
            manifest.walk(), manifest.starts, manifest.lengths):
        line = (f"segment: path={path} kind={kind} start={start} "
                f"length={length}")
        if plan is not None:
            line += (f" p={plan.p} q={plan.q} w={plan.w} jump_from="
                     f"{plan.jump_from} jump_depth={plan.jump_depth} "
                     f"shared={int(length < plan.w)}")
        if function is not None:  # a list joins these short tuples faster
            line += " function=" + ";".join([str(v) for v in function])
        yield line


def manifest_string(traj: Trajectory) -> str:
    """Canonical manifest text for a built trajectory, hash line included."""
    body = "\n".join(_manifest_lines(traj)) + "\n"
    return body + f"hash: {config_hash(body)}\n"


def write_manifest(traj: Trajectory, path) -> str:
    """Write ``manifest_string(traj)`` to path and return its hash. The
    lines go to the file and to the hash a batch at a time, so the whole
    text is never held in memory."""
    import hashlib  # as in config_hash

    digest = hashlib.sha256()
    lines = _manifest_lines(traj)
    with open(path, "wb") as fh:
        while batch := list(islice(lines, 4096)):
            chunk = ("\n".join(batch) + "\n").encode("utf-8")
            digest.update(chunk)
            fh.write(chunk)
        fh.write(f"hash: {digest.hexdigest()}\n".encode("utf-8"))
    return digest.hexdigest()


def _header_value(lines: list[str], key: str, source: str, parse=str,
                  low=None):
    """The parsed value of a file's ``key:`` line; source names the file."""
    prefix = key + ": "
    for line in lines:
        if line.startswith(prefix):
            return parse_field(f"{source} {key} line", line[len(prefix):],
                               parse, low)
    raise InvalidConfig(f"{source} is missing its {key} line")


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def read_manifest(path) -> dict:
    """Parse a manifest file: header, schedule, and the content hash,
    checked over the file as written."""
    with input_file(path, "manifest", newline="") as fh:
        return _parse_manifest(fh.read(), f"manifest {path}")


def _parse_manifest(text: str, source: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != f"format: {FORMAT_VERSION}":
        raise InvalidConfig("unsupported or missing format header")
    if _header_value(lines, "kind", source) != "manifest":
        raise InvalidConfig("not a manifest file")
    hash_line = lines[-1]
    if not hash_line.startswith("hash: "):
        raise InvalidConfig(f"{source} is missing its hash line")
    # the hash line is the last line, so its text last occurs where it starts
    body = text[:text.rindex(hash_line)]
    if config_hash(body) != hash_line[len("hash: "):]:
        raise InvalidConfig("manifest content does not match its hash")

    def value(key, parse=_ints):
        return _header_value(lines, key, source, parse)

    family = value("family", str)
    m = value("m", int)
    kmax = value("kmax", int)
    if family == FAMILY_LOG_M:
        winds = [value(f"winds[{k}]") for k in range(1, kmax + 1)]
        inner = [value(f"inner-gaps[{k}]") for k in range(1, kmax + 1)]
        schedule = GrowthSchedule(FAMILY_LOG_M, m, winds=winds,
                                  inner_gaps=inner,
                                  outer_gaps=value("outer-gaps"))
    elif family == FAMILY_LOG_INFTY:
        eps = [value(f"eps[{n}]", Fraction) for n in range(1, kmax + 1)]
        times = [value(f"times[{n}]") for n in range(1, kmax + 1)]
        schedule = GrowthSchedule(FAMILY_LOG_INFTY, m, eps=eps, times=times)
    else:
        raise InvalidConfig(f"unknown family {family!r}")
    return {"family": family, "m": m, "kmax": kmax, "schedule": schedule,
            "text": text}


def rebuild_from_manifest(data: dict) -> Trajectory:
    if data["family"] == FAMILY_LOG_M:
        return build_log_m(data["m"], data["kmax"], data["schedule"])
    return build_log_infty(data["kmax"], data["schedule"])


def replay_manifest(path) -> tuple[bool, str]:
    """Rebuild from a manifest's schedule and compare byte for byte.

    Every manifest line ends in a newline. A line with another ending, or
    none, fails replay before the hash, which covers the bytes as written,
    is checked.
    """
    with input_file(path, "manifest", newline="") as fh:
        text = fh.read()
    for i, line in enumerate(text.splitlines(keepends=True), 1):
        ending = line[len(line.splitlines()[0]):]
        if ending != "\n":
            return False, (f"line {i} ending differs: file has {ending!r}, "
                           f"rebuild '\\n'")
    data = _parse_manifest(text, f"manifest {path}")
    if data["family"] == FAMILY_LOG_INFTY and data["kmax"] > MANIFEST_NMAX:
        raise InvalidConfig(f"manifest {path}: kmax {data['kmax']} is past "
                            f"the {MANIFEST_NMAX} blocks of a dense manifest")
    rebuilt = manifest_string(rebuild_from_manifest(data))
    if rebuilt == data["text"]:
        return True, "manifest reproduced byte for byte"
    old_lines = data["text"].splitlines()
    new_lines = rebuilt.splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a != b:
            return False, f"line {i} differs: file has {a!r}, rebuild {b!r}"
    return False, (f"length differs: file has {len(old_lines)} lines, "
                   f"rebuild {len(new_lines)}")


# ---------------------------------------------------------------------------
# symbol listings


def _symbol_header(family: str, lo: int, hi: int) -> str:
    return (f"format: {FORMAT_VERSION}\nkind: symbols\nfamily: {family}\n"
            f"range: {lo},{hi}\n")


def _formatted_lines(line: bytes, t0: int, indices) -> bytes:
    """The lines for times t0, t0 + 1, ... and the given indices: line, with
    a ``%d`` field for the time and one for the index, repeated once per
    time and applied to the interleaved ints."""
    n = len(indices)
    fields = [0] * (2 * n)
    fields[0::2] = range(t0, t0 + n)
    fields[1::2] = indices
    return line * n % tuple(fields)


def _width_end(x: int) -> int:
    """The least integer above x whose decimal form has another width."""
    width = len(b"%d" % x)
    return 10 ** width if x >= 0 else 1 - 10 ** (width - 2)


def _digit_column(x: int, n: int, place: int) -> bytes:
    """The digits at place, a power of ten, of x, x + 1, ..., x + n - 1 for
    x >= 0: at most ten runs of one repeated digit, repeated to n bytes
    when the column spans more than the period 10 * place."""
    lo = x // place
    column = b"".join(
        b"%d" % (q % 10) * (min(x + n, q * place + place) - max(x, q * place))
        for q in range(lo, min((x + n - 1) // place, lo + 9) + 1))
    if len(column) < n:  # close the period that starts at x and repeat it
        column += b"%d" % (lo % 10) * (x - lo * place)
        column = (column * (n // len(column) + 1))[:n]
    return column


def _symbol_chunks(traj: Trajectory, lo: int, hi: int):
    """The data lines for times [lo, hi]: (first time, UTF-8 bytes) pairs,
    one per dense piece and one per span of a head-indexed piece in which
    the time and the index keep their decimal widths.

    Lines are rendered by a bytes ``%`` call (``_formatted_lines``) of a
    line template whose segment path has its ``%`` escaped. A head-indexed
    piece is a run, index t + c with c fixed, cut into spans where the
    width of the time or of the index changes: at powers of ten and where
    the index turns from -1 to 0. A span of more than 100 lines repeats its
    first 100, rendered by that call, in a ``bytearray`` to its length,
    which sets the last two digits of both fields, since they repeat every
    100 lines. Each higher digit place that changes within the span is then
    one strided slice assignment of its digit column, reversed for a
    negative index, whose magnitude falls as t rises.
    """
    prefix = "a" if traj.family == FAMILY_LOG_M else "e"
    for t0, indices, path in traj.symbol_pieces(lo, hi):
        line = f"%d\t{prefix}%d\t{path.replace('%', '%%')}\n".encode()
        if not isinstance(indices, range):
            yield t0, _formatted_lines(line, t0, indices)
            continue
        c, t, end = indices.start - t0, t0, t0 + len(indices)
        tail = len(f"\t{path}\n".encode())
        while t < end:
            n = min(end, _width_end(t), _width_end(t + c) - c) - t
            out = _formatted_lines(line, t, range(t + c, t + c + min(n, 100)))
            if n > 100:
                width, i = len(out) // 100, t + c
                out = bytearray(out) * -(-n // 100)
                del out[n * width:]
                least = i if i >= 0 else -(i + n - 1)  # least |index|
                # (offset of the field's last digit, its least value, falls)
                for last, x, falls in ((len(b"%d" % t) - 1, t, False),
                                       (width - tail - 1, least, i < 0)):
                    p = 2
                    while x // 10 ** p != (x + n - 1) // 10 ** p:
                        column = _digit_column(x, n, 10 ** p)
                        out[last - p::width] = (column[::-1] if falls
                                                else column)
                        p += 1
            yield t, out
            t += n


def write_symbols(traj: Trajectory, path, lo: int = 0,
                  hi: int | None = None) -> int:
    """One line per time: ``t<TAB>symbol<TAB>segment-path``, streamed."""
    if hi is None:
        hi = min(traj.horizon, lo + SYMBOL_LINE_CAP - 1)
    if not 0 <= lo <= hi <= traj.horizon:
        raise InvalidConfig(
            f"span [{lo}, {hi}] is not a range inside [0, {traj.horizon}]")
    if hi - lo + 1 > SYMBOL_LINE_CAP:
        raise InvalidConfig(f"span [{lo}, {hi}] exceeds {SYMBOL_LINE_CAP} "
                            f"lines; pass a range")
    with open(path, "wb") as fh:
        fh.write(_symbol_header(traj.family, lo, hi).encode())
        fh.writelines(piece for _, piece in _symbol_chunks(traj, lo, hi))
    return hi - lo + 1


def _file_lines(path):
    """The lines ``str.splitlines`` gives for the file's text, read lazily."""
    with input_file(path, "symbol file") as fh:
        for raw in fh:
            yield from raw.splitlines()


def replay_symbols(path, traj: Trajectory) -> tuple[bool, str]:
    """Compare a symbol file line by line against a rebuilt trajectory.

    Returns (ok, message); on mismatch the message names the first
    offending line, which is the counterexample. Header lines must be the
    ones ``write_symbols`` writes, not merely parse to the same values.
    The file's bytes are streamed against the rendered pieces, with every
    line ending as CRLF if the header's are; a file that differs is decoded
    and read once more, counting its lines and comparing them from its
    first differing piece on.
    """
    head = list(islice(_file_lines(path), 4))
    if len(head) < 4 or head[1] != "kind: symbols":
        raise InvalidConfig(f"{path} is not a symbol file")
    if head[0] != f"format: {FORMAT_VERSION}":
        raise InvalidConfig(f"{path}: unsupported {head[0]!r}")
    family = head[2].removeprefix("family: ")
    if family != traj.family:
        return False, f"family mismatch: file {family}, build {traj.family}"
    try:
        lo, hi = (int(x) for x in head[3].removeprefix("range: ").split(","))
    except ValueError as exc:
        raise InvalidConfig(f"{path}: unreadable range line") from exc
    n_lines = hi - lo + 1
    renderable = (lo >= 0 and hi <= traj.horizon
                  and 0 <= n_lines <= SYMBOL_LINE_CAP)
    header = _symbol_header(family, lo, hi)
    same = 0  # data lines before the first piece the file does not match
    if renderable:
        with input_file(path, "symbol file", binary=True) as fh:
            encoded = header.encode()
            got = fh.read(len(encoded))
            crlf = got != encoded
            if crlf:  # try the header, and then each piece, with CRLF
                encoded = encoded.replace(b"\n", b"\r\n")
                got += fh.read(len(encoded) - len(got))
            if got == encoded:
                for t0, piece in _symbol_chunks(traj, lo, hi):
                    if crlf:
                        piece = piece.replace(b"\n", b"\r\n")
                    if fh.read(len(piece)) != piece:
                        same = t0 - lo
                        break
                else:
                    if not fh.read(1):
                        return True, f"{n_lines} symbol lines reproduced"
    # one pass over the data lines counts them all and compares them from
    # the first piece the file does not reproduce on
    data = islice(_file_lines(path), 4, None)
    n_data = sum(1 for _ in islice(data, same))
    differs = None
    if renderable:
        expected = (line for _, piece in _symbol_chunks(traj, lo + same, hi)
                    for line in piece.decode().splitlines())
        for number, (want, got) in enumerate(zip(expected, data), 5 + same):
            n_data += 1
            if got != want:
                differs = (f"line {number}: file has {got!r}, "
                           f"rebuild gives {want!r}")
                break
    n_data += sum(1 for _ in data)
    if n_data != n_lines:
        return False, f"{n_data} data lines do not cover range {lo},{hi}"
    if not renderable:
        return False, (f"range {lo},{hi} does not lie in [0, {traj.horizon}] "
                       f"within {SYMBOL_LINE_CAP} lines")
    for number, (got, want) in enumerate(zip(head, header.splitlines()), 1):
        if got != want:
            return False, (f"line {number}: file has {got!r}, "
                           f"rebuild gives {want!r}")
    if differs:
        return False, differs
    return True, f"{n_lines} symbol lines reproduced"


# ---------------------------------------------------------------------------
# certificates


# labels of format-1 certificates; both record the same frontier
_SEARCHES = {"level-shapes", "depth-first"}


def certificate_string(cert: ExhaustionCertificate) -> str:
    lines = [f"format: {FORMAT_VERSION}", "kind: certificate",
             f"tuple: {cert.tuple_rendered}",
             f"target-length: {cert.target_length}",
             f"horizon: {cert.horizon}",
             f"search: {cert.search}",
             "frontier: " + ",".join(str(n) for n in cert.frontier_sizes),
             f"died-level: {cert.died_level}",
             f"nodes: {cert.nodes_used}"]
    return "\n".join(lines) + "\n"


def write_certificate(cert: ExhaustionCertificate, path) -> str:
    text = certificate_string(cert)
    Path(path).write_text(text, encoding="utf-8", newline="\n")
    return text


def read_certificate(path) -> ExhaustionCertificate:
    with input_file(path, "certificate") as fh:
        lines = fh.read().splitlines()
    source = f"certificate {path}"
    if not lines or lines[0] != f"format: {FORMAT_VERSION}":
        raise InvalidConfig("unsupported or missing format header")
    if _header_value(lines, "kind", source) != "certificate":
        raise InvalidConfig("not a certificate file")

    def value(key, parse=int, low=0):
        return _header_value(lines, key, source, parse, low)

    return ExhaustionCertificate(
        tuple_rendered=value("tuple", str, None),
        target_length=value("target-length", low=1),
        horizon=value("horizon"),
        search=value("search", str, None),
        frontier_sizes=value("frontier", lambda v: tuple(_ints(v)), None),
        died_level=value("died-level"),
        nodes_used=value("nodes"))


def replay_certificate(cert: ExhaustionCertificate, traj: Trajectory,
                       budget: SearchBudget | None = None
                       ) -> tuple[bool, str]:
    """Re-run the recorded search and compare the frontier trace exactly.

    A horizon past the build's fails before any search, since the search
    would silently stop at the build's horizon. The budget bounds the
    re-run, so a certificate cannot start an unbounded search.
    """
    if ":" in cert.tuple_rendered:
        raise InvalidConfig("composite certificates cannot be replayed yet")
    specs = parse_field("certificate tuple", cert.tuple_rendered,
                        parse_tuple)
    if cert.search not in _SEARCHES:
        raise InvalidConfig(f"unknown search {cert.search!r}")
    if cert.horizon > traj.horizon:
        return False, (f"horizon mismatch: recorded {cert.horizon}, build "
                       f"horizon {traj.horizon}")
    res = max_independence(specs, cap=cert.target_length, traj=traj,
                           horizon=cert.horizon, budget=budget)
    if res.certificate is None:
        return False, (f"replay reached length {res.length}, but the "
                       f"certificate records an exhaustion")
    got = res.certificate
    if got.frontier_sizes != cert.frontier_sizes:
        return False, (f"frontier mismatch: recorded "
                       f"{list(cert.frontier_sizes)}, replay "
                       f"{list(got.frontier_sizes)}")
    if got.died_level != cert.died_level:
        return False, (f"died-level mismatch: recorded {cert.died_level}, "
                       f"replay {got.died_level}")
    return True, "certificate reproduced"


# ---------------------------------------------------------------------------
# reports


def report_string(report, config_fingerprint: str | None = None) -> str:
    lines = [f"format: {FORMAT_VERSION}", "kind: report",
             f"name: {report.name}"]
    if config_fingerprint is not None:
        lines.append(f"config-hash: {config_fingerprint}")
    for key in sorted(report.params):
        lines.append(f"param {key}: {report.params[key]}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    if report.counterexample:
        lines.append(f"counterexample: {report.counterexample}")
    for d in report.details:
        lines.append(f"detail: {d}")
    return "\n".join(lines) + "\n"


def write_report(report, path, config_fingerprint: str | None = None) -> str:
    text = report_string(report, config_fingerprint)
    Path(path).write_text(text, encoding="utf-8", newline="\n")
    return text
