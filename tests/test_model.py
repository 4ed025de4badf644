"""Model layer: symbols, points, membership, and trajectory accessors."""

import bisect
import copy
import itertools
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import naive_dense_hits, naive_dense_symbols
from seqent.checks import CheckReport
from seqent.construct import GrowthSchedule, WindPlan
from seqent.entropy import HStarEvidence
from seqent.errors import HorizonExceeded, InvalidConfig, UnknownBlock
from seqent.flower import CompositeSystem, PetalSystem, Value
from seqent.independence import (
    ExhaustionCertificate, IndependenceResult, occupancy,
)
from seqent.model import (
    FAMILY_LOG_INFTY,
    FAMILY_LOG_M,
    PIECE_TIMES,
    BlockRecord,
    ModelPoint,
    NeighborhoodSpec,
    SegmentationManifest,
    Symbol,
    Trajectory,
    dense_dyadic,
    dense_index,
    dense_value,
    dyadic_index,
    head_member,
    infinity_window,
    iterate,
    orbit_member,
    parse_symbol,
    point_member,
    step,
)


class TestSymbol:
    def test_render_and_parse_round_trip(self):
        for sym in (Symbol.head(0), Symbol.head(-7), Symbol.head(12),
                    Symbol.head_inf(), Symbol.dense(1), Symbol.dense(30)):
            assert parse_symbol(sym.render()) == sym

    def test_dense_symbols_are_one_based(self):
        with pytest.raises(ValueError):
            Symbol.dense(0)

    def test_dense_value_enumeration_prefix(self):
        # 1-based positions walk the dyadic enumeration used by the builder
        want = ["0", "1", "1/2", "1/4", "3/4", "1/8", "3/8", "5/8", "7/8"]
        got = [str(dense_value(j)) for j in range(1, 10)]
        assert got == want

    @given(st.integers(min_value=1, max_value=4000))
    def test_dense_value_index_round_trip(self, j):
        assert dense_index(dense_value(j)) == j

    def test_dense_dyadic_matches_the_listed_enumeration(self):
        # 0, 1, then each level's odd numerators ascending
        listed = [(0, 0), (1, 0)] + [(u, level) for level in range(1, 12)
                                     for u in range(1, 2 ** level, 2)]
        for j, (u, level) in enumerate(listed, 1):
            assert dense_dyadic(j) == (u, level)
            assert dense_value(j) == Fraction(u, 2 ** level)
            assert dyadic_index(u, level) == j
            assert dyadic_index(u << 3, level + 3) == j  # unreduced input


class TestStepAndIterate:
    def test_orbit_steps_advance_time(self, m2k2):
        p = ModelPoint.orbit(5)
        assert step(p, m2k2) == ModelPoint.orbit(6)
        assert iterate(p, 10, m2k2) == ModelPoint.orbit(15)

    def test_head_steps_increment_index(self, m2k2):
        p = ModelPoint.head(Symbol.head(-2))
        assert step(p, m2k2).symbol == Symbol.head(-1)
        assert iterate(p, 7, m2k2).symbol == Symbol.head(5)

    def test_limit_head_is_fixed(self, m2k2):
        p = ModelPoint.head(Symbol.head_inf())
        assert step(p, m2k2) == p
        assert iterate(p, 99, m2k2) == p

    def test_dense_heads_are_fixed(self, dense2):
        p = ModelPoint.head(Symbol.dense(3))
        assert step(p, dense2) == p

    def test_step_past_horizon_raises(self, m2k2):
        with pytest.raises(HorizonExceeded):
            iterate(ModelPoint.orbit(0), m2k2.n_points, m2k2)

    def test_iterate_is_step_repeated(self, m2k2, dense2):
        # orbit points 12 before the end: the 12th step and every later
        # count pass the horizon, for iterate as for step
        points = [(m2k2, ModelPoint.orbit(m2k2.n_points - 12)),
                  (dense2, ModelPoint.orbit(dense2.n_points - 12)),
                  (m2k2, ModelPoint.head(Symbol.head(-5))),
                  (m2k2, ModelPoint.head(Symbol.head_inf())),
                  (dense2, ModelPoint.head(Symbol.dense(3)))]
        for traj, point in points:
            p = point
            for t in range(20):
                if p is None:
                    with pytest.raises(HorizonExceeded):
                        iterate(point, t, traj)
                    continue
                assert iterate(point, t, traj) == p
                try:
                    p = step(p, traj)
                except HorizonExceeded:
                    assert t == 11
                    p = None
            assert (p is None) == point.is_orbit


def _path_at(traj, t):
    """Path of the segment that owns time t, by the per-index accessor."""
    return traj.manifest.path(bisect.bisect_right(traj.manifest.starts, t) - 1)


class TestTrajectoryAccessors:
    def test_first_symbols_of_smallest_build(self, m2k3):
        got = [m2k3.symbol_index_at(t) for t in range(9)]
        assert got == [0, 1, 2, 3, -3, -2, -1, 0, 1]

    def test_block_one_range(self, m2k3):
        assert m2k3.block_range(1) == (0, 8335134)

    def test_block_two_starts_after_outer_gap(self, m2k3):
        assert m2k3.block_range(2)[0] == 841848636

    def test_unknown_block_raises(self, m2k2):
        with pytest.raises(UnknownBlock):
            m2k2.manifest.block(9)

    @pytest.mark.parametrize("lo,hi", [(0, 300), (800, 82530),
                                       (82520, 82526 + 2 * PIECE_TIMES)])
    def test_symbol_pieces_match_point_accessors(self, m2k3, lo, hi):
        t = lo
        for t0, indices, path in m2k3.symbol_pieces(lo, hi):
            assert t0 == t and 0 < len(indices) <= PIECE_TIMES
            for t, idx in enumerate(indices, t0):
                assert idx == m2k3.symbol_index_at(t)
                assert _path_at(m2k3, t) == path
            t += 1
        assert t == hi + 1

    def test_symbol_pieces_refuse_times_past_the_horizon(self, dense2):
        with pytest.raises(HorizonExceeded):
            list(dense2.symbol_pieces(0, dense2.n_points))

    def test_owning_segment_covers_every_time(self, m2k3):
        starts, lengths = m2k3.manifest.starts, m2k3.manifest.lengths
        for t in (0, 7, 8, 808, 809, 8335134, 8335135, 841848636):
            i = bisect.bisect_right(starts, t) - 1
            assert starts[i] <= t < starts[i] + lengths[i]


class TestManifestColumns:
    @pytest.mark.parametrize("name", ["dense2", "dense4", "m2k3"])
    def test_columns_tile_and_path_restarts_the_walk(self, request, name):
        traj = request.getfixturevalue(name)
        manifest = traj.manifest
        starts, lengths = manifest.starts, manifest.lengths
        # the columns tile [0, n_points)
        assert len(starts) == len(lengths)
        assert starts[0] == 0 and starts[-1] + lengths[-1] == traj.n_points
        assert all(n > 0 for n in lengths)
        assert all(s + n == after
                   for s, n, after in zip(starts, lengths, starts[1:]))
        # path(i) restarts the walk at i; one full walk names every segment
        paths = [path for path, *_ in manifest.walk()]
        assert len(paths) == len(starts)
        for i, path in enumerate(paths):
            assert manifest.path(i) == path

    @pytest.mark.parametrize("name", ["dense2", "m2k2"])
    def test_segment_index_is_a_sequence_index(self, request, name):
        manifest = request.getfixturevalue(name).manifest
        count = len(manifest.starts)
        assert manifest.path(-1) == manifest.path(count - 1)
        assert manifest.path(-count) == manifest.path(0)
        for i in (count, -count - 1):
            with pytest.raises(IndexError):
                manifest.path(i)

    @pytest.mark.parametrize("name", ["dense2", "dense4"])
    def test_dense_records_follow_the_blocks(self, request, name):
        traj = request.getfixturevalue(name)
        manifest = traj.manifest
        # (path, kind, function, start, length) of every segment
        segments = [(path, kind, function, start, length)
                    for (path, kind, _, function), start, length in zip(
                        manifest.walk(), manifest.starts, manifest.lengths)]
        for block in manifest.blocks:
            n = block.level
            own = [s for s in segments if block.start <= s[3] < block.end]
            patterns = [s for s in own if s[1] == "pattern"]
            glues = [s for s in own if s[1] == "glue"]
            assert len(patterns) + len(glues) == len(own)
            assert [s[0] for s in patterns] == [
                f"B{n}/S{l}" for l in range(1, len(block.piece_starts) + 1)]
            assert [s[3] for s in patterns] == list(block.piece_starts)
            assert [s[2] for s in patterns] == list(
                itertools.product(range(1, n + 2), repeat=n + 1))
            assert [s[0] for s in glues] == [
                f"B{n}/G{g}" for g in range(1, len(glues) + 1)]
            assert own[-1] == glues[-1] and own[-1][3] + own[-1][4] == block.end
            for path, _, function, start, length in patterns:
                assert length == block.times[-1] + 1
                assert tuple(traj.symbol_index_at(start + t)
                             for t in block.times) == function


class TestHeadHits:
    def test_every_index_near_zero_against_the_symbols(self, m2k2):
        horizon = min(m2k2.n_points, 100_000)
        symbols = [m2k2.symbol_index_at(t) for t in range(horizon)]
        for j in range(-8, 9):
            hits = m2k2.hits(j)
            assert list(hits) == sorted(set(hits)), j
            assert all(m2k2.symbol_index_at(t) == j for t in hits), j
            assert [t for t in hits if t < horizon] == [
                t for t, index in enumerate(symbols) if index == j], j
            assert m2k2.hits(j) is hits  # cached


class TestDenseHits:
    @pytest.mark.parametrize("name", ["dense2", "dense4"])
    def test_every_index_matches_the_one_pass_table(self, request, name):
        traj = request.getfixturevalue(name)
        table = naive_dense_hits(naive_dense_symbols(traj.kmax))
        for j, times in table.items():
            assert traj.hits(j) == times, j
        assert traj.hits(max(table) + 1) == ()

    @pytest.mark.parametrize("name", ["dense2", "dense4"])
    def test_piece_table_reads_as_the_flat_list(self, request, name):
        traj = request.getfixturevalue(name)
        symbols = naive_dense_symbols(traj.kmax)
        assert traj.n_points == len(symbols)
        assert [traj.symbol_index_at(t) for t in range(len(symbols))] \
            == symbols
        t = 0
        for t0, indices, path in traj.symbol_pieces(0, traj.horizon):
            assert t0 == t and 0 < len(indices) <= PIECE_TIMES
            assert list(indices) == symbols[t0:t0 + len(indices)]
            assert _path_at(traj, t0) == path
            t += len(indices)
            assert _path_at(traj, t - 1) == path
        assert t == len(symbols)

    def test_indices_above_two_bytes(self, dense2):
        # block 2's tail edited to e65537, e(2^33), e65537, e1: the tables
        # hold any int, and hit lists read them like every other piece
        blocks = list(dense2.manifest.blocks)
        blocks[1] = blocks[1]._replace(tail=(65_537, 2 ** 33, 65_537, 1))
        traj = Trajectory(FAMILY_LOG_INFTY, dense2.m,
                          SegmentationManifest(blocks),
                          schedule=dense2.schedule)
        end = traj.n_points
        assert end == blocks[1].end
        assert [traj.symbol_index_at(t) for t in range(end - 4, end)] == [
            65_537, 2 ** 33, 65_537, 1]
        assert traj.hits(65_537) == (end - 4, end - 2)
        assert traj.hits(2 ** 33) == (end - 3,)
        assert traj.hits(1)[-1] == end - 1
        # no piece holds 70,000 (65,537 plus 4,463) or 2^40
        assert traj.hits(70_000) == ()
        assert traj.hits(2 ** 40) == ()


class TestMembership:
    def test_orbit_membership_needs_matching_symbol(self, m2k3):
        spec = NeighborhoodSpec(Symbol.head(0), 1)
        assert orbit_member(spec, 0, m2k3)
        assert orbit_member(spec, 7, m2k3)
        assert not orbit_member(spec, 1, m2k3)

    def test_level_threshold_excludes_early_blocks(self, m2k3):
        spec = NeighborhoodSpec(Symbol.head(0), 2)
        assert not orbit_member(spec, 0, m2k3)
        assert orbit_member(spec, m2k3.block_range(2)[0], m2k3)

    def test_infinity_membership_uses_window(self, m2k3):
        spec = NeighborhoodSpec(Symbol.head_inf(), 1)
        assert infinity_window(1) == 4
        # inner gap of block 1 climbs far past the window
        assert orbit_member(spec, 100, m2k3)
        assert not orbit_member(spec, 0, m2k3)

    def test_head_membership_is_symbol_equality(self, m2k3):
        spec = NeighborhoodSpec(Symbol.head(3), 1)
        assert head_member(spec, Symbol.head(3), m2k3)
        assert not head_member(spec, Symbol.head(2), m2k3)

    def test_limit_head_membership(self, m2k3):
        spec = NeighborhoodSpec(Symbol.head_inf(), 2)
        assert head_member(spec, Symbol.head_inf(), m2k3)
        assert head_member(spec, Symbol.head(99), m2k3)
        assert not head_member(spec, Symbol.head(1), m2k3)

    def test_point_member_dispatches(self, m2k3):
        spec = NeighborhoodSpec(Symbol.head(0), 1)
        assert point_member(spec, ModelPoint.orbit(7), m2k3)
        assert point_member(spec, ModelPoint.head(Symbol.head(0)), m2k3)

    def test_resolve_validates_level(self, m2k2):
        with pytest.raises(ValueError):
            occupancy(NeighborhoodSpec(Symbol.head(0), 0), m2k2)
        with pytest.raises(UnknownBlock):
            occupancy(NeighborhoodSpec(Symbol.head(0), 5), m2k2)

    @pytest.mark.parametrize("center, family, message", [
        ("a0", "dense", "U1(a0) needs the head-indexed family"),
        ("e1", "log-m", "U1(e1) needs the dense family")])
    def test_resolve_rejects_a_center_of_the_other_family(
            self, m2k2, dense2, center, family, message):
        traj = dense2 if family == "dense" else m2k2
        with pytest.raises(InvalidConfig) as exc:
            occupancy(NeighborhoodSpec(parse_symbol(center), 1), traj)
        assert str(exc.value) == message


class TestPackageSurface:
    def test_star_import_exports_exactly_all(self):
        import types

        import seqent

        namespace: dict = {}
        exec("from seqent import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(seqent.__all__)
        assert len(set(seqent.__all__)) == len(seqent.__all__) == 81
        modules = {n for n, v in namespace.items()
                   if isinstance(v, types.ModuleType)}
        assert modules == {"checks", "construct", "entropy", "errors",
                           "flower", "formats", "independence", "model"}

    def test_cli_import_loads_no_dataclasses_or_hashlib(self):
        # every CLI call pays for what importing seqent loads; hashlib
        # (OpenSSL) is loaded by the first config hash instead
        import seqent

        code = ("import sys\n"
                "before = set(sys.modules)\n"
                "import seqent.cli\n"
                "print(' '.join(sorted(set(sys.modules) - before)))\n"
                "print(seqent.cli.config_hash('abc'))\n"
                "print('hashlib' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(seqent.__file__))
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        loaded, digest, hashed = proc.stdout.splitlines()
        loaded = set(loaded.split())
        assert {"seqent.cli", "seqent.model", "seqent.formats"} <= loaded
        assert not loaded & {"dataclasses", "inspect", "hashlib"}
        assert digest == ("ba7816bf8f01cfea414140de5dae2223"
                          "b00361a396177a9cb410ff61f20015ad")  # sha256 "abc"
        assert hashed == "True"


FROZEN_RECORDS = [
    Symbol.head(3),
    ModelPoint.orbit(5),
    NeighborhoodSpec(Symbol.dense(2), 1),
    BlockRecord(1, 0, 10, (1, 2), (0,)),
    WindPlan(0, 1, 8, 3, 2),
    ExhaustionCertificate("U1(a0)", 3, 10, "level-shapes", (1, 0), 2, 7),
    Value.log(2),
]


class TestRecords:
    @pytest.mark.parametrize("record", FROZEN_RECORDS,
                             ids=lambda r: type(r).__name__)
    def test_frozen_record_semantics(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            # every field takes part in equality
            assert record._replace(**{name: object()}) != record
        same = record._replace()
        assert same is not record
        assert same == record and hash(same) == hash(record)
        assert len({record, same}) == 1
        values = tuple(getattr(record, name) for name in record._fields)
        assert record != values and values != record
        for made in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(made) is type(record) and made == record

    def test_other_record_class_with_the_same_values_differs(self):
        assert Symbol("log", 2) != Value("log", 2)
        assert Value("log", 2) != Symbol("log", 2)

    def test_repr_names_every_field(self):
        assert repr(WindPlan(0, 1, 8, 3, 2)) == (
            "WindPlan(p=0, q=1, w=8, jump_from=3, jump_depth=2)")
        assert repr(IndependenceResult(False, failing=(1,))) == (
            "IndependenceResult(ok=False, witness=None, failing=(1,))")

    def test_mutable_records_get_fresh_containers(self):
        made = [(lambda: CheckReport("a"),
                 ("params", "details", "certificates")),
                (lambda: GrowthSchedule(FAMILY_LOG_M, 2),
                 ("winds", "inner_gaps", "outer_gaps", "eps", "times")),
                (lambda: HStarEvidence(0, 0.0), ("per_level",)),
                (lambda: CompositeSystem([], {}), ("collapse_targets",))]
        for make, names in made:
            a, b = make(), make()
            assert a == b
            with pytest.raises(TypeError):
                hash(a)
            for name in names:
                assert not getattr(a, name)
                assert getattr(a, name) is not getattr(b, name)
        report = CheckReport("a")
        report.details.append("x")
        assert CheckReport("a").details == [] and report != CheckReport("a")
        assert pickle.loads(pickle.dumps(report)) == report
        assert copy.deepcopy(report) == report

    def test_fields_by_position_or_name(self):
        by_name = GrowthSchedule(m=2, family=FAMILY_LOG_M, eps=[1])
        assert by_name == GrowthSchedule(FAMILY_LOG_M, 2, [], [], [], [1])
        with pytest.raises(TypeError):
            GrowthSchedule(FAMILY_LOG_M)
        with pytest.raises(TypeError):
            GrowthSchedule(FAMILY_LOG_M, 2, colour=1)
        with pytest.raises(TypeError):
            Value("log", 2, 3)

    def test_bad_petal_id_is_invalid(self):
        for bad in ("", "a/b", "a,b"):
            with pytest.raises(InvalidConfig):
                PetalSystem(bad, Value.log(2))
        with pytest.raises(InvalidConfig):
            PetalSystem("p", Value.log(2))._replace(petal_id="p/q")
