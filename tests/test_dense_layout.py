"""The dense family's arithmetic layout against the array build it replaced.

``build_log_infty`` keeps per block only the tables its segments are made
of, and computes placements, segments and symbols from pattern digits.
``_oracles.ArrayDenseBuild`` stores every placement and segment, as the
build did before; the two must agree everywhere.
"""

import copy
import itertools
import pickle
import random
import tracemalloc

import pytest

from _oracles import ArrayDenseBuild
from seqent.construct import build_log_infty


@pytest.fixture(scope="module", params=[1, 2, 3, 4, 5])
def pair(request):
    return build_log_infty(request.param), ArrayDenseBuild(request.param)


class TestAgainstTheArrayBuild:
    def test_blocks_and_piece_starts(self, pair):
        traj, ref = pair
        assert traj.n_points == ref.n_points
        for block, (level, start, end, times, piece_starts) in zip(
                traj.manifest.blocks, ref.blocks, strict=True):
            assert (block.level, block.start, block.end, block.times) == (
                level, start, end, times)
            assert len(block.piece_starts) == len(piece_starts)
            assert list(block.piece_starts) == list(piece_starts)
        # indexing computes each start on its own
        rng = random.Random(4200 + traj.kmax)
        for level, _, _, _, piece_starts in ref.blocks:
            starts = traj.manifest.block(level).piece_starts
            for p in {0, len(piece_starts) - 1,
                      *rng.sample(range(len(piece_starts)),
                                  min(200, len(piece_starts)))}:
                assert starts[p] == piece_starts[p], (level, p)
            assert starts[-1] == piece_starts[-1]

    def test_every_segment(self, pair):
        traj, ref = pair
        manifest = traj.manifest
        assert list(manifest.starts) == ref.seg_starts
        assert list(manifest.lengths) == ref.seg_lengths
        walk = [(path, function) for path, _, _, function in manifest.walk()]
        assert walk == list(zip(ref.paths, ref.functions))
        # each index on its own, and walks started inside the columns
        count = len(ref.seg_starts)
        assert len(manifest.starts) == len(manifest.lengths) == count
        rng = random.Random(4300 + traj.kmax)
        for i in {0, count - 1, *rng.sample(range(count), min(300, count))}:
            assert manifest.starts[i] == ref.seg_starts[i], i
            assert manifest.lengths[i] == ref.seg_lengths[i], i
            assert manifest.path(i) == ref.paths[i], i
            assert [(path, function) for path, _, _, function in
                    itertools.islice(manifest.walk(i), 4)] == walk[i:i + 4]
        assert manifest.starts[-1] == ref.seg_starts[-1]
        assert manifest.starts[5:9] == ref.seg_starts[5:9]

    def test_symbols(self, pair):
        traj, ref = pair
        if traj.kmax <= 3:
            times = range(traj.n_points)
        else:
            rng = random.Random(4400 + traj.kmax)
            times = sorted({*rng.sample(range(traj.n_points), 3000),
                            *(t + d for b in ref.blocks for t in b[1:3]
                              for d in (-1, 0, 1) if 0 <= t + d
                              < traj.n_points)})
        assert [traj.symbol_index_at(t) for t in times] == [
            ref.symbol_index_at(t) for t in times]

    def test_hits(self, pair):
        traj, ref = pair
        indices = sorted({x for piece in ref.pieces for x in piece})
        if traj.kmax > 3:  # the block's values and a few chain points
            indices = indices[:traj.kmax + 1] + random.Random(
                4500 + traj.kmax).sample(indices[traj.kmax + 1:], 3)
        for j in indices:
            assert traj.hits(j) == ref.hits(j), j


class TestDenseBlock:
    def test_a_block_is_a_frozen_record_of_its_tables(self, dense2):
        block = dense2.manifest.block(2)
        for name in block._fields + ("end",):
            with pytest.raises(AttributeError):
                setattr(block, name, None)
        for made in (block._replace(), copy.copy(block), copy.deepcopy(block),
                     pickle.loads(pickle.dumps(block))):
            assert made == block and hash(made) == hash(block)
            assert made.end == block.end
            assert list(made.piece_starts) == list(block.piece_starts)
        # the end follows the tables: one more tail point, one more time
        longer = block._replace(tail=block.tail[:1] + block.tail)
        assert longer != block and longer.end == block.end + 1


class TestLargeBuilds:
    def test_nmax_7_builds_in_about_a_megabyte(self):
        # block 7 has 8^8 = 16,777,216 patterns, and an array per placement
        # would not fit in memory; the tables take about 1.2 MB
        tracemalloc.start()
        try:
            traj = build_log_infty(7)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2_000_000 and peak < 3_000_000
        blocks = traj.manifest.blocks
        assert traj.n_points == blocks[-1].end
        for block in blocks:
            assert traj.symbol_index_at(block.start) == 1
            assert traj.symbol_index_at(block.end - 1) == 1
        # a pattern starts on its first digit's value, e_{d+1}
        block = traj.manifest.block(7)
        starts = block.piece_starts
        assert len(starts) == 8 ** 8
        rng = random.Random(4600)
        for p in [0, 1, 8 ** 7 - 1, 8 ** 7, 8 ** 8 - 1,
                  *rng.sample(range(8 ** 8), 200)]:
            assert traj.symbol_index_at(starts[p]) == p // 8 ** 7 + 1, p
        # the walk starts from the digits: the last segment at once
        assert traj.manifest.path(-1) == f"B7/G{block.segments - 8 ** 8}"
