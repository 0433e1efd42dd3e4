import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from fcgtrack.core import BBox, TrackColumns, TrackEntry, TrackSet
from fcgtrack import metrics
from fcgtrack.metrics import id_switches, idf1
from oracles import brute_force_assignment, brute_force_idf1, per_pair_id_switches


def track(frame_boxes, score=1.0):
    return tuple(TrackEntry(f, BBox(*b), score) for f, b in frame_boxes)


def straight_track(frames, x=0.0, y=0.0):
    return track([(f, (x, y, 10.0, 10.0)) for f in frames])


class TestIdf1:
    def test_perfect_match(self):
        gt = TrackSet(tracks={1: straight_track(range(1, 11))})
        pred = TrackSet(tracks={7: straight_track(range(1, 11))})
        assert idf1(gt, pred) == 1.0

    def test_split_track_scores_half(self):
        gt = TrackSet(tracks={1: straight_track(range(1, 11))})
        pred = TrackSet(
            tracks={
                1: straight_track(range(1, 6)),
                2: straight_track(range(6, 11)),
            }
        )
        assert idf1(gt, pred) == pytest.approx(0.5, abs=1e-12)

    def test_empty_prediction(self):
        gt = TrackSet(tracks={1: straight_track([1, 2, 3])})
        assert idf1(gt, TrackSet(tracks={})) == 0.0

    def test_both_empty(self):
        assert idf1(TrackSet(tracks={}), TrackSet(tracks={})) == 1.0

    def test_self_score_is_one(self):
        rng = np.random.default_rng(61)
        tracks = {}
        for tid in range(1, 5):
            frames = sorted(rng.choice(range(1, 15), size=6, replace=False))
            tracks[tid] = track(
                [(int(f), (float(rng.uniform(0, 100)), 0.0, 5.0, 5.0)) for f in frames]
            )
        ts = TrackSet(tracks=tracks)
        assert idf1(ts, ts) == 1.0

    def test_relabeling_invariance(self):
        gt = TrackSet(
            tracks={1: straight_track([1, 2, 3]), 2: straight_track([1, 2], x=50.0)}
        )
        pred_a = TrackSet(
            tracks={1: straight_track([1, 2]), 2: straight_track([3], x=50.0)}
        )
        pred_b = TrackSet(
            tracks={9: straight_track([1, 2]), 4: straight_track([3], x=50.0)}
        )
        assert idf1(gt, pred_a) == idf1(gt, pred_b)

    def test_iou_gate(self):
        gt = TrackSet(tracks={1: track([(1, (0, 0, 10, 10))])})
        # overlap 5x10 of 10x10 boxes: IoU = 50/150 = 1/3 < 0.5
        pred_far = TrackSet(tracks={1: track([(1, (5, 0, 10, 10))])})
        assert idf1(gt, pred_far) == 0.0
        # overlap 8x10: IoU = 80/120 = 2/3 >= 0.5
        pred_near = TrackSet(tracks={1: track([(1, (2, 0, 10, 10))])})
        assert idf1(gt, pred_near) == 1.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(62)
        for _ in range(60):
            def random_tracks(num_ids):
                tracks = {}
                for tid in range(1, num_ids + 1):
                    n = int(rng.integers(1, 7))
                    frames = sorted(
                        rng.choice(range(1, 7), size=n, replace=False).tolist()
                    )
                    # coarse positions so some boxes collide across IDs
                    tracks[tid] = track(
                        [
                            (int(f), (float(rng.integers(0, 4)) * 8.0, 0.0, 10.0, 10.0))
                            for f in frames
                        ]
                    )
                return TrackSet(tracks=tracks)

            gt = random_tracks(int(rng.integers(1, 5)))
            pred = random_tracks(int(rng.integers(1, 5)))
            assert idf1(gt, pred) == pytest.approx(
                brute_force_idf1(gt, pred), abs=1e-12
            )


class TestIdSwitches:
    def test_perfect_match(self):
        gt = TrackSet(tracks={1: straight_track(range(1, 11))})
        pred = TrackSet(tracks={3: straight_track(range(1, 11))})
        assert id_switches(gt, pred) == 0

    def test_split_track_switches_once(self):
        gt = TrackSet(tracks={1: straight_track(range(1, 11))})
        pred = TrackSet(
            tracks={
                1: straight_track(range(1, 6)),
                2: straight_track(range(6, 11)),
            }
        )
        assert id_switches(gt, pred) == 1

    def test_alternating_ids(self):
        gt = TrackSet(tracks={1: straight_track([1, 2, 3, 4])})
        pred = TrackSet(
            tracks={
                1: straight_track([1, 3]),
                2: straight_track([2, 4]),
            }
        )
        assert id_switches(gt, pred) == 3

    def test_gap_does_not_reset_memory(self):
        gt = TrackSet(tracks={1: straight_track([1, 2, 5, 6])})
        pred = TrackSet(
            tracks={
                1: straight_track([1, 2]),
                2: straight_track([5, 6]),
            }
        )
        # switch counted once when the identity reappears under a new ID
        assert id_switches(gt, pred) == 1

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            tracks = {
                tid: straight_track(
                    sorted(rng.choice(range(1, 10), size=4, replace=False).tolist()),
                    x=float(rng.integers(0, 3)) * 7.0,
                )
                for tid in range(1, 4)
            }
            gt = TrackSet(tracks=tracks)
            pred_tracks = {
                tid: straight_track(
                    sorted(rng.choice(range(1, 10), size=4, replace=False).tolist()),
                    x=float(rng.integers(0, 3)) * 7.0,
                )
                for tid in range(1, 4)
            }
            pred = TrackSet(tracks=pred_tracks)
            assert id_switches(gt, pred) >= 0

    def test_tie_breaks_toward_lower_predicted_id(self):
        gt = TrackSet(tracks={1: track([(1, (0, 0, 10, 10)), (2, (0, 0, 10, 10))])})
        # two identical predicted boxes in frame 2; the lower ID wins the tie
        pred = TrackSet(
            tracks={
                1: track([(1, (0, 0, 10, 10)), (2, (0, 0, 10, 10))]),
                2: track([(2, (0, 0, 10, 10)),]),
            }
        )
        assert id_switches(gt, pred) == 0

    def test_equal_ious_go_to_the_lower_predicted_id(self):
        # Prediction 7 holds GT 1 at frames 1 and 3. At frame 2 prediction 3
        # covers the same box; the tie goes to the lower ID, 3: two switches.
        box = (0, 0, 10, 10)
        gt = TrackSet(tracks={1: track([(1, box), (2, box), (3, box)])})
        pred = TrackSet(tracks={7: track([(1, box), (2, box), (3, box)]), 3: track([(2, box)])})
        assert id_switches(gt, pred) == 2
        assert per_pair_id_switches(gt, pred) == 2


def crowded_tracks(rng, num_ids, frames=8):
    # coarse positions so boxes of different IDs collide and tie
    return TrackSet(
        tracks={
            tid: track(
                [
                    (f, (float(rng.integers(0, 4)) * 6.0, float(rng.integers(0, 2)) * 3.0, 10.0, 10.0))
                    for f in sorted(rng.choice(range(1, frames + 1), size=4, replace=False).tolist())
                ]
            )
            for tid in range(1, num_ids + 1)
        }
    )


class TestArrayMatching:
    def test_id_switches_match_per_pair_reference(self):
        rng = np.random.default_rng(64)
        for _ in range(60):
            gt = crowded_tracks(rng, int(rng.integers(1, 6)))
            pred = crowded_tracks(rng, int(rng.integers(1, 6)))
            assert id_switches(gt, pred) == per_pair_id_switches(gt, pred)

    @pytest.mark.parametrize("block", [1, 3])
    def test_block_size_does_not_matter(self, block, monkeypatch):
        rng = np.random.default_rng(65)
        cases = [
            (crowded_tracks(rng, 5), crowded_tracks(rng, 4)) for _ in range(20)
        ]
        expected = [(idf1(gt, pred), id_switches(gt, pred)) for gt, pred in cases]
        monkeypatch.setattr(metrics, "_GT_BLOCK", block)
        assert [(idf1(gt, pred), id_switches(gt, pred)) for gt, pred in cases] == expected


def random_weights(rng, kind, shape):
    """A random count matrix: `continuous` floats, `quantised` to a few
    values so that ties are common, `sparse` (mostly zero) or `zero`."""
    if kind == "continuous":
        return rng.uniform(0.0, 100.0, shape)
    if kind == "quantised":
        return rng.integers(0, 3, shape)
    if kind == "sparse":
        return rng.integers(1, 20, shape) * (rng.random(shape) < 0.2)
    return np.zeros(shape, dtype=np.int64)


def count_matrix(row, col):
    """The dense (GT ID x predicted ID) matrix of matched-frame counts."""
    matrix = np.zeros((row.max() + 1, col.max() + 1), dtype=np.int64)
    np.add.at(matrix, (row, col), 1)
    return matrix


class TestAssignment:
    @pytest.mark.parametrize("kind", ["continuous", "quantised", "sparse", "zero"])
    def test_matches_brute_force(self, kind):
        rng = np.random.default_rng(71)
        for _ in range(300):
            weight = random_weights(rng, kind, tuple(rng.integers(1, 8, size=2)))
            got = metrics._max_assignment(weight)
            if kind == "continuous":
                assert got == pytest.approx(brute_force_assignment(weight), rel=1e-12)
            else:
                assert got == brute_force_assignment(weight)

    @pytest.mark.parametrize("kind", ["continuous", "quantised", "sparse", "zero"])
    def test_row_and_column_vectors(self, kind):
        rng = np.random.default_rng(72)
        for n in range(1, 12):
            weight = random_weights(rng, kind, (1, n))
            assert metrics._max_assignment(weight) == weight.max()
            assert metrics._max_assignment(weight.T) == weight.max()

    def test_matches_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(73)
        cases = [
            random_weights(rng, kind, tuple(rng.integers(1, 61, size=2)))
            for _ in range(40)
            for kind in ("continuous", "quantised", "sparse")
        ]
        cases.append(rng.integers(1, 1000, (200, 200)))
        for weight in cases:
            rows, cols = optimize.linear_sum_assignment(weight, maximize=True)
            expected = weight[rows, cols].sum()
            if weight.dtype.kind == "f":
                assert metrics._max_assignment(weight) == pytest.approx(expected, rel=1e-12)
            else:
                assert metrics._max_assignment(weight) == expected


def bfs_components(row, col):
    """Component of each edge, as a frozenset of its edge indices, by search."""
    edges_of = defaultdict(list)
    for e, (r, c) in enumerate(zip(row.tolist(), col.tolist())):
        edges_of["r", r].append(e)
        edges_of["c", c].append(e)
    component = {}
    for start in range(len(row)):
        if start in component:
            continue
        seen, stack = {start}, [start]
        while stack:
            e = stack.pop()
            for node in (("r", int(row[e])), ("c", int(col[e]))):
                for f in edges_of[node]:
                    if f not in seen:
                        seen.add(f)
                        stack.append(f)
        for e in seen:
            component[e] = frozenset(seen)
    return [component[e] for e in range(len(row))]


class TestSparseIdtp:
    def test_components_match_search(self):
        rng = np.random.default_rng(74)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            row = rng.integers(0, int(rng.integers(1, 30)), n)
            col = rng.integers(0, int(rng.integers(1, 30)), n)
            label = metrics._components(row, col)
            expected = bfs_components(row, col)
            for e in range(n):
                assert frozenset(np.flatnonzero(label == label[e]).tolist()) == expected[e]

    @pytest.mark.parametrize("near, far, best", [(2, 1, 400), (1, 1, 200)])
    def test_long_chain(self, near, far, best):
        # GT rank k matches predicted rank k `near` times and k + 1 `far`
        # times: one component of 401 IDs, numbered from the far end. With a
        # tie every row's largest count is shared and the solver runs.
        k = np.arange(200)[::-1]
        row = np.repeat(np.concatenate([k, k]), [near] * 200 + [far] * 200)
        col = np.repeat(np.concatenate([k, k + 1]), [near] * 200 + [far] * 200)
        assert len(np.unique(metrics._components(row, col))) == 1
        assert metrics._idtp(row, col) == best

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(75)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            row = rng.integers(0, int(rng.integers(1, 7)), n)
            col = rng.integers(0, int(rng.integers(1, 7)), n)
            assert metrics._idtp(row, col) == brute_force_assignment(count_matrix(row, col))

    def test_matches_scipy_on_many_ids(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(76)
        for _ in range(40):
            n = int(rng.integers(1, 400))
            row = rng.integers(0, 80, n)
            col = rng.integers(0, 80, n)
            matrix = count_matrix(row, col)
            rows, cols = optimize.linear_sum_assignment(matrix, maximize=True)
            assert metrics._idtp(row, col) == matrix[rows, cols].sum()

    def test_memory_follows_matches_not_id_product(self):
        # 8,000 one-frame identities: a dense count matrix would be 512 MB.
        n = 8000
        ids = np.arange(1, n + 1)

        def tracks(offset):
            return TrackSet(columns=TrackColumns(
                track_id=ids + offset, frame=ids.copy(),
                box=np.tile([0.0, 0.0, 10.0, 10.0], (n, 1)), score=np.ones(n),
            ))

        gt, pred = tracks(0), tracks(7)
        tracemalloc.start()
        try:
            score = idf1(gt, pred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert score == 1.0
        assert peak < 32 * 2**20
