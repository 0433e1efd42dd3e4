import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from fcgtrack.cli import main
from fcgtrack.core import TrackSet
from fcgtrack import metrics
from fcgtrack.io_mot import write_ground_truth, write_tracks
from fcgtrack.metrics import evaluate, id_switches, idf1
from oracles import (
    Box,
    Entry,
    all_pairs_matches,
    brute_force_assignment,
    brute_force_idf1,
    per_pair_id_switches,
    track_set,
)


def track(frame_boxes, score=1.0):
    return tuple(Entry(f, Box(*b), score) for f, b in frame_boxes)


def straight_track(frames, x=0.0, y=0.0):
    return track([(f, (x, y, 10.0, 10.0)) for f in frames])


class TestIdf1:
    def test_perfect_match(self):
        gt = track_set({1: straight_track(range(1, 11))})
        pred = track_set({7: straight_track(range(1, 11))})
        assert idf1(gt, pred) == 1.0

    def test_split_track_scores_half(self):
        gt = track_set({1: straight_track(range(1, 11))})
        pred = track_set(
            {
                1: straight_track(range(1, 6)),
                2: straight_track(range(6, 11)),
            }
        )
        assert idf1(gt, pred) == pytest.approx(0.5, abs=1e-12)

    def test_empty_prediction(self):
        gt = track_set({1: straight_track([1, 2, 3])})
        assert idf1(gt, track_set({})) == 0.0

    def test_both_empty(self):
        assert idf1(track_set({}), track_set({})) == 1.0

    def test_self_score_is_one(self):
        rng = np.random.default_rng(61)
        tracks = {}
        for tid in range(1, 5):
            frames = sorted(rng.choice(range(1, 15), size=6, replace=False))
            tracks[tid] = track(
                [(int(f), (float(rng.uniform(0, 100)), 0.0, 5.0, 5.0)) for f in frames]
            )
        ts = track_set(tracks)
        assert idf1(ts, ts) == 1.0

    def test_relabeling_invariance(self):
        gt = track_set(
            {1: straight_track([1, 2, 3]), 2: straight_track([1, 2], x=50.0)}
        )
        pred_a = track_set(
            {1: straight_track([1, 2]), 2: straight_track([3], x=50.0)}
        )
        pred_b = track_set(
            {9: straight_track([1, 2]), 4: straight_track([3], x=50.0)}
        )
        assert idf1(gt, pred_a) == idf1(gt, pred_b)

    def test_iou_gate(self):
        gt = track_set({1: track([(1, (0, 0, 10, 10))])})
        # overlap 5x10 of 10x10 boxes: IoU = 50/150 = 1/3 < 0.5
        pred_far = track_set({1: track([(1, (5, 0, 10, 10))])})
        assert idf1(gt, pred_far) == 0.0
        # overlap 8x10: IoU = 80/120 = 2/3 >= 0.5
        pred_near = track_set({1: track([(1, (2, 0, 10, 10))])})
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
                return track_set(tracks)

            gt = random_tracks(int(rng.integers(1, 5)))
            pred = random_tracks(int(rng.integers(1, 5)))
            assert idf1(gt, pred) == pytest.approx(
                brute_force_idf1(gt, pred), abs=1e-12
            )


class TestIdSwitches:
    def test_perfect_match(self):
        gt = track_set({1: straight_track(range(1, 11))})
        pred = track_set({3: straight_track(range(1, 11))})
        assert id_switches(gt, pred) == 0

    def test_split_track_switches_once(self):
        gt = track_set({1: straight_track(range(1, 11))})
        pred = track_set(
            {
                1: straight_track(range(1, 6)),
                2: straight_track(range(6, 11)),
            }
        )
        assert id_switches(gt, pred) == 1

    def test_alternating_ids(self):
        gt = track_set({1: straight_track([1, 2, 3, 4])})
        pred = track_set(
            {
                1: straight_track([1, 3]),
                2: straight_track([2, 4]),
            }
        )
        assert id_switches(gt, pred) == 3

    def test_gap_does_not_reset_memory(self):
        gt = track_set({1: straight_track([1, 2, 5, 6])})
        pred = track_set(
            {
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
            gt = track_set(tracks)
            pred_tracks = {
                tid: straight_track(
                    sorted(rng.choice(range(1, 10), size=4, replace=False).tolist()),
                    x=float(rng.integers(0, 3)) * 7.0,
                )
                for tid in range(1, 4)
            }
            pred = track_set(pred_tracks)
            assert id_switches(gt, pred) >= 0

    def test_tie_breaks_toward_lower_predicted_id(self):
        gt = track_set({1: track([(1, (0, 0, 10, 10)), (2, (0, 0, 10, 10))])})
        # two identical predicted boxes in frame 2; the lower ID wins the tie
        pred = track_set(
            {
                1: track([(1, (0, 0, 10, 10)), (2, (0, 0, 10, 10))]),
                2: track([(2, (0, 0, 10, 10)),]),
            }
        )
        assert id_switches(gt, pred) == 0

    def test_equal_ious_go_to_the_lower_predicted_id(self):
        # Prediction 7 holds GT 1 at frames 1 and 3. At frame 2 prediction 3
        # covers the same box; the tie goes to the lower ID, 3: two switches.
        box = (0, 0, 10, 10)
        gt = track_set({1: track([(1, box), (2, box), (3, box)])})
        pred = track_set({7: track([(1, box), (2, box), (3, box)]), 3: track([(2, box)])})
        assert id_switches(gt, pred) == 2
        assert per_pair_id_switches(gt, pred) == 2


def crowded_tracks(rng, num_ids, frames=8):
    # coarse positions so boxes of different IDs collide and tie
    return track_set(
        {
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


class TestPrunedMatches:
    def test_equals_the_all_pairs_table_bit_for_bit(self):
        """Scoring only the pairs that overlap along x keeps every pair, IoU bit and position
        of the table that scores every same-frame pair, for any block size."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        special = st.sampled_from([np.nan, np.inf, -np.inf])
        grid = st.integers(-6, 6).map(lambda k: 5.0 * k)
        size = st.integers(1, 4).map(lambda k: 5.0 * k)

        def side(draw, frames):
            # Up to 12 boxes a frame, one per drawn ID, with sides on a 5-pixel grid from
            # -30 on, so edges touch; about one box in twenty sits at x = 1e16 with w = 1,
            # where x + w == x, and about one in twenty has a NaN or infinite side.
            rows = []
            for f in range(1, frames + 1):
                for tid in draw(st.lists(st.integers(1, 16), unique=True, max_size=12)):
                    box = [draw(grid), draw(grid), draw(size), draw(size)]
                    kind = draw(st.integers(0, 19))
                    if kind == 0:
                        box[0], box[2] = 1e16, 1.0
                    elif kind == 1:
                        box[draw(st.integers(0, 3))] = draw(special)
                    rows.append((tid, f, box))
            rows.sort(key=lambda r: r[:2])
            return TrackSet(
                track_id=np.array([r[0] for r in rows], dtype=np.int64),
                frame=np.array([r[1] for r in rows], dtype=np.int64),
                box=np.array([r[2] for r in rows], dtype=np.float64).reshape(-1, 4),
                score=np.ones(len(rows)),
            )

        @st.composite
        def scenes(draw):
            frames = draw(st.integers(1, 3))
            return side(draw, frames), side(draw, frames)

        @settings(max_examples=300)
        @given(
            scenes(),
            st.sampled_from([1e-12, 0.3, 0.5, 1.0]),
            st.sampled_from([1, 3, metrics._GT_BLOCK]),
        )
        def check(scene, threshold, block):
            gt, pred = scene
            # Sums and differences of infinite sides are NaN.
            with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
                expected = all_pairs_matches(gt, pred, threshold)
                mp.setattr(metrics, "_GT_BLOCK", block)
                table = metrics._matches(gt, pred, threshold)
            for got, want in zip(table, expected, strict=True):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

        check()

    def test_scores_only_the_pairs_that_overlap_along_x(self, monkeypatch):
        """40 boxes a frame spread along x: the IoU is computed for exactly the same-frame
        pairs that overlap along x, under a fifth of all of them."""
        rng = np.random.default_rng(66)

        def scene():
            x = rng.uniform(-1000.0, 1000.0, (40, 6))
            w = rng.uniform(10.0, 60.0, (40, 6))
            boxes = {
                tid: track([(f, (x[tid - 1, f], 0.0, w[tid - 1, f], 40.0)) for f in range(6)])
                for tid in range(1, 41)
            }
            return track_set(boxes), x, x + w

        (gt, gl, gr), (pred, pl, pr) = scene(), scene()
        # Same-frame pairs (GT, prediction, frame) that overlap along x.
        overlap = np.minimum(gr[:, None], pr[None]) > np.maximum(gl[:, None], pl[None])
        scored = []
        iou_distance_array = metrics.iou_distance_array

        def counted(a, b):
            scored.append(len(a))
            return iou_distance_array(a, b)

        monkeypatch.setattr(metrics, "iou_distance_array", counted)
        metrics._matches(gt, pred, 0.5)
        assert sum(scored) == np.count_nonzero(overlap)
        assert 5 * sum(scored) < 40 * 40 * 6


def relabeled_tracks(rng, empty):
    """(gt, pred): GT tracks whose boxes collide across IDs, and a prediction
    made from them with IDs swapped and split after random frames, boxes
    moved and dropped, and extra boxes; the sets named in `empty` hold no
    rows."""
    frames = int(rng.integers(1, 9))
    rows = [
        (tid, f, float(rng.integers(0, 4)) * 6.0, float(rng.integers(0, 2)) * 3.0)
        for tid in range(1, int(rng.integers(1, 6)) + 1)
        for f in range(1, frames + 1)
        if rng.random() < 0.7
    ]
    a, b, swap_after, split_after = rng.integers(1, frames + 1, size=4)
    pred = []
    for tid, f, x, y in rows:
        if f > swap_after and tid in (a, b):
            tid = a + b - tid
        if f > split_after and tid % 2:
            tid += 100
        if rng.random() < 0.85:
            pred.append((tid, f, x + float(rng.integers(-3, 4)), y))
    for k in range(int(rng.integers(0, 3))):
        pred.append((200 + k, int(rng.integers(1, frames + 1)), 12.0, 0.0))

    def tracks(rows):
        rows = sorted(rows)
        return TrackSet(
            track_id=np.array([r[0] for r in rows], dtype=np.int64),
            frame=np.array([r[1] for r in rows], dtype=np.int64),
            box=np.array([(*r[2:], 10.0, 10.0) for r in rows], dtype=np.float64).reshape(-1, 4),
            score=np.ones(len(rows)),
        )

    return tracks([] if "gt" in empty else rows), tracks([] if "pred" in empty else pred)


class TestEvaluate:
    def test_equals_the_two_metrics(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given
        from hypothesis import strategies as st

        @given(
            st.integers(0, 2**32 - 1),
            st.sampled_from([(), (), (), ("gt",), ("pred",), ("gt", "pred")]),
            st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.0, 1.0, exclude_min=True)),
        )
        def check(seed, empty, threshold):
            gt, pred = relabeled_tracks(np.random.default_rng(seed), empty)
            assert evaluate(gt, pred, threshold) == (
                idf1(gt, pred, threshold),
                id_switches(gt, pred, threshold),
            )

        check()

    @pytest.mark.parametrize("threshold", [0.0, 1.5, float("nan")])
    def test_rejects_a_threshold_outside_the_unit_interval(self, threshold):
        empty = track_set({})
        with pytest.raises(ValueError, match="iou_threshold"):
            evaluate(empty, empty, threshold)

    def test_cli_eval_builds_one_match_table(self, tmp_path, monkeypatch, capsys):
        gt_tracks = {1: straight_track(range(1, 11)), 2: straight_track(range(1, 11), x=50.0)}
        swapped = {1: gt_tracks[1][:5] + gt_tracks[2][5:], 2: gt_tracks[2][:5] + gt_tracks[1][5:]}
        gt, pred = tmp_path / "gt.txt", tmp_path / "res.txt"
        gt.write_bytes(write_ground_truth(track_set(gt_tracks)))
        pred.write_bytes(write_tracks(track_set(swapped)))
        calls = []
        matches = metrics._matches

        def counted(*args):
            calls.append(args)
            return matches(*args)

        monkeypatch.setattr(metrics, "_matches", counted)
        assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
        assert capsys.readouterr().out.splitlines() == ["idf1,0.500000", "id_switches,2"]
        assert len(calls) == 1


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
            return TrackSet(
                track_id=ids + offset, frame=ids.copy(),
                box=np.tile([0.0, 0.0, 10.0, 10.0], (n, 1)), score=np.ones(n),
            )

        gt, pred = tracks(0), tracks(7)
        tracemalloc.start()
        try:
            score = idf1(gt, pred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert score == 1.0
        assert peak < 32 * 2**20
