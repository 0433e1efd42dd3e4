import numpy as np
import pytest

from fcgtrack.core import BBox, TrackEntry, TrackSet
from fcgtrack import metrics
from fcgtrack.metrics import id_switches, idf1
from oracles import brute_force_idf1, per_pair_id_switches


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
