"""Tests for IoU, greedy matching, AP, the composite score, and error rates."""

from __future__ import annotations

import csv

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslens.detmetrics import (
    Detection,
    MetricError,
    TP_ERROR_NAMES,
    TPErrorSet,
    average_precision,
    center_aligned_iou,
    center_distance,
    iou,
    match_detections,
    mean_ap,
    nds,
    per_class_ap,
    per_class_errors,
    tp_errors_from_matches,
    write_metrics_csv,
)

from conftest import make_record


def det(sample_id, class_label, bbox, score):
    return Detection(sample_id=sample_id, class_label=class_label, bbox=bbox, score=score)


def gt(sample_id, class_label, bbox):
    return make_record(
        sample_id=sample_id, class_label=class_label, bbox=bbox, image_size=(100, 100)
    )


def boxes():
    """Integer-grid boxes so random scenes overlap often."""
    return st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 5), st.integers(1, 5)).map(
        lambda t: (float(t[0]), float(t[1]), float(t[0] + t[2]), float(t[1] + t[3]))
    )


class TestIoU:
    def test_hand_case_one_seventh(self):
        npt.assert_allclose(iou((0, 0, 2, 2), (1, 1, 3, 3)), 1.0 / 7.0)

    def test_identical_boxes(self):
        assert iou((2, 3, 8, 9), (2, 3, 8, 9)) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_edge_touching_boxes_are_disjoint(self):
        assert iou((0, 0, 2, 2), (2, 0, 4, 2)) == 0.0

    def test_contained_box(self):
        npt.assert_allclose(iou((0, 0, 4, 4), (1, 1, 3, 3)), 4.0 / 16.0)

    def test_degenerate_box_rejected(self):
        with pytest.raises(MetricError, match="degenerate"):
            iou((0, 0, 0, 2), (1, 1, 3, 3))

    @given(a=boxes(), b=boxes())
    @settings(max_examples=80, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        ab = iou(a, b)
        assert ab == iou(b, a)
        assert 0.0 <= ab <= 1.0


class TestMatching:
    def test_single_true_positive(self):
        result = match_detections(
            [det("s", "car", (0, 0, 10, 10), 0.9)], [gt("s", "car", (0, 0, 10, 10))]
        )
        assert result.flags["car"] == (True,)
        assert result.fn["car"] == 0
        assert result.n_gt["car"] == 1

    def test_low_iou_is_fp_and_fn(self):
        result = match_detections(
            [det("s", "car", (0, 0, 10, 10), 0.9)], [gt("s", "car", (50, 50, 60, 60))]
        )
        assert result.flags["car"] == (False,)
        assert result.fn["car"] == 1

    def test_higher_score_claims_ground_truth(self):
        box = (0.0, 0.0, 10.0, 10.0)
        result = match_detections(
            [det("s", "car", box, 0.5), det("s", "car", box, 0.9)],
            [gt("s", "car", box)],
        )
        # flags are in descending-score order: winner first
        assert result.flags["car"] == (True, False)
        assert result.fn["car"] == 0

    def test_classes_never_cross_match(self):
        result = match_detections(
            [det("s", "car", (0, 0, 10, 10), 0.9)], [gt("s", "ped", (0, 0, 10, 10))]
        )
        assert result.flags["car"] == (False,)
        assert result.fn["ped"] == 1

    def test_samples_never_cross_match(self):
        result = match_detections(
            [det("s", "car", (0, 0, 10, 10), 0.9)], [gt("t", "car", (0, 0, 10, 10))]
        )
        assert result.flags["car"] == (False,)
        assert result.fn["car"] == 1

    def test_detection_prefers_highest_iou_ground_truth(self):
        result = match_detections(
            [det("s", "car", (0, 0, 10, 10), 0.9)],
            [gt("s", "car", (4, 0, 14, 10)), gt("s", "car", (1, 0, 11, 10))],
        )
        pairs = result.matched_pairs["car"]
        assert len(pairs) == 1
        assert pairs[0][1].bbox == (1, 0, 11, 10)
        assert result.fn["car"] == 1

    def test_invalid_threshold_rejected(self):
        with pytest.raises(MetricError, match="iou_threshold"):
            match_detections([], [], iou_threshold=0.0)

    def test_crafted_scene_recount(self):
        """Nine detections over six ground truths, counted by hand."""
        gts = [
            gt("s", "car", (0, 0, 10, 10)),
            gt("s", "car", (20, 0, 30, 10)),
            gt("s", "car", (40, 0, 50, 10)),
            gt("s", "car", (0, 20, 10, 30)),
            gt("s", "ped", (20, 20, 30, 30)),
            gt("t", "car", (0, 0, 10, 10)),
        ]
        dets = [
            det("s", "car", (0, 0, 10, 10), 0.95),    # TP on gt 1
            det("s", "car", (0, 0, 10, 10), 0.90),    # gt 1 taken -> FP
            det("s", "car", (21, 1, 31, 11), 0.85),   # IoU 81/119 -> TP on gt 2
            det("s", "ped", (20, 20, 30, 30), 0.80),  # TP on the ped gt
            det("s", "car", (40, 0, 50, 10), 0.75),   # TP on gt 3
            det("t", "car", (2, 2, 12, 12), 0.70),    # IoU 64/136 < 0.5 -> FP
            det("t", "car", (0, 0, 10, 10), 0.65),    # TP on the sample-t gt
            det("s", "car", (60, 60, 70, 70), 0.55),  # nothing nearby -> FP
            det("s", "ped", (0, 0, 5, 5), 0.50),      # no ped there -> FP
        ]
        result = match_detections(dets, gts)
        assert result.flags["car"] == (True, False, True, True, False, True, False)
        assert result.flags["ped"] == (True, False)
        assert result.fn == {"car": 1, "ped": 0}  # gt 4 went unclaimed
        assert result.n_gt == {"car": 5, "ped": 1}
        errors = per_class_errors(result)
        assert errors["car"].tp == 4
        assert errors["car"].fp == 3
        assert errors["car"].fn == 1

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_plain_reimplementation(self, data):
        n_det = data.draw(st.integers(0, 6))
        n_gt = data.draw(st.integers(0, 6))
        classes = ["a", "b"]
        samples = ["s", "t"]
        dets = [
            det(
                data.draw(st.sampled_from(samples)),
                data.draw(st.sampled_from(classes)),
                data.draw(boxes()),
                data.draw(st.floats(0.01, 0.99)),
            )
            for _ in range(n_det)
        ]
        gts = [
            gt(
                data.draw(st.sampled_from(samples)),
                data.draw(st.sampled_from(classes)),
                data.draw(boxes()),
            )
            for _ in range(n_gt)
        ]
        result = match_detections(dets, gts, iou_threshold=0.5)

        # Straight-line restatement of the rule: walk detections by
        # descending score; each claims its best unmatched ground truth.
        available = list(range(len(gts)))
        tp = {c: 0 for c in classes}
        fp = {c: 0 for c in classes}
        for d in sorted(dets, key=lambda d: -d.score):
            best, best_overlap = None, 0.0
            for j in available:
                g = gts[j]
                if (g.sample_id, g.class_label) != (d.sample_id, d.class_label):
                    continue
                overlap = iou(d.bbox, g.bbox)
                if overlap >= 0.5 and overlap > best_overlap:
                    best, best_overlap = j, overlap
            if best is None:
                fp[d.class_label] += 1
            else:
                available.remove(best)
                tp[d.class_label] += 1
        for c in classes:
            flags = result.flags.get(c, ())
            assert sum(flags) == tp[c]
            assert len(flags) - sum(flags) == fp[c]
        assert sum(result.fn.values()) == len(available)


class TestAveragePrecision:
    def test_hand_case(self):
        npt.assert_allclose(average_precision([True, False, True], n_gt=2), 5.0 / 6.0, atol=5e-5)

    def test_all_hits(self):
        assert average_precision([True, True], n_gt=2) == 1.0

    def test_all_misses(self):
        assert average_precision([False, False, False], n_gt=2) == 0.0

    def test_no_detections(self):
        assert average_precision([], n_gt=3) == 0.0

    def test_requires_ground_truth(self):
        with pytest.raises(MetricError, match="n_gt"):
            average_precision([True], n_gt=0)

    def test_trailing_fp_changes_nothing(self):
        base = average_precision([True, False, True], n_gt=2)
        extended = average_precision([True, False, True, False], n_gt=2)
        npt.assert_allclose(extended, base)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_step_sum_formulation(self, data):
        flags = data.draw(st.lists(st.booleans(), min_size=1, max_size=12))
        n_gt = data.draw(st.integers(max(1, sum(flags)), 15))
        ap = average_precision(flags, n_gt)
        # Each hit lifts recall by exactly 1/n_gt, so AP is the mean of the
        # right-max interpolated precision over hits, scaled by coverage.
        precisions = [sum(flags[: k + 1]) / (k + 1) for k in range(len(flags))]
        interp = [max(precisions[k:]) for k in range(len(flags))]
        expected = sum(interp[k] for k, f in enumerate(flags) if f) / n_gt
        npt.assert_allclose(ap, expected, atol=1e-12)
        assert 0.0 <= ap <= 1.0

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_flipping_a_hit_to_a_miss_never_helps(self, data):
        flags = data.draw(st.lists(st.booleans(), min_size=1, max_size=10))
        hits = [k for k, f in enumerate(flags) if f]
        if not hits:
            return
        n_gt = max(1, sum(flags))
        k = data.draw(st.sampled_from(hits))
        weakened = list(flags)
        weakened[k] = False
        assert average_precision(weakened, n_gt) <= average_precision(flags, n_gt) + 1e-12


class TestMeanAP:
    def test_study_scale_means(self):
        value = mean_ap({"c1": 86.3, "c2": 54.7, "c3": 77.8})
        assert round(value, 2) == 72.93

    def test_singleton_is_identity(self):
        assert mean_ap({"only": 0.42}) == 0.42

    def test_empty_rejected(self):
        with pytest.raises(MetricError, match="empty"):
            mean_ap({})

    def test_per_class_ap_skips_absent_classes(self):
        result = match_detections(
            [det("s", "car", (0, 0, 10, 10), 0.9), det("s", "ghost", (0, 0, 10, 10), 0.8)],
            [gt("s", "car", (0, 0, 10, 10))],
        )
        aps = per_class_ap(result)
        assert aps == {"car": 1.0}


class TestCompositeScore:
    def test_perfect_score(self):
        errors = TPErrorSet.from_mapping({n: 0.0 for n in TP_ERROR_NAMES})
        assert nds(1.0, errors) == 1.0

    def test_floor_score(self):
        errors = TPErrorSet.from_mapping(
            {"trans_err": 1.0, "scale_err": 2.5, "orient_err": 1.0, "vel_err": 7.0, "attr_err": 1.0}
        )
        assert nds(0.0, errors) == 0.0

    def test_hand_case(self):
        errors = TPErrorSet.from_mapping(
            {
                "trans_err": 0.2,
                "scale_err": 0.4,
                "orient_err": 1.5,
                "vel_err": 0.0,
                "attr_err": 1.0,
            }
        )
        npt.assert_allclose(nds(0.6, errors), 0.54)

    def test_neutral_errors_halve_map(self):
        npt.assert_allclose(nds(0.8, TPErrorSet.from_mapping({})), 0.4)

    def test_map_out_of_range_rejected(self):
        with pytest.raises(MetricError, match="mAP"):
            nds(1.2, TPErrorSet.from_mapping({}))

    def test_negative_error_rejected(self):
        errors = TPErrorSet.from_mapping({"trans_err": -0.1})
        with pytest.raises(MetricError, match="negative"):
            nds(0.5, errors)

    def test_non_finite_error_rejected(self):
        with pytest.raises(MetricError, match="finite"):
            TPErrorSet.from_mapping({"trans_err": float("nan")})

    @given(
        map_value=st.floats(0.0, 1.0),
        errs=st.lists(st.floats(0.0, 3.0), min_size=5, max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded(self, map_value, errs):
        errors = TPErrorSet.from_mapping(
            {"trans_err": errs[0], "scale_err": errs[1], "orient_err": errs[2],
             "vel_err": errs[3], "attr_err": errs[4]}
        )
        assert 0.0 <= nds(map_value, errors) <= 1.0

    @given(
        m1=st.floats(0.0, 1.0),
        m2=st.floats(0.0, 1.0),
        errs=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
    )
    @settings(max_examples=80, deadline=None)
    def test_linear_in_map_with_slope_half(self, m1, m2, errs):
        errors = TPErrorSet.from_mapping({"trans_err": errs[0], "scale_err": errs[1]})
        lhs = nds(m2, errors) - nds(m1, errors)
        npt.assert_allclose(lhs, 0.5 * (m2 - m1), atol=1e-12)


class TestTPErrorMeasurement:
    def test_perfect_pairs_have_zero_errors(self):
        d = det("s", "car", (0, 0, 10, 10), 0.9)
        g = gt("s", "car", (0, 0, 10, 10))
        errors = dict(tp_errors_from_matches([(d, g)]).values)
        assert errors["trans_err"] == 0.0
        assert errors["scale_err"] == 0.0
        assert errors["orient_err"] == 1.0  # not measurable from 2-D boxes

    def test_no_pairs_defaults_to_neutral(self):
        assert tp_errors_from_matches([]) == TPErrorSet.from_mapping({})

    def test_center_distance(self):
        assert center_distance((0, 0, 2, 2), (3, 4, 5, 6)) == 5.0

    def test_center_aligned_iou_ignores_translation(self):
        assert center_aligned_iou((0, 0, 4, 4), (50, 50, 54, 54)) == 1.0

    def test_center_aligned_iou_measures_scale(self):
        npt.assert_allclose(center_aligned_iou((0, 0, 2, 2), (0, 0, 4, 4)), 0.25)

    def test_translation_normalized_by_diagonal(self):
        d = det("s", "car", (1, 0, 11, 10), 0.9)  # center shifted by (1, 0)
        g = gt("s", "car", (0, 0, 10, 10))
        errors = dict(tp_errors_from_matches([(d, g)]).values)
        npt.assert_allclose(errors["trans_err"], 1.0 / np.hypot(10, 10))


class TestDetectionValidation:
    def test_degenerate_box_rejected(self):
        with pytest.raises(MetricError, match="degenerate"):
            det("s", "car", (5, 5, 5, 10), 0.9)

    def test_score_above_one_rejected(self):
        with pytest.raises(MetricError, match="score"):
            det("s", "car", (0, 0, 1, 1), 1.5)

    def test_nan_score_rejected(self):
        with pytest.raises(MetricError, match="score"):
            det("s", "car", (0, 0, 1, 1), float("nan"))


class TestMetricsCSV:
    def test_header_and_rows(self, tmp_path):
        rows = [
            {"car": 0.8, "ped": 0.5, "total": 0.65, "condition": "Normal"},
            {"car": 0.6, "ped": 0.3, "total": 0.45, "condition": "Night"},
        ]
        path = tmp_path / "ap.csv"
        write_metrics_csv(rows, ["car", "ped"], "ap", path)
        with path.open() as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["ap_car", "ap_ped", "total", "condition"]
        assert parsed[1] == ["0.8", "0.5", "0.65", "Normal"]
        assert parsed[2][-1] == "Night"

    def test_missing_cells_left_blank(self, tmp_path):
        path = tmp_path / "ap.csv"
        write_metrics_csv([{"car": 1.0, "condition": "Normal"}], ["car", "ped"], "ap", path)
        with path.open() as fh:
            parsed = list(csv.reader(fh))
        assert parsed[1] == ["1.0", "", "", "Normal"]
