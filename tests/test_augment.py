"""Tests for label-exact augmentation ops and behavior-driven plans."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslens.augment import (
    CONDITION_OPS,
    AugmentKind,
    AugmentOp,
    AugmentRequest,
    SampleRelevanceStat,
    apply_augment,
    attention_guided_augment_plan,
    inverse_op,
    lrp_informed_sample_plan,
    materialize_plan,
    transform_bbox,
    transform_image,
)
from biaslens.manifest import Condition, compute_distribution

from conftest import make_manifest, make_record

GEOMETRIC_KINDS = [
    AugmentKind.ROT90CW,
    AugmentKind.ROT180,
    AugmentKind.ROT270CW,
    AugmentKind.FLIP_H,
    AugmentKind.FLIP_V,
]


def boxes_in_frame(w: int, h: int):
    """Strategy for a valid (x1, y1, x2, y2) box inside a w-by-h frame."""
    return st.tuples(
        st.floats(0, w - 1), st.floats(0, h - 1), st.floats(1, w), st.floats(1, h)
    ).map(
        lambda t: (min(t[0], t[2] - 0.5), min(t[1], t[3] - 0.5), max(t[2], t[0] + 0.5), max(t[3], t[1] + 0.5))
    ).filter(
        lambda b: b[0] < b[2] <= w and b[1] < b[3] <= h
    )


class TestBoxTransforms:
    def test_flip_h_oracle(self):
        box, size = transform_bbox(
            AugmentOp(AugmentKind.FLIP_H), (10, 20, 30, 40), (100, 60)
        )
        npt.assert_allclose(box, (70, 20, 90, 40))
        assert size == (100, 60)

    def test_rot90cw_oracle(self):
        box, size = transform_bbox(
            AugmentOp(AugmentKind.ROT90CW), (10, 20, 30, 40), (60, 100)
        )
        npt.assert_allclose(box, (60, 10, 80, 30))
        assert size == (100, 60)

    def test_rot180_is_double_flip(self):
        bbox = (3.0, 5.0, 17.0, 11.0)
        size = (24, 18)
        via_rot, size_rot = transform_bbox(AugmentOp(AugmentKind.ROT180), bbox, size)
        step, mid = transform_bbox(AugmentOp(AugmentKind.FLIP_H), bbox, size)
        via_flips, size_flips = transform_bbox(AugmentOp(AugmentKind.FLIP_V), step, mid)
        npt.assert_allclose(via_rot, via_flips)
        assert size_rot == size_flips == size

    def test_zoom_scales_coordinates_and_ceils_frame(self):
        op = AugmentOp(AugmentKind.ZOOM, factor=1.5)
        box, size = transform_bbox(op, (2.0, 4.0, 10.0, 8.0), (21, 11))
        npt.assert_allclose(box, (3.0, 6.0, 15.0, 12.0))
        assert size == (32, 17)  # ceil(21 * 1.5), ceil(11 * 1.5)

    def test_zoom_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError, match="factor"):
            AugmentOp(AugmentKind.ZOOM, factor=0.0)

    def test_photometric_leaves_box_alone(self):
        bbox = (1.0, 2.0, 9.0, 7.0)
        for op in (
            AugmentOp(AugmentKind.BRIGHTNESS, delta=0.3),
            AugmentOp(AugmentKind.CONTRAST, factor=1.25),
        ):
            box, size = transform_bbox(op, bbox, (12, 10))
            assert box == bbox
            assert size == (12, 10)

    @pytest.mark.parametrize("kind", GEOMETRIC_KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_inverse_restores_box(self, kind, data):
        w, h = data.draw(st.tuples(st.integers(4, 64), st.integers(4, 64)))
        bbox = data.draw(boxes_in_frame(w, h))
        op = AugmentOp(kind)
        forward, mid_size = transform_bbox(op, bbox, (w, h))
        back, back_size = transform_bbox(inverse_op(op), forward, mid_size)
        npt.assert_allclose(back, bbox, atol=1e-9)
        assert back_size == (w, h)

    def test_inverse_of_photometric_rejected(self):
        with pytest.raises(ValueError, match="photometric"):
            inverse_op(AugmentOp(AugmentKind.BRIGHTNESS, delta=0.1))

    def test_rotation_inverses_pair_up(self):
        assert inverse_op(AugmentOp(AugmentKind.ROT90CW)).kind is AugmentKind.ROT270CW
        assert inverse_op(AugmentOp(AugmentKind.ROT270CW)).kind is AugmentKind.ROT90CW
        assert inverse_op(AugmentOp(AugmentKind.ROT180)).kind is AugmentKind.ROT180


class TestImageTransforms:
    def test_flip_h_reverses_columns(self, rng):
        image = rng.random((5, 7))
        out = transform_image(AugmentOp(AugmentKind.FLIP_H), image)
        npt.assert_array_equal(out, image[:, ::-1])

    def test_rot90cw_transposes_shape(self, rng):
        image = rng.random((5, 7))
        out = transform_image(AugmentOp(AugmentKind.ROT90CW), image)
        assert out.shape == (7, 5)
        # top row of the source becomes the rightmost column
        npt.assert_array_equal(out[:, -1], image[0, :])

    @pytest.mark.parametrize("kind", GEOMETRIC_KINDS)
    def test_inverse_restores_image(self, kind, rng):
        image = rng.random((6, 9))
        op = AugmentOp(kind)
        back = transform_image(inverse_op(op), transform_image(op, image))
        npt.assert_array_equal(back, image)

    def test_brightness_shifts_and_clamps(self):
        image = np.array([[0.0, 0.5, 0.95]])
        out = transform_image(AugmentOp(AugmentKind.BRIGHTNESS, delta=0.2), image)
        npt.assert_allclose(out, [[0.2, 0.7, 1.0]])

    def test_contrast_pivots_at_mid_gray(self):
        image = np.array([[0.5, 0.3, 0.9]])
        out = transform_image(AugmentOp(AugmentKind.CONTRAST, factor=1.25), image)
        npt.assert_allclose(out, [[0.5, 0.25, 1.0]])

    def test_zoom_output_shape_uses_ceil(self, rng):
        image = rng.random((11, 21))
        out = transform_image(AugmentOp(AugmentKind.ZOOM, factor=1.5), image)
        assert out.shape == (17, 32)

    def test_box_and_image_stay_aligned_under_rotation(self):
        # A bright rectangle at a known box must land inside the mapped box.
        image = np.zeros((20, 30))
        bbox = (5.0, 2.0, 12.0, 9.0)
        image[2:9, 5:12] = 1.0
        op = AugmentOp(AugmentKind.ROT90CW)
        new_image = transform_image(op, image)
        (x1, y1, x2, y2), _ = transform_bbox(op, bbox, (30, 20))
        inside = new_image[int(y1) : int(y2), int(x1) : int(x2)]
        assert inside.sum() == image.sum()
        assert new_image.sum() == image.sum()


class TestApplyAugment:
    def test_record_and_image_move_together(self, rng):
        record = make_record(bbox=(4, 6, 12, 14), image_size=(32, 20))
        image = rng.random((20, 32))
        new_record, new_image = apply_augment(record, AugmentOp(AugmentKind.ROT90CW), image)
        assert new_record.image_size == (20, 32)
        assert new_image.shape == (32, 20)
        assert new_record.sample_id == record.sample_id
        assert new_record.class_label == record.class_label

    def test_image_optional(self):
        record = make_record()
        new_record, new_image = apply_augment(record, AugmentOp(AugmentKind.FLIP_V))
        assert new_image is None
        assert new_record.bbox != record.bbox


class TestAttentionGuidedPlan:
    @staticmethod
    def _dist():
        manifest = make_manifest({"disk": 40, "bar": 10})
        return compute_distribution(manifest)

    def test_all_cells_above_threshold_yield_empty_plan(self):
        masses = {
            ("disk", Condition.NORMAL): 0.5,
            ("bar", Condition.NORMAL): 0.31,
        }
        assert attention_guided_augment_plan(masses, self._dist()) == []

    def test_count_follows_deficit_rule(self):
        # ceil(1.0 * (0.3 - 0.15) / 0.3 * 10) = ceil(5.0) = 5
        masses = {("bar", Condition.NORMAL): 0.15}
        plan = attention_guided_augment_plan(masses, self._dist())
        assert len(plan) == 1
        req = plan[0]
        assert req.class_label == "bar"
        assert req.condition is Condition.NORMAL
        assert req.count == 5
        assert req.op == CONDITION_OPS[Condition.NORMAL]

    def test_deeper_deficit_requests_more(self):
        dist = self._dist()
        shallow = attention_guided_augment_plan({("disk", Condition.NORMAL): 0.25}, dist)
        deep = attention_guided_augment_plan({("disk", Condition.NORMAL): 0.05}, dist)
        assert deep[0].count > shallow[0].count

    def test_kappa_scales_counts(self):
        dist = self._dist()
        masses = {("disk", Condition.NORMAL): 0.1}
        single = attention_guided_augment_plan(masses, dist, kappa=1.0)
        double = attention_guided_augment_plan(masses, dist, kappa=2.0)
        assert double[0].count == 2 * single[0].count

    def test_zero_mass_requests_full_cell_count(self):
        plan = attention_guided_augment_plan({("bar", Condition.NORMAL): 0.0}, self._dist())
        assert plan[0].count == 10

    def test_empty_cell_contributes_nothing(self):
        plan = attention_guided_augment_plan({("bar", Condition.NIGHT): 0.0}, self._dist())
        assert plan == []

    def test_plan_order_is_deterministic(self):
        masses = {
            ("disk", Condition.NORMAL): 0.1,
            ("bar", Condition.NORMAL): 0.1,
        }
        plan = attention_guided_augment_plan(masses, self._dist())
        assert [r.class_label for r in plan] == ["bar", "disk"]

    @given(mass=st.floats(0.0, 0.29), count=st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_count_positive_below_threshold(self, mass, count):
        manifest = make_manifest({"disk": count})
        plan = attention_guided_augment_plan(
            {("disk", Condition.NORMAL): mass}, compute_distribution(manifest)
        )
        assert len(plan) == 1
        assert 1 <= plan[0].count <= count

    def test_condition_op_table_preserves_frame(self):
        # Every planned op must keep (w, h) so augmented tensors stack.
        for condition, op in CONDITION_OPS.items():
            _, size = transform_bbox(op, (1.0, 1.0, 3.0, 3.0), (32, 32))
            assert size == (32, 32), condition


class TestMaterializePlan:
    def test_round_robin_over_the_cell_with_fresh_ids(self, rng):
        records = [
            make_record(sample_id="a", condition=Condition.NIGHT),
            make_record(sample_id="b", condition=Condition.NORMAL),
            make_record(sample_id="c", condition=Condition.NIGHT, image_ref="c.pgm"),
        ]
        images = rng.random((3, 1, 32, 32))
        op = CONDITION_OPS[Condition.NIGHT]
        plan = [
            AugmentRequest("disk", Condition.NIGHT, op, 3),
            AugmentRequest("bar", Condition.NIGHT, op, 2),  # empty cell: skipped
        ]
        new_records, new_images = materialize_plan(plan, records, images)
        assert [r.sample_id for r in new_records] == ["a-aug0", "c-aug1", "a-aug2"]
        assert all(r.image_ref is None for r in new_records)
        for image, src in zip(new_images, (0, 2, 0)):
            npt.assert_array_equal(image, transform_image(op, images[src, 0]))

    def test_empty_plan_adds_nothing(self, rng):
        assert materialize_plan([], [make_record()], rng.random((1, 1, 32, 32))) == ([], [])


class TestRelevanceInformedPlan:
    @staticmethod
    def _stats():
        return [
            SampleRelevanceStat("a", in_box_fraction=0.1, loss=1.0),
            SampleRelevanceStat("b", in_box_fraction=0.2, loss=2.0),
            SampleRelevanceStat("c", in_box_fraction=0.9, loss=3.0),
            SampleRelevanceStat("d", in_box_fraction=0.05, loss=0.5),
        ]

    def test_orders_by_descending_loss(self):
        plan = lrp_informed_sample_plan(self._stats(), misclassified=["a", "b", "d"])
        assert plan == ["b", "a", "d"]

    def test_high_in_box_fraction_excluded(self):
        plan = lrp_informed_sample_plan(self._stats(), misclassified=["a", "b", "c", "d"])
        assert "c" not in plan

    def test_correctly_classified_excluded(self):
        plan = lrp_informed_sample_plan(self._stats(), misclassified=["b"])
        assert plan == ["b"]

    def test_tau_rel_widens_or_narrows_selection(self):
        stats = self._stats()
        wide = lrp_informed_sample_plan(stats, ["a", "b", "c", "d"], tau_rel=0.95)
        narrow = lrp_informed_sample_plan(stats, ["a", "b", "c", "d"], tau_rel=0.07)
        assert set(wide) == {"a", "b", "c", "d"}
        assert narrow == ["d"]

    def test_loss_ties_break_by_id(self):
        stats = [
            SampleRelevanceStat("z", in_box_fraction=0.0, loss=1.0),
            SampleRelevanceStat("a", in_box_fraction=0.0, loss=1.0),
        ]
        assert lrp_informed_sample_plan(stats, ["z", "a"]) == ["a", "z"]

    def test_empty_inputs_give_empty_plan(self):
        assert lrp_informed_sample_plan([], []) == []
        assert lrp_informed_sample_plan(self._stats(), []) == []


class TestOpSerialization:
    @pytest.mark.parametrize(
        "op",
        [
            AugmentOp(AugmentKind.FLIP_H),
            AugmentOp(AugmentKind.BRIGHTNESS, delta=0.2),
            AugmentOp(AugmentKind.CONTRAST, factor=1.25),
            AugmentOp(AugmentKind.ZOOM, factor=0.5),
        ],
    )
    def test_json_roundtrip(self, op):
        assert AugmentOp.from_json_dict(op.to_json_dict()) == op
