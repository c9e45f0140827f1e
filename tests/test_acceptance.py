"""Acceptance gate: ten end-to-end checks, one test (and one pytest -v
line) per criterion. Each test states its tolerance inline; the slow
criteria also assert their wall-clock budget."""

from __future__ import annotations

import json
import time

import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_manifest, make_record
from biaslens.audit import AuditOptions, Strategy, run_audit, run_mitigation
from biaslens.behavior import extract_attention, lrp_propagate, lrp_step
from biaslens.cli import main
from biaslens.detmetrics import (
    TP_ERROR_NAMES,
    Detection,
    TPErrorSet,
    match_detections,
    nds,
    per_class_ap,
    per_class_errors,
)
from biaslens.losses import (
    compute_class_weights,
    cross_entropy,
    softmax,
    weighted_cross_entropy,
)
from biaslens.manifest import ClassDistribution, compute_distribution
from biaslens.nn.models import TinyCNN, TinyViT
from biaslens.nn.optim import ConstantLR
from biaslens.nn.train import ArrayDataset, TrainConfig
from biaslens.sampling import (
    ResampleMode,
    ResamplePlan,
    apply_resample,
    build_subset_schedule,
)
from biaslens.synthetic import SyntheticConfig, generate_synthetic


def one_hot(indices, k):
    out = np.zeros((len(indices), k))
    out[np.arange(len(indices)), indices] = 1.0
    return out


# --- 1. composite detection score -------------------------------------------


def test_01_composite_score_hand_cases_exact():
    start = time.perf_counter()
    perfect = TPErrorSet(tuple((n, 0.0) for n in TP_ERROR_NAMES))
    assert abs(nds(1.0, perfect) - 1.0) <= 1e-12

    saturated = TPErrorSet(tuple((n, v) for n, v in zip(TP_ERROR_NAMES, (1.0, 2.5, 1.0, 7.0, 1.2))))
    assert abs(nds(0.0, saturated) - 0.0) <= 1e-12

    mixed = TPErrorSet(tuple(zip(TP_ERROR_NAMES, (0.2, 0.4, 1.5, 0.0, 1.0))))
    # (5*0.6 + (0.8 + 0.6 + 0.0 + 1.0 + 0.0)) / 10 = 0.54
    assert abs(nds(0.6, mixed) - 0.54) <= 1e-12
    assert time.perf_counter() - start < 1.0


# --- 2. inverse-frequency class weights --------------------------------------


def test_02_class_weights_from_shares_and_neutral_ce():
    dist = ClassDistribution(
        counts={}, percentages={"car": 21.61, "ped": 2.46, "cyc": 2.42},
        per_condition={}, total=0,
    )
    weights = compute_class_weights(dist)
    expected = {"car": 0.1603, "ped": 1.4082, "cyc": 1.4315}
    for name, want in expected.items():
        assert abs(weights.normalized[name] - want) <= 1e-4, name
    assert abs(sum(weights.normalized.values()) - 3.0) <= 1e-12

    rng = np.random.default_rng(5)
    probs = softmax(rng.normal(size=(40, 3)))
    labels = one_hot(rng.integers(0, 3, size=40), 3)
    loss_w, grad_w = weighted_cross_entropy(probs, labels, np.ones(3))
    loss_u, grad_u = cross_entropy(probs, labels)
    assert abs(loss_w - loss_u) <= 1e-12
    npt.assert_allclose(grad_w, grad_u, rtol=0.0, atol=1e-12)


# --- 3. analytic gradients vs central finite differences ---------------------

FD_EPS = 1e-5


def _fd_check(model, x, labels_oh, class_weights):
    def loss_value():
        res = model.forward(x)
        return weighted_cross_entropy(res.probs, labels_oh, class_weights)[0]

    res = model.forward(x)
    _, grad_logits = weighted_cross_entropy(res.probs, labels_oh, class_weights)
    model.zero_grads()
    dx = model.backward(grad_logits)
    analytic = {name: g.copy() for name, g in model.named_grads().items()}
    analytic["<input>"] = dx

    def close(a, n):
        gap = np.abs(a - n)
        bound = 1e-4 * np.maximum(np.abs(a), np.abs(n)) + 1e-8
        return bool(np.all(gap <= bound))

    for name, arr in model.named_parameters().items():
        numeric = np.zeros_like(arr)
        flat, nflat = arr.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_EPS
            up = loss_value()
            flat[i] = orig - FD_EPS
            down = loss_value()
            flat[i] = orig
            nflat[i] = (up - down) / (2 * FD_EPS)
        assert close(analytic[name], numeric), name

    numeric_x = np.zeros_like(x)
    flat, nflat = x.reshape(-1), numeric_x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_EPS
        up = loss_value()
        flat[i] = orig - FD_EPS
        down = loss_value()
        flat[i] = orig
        nflat[i] = (up - down) / (2 * FD_EPS)
    assert close(analytic["<input>"], numeric_x), "<input>"


def test_03_weighted_ce_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 1, 8, 8))
    labels_oh = one_hot(rng.integers(0, 3, size=4), 3)
    class_weights = np.array([0.5, 1.0, 1.5])

    cnn = TinyCNN(n_classes=3, input_hw=(8, 8), channels=(2, 3), kernel=3, seed=7)
    vit = TinyViT(
        n_classes=3, input_hw=(8, 8), patch=4, dim=8, n_heads=2, n_layers=1,
        mlp_ratio=2.0, seed=7,
    )
    for model in (cnn, vit):
        assert model.n_parameters() <= 5000, model.kind
        _fd_check(model, x.copy(), labels_oh, class_weights)
    assert time.perf_counter() - start < 60.0


# --- 4. relevance propagation conserves mass ---------------------------------


def test_04_relevance_conservation_and_two_patch_hand_case():
    model = TinyViT(
        n_classes=3, input_hw=(8, 8), patch=4, dim=8, n_heads=2, n_layers=4, seed=3
    )
    rng = np.random.default_rng(17)
    for _ in range(100):
        res = model.forward(rng.normal(size=(1, 1, 8, 8)))
        relmap = lrp_propagate(res.attention, class_index=0)
        for step, relevance in enumerate(relmap.per_layer):
            assert abs(relevance.sum() - 1.0) <= 1e-9, f"step {step}"

    attention = np.array([[0.6, 0.4], [0.1, 0.9]])
    relevance = np.array([0.8, 0.2])
    npt.assert_allclose(lrp_step(attention, relevance), [0.50, 0.50], rtol=0.0, atol=1e-12)


# --- 5. attention rows are probability distributions --------------------------


def test_05_attention_rows_sum_to_one_and_softmax_shift_invariance():
    model = TinyViT(
        n_classes=3, input_hw=(16, 16), patch=4, dim=8, n_heads=2, n_layers=2, seed=2
    )
    rng = np.random.default_rng(23)
    images = rng.normal(size=(6, 1, 16, 16))
    labels = rng.integers(0, 3, size=6)
    data = ArrayDataset(images=images, labels=labels, class_order=("a", "b", "c"))
    summary = extract_attention(model, data)
    assert summary.per_layer  # two layers of (N, heads, P, P)
    for layer in summary.per_layer:
        row_sums = layer.sum(axis=-1)
        npt.assert_allclose(row_sums, np.ones_like(row_sums), rtol=0.0, atol=1e-12)

    for trial in range(20):
        logits = rng.normal(scale=5.0, size=(8, 5))
        shift = rng.normal(scale=100.0, size=(8, 1))
        npt.assert_allclose(
            softmax(logits + shift), softmax(logits), rtol=0.0, atol=1e-12,
            err_msg=f"trial {trial}",
        )


# --- 6. AP and error counts vs an independent recount -------------------------


def _brute_force_recount(detections, ground_truths, threshold):
    """Greedy matching and AP recomputed from first principles."""

    def box_iou(a, b):
        ix = min(a[2], b[2]) - max(a[0], b[0])
        iy = min(a[3], b[3]) - max(a[1], b[1])
        if ix <= 0 or iy <= 0:
            return 0.0
        inter = ix * iy
        area_a = (a[2] - a[0]) * (a[3] - a[1])
        area_b = (b[2] - b[0]) * (b[3] - b[1])
        return inter / (area_a + area_b - inter)

    taken = set()
    flags = []
    for det in sorted(detections, key=lambda d: -d.score):
        best, best_iou = None, 0.0
        for j, gt in enumerate(ground_truths):
            if j in taken or gt.class_label != det.class_label:
                continue
            if gt.sample_id != det.sample_id:
                continue
            overlap = box_iou(det.bbox, gt.bbox)
            if overlap >= threshold and overlap > best_iou:
                best, best_iou = j, overlap
        if best is None:
            flags.append(False)
        else:
            taken.add(best)
            flags.append(True)
    tp = sum(flags)
    fp = len(flags) - tp
    fn = len(ground_truths) - tp

    n_gt = len(ground_truths)
    # area under the PR sweep: for each recall increment, the best
    # precision achieved at that recall level or beyond
    points = []
    running_tp = 0
    for k, flag in enumerate(flags, start=1):
        running_tp += int(flag)
        points.append((running_tp / n_gt, running_tp / k))
    ap = 0.0
    prev_recall = 0.0
    for recall, _ in points:
        if recall > prev_recall:
            best_beyond = max(p for r, p in points if r >= recall)
            ap += (recall - prev_recall) * best_beyond
            prev_recall = recall
    return ap, tp, fp, fn


def test_06_ap_and_error_counts_match_brute_force_recount():
    gts = [
        make_record(sample_id="s0", class_label="car", bbox=(10.0 * i, 0.0, 10.0 * i + 8.0, 8.0),
                    image_size=(256, 16))
        for i in range(6)
    ]
    dets = [
        Detection("s0", "car", (10.0 * i + 1.0, 0.0, 10.0 * i + 9.0, 8.0), 0.9 - 0.05 * i)
        for i in range(5)
    ] + [
        Detection("s0", "car", (200.0 + 10.0 * j, 0.0, 208.0 + 10.0 * j, 8.0), 0.4 - 0.05 * j)
        for j in range(5)
    ]
    assert len(dets) == 10 and len(gts) == 6

    match = match_detections(dets, gts, iou_threshold=0.5)
    ap = per_class_ap(match)["car"]
    errors = per_class_errors(match)["car"]

    brute_ap, brute_tp, brute_fp, brute_fn = _brute_force_recount(dets, gts, 0.5)
    assert abs(ap - brute_ap) <= 1e-12
    assert (errors.tp, errors.fp, errors.fn) == (brute_tp, brute_fp, brute_fn)
    assert abs(ap - 0.8333) <= 1e-4  # 5 clean hits out of 6 ground truths
    assert abs(ap - 5.0 / 6.0) <= 1e-6


# --- 7. manifest distribution at survey scale ---------------------------------


def test_07_manifest_distribution_matches_published_shares():
    manifest = make_manifest(
        {"car": 149_921, "ped": 17_060, "cyc": 16_779, "background": 509_997}
    )
    dist = compute_distribution(manifest)
    assert dist.total == 693_757
    for name, pct in (("car", 21.61), ("ped", 2.46), ("cyc", 2.42)):
        assert abs(dist.percentages[name] - pct) <= 0.01, name


# --- 8. combined mitigation improves minority metrics -------------------------


def test_08_combined_mitigation_beats_baseline_on_most_seeds():
    start = time.perf_counter()
    wins_recall = 0
    wins_iou = 0
    seeds = range(5)
    for seed in seeds:
        data = generate_synthetic(SyntheticConfig(
            n_samples=3000, shares=(0.9, 0.05, 0.05), image_hw=(32, 32), seed=seed
        ))
        options = AuditOptions(
            model_kind="tiny_cnn",
            train=TrainConfig(
                learning_rate=2e-3, batch_size=8, epochs=60,
                max_steps=1200, lr_schedule=ConstantLR(),
            ),
            seed=seed,
            probe_per_class=16,
            sensitivity_samples=4,
            arch={"input_hw": (32, 32), "channels": (4, 8)},
        )
        run = run_audit(data, options)
        mitigated = run_mitigation(run, Strategy.COMBINED)
        pre, post = mitigated.report.pre, mitigated.report.post
        counts = mitigated.report.dataset["counts"]
        minorities = sorted(counts, key=counts.get)[:2]
        recall_pre = np.mean([pre["per_class"][c]["recall"] for c in minorities])
        recall_post = np.mean([post["per_class"][c]["recall"] for c in minorities])
        wins_recall += int(recall_post > recall_pre)
        wins_iou += int(post["macro_iou"] > pre["macro_iou"])
    assert wins_recall >= 4, f"minority recall improved on only {wins_recall}/5 seeds"
    assert wins_iou >= 4, f"macro IoU improved on only {wins_iou}/5 seeds"
    assert time.perf_counter() - start < 600.0


# --- 9. audits are byte-for-byte reproducible ----------------------------------


def test_09_audit_cli_reproduces_report_byte_identically(tmp_path, monkeypatch):
    monkeypatch.delenv("BIASLENS_SEED", raising=False)
    args = [
        "audit", "--synthetic", "balanced", "--n-samples", "60",
        "--image-size", "16", "--channels", "4,6", "--epochs", "2",
        "--batch-size", "16", "--probe-per-class", "8",
        "--sensitivity-samples", "4", "--seed", "3",
    ]
    reports = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main([*args, "--out", str(out)]) == 0
        (report_path,) = out.glob("run-*/report.json")
        reports.append(report_path.read_bytes())
    assert reports[0] == reports[1]
    json.loads(reports[0])  # still valid JSON, not just identical blobs


# --- 10. resampling hits targets exactly ---------------------------------------


def test_10_resampling_targets_and_subset_schedule():
    manifest = make_manifest({"car": 40, "ped": 7, "cyc": 5})

    over = apply_resample(
        manifest, ResamplePlan({"car": 40, "ped": 40, "cyc": 40}, ResampleMode.OVERSAMPLE, seed=1)
    )
    assert compute_distribution(over).counts == {"car": 40, "ped": 40, "cyc": 40}

    under = apply_resample(
        manifest, ResamplePlan({"car": 5, "ped": 5, "cyc": 5}, ResampleMode.UNDERSAMPLE, seed=1)
    )
    assert compute_distribution(under).counts == {"car": 5, "ped": 5, "cyc": 5}

    schedule = build_subset_schedule(
        ("car", "ped", "cyc"), budget=300, start_share=1.0, end_share=0.67, n_steps=4
    )
    final = schedule.steps[-1]
    assert final.allocation == {"car": 202, "ped": 49, "cyc": 49}
    assert sum(final.allocation.values()) == 300
