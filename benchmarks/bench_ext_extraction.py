"""E11 (§5 future work) — automatic interface extraction.

"Building tools that can automatically extract interfaces as Petri nets
or Python programs from accelerator implementations is a promising
direction for future work."  We implement the measurement-driven
variant: profile a training workload, fit an interpretable non-negative
cost formula, and compare the extracted interface against the
hand-written one on held-out workloads — for all three accelerators
with data-dependent behaviour.  Each fit uses its whole training set
(``holdout_fraction=0.0``): the test sets below are the held-out data.
"""

from __future__ import annotations

from repro.accel.jpeg import JpegDecoderModel, PROGRAM as JPEG_HAND, random_images
from repro.accel.protoacc import ProtoaccSerializerModel, instances
from repro.accel.vta import PROGRAM as VTA_HAND, VtaModel, random_programs
from repro.core import validate_interface
from repro.extract import (
    extract_program_interface,
    jpeg_features,
    protoacc_features,
    vta_features,
)


def test_extraction_vs_handwritten(benchmark, report):
    lines = ["§5 future work — auto-extracted vs hand-written program interfaces", ""]

    # --- JPEG -----------------------------------------------------------
    model = JpegDecoderModel()
    train, test = random_images(1, 120), random_images(2, 80)
    extracted, fit = extract_program_interface(
        model, train, jpeg_features, holdout_fraction=0.0
    )
    auto = validate_interface(extracted, model, test, check_throughput=False)
    hand = validate_interface(JPEG_HAND, model, test, check_throughput=False)
    lines += [
        "JPEG decoder (80 held-out images):",
        f"  extracted : {auto.latency.as_percent()}   [{fit}]",
        f"  handwritten: {hand.latency.as_percent()}",
        f"  learned: {extracted.formula()}",
        "",
    ]
    jpeg_auto = auto

    # --- Protoacc ---------------------------------------------------------
    pa = ProtoaccSerializerModel()
    msgs = list(instances(seed=3).values())
    extracted_pa, fit_pa = extract_program_interface(
        pa, msgs[:20], protoacc_features, holdout_fraction=0.0
    )
    auto_pa = validate_interface(extracted_pa, pa, msgs[20:], check_throughput=False)
    lines += [
        "Protoacc (12 held-out formats):",
        f"  extracted : {auto_pa.latency.as_percent()}   [{fit_pa}]",
        f"  learned: {extracted_pa.formula()}",
        "",
    ]

    # --- VTA --------------------------------------------------------------
    vta = VtaModel()
    train_p = random_programs(4, 60, max_dim=5)
    test_p = random_programs(5, 25, max_dim=5)
    extracted_v, fit_v = extract_program_interface(
        vta, train_p, vta_features, holdout_fraction=0.0
    )
    auto_v = validate_interface(extracted_v, vta, test_p, check_throughput=False)
    hand_v = validate_interface(VTA_HAND, vta, test_p, check_throughput=False)
    lines += [
        "VTA (25 held-out schedules):",
        f"  extracted : {auto_v.latency.as_percent()}   [{fit_v}]",
        f"  roofline (hand-written): {hand_v.latency.as_percent()}",
        f"  learned: {extracted_v.formula()}",
    ]

    benchmark(lambda: [extracted.latency(img) for img in test])
    report("E11_auto_extraction", "\n".join(lines))

    assert jpeg_auto.latency.avg < 0.05
    assert auto_pa.latency.avg < 0.06
    assert auto_v.latency.avg < 0.12
    # The extracted VTA formula beats the hand-written roofline: the
    # fitter sees dependency-stall costs the closed form ignores.
    assert auto_v.latency.avg < hand_v.latency.avg
