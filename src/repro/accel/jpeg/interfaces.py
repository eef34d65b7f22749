"""The three performance interfaces of the JPEG decoder.

These are the artifacts a vendor would *ship* (paper §3): an English
summary (Fig. 1), an executable Python program (Fig. 2), and a Petri-net
IR (Table 1).  Constants are fitted against the ground-truth model in
:mod:`repro.accel.jpeg.model` the same way the paper's authors fitted
theirs against RTL — and, like the paper's, each representation
deliberately abstracts detail: see DESIGN.md §6 for what each omits.
"""

from __future__ import annotations

import numpy as np

from repro.core.nl import EnglishInterface, PerformanceStatement, Relation
from repro.core.petrinet import PetriNetInterface
from repro.core.program import ProgramInterface
from repro.petri import TokenColumns, parse

from .workload import HEADER_BYTES, JpegImage

# ----------------------------------------------------------------------
# Representation 1: English (paper Fig. 1, first entry)
# ----------------------------------------------------------------------
ENGLISH = EnglishInterface(
    accelerator="jpeg-decoder",
    statements=(
        PerformanceStatement(
            metric="Latency",
            relation=Relation.INVERSELY_PROPORTIONAL,
            quantity="the input image's compression rate",
            accessor=lambda img: img.compress_rate,
        ),
    ),
)

# ----------------------------------------------------------------------
# Representation 2: executable Python program (paper Fig. 2)
# ----------------------------------------------------------------------
#: Fitted constants (vendor-calibrated against the shipped hardware).
OUTPUT_BOUND_PER_BLOCK = 136.5  # cycles/block when compute-side dominates
HUFFMAN_PER_BLOCK = 6.0         # per-block entropy-decode overhead
HUFFMAN_PER_BYTE = 8.0          # bit-serial decode, 1 bit/cycle
PIPE_FILL = 330.0               # header parse + pipeline fill + flush


def latency_jpeg_decode(img: JpegImage) -> float:
    """Latency interface for the JPEG decoder (cycles).

    ``max(...)`` separates the two regimes: compute/output-bound for
    well-compressed images, input-(bitstream-)bound otherwise — the
    Fig. 2 structure.  ``orig_size / compress_rate`` is just the coded
    file size, which is how a user computes it from the image at hand.
    """
    size = img.orig_size / 64  # 8x8 blocks
    coded_bytes = img.orig_size / img.compress_rate - HEADER_BYTES
    return (
        max(
            size * OUTPUT_BOUND_PER_BLOCK,
            size * HUFFMAN_PER_BLOCK + coded_bytes * HUFFMAN_PER_BYTE,
        )
        + PIPE_FILL
    )


def tput_jpeg_decode(img: JpegImage) -> float:
    """Throughput interface: images are processed one-by-one."""
    return 1.0 / latency_jpeg_decode(img)


PROGRAM = ProgramInterface(
    "jpeg-decoder", latency_fn=latency_jpeg_decode, throughput_fn=tput_jpeg_decode
)

# ----------------------------------------------------------------------
# Representation 3: Petri-net IR (paper Table 1, row "JPEG")
# ----------------------------------------------------------------------
#: The shippable interface: a .pnet document.  Per-block token payloads
#: carry the same information the accelerator's front end sees (coded
#: size, coefficient count, block index), so delays are data-dependent.
#: Deliberately cut corners (paper §3): the bitstream alignment stall is
#: its 0.875-cycle expectation, and the writeback burst is the expected
#: DRAM service time (row-hit mix + refresh duty) instead of a live DRAM
#: model.
JPEG_PNET = """
net jpeg_decoder

place in
place q_idct capacity 4
place q_out capacity 4
place out

inject in fields i bytes nnz wr

transition huffman
  consume in
  produce q_idct
  delay expr: 6 + 8.0 * tok["bytes"] + 0.875 + (12 if (tok["i"] + 1) % 64 == 0 else 0)

transition idct
  consume q_idct
  produce q_out
  delay expr: 134 + tok["nnz"] // 16

transition output
  consume q_out
  produce out
  delay expr: 32 + (33.7 if tok["wr"] else 0)
"""

#: Header-parse offset before block 0 enters, and end-of-image flush.
HEADER_PARSE = 150.0
EOI_FLUSH = 8.0


def tokenize_image(img: JpegImage) -> TokenColumns:
    """One token per 8x8 block, available after the header parse, in
    column form: the block index ``i``, the image's own ``coded_bytes``
    and ``nnz`` arrays, and the writeback flag ``wr`` (every fourth block
    and the last)."""
    i = np.arange(img.n_blocks)
    wr = (i + 1) % 4 == 0
    wr[-1:] = True
    return TokenColumns(
        "in", HEADER_PARSE, {"i": i, "bytes": img.coded_bytes, "nnz": img.nnz, "wr": wr}
    )


def petri_interface() -> PetriNetInterface[JpegImage]:
    """Build the Petri-net interface (fresh net, reusable across items)."""
    return PetriNetInterface(
        "jpeg-decoder",
        net_factory=lambda: parse(JPEG_PNET),
        tokenize=tokenize_image,
        sink="out",
        epilogue=EOI_FLUSH,
        pnet_text=JPEG_PNET,
    )


def all_interfaces() -> dict[str, object]:
    """The vendor's full interface bundle, keyed by representation."""
    return {"english": ENGLISH, "program": PROGRAM, "petri-net": petri_interface()}


def perflint_bundle():
    """Everything the perf-lint toolchain audits for this accelerator
    (``python -m repro.tools.perflint jpeg``)."""
    from repro.lint import InterfaceBundle

    from .workload import random_images

    # Fixed-size images varying only in compression rate, so the
    # cross-checks sweep the named property without confounders.
    samples = random_images(seed=2024, count=10, min_dim=64, max_dim=64)
    return InterfaceBundle(
        accelerator="jpeg-decoder",
        english=ENGLISH,
        program=PROGRAM,
        program_fns={
            "latency": latency_jpeg_decode,
            "throughput": tput_jpeg_decode,
        },
        workload_type=JpegImage,
        pnet_text=JPEG_PNET,
        pnet_file="src/repro/accel/jpeg/interfaces.py#JPEG_PNET",
        samples=samples,
        petri_latency_fn=petri_interface().latency,
        # Per-block token fields: block index within an MCU row group,
        # coded bytes and nonzero coefficients of one 8x8 block, and
        # the writeback flag.  Only bytes/nnz are declared monotone —
        # `i` feeds a periodic alignment stall and `wr` a branch, both
        # deliberately outside what the verifier can certify.
        feature_domains={
            "i": (0.0, 63.0),
            "bytes": (0.0, 64.0),
            "nnz": (0.0, 64.0),
            "wr": (0.0, 1.0),
        },
        declared_monotone={"bytes": +1, "nnz": +1},
    )
