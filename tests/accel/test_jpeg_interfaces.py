"""Tests for the JPEG decoder's three interface representations."""

import pytest

from repro.accel.jpeg import (
    ENGLISH,
    PROGRAM,
    JpegDecoderModel,
    latency_jpeg_decode,
    petri_interface,
    random_images,
    tput_jpeg_decode,
)
from repro.core.nl import Relation
from repro.hw.stats import ErrorReport
from tests.accel.test_jpeg_workload import make_image


class TestEnglish:
    def test_renders_fig1_sentence(self):
        text = ENGLISH.render()
        assert text == (
            "Latency is inversely proportional to the input image's compression rate"
        )

    def test_statement_relation(self):
        assert ENGLISH.statements[0].relation is Relation.INVERSELY_PROPORTIONAL

    def test_statement_validates_against_model(self):
        # Sweep coded size in the input-bound regime with geometry fixed:
        # compression rate halves => latency doubles.
        model = JpegDecoderModel()
        pairs = []
        for bpb in (60, 80, 100, 120):
            img = make_image(64, 64, bytes_per_block=bpb)
            pairs.append(
                (img.compress_rate, model.measure_latency(img))
            )
        assert ENGLISH.statements[0].check(pairs, tolerance=0.2)


class TestProgram:
    def test_latency_positive_and_finite(self):
        img = make_image(32, 32)
        assert 0 < latency_jpeg_decode(img) < 1e9

    def test_throughput_is_inverse_latency(self):
        img = make_image(32, 32)
        assert tput_jpeg_decode(img) == pytest.approx(1 / latency_jpeg_decode(img))

    def test_max_structure_output_bound(self):
        # Very compressible image: latency ~ blocks * 136.5 + fill.
        img = make_image(64, 64, bytes_per_block=2)
        assert latency_jpeg_decode(img) == pytest.approx(64 * 136.5 + 330.0)

    def test_max_structure_input_bound(self):
        # Incompressible image: latency tracks coded bytes.
        img = make_image(64, 64, bytes_per_block=120)
        expected = 64 * 6 + 64 * 120 * 8.0 + 330.0
        assert latency_jpeg_decode(img) == pytest.approx(expected)

    def test_program_accuracy_against_model(self):
        # Paper §3: avg (max) error 2.1% (10.3%) for latency over random
        # images.  Same order on our hardware: avg < 5%, max < 15%.
        model = JpegDecoderModel()
        imgs = random_images(202, 40)
        actual = model.measure_batch(imgs)
        pred = [latency_jpeg_decode(i) for i in imgs]
        rep = ErrorReport.of(pred, actual)
        assert rep.avg < 0.05
        assert rep.max < 0.15

    def test_wrapper_agrees_with_functions(self):
        img = make_image(16, 24)
        assert PROGRAM.latency(img) == latency_jpeg_decode(img)
        assert PROGRAM.throughput(img) == tput_jpeg_decode(img)


class TestPetriNet:
    @pytest.fixture(scope="class")
    def iface(self):
        return petri_interface()

    def test_latency_close_to_model(self, iface):
        # Paper Table 1: avg (max) error 0.09% (0.5%).  Same order here:
        # every image within 1%.
        model = JpegDecoderModel()
        for img in random_images(303, 12):
            act = model.measure_latency(img)
            pred = iface.latency(img)
            assert abs(pred - act) / act < 0.01

    def test_petri_beats_program(self, iface):
        # The paper's headline: the IR is ~20x more accurate than the
        # Python program.  Require at least 5x on an aggregate basis.
        model = JpegDecoderModel()
        imgs = random_images(404, 25)
        actual = model.measure_batch(imgs)
        prog = ErrorReport.of([latency_jpeg_decode(i) for i in imgs], actual)
        petri = ErrorReport.of([iface.latency(i) for i in imgs], actual)
        assert petri.avg * 5 < prog.avg

    def test_reusable_across_items(self, iface):
        a = make_image(16, 16)
        b = make_image(32, 32)
        la1 = iface.latency(a)
        iface.latency(b)
        assert iface.latency(a) == la1

    def test_describe_mentions_structure(self, iface):
        assert "places" in iface.describe()


#: E4's workload: random images of the default size distribution.
E4_IMAGES = random_images(2023, 8)


def triple_tokens(img):
    """The per-block ``(place, payload, at)`` triples the tokenizer
    stands for: one payload dict per 8x8 block."""
    from repro.accel.jpeg.interfaces import HEADER_PARSE

    n = img.n_blocks
    sizes, nnzs = img.coded_bytes.tolist(), img.nnz.tolist()
    return [
        (
            "in",
            {"i": i, "bytes": sizes[i], "nnz": nnzs[i], "wr": (i + 1) % 4 == 0 or i == n - 1},
            HEADER_PARSE,
        )
        for i in range(n)
    ]


class TestTokenColumns:
    """``tokenize_image`` returns the image's columns; every path that
    evaluates them agrees bit for bit with the codegen recurrence over
    delay lists."""

    @pytest.mark.parametrize("img", E4_IMAGES, ids=lambda img: str(img.n_blocks))
    def test_columns_iterate_to_the_block_triples(self, img):
        from repro.accel.jpeg.interfaces import tokenize_image

        columns = tokenize_image(img)
        assert len(columns) == img.n_blocks
        got, want = list(columns), triple_tokens(img)
        assert got == want
        assert [
            (type(at), [type(v) for v in payload.values()]) for _, payload, at in got
        ] == [(type(at), [type(v) for v in payload.values()]) for _, payload, at in want]

    def test_every_path_agrees_with_the_column_path(self):
        from repro.core import PetriNetInterface
        from repro.obs import Tracer
        from repro.perf import EvalCache
        from repro.petri import parse

        want = petri_interface().evaluate_batch(E4_IMAGES)

        iface = petri_interface()
        assert iface.evaluate_batch(E4_IMAGES) == want
        engine = iface.batch_evaluator
        assert engine.items_codegen == engine.items_from_columns == len(E4_IMAGES)

        cached = petri_interface()
        cached.cache = EvalCache()
        assert cached.evaluate_batch(E4_IMAGES) == want
        assert cached.evaluate_batch(E4_IMAGES) == want  # every image a hit
        assert (cached.cache.stats.misses, cached.cache.stats.hits) == (8, 8)

        traced = petri_interface()
        traced.tracer = Tracer()  # per-item runs over the columns' triples
        assert traced.evaluate_batch(E4_IMAGES) == want
        assert traced.batch_evaluator is None

        assert [petri_interface().latency(img) for img in E4_IMAGES] == want
        assert [iface.predict_decomposition(img).total for img in E4_IMAGES] == want

        from repro.accel.jpeg.interfaces import EOI_FLUSH, JPEG_PNET

        triples = PetriNetInterface(
            "jpeg-decoder",
            net_factory=lambda: parse(JPEG_PNET),
            tokenize=triple_tokens,
            epilogue=EOI_FLUSH,
        )
        assert triples.evaluate_batch(E4_IMAGES) == want
        assert triples.batch_evaluator.items_from_columns == 0
