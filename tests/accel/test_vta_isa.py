"""Tests for the VTA ISA, assembler, and workload generator."""

import dataclasses
import inspect
import itertools

import pytest

from repro.accel.vta import (
    AluOp,
    AssemblyError,
    Buffer,
    GemmWorkload,
    Instruction,
    Module,
    Opcode,
    Program,
    TickVtaSimulator,
    Tiling,
    VtaModel,
    assert_valid,
    from_text,
    legal_tilings,
    random_programs,
    tiled_gemm_program,
    to_text,
    token_balance,
    validate,
)
from repro.autotune import Candidate
from repro.hw.kernel import SimError
from repro.perf.cache import workload_key
from repro.perf.fingerprint import canonical_bytes


def gemm(**kw):
    args = dict(uop_count=4, lp0=2, lp1=16)
    args.update(kw)
    return Instruction(Opcode.GEMM, **args)


class TestInstruction:
    def test_load_requires_buffer_and_size(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.LOAD, size=64)
        with pytest.raises(ValueError):
            Instruction(Opcode.LOAD, buffer=Buffer.INP, size=0)

    def test_gemm_requires_positive_dims(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.GEMM, uop_count=0)

    def test_alu_requires_operands(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.ALU, vector_len=8, iterations=1)

    def test_module_routing(self):
        assert Instruction(Opcode.LOAD, buffer=Buffer.INP, size=1).module is Module.LOAD
        assert Instruction(Opcode.LOAD, buffer=Buffer.WGT, size=1).module is Module.LOAD
        assert Instruction(Opcode.LOAD, buffer=Buffer.UOP, size=1).module is Module.COMPUTE
        assert Instruction(Opcode.LOAD, buffer=Buffer.ACC, size=1).module is Module.COMPUTE
        assert Instruction(Opcode.STORE, size=1).module is Module.STORE
        assert gemm().module is Module.COMPUTE

    def test_gemm_macs(self):
        assert gemm(uop_count=3, lp0=4, lp1=5).gemm_macs == 60
        assert Instruction(Opcode.FINISH).gemm_macs == 0

    def test_describe_shows_flags(self):
        text = gemm(pop_prev=True, push_next=True).describe()
        assert "[P--n]" in text

    def test_fields_and_constructor_agree(self):
        # The field list and its order fix the canonical bytes of every
        # VTA cache key; the hand-written constructor takes exactly the
        # fields, in order, with the fields' defaults.
        names = [
            "op", "pop_prev", "pop_next", "push_prev", "push_next", "buffer", "size",
            "addr", "uop_count", "lp0", "lp1", "alu_op", "vector_len", "iterations",
            "use_imm",
        ]
        fields = dataclasses.fields(Instruction)
        assert [f.name for f in fields] == names
        params = list(inspect.signature(Instruction).parameters.values())
        assert [p.name for p in params] == names
        for f, p in zip(fields, params, strict=True):
            default = p.empty if f.default is dataclasses.MISSING else f.default
            assert p.default == default

    def test_frozen(self):
        insn = gemm()
        for name in ("size", "pop_next", "module"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(insn, name, 1)

    def test_equality_hash_and_replace(self):
        a = Instruction(Opcode.LOAD, buffer=Buffer.INP, size=64, addr=128)
        b = Instruction(Opcode.LOAD, buffer=Buffer.INP, size=64, addr=128)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != dataclasses.replace(a, pop_next=True)
        moved = dataclasses.replace(a, buffer=Buffer.UOP)
        assert moved.module is Module.COMPUTE and a.module is Module.LOAD
        assert moved == Instruction(Opcode.LOAD, buffer=Buffer.UOP, size=64, addr=128)

    @pytest.mark.parametrize(
        ("valid", "bad", "message"),
        [
            (dict(op=Opcode.LOAD, buffer=Buffer.INP, size=64), dict(buffer=None),
             "LOAD needs a buffer and a positive size"),
            (dict(op=Opcode.LOAD, buffer=Buffer.UOP, size=64), dict(size=0),
             "LOAD needs a buffer and a positive size"),
            (dict(op=Opcode.STORE, size=64), dict(size=-1), "STORE needs a positive size"),
            (dict(op=Opcode.GEMM, uop_count=1), dict(uop_count=0),
             "GEMM needs positive uop_count/lp0/lp1"),
            (dict(op=Opcode.GEMM, uop_count=1), dict(lp0=0),
             "GEMM needs positive uop_count/lp0/lp1"),
            (dict(op=Opcode.GEMM, uop_count=1), dict(lp1=-2),
             "GEMM needs positive uop_count/lp0/lp1"),
            (dict(op=Opcode.ALU, alu_op=AluOp.ADD, vector_len=8), dict(alu_op=None),
             "ALU needs an op, vector_len, and iterations"),
            (dict(op=Opcode.ALU, alu_op=AluOp.ADD, vector_len=8), dict(vector_len=0),
             "ALU needs an op, vector_len, and iterations"),
            (dict(op=Opcode.ALU, alu_op=AluOp.ADD, vector_len=8), dict(iterations=0),
             "ALU needs an op, vector_len, and iterations"),
        ],
    )
    def test_malformed_rejected_directly_and_through_replace(self, valid, bad, message):
        ok = Instruction(**valid)
        with pytest.raises(ValueError) as direct:
            Instruction(**{**valid, **bad})
        assert str(direct.value) == message
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(ok, **bad)
        assert str(replaced.value) == message

    def test_module_follows_the_dispatch_rule_for_every_op_and_buffer(self):
        operands = dict(size=8, uop_count=1, alu_op=AluOp.MAX, vector_len=8)
        for op, buffer in itertools.product(Opcode, (None, *Buffer)):
            if op is Opcode.LOAD and buffer is None:
                continue  # rejected above
            insn = Instruction(op, buffer=buffer, **operands)
            if op is Opcode.LOAD and buffer in (Buffer.INP, Buffer.WGT):
                expected = Module.LOAD
            elif op is Opcode.STORE:
                expected = Module.STORE
            else:
                expected = Module.COMPUTE
            assert insn.module is expected, (op, buffer)


class TestProgram:
    def test_needs_instructions(self):
        with pytest.raises(ValueError):
            Program(())

    def test_by_module_partitions(self):
        prog = tiled_gemm_program(GemmWorkload(2, 2, 2), Tiling(1, 1, 1))
        total = sum(len(prog.by_module(m)) for m in Module)
        assert total == len(prog)

    def test_token_balance_nonnegative_for_generated(self):
        for prog in random_programs(3, 10, max_dim=5):
            assert all(v >= 0 for v in token_balance(prog).values())

    def test_streamed_uses_warm_variant(self):
        prog = tiled_gemm_program(GemmWorkload(2, 1, 1), Tiling(1, 1, 1))
        combined = prog.streamed(3)
        assert len(combined) == 3 * len(prog)
        # Warm copies arm every double-buffering pop on input loads.
        warm_loads = [
            i for i in combined.instructions[len(prog):]
            if i.op is Opcode.LOAD and i.buffer is Buffer.INP
        ]
        assert all(i.pop_next for i in warm_loads)
        # Every copy after the first is the warm-start lowering, for
        # every legal tiling of every shape up to 4x4x4.
        for m, k, n in itertools.product(range(1, 5), repeat=3):
            work = GemmWorkload(m, k, n)
            for tiling, relu, reload in itertools.product(
                legal_tilings(work), (False, True), (0, 2)
            ):
                lower = dict(alu_relu=relu, uop_reload_every=reload)
                cold = tiled_gemm_program(work, tiling, **lower)
                warm = tiled_gemm_program(work, tiling, **lower, warm_start=True)
                assert cold.streamed(3).instructions == (
                    cold.instructions + 2 * warm.instructions
                )
                assert warm.streamed(3).instructions == 3 * warm.instructions

    def test_assembled_program_streams_as_plain_repeats(self):
        prog = tiled_gemm_program(GemmWorkload(2, 2, 2), Tiling(1, 1, 1))
        assembled = from_text(to_text(prog))
        assert assembled.instructions == prog.instructions
        assert assembled.streamed(3).instructions == 3 * prog.instructions
        assert prog.streamed(3).instructions != 3 * prog.instructions

    def test_streamed_validates_copies(self):
        prog = tiled_gemm_program(GemmWorkload(1, 1, 1), Tiling(1, 1, 1))
        with pytest.raises(ValueError):
            prog.streamed(0)


class TestProgramKey:
    """A tuning candidate's cache key encodes one instruction sequence."""

    WORK = GemmWorkload(4, 8, 4)

    def test_streaming_leaves_the_key_alone(self):
        prog = Candidate(Tiling(2, 2, 2)).lower(self.WORK)
        key = workload_key(prog)
        prog.streamed(3)
        assert workload_key(prog) == key

    def test_two_lowerings_of_one_candidate_key_alike(self):
        for tiling in legal_tilings(self.WORK):
            a = Candidate(tiling).lower(self.WORK)
            b = Candidate(tiling).lower(self.WORK)
            assert a is not b and workload_key(a) == workload_key(b)

    def test_canonical_bytes_hold_one_instruction_tuple(self):
        prog = Candidate(Tiling(2, 2, 2)).lower(self.WORK)
        encoded = canonical_bytes(prog)
        assert encoded.count(b"'Instruction'") == len(prog)
        assert len(encoded) < 1.01 * len(canonical_bytes(prog.instructions))
        assert prog.warm_pops  # the warm tail is derivable, not stored


class TestWorkload:
    def test_legal_tilings_divide_and_fit(self):
        work = GemmWorkload(4, 8, 4)
        for t in legal_tilings(work):
            assert work.m % t.tm == 0
            assert work.k % t.tk == 0
            assert work.n % t.tn == 0
            assert t.fits()

    def test_tiling_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            tiled_gemm_program(GemmWorkload(3, 3, 3), Tiling(2, 1, 1))

    def test_reproducible(self):
        a = random_programs(7, 5)
        b = random_programs(7, 5)
        assert [p.instructions for p in a] == [p.instructions for p in b]

    def test_generated_programs_pass_validation(self):
        for prog in random_programs(11, 15, max_dim=6):
            assert_valid(prog)

    def test_workload_macs(self):
        assert GemmWorkload(2, 3, 4).macs == 2 * 3 * 4 * 16


class TestAssembler:
    def test_validate_catches_negative_balance(self):
        prog = Program((gemm(pop_prev=True),))
        problems = validate(prog)
        assert any("no matching push" in p for p in problems)

    def test_validate_catches_buffer_overflow(self):
        prog = Program(
            (Instruction(Opcode.LOAD, buffer=Buffer.UOP, size=1 << 20),)
        )
        assert any("exceeds" in p for p in validate(prog))

    def test_validate_catches_bad_flags_for_module(self):
        prog = Program(
            (Instruction(Opcode.LOAD, buffer=Buffer.INP, size=64, pop_prev=True),)
        )
        assert any("no 'prev' queue" in p for p in validate(prog))

    @pytest.mark.parametrize("simulator", [VtaModel, TickVtaSimulator])
    def test_simulators_reject_flags_their_module_does_not_wire(self, simulator):
        """A flag the module does not wire names no queue: both
        simulators refuse the program with the assembler's message,
        rather than run it with the flag ignored."""
        prog = Program(
            (Instruction(Opcode.LOAD, buffer=Buffer.INP, size=64, pop_prev=True),)
        )
        assert validate(prog) == ["insn 0: load module has no 'prev' queue"]
        with pytest.raises(SimError, match="insn 0: load module has no 'prev' queue"):
            simulator().run(prog)

    def test_validate_finish_placement(self):
        prog = Program((Instruction(Opcode.FINISH), gemm(push_prev=True)))
        assert any("last instruction" in p for p in validate(prog))

    def test_assert_valid_raises(self):
        prog = Program((gemm(pop_prev=True),))
        with pytest.raises(AssemblyError):
            assert_valid(prog)

    def test_text_round_trip(self):
        prog = tiled_gemm_program(
            GemmWorkload(2, 2, 2), Tiling(1, 2, 1), uop_reload_every=2
        )
        back = from_text(to_text(prog))
        assert back.instructions == prog.instructions
        assert back.name == prog.name

    def test_text_parse_errors(self):
        with pytest.raises(AssemblyError, match="unknown flag"):
            from_text("gemm uops=1 lp0=1 lp1=1 !bogus\n")
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            from_text("frobnicate\n")
        with pytest.raises(AssemblyError, match="no instructions"):
            from_text("# nothing\n")


class TestModuleHash:
    def test_module_hashes_by_identity(self):
        assert {m: m.value for m in Module}[Module.COMPUTE] == "compute"
        assert all(hash(m) == object.__hash__(m) for m in Module)

    def test_tokenizing_and_modeling_run_no_python_level_module_hash(self):
        """The tokenizer keys two dicts on an instruction's module per
        token, and the model keys its command queues on it per
        instruction; ``Enum.__hash__`` would run Python code for each."""
        import sys

        from repro.accel.vta import VtaModel
        from repro.accel.vta.interfaces import tokenize_program

        program = tiled_gemm_program(GemmWorkload(4, 4, 4), Tiling(2, 2, 2))
        hashed = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "__hash__":
                if isinstance(frame.f_locals.get("self"), Module):
                    hashed.append(frame.f_locals["self"])

        sys.setprofile(profile)
        try:
            tokens = tokenize_program(program)
            VtaModel().run(program)
        finally:
            sys.setprofile(None)
        assert len(tokens) == len(program) + 4
        assert hashed == []
