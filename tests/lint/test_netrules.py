"""Tests for the net-family lint rules (PL0xx)."""

import pytest

from repro.lint import Severity, lint_pnet_text


def ids(report):
    return report.rule_ids()


def by_rule(report, rule_id):
    return [d for d in report.diagnostics if d.rule_id == rule_id]


# The acceptance fixture: one deliberately broken document tripping an
# empty siphon, an undefined token field, and a negative delay at once.
BROKEN = """\
net broken
place in
place credit capacity 1
place loopback
place out
inject in fields a
transition t1
  consume in credit
  produce loopback out
  delay expr: tok["b"] - 5
transition t2
  consume loopback
  produce credit
  delay -3
"""


class TestBrokenFixture:
    @pytest.fixture(scope="class")
    def report(self):
        return lint_pnet_text(BROKEN, filename="broken.pnet")

    def test_trips_all_three_rules(self, report):
        assert {"PL001", "PL006", "PL007"} <= ids(report)

    def test_exit_code_is_error(self, report):
        assert report.exit_code == 1
        assert len(report.errors) >= 3

    def test_empty_siphon_names_the_cycle(self, report):
        (diag,) = by_rule(report, "PL001")
        assert diag.severity is Severity.ERROR
        assert "credit" in diag.message and "loopback" in diag.message
        assert "in" not in diag.message.split("siphon")[0].split("[")[1]

    def test_undefined_field_points_at_delay_line(self, report):
        (diag,) = by_rule(report, "PL006")
        assert diag.location.file == "broken.pnet"
        assert diag.location.line == 10  # the `delay expr:` line of t1
        assert "tok['b']" in diag.message
        assert "'a'" in diag.message  # tells you what IS available

    def test_negative_delay_points_at_its_line(self, report):
        (diag,) = by_rule(report, "PL007")
        assert diag.location.line == 14
        assert diag.severity is Severity.ERROR

    def test_every_diagnostic_has_a_line(self, report):
        assert all(d.location.line is not None for d in report.diagnostics)


class TestStarvation:
    def test_pl002_unfed_input(self):
        text = """\
net n
place in
place nowhere
place out
inject in
transition t
  consume in nowhere
  produce out
  delay 1
"""
        report = lint_pnet_text(text)
        (diag,) = by_rule(report, "PL002")
        assert "nowhere" in diag.message
        assert diag.severity is Severity.ERROR

    def test_clean_chain_has_no_starvation(self):
        text = """\
net n
place in
place out
inject in
transition t
  consume in
  produce out
  delay 1
"""
        report = lint_pnet_text(text)
        assert not {"PL001", "PL002"} & ids(report)


class TestCapacityAndShape:
    def test_pl003_arc_exceeds_capacity(self):
        text = """\
net n
place in
place out capacity 1
inject in
transition t
  consume in
  produce out:2
  delay 1
"""
        (diag,) = by_rule(lint_pnet_text(text), "PL003")
        assert "capacity" in diag.message

    def test_pl004_disconnected_place(self):
        text = """\
net n
place in
place orphan
place out
inject in
transition t
  consume in
  produce out
  delay 1
"""
        (diag,) = by_rule(lint_pnet_text(text), "PL004")
        assert diag.subject == "orphan"
        assert diag.severity is Severity.WARNING

    def test_pl005_sink_is_info_only(self):
        text = """\
net n
place in
place out
inject in
transition t
  consume in
  produce out
  delay 1
"""
        report = lint_pnet_text(text)
        (diag,) = by_rule(report, "PL005")
        assert diag.severity is Severity.INFO
        assert report.exit_code == 0

    def test_pl009_unbounded_internal_place(self):
        text = """\
net n
place in
place q
place out
inject in
transition a
  consume in
  produce q
  delay 1
transition b
  consume q
  produce out
  delay 1
"""
        (diag,) = by_rule(lint_pnet_text(text), "PL009")
        assert diag.subject == "q"

    def test_pl013_duplicate_arc(self):
        text = """\
net n
place in
place out
inject in
transition t
  consume in in
  produce out
  delay 1
"""
        (diag,) = by_rule(lint_pnet_text(text), "PL013")
        assert "in" in diag.message


class TestExpressions:
    def test_pl008_unclamped_subtraction(self):
        text = """\
net n
place in
place out
inject in fields x
transition t
  consume in
  produce out
  delay expr: tok["x"] - 10
"""
        (diag,) = by_rule(lint_pnet_text(text), "PL008")
        assert "subtract" in diag.message

    def test_pl008_division_by_field(self):
        text = """\
net n
place in
place out
inject in fields x
transition t
  consume in
  produce out
  delay expr: 100 / tok["x"]
"""
        (diag,) = by_rule(lint_pnet_text(text), "PL008")
        assert "divides" in diag.message

    def test_max_clamp_suppresses_pl008(self):
        text = """\
net n
place in
place out
inject in fields x
transition t
  consume in
  produce out
  delay expr: max(0, 10 - tok["x"])
"""
        assert not by_rule(lint_pnet_text(text), "PL008")

    def test_pl007_constant_folded_expression(self):
        text = """\
net n
place in
place out
inject in
transition t
  consume in
  produce out
  delay expr: 5 - 10
"""
        (diag,) = by_rule(lint_pnet_text(text), "PL007")
        assert "-5" in diag.message

    def test_pl011_constant_false_guard_is_error(self):
        text = """\
net n
place in
place out
inject in
transition t
  consume in
  produce out
  delay 1
  guard expr: 1 > 2
"""
        (diag,) = by_rule(lint_pnet_text(text), "PL011")
        assert diag.severity is Severity.ERROR
        assert "never fire" in diag.message

    def test_pl011_constant_true_guard_is_warning(self):
        text = """\
net n
place in
place out
inject in
transition t
  consume in
  produce out
  delay 1
  guard expr: 2 > 1
"""
        (diag,) = by_rule(lint_pnet_text(text), "PL011")
        assert diag.severity is Severity.WARNING

    def test_token_dependent_guard_not_flagged(self):
        text = """\
net n
place in
place out
inject in fields x
transition t
  consume in
  produce out
  delay 1
  guard expr: tok["x"] > 0
"""
        assert not by_rule(lint_pnet_text(text), "PL011")


class TestDataflow:
    def test_opaque_injection_silences_pl006(self):
        # `inject in` without a field list means "payload unknown":
        # reading any field downstream must not be flagged.
        text = """\
net n
place in
place out
inject in
transition t
  consume in
  produce out
  delay expr: tok["whatever"]
"""
        assert not by_rule(lint_pnet_text(text), "PL006")

    def test_fields_propagate_through_stages(self):
        text = """\
net n
place in
place mid
place out
inject in fields x
transition a
  consume in
  produce mid
  delay 1
transition b
  consume mid
  produce out
  delay expr: tok["x"]
"""
        assert not by_rule(lint_pnet_text(text), "PL006")

    def test_extra_injections_parameter(self):
        # Programmatic nets declare injection points via the API.
        text = """\
net n
place in
place out
transition t
  consume in
  produce out
  delay expr: tok["x"]
"""
        report = lint_pnet_text(
            text, extra_injections={"in": frozenset({"y"})}
        )
        (diag,) = by_rule(report, "PL006")
        assert "tok['x']" in diag.message


class TestImplicitInjection:
    def test_pl017_on_legacy_document(self):
        text = """\
net n
place in
place out
transition t
  consume in
  produce out
  delay 1
"""
        report = lint_pnet_text(text)
        (diag,) = by_rule(report, "PL017")
        assert diag.subject == "in"
        # Legacy documents must not error just for predating `inject`.
        assert report.exit_code == 0

    def test_no_pl017_when_declared(self):
        text = """\
net n
place in
place out
inject in
transition t
  consume in
  produce out
  delay 1
"""
        assert not by_rule(lint_pnet_text(text), "PL017")


class TestDispatchKeys:
    KEYED = """\
net n
place cmd
place side
place out
inject cmd fields kind
inject side
transition a
  consume cmd
  produce out
  guard expr: tok["kind"] == 0
  key cmd kind 0
transition b
  consume cmd
  produce out
  guard expr: tok["kind"] == 1
  key cmd kind 1
transition c
  consume side
  produce out
"""

    def test_clean_keys_pass(self):
        assert not by_rule(lint_pnet_text(self.KEYED), "PL018")

    @pytest.mark.parametrize(
        "old,new,subject,line,needle",
        [
            ("  key cmd kind 1", "  key cmd kind 0", "b", 16, "both key head place 'cmd'"),
            ("  key cmd kind 1", "  key cmd other 1", "b", 16, "on field 'other'"),
            ("  consume side", "  consume side cmd", "c", 17, "does not key on it"),
        ],
    )
    def test_violation_points_at_the_transition(self, old, new, subject, line, needle):
        report = lint_pnet_text(self.KEYED.replace(old, new), filename="k.pnet")
        (diag,) = by_rule(report, "PL018")
        assert diag.severity is Severity.ERROR and report.exit_code == 1
        assert diag.subject == subject and needle in diag.message
        assert (diag.location.file, diag.location.line) == ("k.pnet", line)


class TestInvariantRules:
    def test_pl010_externally_fed_cycle(self):
        text = """\
net n
place in
place credit
place out
inject in
inject credit
transition t
  consume in credit
  produce out credit
  delay 1
"""
        report = lint_pnet_text(text)
        assert by_rule(report, "PL010")

    def test_pl012_nonconservative_fork(self):
        text = """\
net n
place in
place a
place b
inject in
transition fork
  consume in
  produce a b
  delay 1
transition da
  consume a
  delay 1
transition db
  consume b
  delay 1
"""
        report = lint_pnet_text(text)
        assert by_rule(report, "PL012")


class TestFaultArcs:
    def _net(self, timeout_clause, extra=""):
        return f"""\
net n
place in
place out
place fault{extra}
inject in fields size
transition t
  consume in
  produce out
  delay expr: tok["size"] * 2
  {timeout_clause}
"""

    def test_pl014_undrained_timeout_place(self):
        report = lint_pnet_text(self._net("timeout 50 fault"))
        (diag,) = by_rule(report, "PL014")
        assert "fault" in diag.message
        assert diag.severity is Severity.WARNING

    def test_pl016_bounded_timeout_place(self):
        report = lint_pnet_text(
            self._net("timeout 50 fault", extra=" capacity 2")
        )
        assert by_rule(report, "PL016")

    def test_pl015_unreachable_fault_arc(self):
        text = """\
net n
place in
place out
place fault
inject in
transition t
  consume in
  produce out
  delay 10
  timeout 50 fault
transition drain
  consume fault
  delay 1
"""
        (diag,) = by_rule(lint_pnet_text(text), "PL015")
        assert "never trigger" in diag.message

    def test_well_formed_fault_arc_is_clean(self):
        text = """\
net n
place in
place out
place fault
inject in fields size
transition t
  consume in
  produce out
  delay expr: tok["size"] * 2
  timeout 50 fault
transition drain
  consume fault
  produce out
  delay 1
"""
        report = lint_pnet_text(text)
        assert not {"PL014", "PL015", "PL016"} & ids(report)


class TestCatalogBreadth:
    def test_many_distinct_rules_fire_across_fixtures(self):
        # The tentpole acceptance: the net linter alone produces a broad,
        # structured catalog — at least 10 distinct rule ids over these
        # small documents, each with a source line.
        fixtures = [
            BROKEN,
            """\
net n
place in
place orphan
place q
place out capacity 1
transition a
  consume in in
  produce q:2
  delay 1
transition b
  consume q
  produce out
  delay expr: 100 / tok["x"]
  guard expr: 1 > 2
""",
            """\
net n
place in
place out
place fault capacity 1
inject in fields size
transition t
  consume in
  produce out
  delay 10
  timeout 50 fault
""",
        ]
        seen = set()
        for text in fixtures:
            report = lint_pnet_text(text, filename="f.pnet")
            for diag in report.diagnostics:
                assert diag.location.line is not None, diag.rule_id
                seen.add(diag.rule_id)
        assert len(seen) >= 10, sorted(seen)
