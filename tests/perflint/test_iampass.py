"""IAM-* least-privilege diff: under-grants, over-grants, role choice."""

from repro.analysis import AnalysisContext
from repro.cloud.iam import Role, Statement
from repro.perflint.iampass import (
    diff_plan_against_role,
    extract_roles,
    iam_pass,
)


def _rules(source: str) -> dict[str, list[str]]:
    report = iam_pass(AnalysisContext(source, "lab.py"))
    out: dict[str, list[str]] = {}
    for f in report.findings:
        out.setdefault(f.rule, []).append(f.message)
    return out


PLAN = 'plan = BootstrapScript(instance_type="g4dn.xlarge")\n'


class TestRoleExtraction:
    def test_literal_role_and_statements(self):
        ((role, line),) = extract_roles(AnalysisContext('''\
from repro.cloud import Role, Statement

role = Role(name="lab", statements=[
    Statement("Allow", ("ec2:RunInstances",), ("arn:student/ada/*",)),
    Statement("Deny", ("iam:*",)),
])
'''))
        assert role.name == "lab"
        assert line == 3
        assert [s.effect for s in role.statements] == ["Allow", "Deny"]
        assert role.statements[1].resources == ("*",)   # defaulted

    def test_factories_and_attach(self):
        roles = dict(
            (r.name, r)
            for r, _ in extract_roles(AnalysisContext('''\
creds = cloud.register_student("ada")
admin = instructor_role()
admin.attach(Statement("Deny", ("ec2:TerminateInstances",)))
''')))
        assert set(roles) == {"ada", "instructor"}
        assert roles["instructor"].statements[-1].effect == "Deny"

    def test_duplicate_factory_calls_collapse(self):
        roles = extract_roles(AnalysisContext('''\
for name in roster:
    cloud.register_student("ada")
    cloud.register_student("ada")
'''))
        assert len(roles) == 1


class TestDiff:
    def test_under_grant_is_an_error(self):
        role = Role(name="half", statements=[
            Statement("Allow", ("ec2:RunInstances",), ("*",))])
        needed = [("ec2:RunInstances", "arn:student/a/instance/i-0"),
                  ("ec2:TerminateInstances", "arn:student/a/instance/i-0")]
        report = diff_plan_against_role(needed, role, "lab.py", 3)
        (f,) = report.findings
        assert f.rule == "IAM-UNDER-GRANT"
        assert "ec2:TerminateInstances" in f.message
        assert f.location == "lab.py:3"

    def test_over_grant_is_a_warning(self):
        role = Role(name="fat", statements=[
            Statement("Allow", ("ec2:*",), ("*",)),
            Statement("Allow", ("s3:DeleteObject",), ("*",))])
        needed = [("ec2:RunInstances", "arn:student/a/instance/i-0")]
        report = diff_plan_against_role(needed, role, "lab.py", 3)
        (f,) = report.findings
        assert f.rule == "IAM-OVER-GRANT"
        assert "s3:DeleteObject" in f.message

    def test_readonly_grants_never_flagged(self):
        role = Role(name="ro", statements=[
            Statement("Allow", ("ec2:RunInstances",), ("*",)),
            Statement("Allow", ("ec2:Describe*", "s3:GetObject"), ("*",))])
        needed = [("ec2:RunInstances", "arn:student/a/instance/i-0")]
        assert diff_plan_against_role(needed, role).ok


class TestPass:
    def test_fixture_shape_under_and_over_grant(self):
        rules = _rules(PLAN + '''\
role = Role(name="lab", statements=[
    Statement("Allow", ("ec2:RunInstances",), ("arn:student/student/*",)),
    Statement("Allow", ("s3:DeleteObject",), ("*",)),
])
''')
        assert set(rules) == {"IAM-UNDER-GRANT", "IAM-OVER-GRANT"}

    def test_student_role_covers_its_own_plan(self):
        # register_student("ada") both names the owner and grants the
        # full per-student policy: nothing to report
        assert _rules('''\
creds = cloud.register_student("ada")
plan = BootstrapScript(instance_type="g4dn.xlarge")
''') == {}

    def test_best_covering_role_wins(self):
        # an unrelated broken role must not produce noise when a
        # covering role is also in scope
        assert _rules('''\
creds = cloud.register_student("ada")
broken = Role(name="broken", statements=[
    Statement("Deny", ("ec2:*",), ("*",)),
])
plan = BootstrapScript(instance_type="g4dn.xlarge")
''') == {}

    def test_no_plans_means_no_findings(self):
        # a module that only defines roles (like repro.cloud.session)
        # has nothing to diff against
        assert _rules('role = instructor_role()\n') == {}

    def test_no_roles_means_no_findings(self):
        assert _rules(PLAN) == {}
