"""COST-* pre-flight estimation: extraction, exact pricing, the checks."""

from repro.analysis import AnalysisContext
from repro.cloud.pricing import plan_cost, plan_rate
from repro.perflint import LAB_COST_ENVELOPE_USD
from repro.perflint.costpass import PlanSite, check_plan, cost_pass, extract_plans


def _rules(source: str) -> dict[str, list[int]]:
    report = cost_pass(AnalysisContext(source, "lab.py"))
    out: dict[str, list[int]] = {}
    for f in report.findings:
        out.setdefault(f.rule, []).append(f.line)
    return out


class TestExtraction:
    def test_bootstrap_literals_extracted(self):
        (plan,) = extract_plans(AnalysisContext('''\
from repro.cloud import BootstrapScript

cloud.register_student("ada")
plan = BootstrapScript(instance_type="p3.8xlarge", instance_count=2,
                       expected_hours=10.0)
'''))
        assert plan.kind == "bootstrap"
        assert plan.type_name == "p3.8xlarge"
        assert plan.count == 2
        assert plan.expected_hours == 10.0
        assert plan.owner == "ada"
        assert plan.line == 4

    def test_positional_args_extracted(self):
        (plan,) = extract_plans(AnalysisContext(
            'plan = BootstrapScript("g4dn.xlarge", 3)\n'))
        assert (plan.type_name, plan.count) == ("g4dn.xlarge", 3)

    def test_non_literal_instance_type_is_skipped_not_guessed(self):
        # the pass must not fall back to defaults when the SKU is
        # unknowable (this is what keeps costpass.py itself lint-clean)
        assert extract_plans(AnalysisContext(
            "plan = BootstrapScript(instance_type=cfg.sku)\n")) == []
        assert extract_plans(AnalysisContext(
            "plan = BootstrapScript(**kwargs)\n")) == []

    def test_notebook_call_extracted_with_default_type(self):
        (plan,) = extract_plans(AnalysisContext(
            'nb = cloud.sagemaker.create_notebook_instance("ada")\n'))
        assert plan.kind == "notebook"
        assert plan.type_name == "ml.t3.medium"
        assert plan.count == 1


class TestExactPricing:
    def test_cost_message_reproduces_catalog_price_exactly(self):
        # 2x p3.8xlarge at the catalog rate for 10 h
        expected = plan_cost("p3.8xlarge", 10.0, 2)
        assert expected == 2 * plan_rate("p3.8xlarge") * 10.0
        report = cost_pass(AnalysisContext('''\
plan = BootstrapScript(instance_type="p3.8xlarge", instance_count=2,
                       expected_hours=10.0)
''', "lab.py"))
        cap = [f for f in report.findings if f.rule == "COST-BUDGET-CAP"]
        assert len(cap) == 1
        assert f"${expected:.2f}" in cap[0].message

    def test_plan_site_required_actions_scope_to_owner(self):
        plan = PlanSite(kind="bootstrap", type_name="g4dn.xlarge", count=1,
                        expected_hours=2.0, line=1, owner="ada")
        actions = dict(plan.required_actions())
        assert set(actions) == {"ec2:RunInstances", "ec2:TerminateInstances"}
        assert all(r.startswith("arn:student/ada/") for r in actions.values())


class TestChecks:
    def test_budget_cap_fires_over_100(self):
        rules = _rules('''\
plan = BootstrapScript(instance_type="p3.8xlarge", instance_count=2,
                       expected_hours=10.0)
plan.teardown()
''')
        assert "COST-BUDGET-CAP" in rules
        assert "COST-LAB-ENVELOPE" not in rules   # the cap subsumes it

    def test_lab_envelope_fires_between_5_and_100(self):
        # 1x p3.2xlarge for 3 h = $9.18: over Fig 5's ~$5, under the cap
        assert plan_cost("p3.2xlarge", 3.0) > LAB_COST_ENVELOPE_USD
        rules = _rules('''\
plan = BootstrapScript(instance_type="p3.2xlarge", expected_hours=3.0)
plan.teardown()
''')
        assert rules == {"COST-LAB-ENVELOPE": [1]}

    def test_cheap_plan_with_teardown_is_clean(self):
        # 1x g4dn.xlarge for 2 h = $1.05, torn down afterwards
        assert _rules('''\
plan = BootstrapScript(instance_type="g4dn.xlarge", expected_hours=2.0)
plan.teardown()
''') == {}

    def test_unknown_sku_is_an_error(self):
        rules = _rules(
            'plan = BootstrapScript(instance_type="p9.metal")\n')
        assert rules == {"COST-UNKNOWN-TYPE": [1]}

    def test_idle_fires_without_teardown_marker(self):
        rules = _rules(
            'plan = BootstrapScript(instance_type="g4dn.xlarge")\n')
        assert "COST-IDLE" in rules

    def test_reaper_counts_as_teardown(self):
        rules = _rules('''\
from repro.cloud import IdleReaper

plan = BootstrapScript(instance_type="g4dn.xlarge")
reaper = IdleReaper(cloud)
''')
        assert "COST-IDLE" not in rules

    def test_spot_note_for_long_on_demand_sessions(self):
        rules = _rules('''\
plan = BootstrapScript(instance_type="g4dn.xlarge", expected_hours=12.0)
plan.teardown()
''')
        assert "COST-SPOT" in rules
        assert "COST-SPOT" not in _rules('''\
from repro.cloud.spot import SpotService

plan = BootstrapScript(instance_type="g4dn.xlarge", expected_hours=12.0)
svc = SpotService(cloud)
plan.teardown()
''')

    def test_no_plans_no_findings(self):
        assert _rules("x = train(model)\n") == {}

    def test_check_plan_custom_cap(self):
        plan = PlanSite(kind="bootstrap", type_name="g4dn.xlarge", count=1,
                        expected_hours=4.0, line=1)
        report = check_plan(plan, has_teardown=True, has_spot=True,
                            budget_cap_usd=1.0)
        assert [f.rule for f in report.findings] == ["COST-BUDGET-CAP"]


class TestEndpointPlans:
    def test_endpoint_extracted_and_priced_at_peak(self):
        (plan,) = extract_plans(AnalysisContext('''\
cfg = EndpointConfig(name="rag-ep", instance_type="g5.xlarge",
                     initial_replicas=1, max_replicas=3,
                     expected_hours=2.0)
'''))
        assert plan.kind == "endpoint"
        assert plan.type_name == "g5.xlarge"
        assert plan.count == 3                 # max_replicas, not initial
        assert plan.expected_hours == 2.0

    def test_endpoint_defaults_fill_missing_fields(self):
        (plan,) = extract_plans(AnalysisContext(
            'cfg = EndpointConfig(name="ep")\n'))
        assert plan.type_name == "g5.xlarge"
        assert plan.count == 4
        assert plan.expected_hours == 1.0

    def test_non_literal_endpoint_sku_is_skipped(self):
        assert extract_plans(AnalysisContext(
            'cfg = EndpointConfig(name="ep", instance_type=args.sku)\n'
        )) == []
        assert extract_plans(AnalysisContext(
            'cfg = EndpointConfig(**kwargs)\n')) == []

    def test_peak_fleet_over_budget_cap_fires(self):
        expected = plan_cost("p3.8xlarge", 5.0, 4)
        assert expected > 100.0
        rules = _rules('''\
cfg = EndpointConfig(name="big", instance_type="p3.8xlarge",
                     max_replicas=4, expected_hours=5.0)
endpoint.delete()
''')
        assert "COST-BUDGET-CAP" in rules

    def test_endpoint_delete_counts_as_teardown(self):
        assert "COST-IDLE" not in _rules('''\
cfg = EndpointConfig(name="ep", instance_type="g4dn.xlarge",
                     max_replicas=2, expected_hours=1.0)
endpoint.delete()
''')
        assert "COST-IDLE" in _rules('''\
cfg = EndpointConfig(name="ep", instance_type="g4dn.xlarge",
                     max_replicas=2, expected_hours=1.0)
''')

    def test_endpoint_required_actions(self):
        plan = PlanSite(kind="endpoint", type_name="g5.xlarge", count=2,
                        expected_hours=1.0, line=1, owner="ada")
        actions = dict(plan.required_actions())
        assert set(actions) == {"sagemaker:CreateEndpoint",
                                "sagemaker:DeleteEndpoint",
                                "ec2:RunInstances",
                                "ec2:TerminateInstances"}
        assert all(r.startswith("arn:student/ada/")
                   for r in actions.values())

    def test_peak_cost_matches_config_preflight(self):
        from repro.serve.endpoint import EndpointConfig

        cfg = EndpointConfig(name="ep", instance_type="g4dn.xlarge",
                             max_replicas=3, expected_hours=2.0)
        assert cfg.peak_cost_usd() == plan_cost("g4dn.xlarge", 2.0, 3)
