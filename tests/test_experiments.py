"""Smoke tests of the experiment harness at the SMOKE profile.

Each paper table/figure module must run end-to-end and produce a
non-degenerate report.  The quantitative shape checks live in the
benchmarks; here we assert the machinery and the qualitative invariants
that hold even at tiny scale.
"""

import pytest

from repro.core.policy import B_MIN, MADEUS
from repro.experiments import SMOKE, TenantSetup, build_testbed, \
    get_profile
from repro.experiments import costmodel, dbsize, migration_time, \
    multitenant, performance, preliminary
from repro.experiments.profiles import PAPER, PROFILES, QUICK


class TestProfiles:
    def test_registry_contains_three(self):
        assert set(PROFILES) == {"paper", "quick", "smoke"}

    def test_get_profile_by_name(self):
        assert get_profile("paper") is PAPER
        assert get_profile("quick") is QUICK

    def test_get_profile_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert get_profile() is QUICK
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        assert get_profile() is SMOKE

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            get_profile("gigantic")

    def test_eb_scaling(self):
        assert PAPER.ebs(700) == 700
        assert QUICK.ebs(700) == 70
        assert QUICK.ebs(1) >= 1

    def test_duration_scaling(self):
        assert QUICK.duration(100.0) == pytest.approx(12.5)


class TestTestbedBuilder:
    def test_builds_nodes_and_tenants(self):
        testbed = build_testbed(SMOKE,
                                [TenantSetup("A", "node0", paper_ebs=100)])
        assert testbed.node("node0").hosts("A")
        assert not testbed.node("node1").hosts("A")
        assert "A" in testbed.metrics

    def test_load_flows(self):
        testbed = build_testbed(SMOKE,
                                [TenantSetup("A", "node0", paper_ebs=200)])
        testbed.run(until=3.0)
        assert testbed.metrics["A"].interactions > 0

    def test_multiple_tenants_share_node(self):
        testbed = build_testbed(
            SMOKE,
            [TenantSetup("A", "node0", paper_ebs=100),
             TenantSetup("B", "node0", paper_ebs=100)])
        instance = testbed.node("node0").instance
        assert instance.has_tenant("A") and instance.has_tenant("B")

    def test_migrate_async_completes(self):
        testbed = build_testbed(SMOKE,
                                [TenantSetup("A", "node0", paper_ebs=100)])
        testbed.run(until=1.0)
        runner = testbed.migrate_async("A", "node1")
        env = testbed.env
        env.run(until=env.any_of([runner, env.timeout(299.0)]))
        assert runner.value["report"].consistent is True


class TestFigure5:
    def test_sweep_produces_monotone_response_times(self):
        points = preliminary.run_preliminary(
            SMOKE, eb_counts=(100, 400, 700), window=40.0)
        assert len(points) == 3
        rts = [p.mean_response_time for p in points]
        assert rts[0] < rts[2]  # heavier load, slower responses

    def test_report_renders(self):
        points = preliminary.run_preliminary(SMOKE, eb_counts=(100,),
                                             window=40.0)
        text = preliminary.report(points, SMOKE)
        assert "Figure 5" in text

    def test_classify_bands(self):
        assert preliminary.classify(0.01, 1.0) == "light"
        assert preliminary.classify(0.5, 1.0) == "medium"
        assert preliminary.classify(3.0, 1.0) == "heavy"


class TestFigure6:
    def test_single_cell_runs(self):
        result = migration_time.run_one(MADEUS, 100, SMOKE)
        assert result.migration_time is not None
        assert result.consistent is True

    def test_report_renders_with_na(self):
        results = [migration_time.MigrationResult("B-CON", 700, None)]
        text = migration_time.report(results, SMOKE)
        assert "N/A" in text

    def test_table2_rendering(self):
        text = migration_time.report_table2()
        assert "Madeus" in text and "CON-COM" in text


class TestFigures7and8:
    def test_timeline_runs_and_has_migration_window(self):
        result = performance.run_timeline(SMOKE, paper_ebs=300,
                                          checkpoints=False)
        assert result.report is not None
        assert result.migration_end > result.migration_start
        assert len(result.response_series) > 3
        text7 = performance.report_fig7(result, SMOKE)
        text8 = performance.report_fig8(result, SMOKE)
        assert "Figure 7" in text7 and "Figure 8" in text8


class TestFigure9:
    def test_table3_report(self):
        text = dbsize.report_table3(SMOKE)
        assert "Table 3" in text

    def test_size_point_runs(self):
        result = dbsize.run_one_size(100000, 100, SMOKE, paper_ebs=200)
        assert result.migration_time is not None
        assert result.size_mb > 0


class TestMultitenant:
    def test_case_runs_and_reports(self):
        case = multitenant.run_case("B", SMOKE)
        assert case.migration_time is not None
        assert set(case.tenants) == {"A", "B", "C"}
        text = multitenant.report_case(case, SMOKE, "Figures 10-13")
        assert "tenant" in text

    def test_which_migration_answer_structure(self):
        case1 = multitenant.run_case("B", SMOKE)
        case2 = multitenant.run_case("C", SMOKE)
        answer, reasons = multitenant.which_migration_is_better(case1,
                                                                case2)
        assert answer in ("heavy", "light")
        assert isinstance(reasons, list)

    def test_parallel_evacuation_beats_serialized(self):
        result = multitenant.run_parallel_evacuation(SMOKE)
        assert result.schedule.ok_count == 2
        assert result.schedule.max_in_flight == 2
        assert result.concurrent_wall_clock < \
            result.serialized_wall_clock
        assert 0.0 < result.improvement < 1.0
        text = multitenant.report_parallel(result)
        assert "Parallel evacuation" in text
        assert "tenant A" in text and "tenant C" in text


class TestCostModelCli:
    def test_main_prints(self, capsys):
        costmodel.main()
        output = capsys.readouterr().out
        assert "C_madeus" in output
        assert "identity holds: True" in output
