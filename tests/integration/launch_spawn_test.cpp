// End-to-end integration tests for launchAndSpawn / attachAndSpawn.
#include <gtest/gtest.h>

#include "core/fe_api.hpp"
#include "rm/resource_manager.hpp"
#include "tests/test_util.hpp"

namespace lmon {
namespace {

using testing::TestCluster;

struct LaunchResult {
  bool done = false;
  Status status;
  core::Rpdtab proctable;
  core::Rpdtab daemon_table;
  sim::Time started = 0;
  sim::Time finished = 0;
};

/// Drives a full launchAndSpawn and reports into `out` (owned by the test).
apps::ScriptedFrontEnd::Script make_launch_script(
    LaunchResult* out, int nnodes, int tpn,
    std::shared_ptr<core::FrontEnd>* fe_keep) {
  return [out, nnodes, tpn, fe_keep](cluster::Process& self) {
    auto fe = std::make_shared<core::FrontEnd>(self);
    *fe_keep = fe;
    ASSERT_TRUE(fe->init().is_ok());
    auto sid = fe->create_session();
    ASSERT_TRUE(sid.is_ok());

    rm::JobSpec job;
    job.nnodes = nnodes;
    job.tasks_per_node = tpn;
    job.executable = "mpi_app";

    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";

    out->started = self.sim().now();
    fe->launch_and_spawn(sid.value, job, cfg,
                         [out, fe, sid = sid.value, &self](Status st) {
                           out->done = true;
                           out->status = st;
                           out->finished = self.sim().now();
                           if (auto* pt = fe->proctable(sid)) {
                             out->proctable = *pt;
                           }
                           if (auto* dt = fe->daemon_table(sid)) {
                             out->daemon_table = *dt;
                           }
                         });
  };
}

TEST(LaunchSpawn, FourNodeJobLaunchesDaemonsAndTasks) {
  TestCluster tc(4);
  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe(make_launch_script(&result, 4, 8, &fe));

  ASSERT_TRUE(tc.run_until([&] { return result.done; }));
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();

  // RPDTAB: 4 nodes x 8 tasks, ranks 0..31, valid pids, 4 distinct hosts.
  ASSERT_EQ(result.proctable.size(), 32u);
  EXPECT_EQ(result.proctable.hosts().size(), 4u);
  const auto entries = result.proctable.entries();
  for (std::size_t i = 0; i < result.proctable.size(); ++i) {
    const auto& e = entries[i];
    EXPECT_EQ(e.rank, static_cast<std::int32_t>(i));
    EXPECT_EQ(e.executable, "mpi_app");
    EXPECT_GT(e.pid, 0);
  }

  // Daemon table: one daemon per node, co-located with the tasks.
  ASSERT_EQ(result.daemon_table.size(), 4u);
  auto task_hosts = result.proctable.hosts();
  auto daemon_hosts = result.daemon_table.hosts();
  std::sort(task_hosts.begin(), task_hosts.end());
  std::sort(daemon_hosts.begin(), daemon_hosts.end());
  EXPECT_EQ(task_hosts, daemon_hosts);

  // All daemons actually run.
  for (const auto& d : result.daemon_table.entries()) {
    cluster::Process* p = tc.machine.find_process(d.pid);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->state(), cluster::ProcState::Running);
    EXPECT_EQ(p->options().executable, "hello_be");
  }
}

TEST(LaunchSpawn, CompletesWellUnderASecondAt16Nodes) {
  TestCluster tc(16);
  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe(make_launch_script(&result, 16, 8, &fe));
  ASSERT_TRUE(tc.run_until([&] { return result.done; }));
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  const double secs = sim::to_seconds(result.finished - result.started);
  EXPECT_LT(secs, 1.0);
  EXPECT_GT(secs, 0.05);  // it does cost something
}

TEST(LaunchSpawn, AttachToRunningJob) {
  TestCluster tc(4);
  // Start the job without any tool.
  auto job_res = rm::run_job(tc.machine, rm::JobSpec{4, 8, "mpi_app", {}});
  ASSERT_TRUE(job_res.is_ok());
  const cluster::Pid launcher_pid = job_res.value;
  tc.simulator.run(tc.simulator.now() + sim::seconds(2));
  ASSERT_EQ(tc.machine.find_process(launcher_pid)->state(),
            cluster::ProcState::Running);

  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    auto sid = fe->create_session();
    ASSERT_TRUE(sid.is_ok());
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    result.started = self.sim().now();
    fe->attach_and_spawn(sid.value, launcher_pid, cfg,
                         [&, sid = sid.value](Status st) {
                           result.done = true;
                           result.status = st;
                           result.finished = self.sim().now();
                           if (auto* pt = fe->proctable(sid)) {
                             result.proctable = *pt;
                           }
                           if (auto* dt = fe->daemon_table(sid)) {
                             result.daemon_table = *dt;
                           }
                         });
  });

  ASSERT_TRUE(tc.run_until([&] { return result.done; }));
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.proctable.size(), 32u);
  EXPECT_EQ(result.daemon_table.size(), 4u);
  // The job keeps running after attach.
  EXPECT_EQ(tc.machine.find_process(launcher_pid)->state(),
            cluster::ProcState::Running);
}

TEST(LaunchSpawn, FailsCleanlyWhenAllocationTooLarge) {
  TestCluster tc(2);
  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe(make_launch_script(&result, 8, 1, &fe));
  ASSERT_TRUE(tc.run_until([&] { return result.done; }));
  EXPECT_FALSE(result.status.is_ok());
}

TEST(LaunchSpawn, SessionReusedIsRejected) {
  TestCluster tc(2);
  bool second_done = false;
  Status second_status;
  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    auto sid = fe->create_session();
    ASSERT_TRUE(sid.is_ok());
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{2, 1, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status st) {
      result.done = true;
      result.status = st;
    });
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status st) {
      second_done = true;
      second_status = st;
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return result.done && second_done; }));
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(second_status.rc(), Rc::Ebusy);
}

}  // namespace
}  // namespace lmon
