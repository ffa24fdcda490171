// End-to-end integration tests for launchAndSpawn / attachAndSpawn.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/host_list.hpp"
#include "core/be_api.hpp"
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

/// A back end that registers its runtime with the test, so the test can
/// read the table each daemon holds.
class KeeperBe : public cluster::Program {
 public:
  explicit KeeperBe(std::vector<core::BackEnd*>* daemons)
      : daemons_(daemons) {}
  [[nodiscard]] std::string_view name() const override { return "keeper_be"; }
  void on_start(cluster::Process& self) override {
    be_ = std::make_unique<core::BackEnd>(self);
    core::BackEnd::Callbacks cbs;
    cbs.on_init = [](const core::Rpdtab&, const Bytes&,
                     std::function<void(Status)> done) { done(Status::ok()); };
    if (be_->init(std::move(cbs)).is_ok()) daemons_->push_back(be_.get());
  }

 private:
  std::vector<core::BackEnd*>* daemons_;
  std::unique_ptr<core::BackEnd> be_;
};

/// Launches nnodes x tpn of keeper_be daemons with `strategy`; each daemon
/// adds itself to `daemons` when it starts.
void launch_keepers(TestCluster& tc, int nnodes, int tpn,
                    comm::LaunchStrategyKind strategy,
                    std::vector<core::BackEnd*>& daemons,
                    std::shared_ptr<core::FrontEnd>& fe, int& sid) {
  cluster::ProgramImage image;
  image.image_mb = tc.machine.costs().tool_daemon_image_mb;
  image.factory = [&daemons](const std::vector<std::string>&) {
    return std::make_unique<KeeperBe>(&daemons);
  };
  tc.machine.install_program("keeper_be", std::move(image));

  bool done = false;
  Status status;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<core::FrontEnd>(self);
    ASSERT_TRUE(fe->init().is_ok());
    sid = fe->create_session().value;
    core::FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "keeper_be";
    cfg.launch_strategy = strategy;
    fe->launch_and_spawn(sid, rm::JobSpec{nnodes, tpn, "mpi_app", {}}, cfg,
                         [&](Status st) {
                           status = st;
                           done = true;
                         });
  });
  EXPECT_TRUE(tc.run_until([&] { return done; }, sim::seconds(600)));
  EXPECT_TRUE(status.is_ok()) << status.to_string();
}

/// Launches nnodes x tpn with `strategy` and checks that every daemon's
/// proctable() is a handle to one decoded body, equal to the FE's table.
void expect_daemons_share_one_table(int nnodes, int tpn,
                                    comm::LaunchStrategyKind strategy) {
  TestCluster tc(nnodes);
  std::shared_ptr<core::FrontEnd> fe;
  int sid = -1;
  std::vector<core::BackEnd*> daemons;
  launch_keepers(tc, nnodes, tpn, strategy, daemons, fe, sid);
  const core::Rpdtab* fe_table = fe->proctable(sid);
  ASSERT_NE(fe_table, nullptr);
  ASSERT_EQ(fe_table->size(), static_cast<std::size_t>(nnodes * tpn));
  ASSERT_EQ(daemons.size(), static_cast<std::size_t>(nnodes));
  const auto* body = &daemons.front()->proctable().hosts();
  for (const core::BackEnd* d : daemons) {
    EXPECT_EQ(&d->proctable().hosts(), body);
    EXPECT_EQ(d->proctable(), *fe_table);
  }
}

/// Launches nnodes x tpn with `strategy` and checks that the host list is
/// decoded once per RM launch (the job's and the daemons'), not once per
/// node daemon or daemon, and that every daemon holds that one list.
void expect_daemons_share_one_host_list(int nnodes, int tpn,
                                        comm::LaunchStrategyKind strategy) {
  TestCluster tc(nnodes);
  std::shared_ptr<core::FrontEnd> fe;
  int sid = -1;
  const std::uint64_t decodes_before = comm::HostList::decodes();
  std::vector<core::BackEnd*> daemons;
  launch_keepers(tc, nnodes, tpn, strategy, daemons, fe, sid);
  EXPECT_EQ(comm::HostList::decodes() - decodes_before, 2u);
  ASSERT_EQ(daemons.size(), static_cast<std::size_t>(nnodes));
  const comm::HostList& first = daemons.front()->iccl().params().hosts;
  ASSERT_EQ(first.size(), static_cast<std::size_t>(nnodes));
  EXPECT_EQ(first.names(), fe->proctable(sid)->hosts());
  for (core::BackEnd* d : daemons) {
    EXPECT_EQ(&d->iccl().params().hosts.names(), &first.names());
  }
}

TEST(LaunchSpawn, RmBulkDaemonsShareOneDecodedTable) {
  expect_daemons_share_one_table(64, 8, comm::LaunchStrategyKind::RmBulk);
}

TEST(LaunchSpawn, TreeRshDaemonsShareOneDecodedTable) {
  expect_daemons_share_one_table(64, 2, comm::LaunchStrategyKind::TreeRsh);
}

TEST(LaunchSpawn, RmBulkDaemonsShareOneHostList) {
  expect_daemons_share_one_host_list(64, 8, comm::LaunchStrategyKind::RmBulk);
}

TEST(LaunchSpawn, TreeRshDaemonsShareOneHostList) {
  expect_daemons_share_one_host_list(64, 2,
                                     comm::LaunchStrategyKind::TreeRsh);
}

/// Events a 64-node launched job and its daemons execute in 5 s of idle
/// simulated time after launchAndSpawn completes.
std::size_t idle_window_events(int tpn) {
  TestCluster tc(64);
  LaunchResult result;
  std::shared_ptr<core::FrontEnd> fe;
  tc.spawn_fe(make_launch_script(&result, 64, tpn, &fe));
  EXPECT_TRUE(tc.run_until([&] { return result.done; }));
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.proctable.size(), static_cast<std::size_t>(64 * tpn));
  const std::size_t before = tc.simulator.executed_events();
  tc.simulator.run(tc.simulator.now() + sim::seconds(5));
  return tc.simulator.executed_events() - before;
}

TEST(LaunchSpawn, IdleJobSchedulesNoAppEvents) {
  // Application state is a closed form of time: an idle job costs the
  // simulator nothing per task, so eight times the tasks run no more events.
  EXPECT_EQ(idle_window_events(1), idle_window_events(8));
}

}  // namespace
}  // namespace lmon
