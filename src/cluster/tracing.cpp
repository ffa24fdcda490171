#include "cluster/tracing.hpp"

#include <utility>

#include "cluster/machine.hpp"
#include "cluster/process.hpp"

namespace lmon::cluster {

TraceSession::TraceSession(Machine& machine, Pid tracer, Pid target,
                           std::function<void(const DebugEvent&)> handler)
    : machine_(machine),
      tracer_(tracer),
      target_(target),
      handler_(std::move(handler)) {}

Process* TraceSession::live_target() const {
  Process* t = machine_.find_process(target_);
  if (t == nullptr || t->state() == ProcState::Exited) return nullptr;
  return t;
}

void TraceSession::emit(const DebugEvent& ev) {
  if (!handler_) return;
  Machine& m = machine_;
  const Pid tracer_pid = tracer_;
  // Copy the handler: the session may be detached before delivery, but an
  // event already "in the kernel queue" still reaches the tracer.
  auto handler = handler_;
  m.sim().schedule(m.costs().trace_event_latency,
                   [&m, tracer_pid, handler, ev] {
                     Process* tr = m.find_process(tracer_pid);
                     if (tr == nullptr || tr->state() == ProcState::Exited) {
                       return;
                     }
                     tr->deliver([handler, ev] { handler(ev); });
                   });
}

void TraceSession::read_symbol(const std::string& name,
                               std::function<void(Status, Bytes)> cb) {
  Machine& m = machine_;
  const Pid tracer_pid = tracer_;
  const Pid target_pid = target_;

  Process* t = live_target();
  if (t == nullptr) {
    m.sim().schedule(0, [cb] { cb(Status(Rc::Edead, "target exited"), {}); });
    return;
  }
  const Bytes* sym = t->symbols().find(name);
  const std::size_t size = sym != nullptr ? sym->size() : 0;
  const CostModel& c = m.costs();
  const sim::Time cost =
      c.mem_read_base +
      static_cast<sim::Time>(static_cast<double>(size) / 1024.0 *
                             static_cast<double>(c.mem_read_per_kb));

  m.sim().schedule(cost, [&m, tracer_pid, target_pid, name, cb] {
    Process* tr = m.find_process(tracer_pid);
    if (tr == nullptr || tr->state() == ProcState::Exited) return;
    Process* tt = m.find_process(target_pid);
    if (tt == nullptr || tt->state() == ProcState::Exited) {
      tr->deliver([cb] { cb(Status(Rc::Edead, "target exited"), {}); });
      return;
    }
    // Snapshot at completion time, as a real PTRACE_PEEKDATA loop would see.
    const Bytes* data = tt->symbols().find(name);
    if (data == nullptr) {
      tr->deliver([cb, name] {
        cb(Status(Rc::Einval, "no such symbol: " + name), {});
      });
      return;
    }
    Bytes copy = *data;
    tr->deliver([cb, copy = std::move(copy)]() mutable {
      cb(Status::ok(), std::move(copy));
    });
  });
}

void TraceSession::write_symbol(const std::string& name, Bytes data,
                                std::function<void(Status)> cb) {
  Machine& m = machine_;
  const Pid tracer_pid = tracer_;
  const Pid target_pid = target_;
  const CostModel& c = m.costs();
  const sim::Time cost =
      c.mem_read_base +
      static_cast<sim::Time>(static_cast<double>(data.size()) / 1024.0 *
                             static_cast<double>(c.mem_read_per_kb));

  m.sim().schedule(cost, [&m, tracer_pid, target_pid, name,
                          data = std::move(data), cb]() mutable {
    Process* tr = m.find_process(tracer_pid);
    Process* tt = m.find_process(target_pid);
    if (tt == nullptr || tt->state() == ProcState::Exited) {
      if (tr != nullptr && tr->state() != ProcState::Exited) {
        tr->deliver([cb] { cb(Status(Rc::Edead, "target exited")); });
      }
      return;
    }
    tt->symbols().write(name, std::move(data));
    if (tr != nullptr && tr->state() != ProcState::Exited) {
      tr->deliver([cb] { cb(Status::ok()); });
    }
  });
}

void TraceSession::continue_target() {
  Process* t = live_target();
  if (t == nullptr || t->state() != ProcState::Stopped) return;
  t->set_state(ProcState::Running);
  std::function<void()> resume = std::move(t->pending_resume_);
  t->pending_resume_ = nullptr;
  t->flush_deferred();
  if (resume) t->post(0, std::move(resume));
}

void TraceSession::detach() {
  if (!attached_) return;
  attached_ = false;
  handler_ = nullptr;
  Process* t = live_target();
  if (t != nullptr && t->tracer_ == this) t->detach_tracer();
}

void TraceSession::kill_target() {
  Process* t = live_target();
  attached_ = false;
  handler_ = nullptr;
  if (t == nullptr) return;
  if (t->tracer_ == this) t->tracer_ = nullptr;
  // SIGKILL: the target dies regardless of stopped state; a stopped
  // target never resumes, so nothing deferred runs.
  t->exit(9);
}

}  // namespace lmon::cluster
