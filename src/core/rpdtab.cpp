#include "core/rpdtab.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/shared_decode.hpp"
#include "rm/apai.hpp"
#include "rm/protocol.hpp"

namespace lmon::core {

namespace {
thread_local std::uint64_t decode_count = 0;
}  // namespace

const Rpdtab::Body Rpdtab::kEmpty{};

/// Appends entries to a body, extending the last run when it can and
/// interning names through a lookup whose keys view the caller's storage,
/// so adding an entry allocates nothing beyond amortized column growth and
/// one lookup node per distinct name.
class Rpdtab::Builder {
 public:
  Builder(Body& b, std::size_t expected_entries) : b_(b) {
    b_.pids.reserve(expected_entries);
  }

  /// `host` and `exe` must stay valid for the builder's lifetime.
  void add(std::string_view host, std::string_view exe, cluster::Pid pid,
           std::int32_t rank) {
    b_.pids.push_back(pid);
    if (!b_.runs.empty()) {
      Run& last = b_.runs.back();
      if (static_cast<std::int64_t>(last.rank) + last.count == rank &&
          b_.hosts[last.host] == host && b_.exes[last.exe] == exe) {
        last.count += 1;
        return;
      }
    }
    b_.runs.push_back(Run{intern(host, b_.hosts, host_ids_),
                          intern(exe, b_.exes, exe_ids_), rank, 1});
  }

 private:
  using Ids = std::unordered_map<std::string_view, std::uint32_t>;

  /// Id of `name`, adding it if new.
  static std::uint32_t intern(std::string_view name,
                              std::vector<std::string>& names, Ids& ids) {
    const auto [it, fresh] =
        ids.try_emplace(name, static_cast<std::uint32_t>(names.size()));
    if (fresh) names.emplace_back(name);
    return it->second;
  }

  Body& b_;
  Ids host_ids_;
  Ids exe_ids_;
};

Rpdtab::Rpdtab(const std::vector<rm::TaskDesc>& entries) {
  auto body = std::make_shared<Body>();
  Builder b(*body, entries.size());
  for (const auto& e : entries) b.add(e.host, e.executable, e.pid, e.rank);
  body_ = std::move(body);
}

void Rpdtab::append_run(const Run& run, std::size_t first_pid,
                        std::vector<rm::TaskDesc>& out) const {
  const Body& b = body();
  for (std::uint32_t i = 0; i < run.count; ++i) {
    out.push_back({b.hosts[run.host], b.exes[run.exe], b.pids[first_pid + i],
                   static_cast<std::int32_t>(run.rank + i)});
  }
}

std::vector<rm::TaskDesc> Rpdtab::entries() const {
  std::vector<rm::TaskDesc> out;
  out.reserve(size());
  std::size_t pid = 0;
  for (const Run& run : body().runs) {
    append_run(run, pid, out);
    pid += run.count;
  }
  return out;
}

std::vector<rm::TaskDesc> Rpdtab::entries_for_host(
    std::string_view host) const {
  std::vector<rm::TaskDesc> out;
  const Body& b = body();
  const auto it = std::find(b.hosts.begin(), b.hosts.end(), host);
  if (it == b.hosts.end()) return out;
  const auto id = static_cast<std::uint32_t>(it - b.hosts.begin());
  std::size_t pid = 0;
  for (const Run& run : b.runs) {
    if (run.host == id) append_run(run, pid, out);
    pid += run.count;
  }
  return out;
}

Bytes Rpdtab::pack() const {
  return rm::apai::encode_proctable(entries());
}

bool operator==(const Rpdtab& a, const Rpdtab& b) {
  return a.body_ == b.body_ || a.body() == b.body();
}

std::uint64_t Rpdtab::decodes() noexcept { return decode_count; }

std::optional<Rpdtab> Rpdtab::unpack(std::span<const std::uint8_t> data) {
  // Distinct live tables remembered per thread. A session holds a few at
  // once (its proctable and daemon table, another session's); the bound
  // only caps the bytes kept for comparison.
  thread_local SharedDecodes<Body> cache(4);
  if (auto body = cache.find(data)) return Rpdtab(std::move(body));

  decode_count += 1;
  ByteReader r(data);
  const auto count = r.u32();
  if (!count) return std::nullopt;
  auto body = std::make_shared<Body>();
  // The count is untrusted: reserve no more than the bytes can hold.
  Builder b(*body, std::min<std::size_t>(
                       *count, r.remaining() / rm::kTaskDescFixedBytes));
  for (std::uint32_t i = 0; i < *count; ++i) {
    // Names are viewed in place: reading an entry allocates nothing.
    const auto host = r.str_view();
    const auto exe = r.str_view();
    const auto pid = r.i64();
    const auto rank = r.i32();
    if (!host || !exe || !pid || !rank) return std::nullopt;
    b.add(*host, *exe, *pid, *rank);
  }
  std::shared_ptr<const Body> shared = std::move(body);
  cache.remember(data, shared);
  return Rpdtab(std::move(shared));
}

}  // namespace lmon::core
