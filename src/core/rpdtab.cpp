#include "core/rpdtab.hpp"

#include <algorithm>
#include <unordered_map>

#include "rm/apai.hpp"
#include "rm/protocol.hpp"

namespace lmon::core {

/// Appends entries to a table, extending the last run when it can and
/// interning names through a lookup whose keys view the caller's storage,
/// so adding an entry allocates nothing beyond amortized column growth and
/// one lookup node per distinct name.
class Rpdtab::Builder {
 public:
  Builder(Rpdtab& t, std::size_t expected_entries) : t_(t) {
    t_.pids_.reserve(expected_entries);
  }

  /// `host` and `exe` must stay valid for the builder's lifetime.
  void add(std::string_view host, std::string_view exe, cluster::Pid pid,
           std::int32_t rank) {
    t_.pids_.push_back(pid);
    if (!t_.runs_.empty()) {
      Run& last = t_.runs_.back();
      if (static_cast<std::int64_t>(last.rank) + last.count == rank &&
          t_.hosts_[last.host] == host && t_.exes_[last.exe] == exe) {
        last.count += 1;
        return;
      }
    }
    t_.runs_.push_back(Run{intern(host, t_.hosts_, host_ids_),
                           intern(exe, t_.exes_, exe_ids_), rank, 1});
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

  Rpdtab& t_;
  Ids host_ids_;
  Ids exe_ids_;
};

Rpdtab::Rpdtab(const std::vector<rm::TaskDesc>& entries) {
  Builder b(*this, entries.size());
  for (const auto& e : entries) b.add(e.host, e.executable, e.pid, e.rank);
}

void Rpdtab::append_run(const Run& run, std::size_t first_pid,
                        std::vector<rm::TaskDesc>& out) const {
  for (std::uint32_t i = 0; i < run.count; ++i) {
    out.push_back({hosts_[run.host], exes_[run.exe], pids_[first_pid + i],
                   static_cast<std::int32_t>(run.rank + i)});
  }
}

std::vector<rm::TaskDesc> Rpdtab::entries() const {
  std::vector<rm::TaskDesc> out;
  out.reserve(size());
  std::size_t pid = 0;
  for (const Run& run : runs_) {
    append_run(run, pid, out);
    pid += run.count;
  }
  return out;
}

std::vector<rm::TaskDesc> Rpdtab::entries_for_host(
    std::string_view host) const {
  std::vector<rm::TaskDesc> out;
  const auto it = std::find(hosts_.begin(), hosts_.end(), host);
  if (it == hosts_.end()) return out;
  const auto id = static_cast<std::uint32_t>(it - hosts_.begin());
  std::size_t pid = 0;
  for (const Run& run : runs_) {
    if (run.host == id) append_run(run, pid, out);
    pid += run.count;
  }
  return out;
}

Bytes Rpdtab::pack() const {
  return rm::apai::encode_proctable(entries());
}

std::optional<Rpdtab> Rpdtab::unpack(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const auto count = r.u32();
  if (!count) return std::nullopt;
  Rpdtab t;
  // The count is untrusted: reserve no more than the bytes can hold.
  Builder b(t, std::min<std::size_t>(*count,
                                     r.remaining() / rm::kTaskDescFixedBytes));
  for (std::uint32_t i = 0; i < *count; ++i) {
    // Names are viewed in place: reading an entry allocates nothing.
    const auto host = r.str_view();
    const auto exe = r.str_view();
    const auto pid = r.i64();
    const auto rank = r.i32();
    if (!host || !exe || !pid || !rank) return std::nullopt;
    b.add(*host, *exe, *pid, *rank);
  }
  return t;
}

}  // namespace lmon::core
