// rpdtab.hpp - the Remote Process Descriptor Table.
//
// LaunchMON's portable view of "which task runs where": hostname, executable
// and pid per MPI task (paper §2). Fetched by the engine from the RM
// launcher's address space, shipped FE-ward over LMONP, broadcast to daemons
// during the handshake. Its linear size in job tasks is the paper's Region B
// term, so pack() produces real bytes.
//
// Every daemon decodes the full table, so the in-memory form is compact:
// host and executable names are interned once, entries are held as runs of
// contiguous ranks on one host running one executable, and pids sit in
// their own column. A block-distributed n x tpn job is n runs plus n*tpn
// pids. The wire format is unchanged: pack() emits exactly
// rm::apai::encode_proctable(entries()).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "rm/types.hpp"

namespace lmon::core {

class Rpdtab {
 public:
  Rpdtab() = default;
  explicit Rpdtab(const std::vector<rm::TaskDesc>& entries);

  /// Every entry in table order, built from the runs.
  [[nodiscard]] std::vector<rm::TaskDesc> entries() const;
  [[nodiscard]] std::size_t size() const noexcept { return pids_.size(); }
  [[nodiscard]] bool empty() const noexcept { return pids_.empty(); }

  /// Unique hosts in first-appearance (rank) order: the node set a tool
  /// needs daemons on.
  [[nodiscard]] const std::vector<std::string>& hosts() const noexcept {
    return hosts_;
  }

  /// Entries co-located on `host` - what a back-end daemon should attach to.
  [[nodiscard]] std::vector<rm::TaskDesc> entries_for_host(
      std::string_view host) const;

  [[nodiscard]] Bytes pack() const;
  /// Decodes a packed table in one bounds-checked pass; nullopt on any
  /// malformed input.
  static std::optional<Rpdtab> unpack(std::span<const std::uint8_t> data);

  /// The proctable blob format used in the launcher's address space is the
  /// same; this adapts from the APAI layer.
  static std::optional<Rpdtab> from_proctable_blob(const Bytes& blob) {
    return unpack(blob);
  }

  /// The layout is canonical (names interned in first-appearance order,
  /// runs maximal), so equal tables have equal members.
  friend bool operator==(const Rpdtab& a, const Rpdtab& b) = default;

 private:
  /// `count` entries with ranks rank, rank+1, ... on one host running one
  /// executable; their pids are the next `count` slots of pids_.
  struct Run {
    std::uint32_t host = 0;  ///< index into hosts_
    std::uint32_t exe = 0;   ///< index into exes_
    std::int32_t rank = 0;
    std::uint32_t count = 0;
    friend bool operator==(const Run&, const Run&) = default;
  };
  class Builder;

  void append_run(const Run& run, std::size_t first_pid,
                  std::vector<rm::TaskDesc>& out) const;

  std::vector<std::string> hosts_;
  std::vector<std::string> exes_;
  std::vector<Run> runs_;
  std::vector<cluster::Pid> pids_;
};

}  // namespace lmon::core
