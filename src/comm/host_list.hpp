// host_list.hpp - the rank-ordered host list of one launch, shared.
//
// Every daemon of a launch needs the full host list (to find its fabric
// parent), so it travels to each of them: inside every node daemon's
// TreeLaunchReq and on every daemon's argv as "--lmon-hosts=a,b,c". A
// HostList is a handle to one immutable body holding the names, both wire
// forms and a name index, so holders of equal lists share one body and one
// decode. The bytes on the wire and in argv are unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"

namespace lmon {
template <typename T>
class SharedDecodes;
}  // namespace lmon

namespace lmon::comm {

class HostList {
 public:
  HostList() = default;
  HostList(std::vector<std::string> names);  // NOLINT: a list of names
  HostList(std::initializer_list<std::string> names)
      : HostList(std::vector<std::string>(names)) {}

  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return body().names;
  }
  [[nodiscard]] std::size_t size() const noexcept { return names().size(); }
  [[nodiscard]] bool empty() const noexcept { return names().empty(); }
  [[nodiscard]] const std::string& operator[](std::size_t i) const {
    return names()[i];
  }
  [[nodiscard]] const std::string& at(std::size_t i) const {
    return names().at(i);
  }
  [[nodiscard]] auto begin() const noexcept { return names().begin(); }
  [[nodiscard]] auto end() const noexcept { return names().end(); }

  /// Position of the first entry equal to `host`.
  [[nodiscard]] std::optional<std::size_t> index_of(
      std::string_view host) const;

  /// The argv form: names joined by commas.
  [[nodiscard]] const std::string& csv() const noexcept { return body().csv; }

  /// Appends the wire form: u32 count, then each name length-prefixed.
  void write(ByteWriter& w) const { w.raw(body().wire); }

  /// Reads the wire form, or nullopt on malformed input. Walks the length
  /// prefixes without allocating; bytes equal to those of a list alive on
  /// this thread (in either form) return its body, else they are decoded.
  static std::optional<HostList> read(ByteReader& r);

  /// Parses the argv form (split_csv: empty items are skipped), sharing a
  /// live body the same way read() does.
  static HostList from_csv(std::string_view csv);

  /// Full decodes read() and from_csv() have run on the calling thread.
  [[nodiscard]] static std::uint64_t decodes() noexcept;

  friend bool operator==(const HostList& a, const HostList& b) {
    return a.body_ == b.body_ || a.names() == b.names();
  }
  friend bool operator==(const HostList& a,
                         const std::vector<std::string>& b) {
    return a.names() == b;
  }

 private:
  struct Body {
    explicit Body(std::vector<std::string> n);
    std::vector<std::string> names;
    Bytes wire;
    std::string csv;
    std::unordered_map<std::string_view, std::uint32_t> index;
    /// from_csv(csv) gives `names` back: no name is empty or has a comma.
    bool csv_exact = true;
  };

  explicit HostList(std::shared_ptr<const Body> body)
      : body_(std::move(body)) {}
  [[nodiscard]] const Body& body() const noexcept {
    return body_ ? *body_ : kEmpty;
  }
  /// Shares `names` as a new body under both of its wire forms.
  static HostList decoded(std::vector<std::string> names);
  static SharedDecodes<Body>& shared();

  static const Body kEmpty;
  std::shared_ptr<const Body> body_;  ///< null for an empty list
};

}  // namespace lmon::comm
