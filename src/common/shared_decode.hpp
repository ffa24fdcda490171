// shared_decode.hpp - one decode shared by every holder of equal bytes.
//
// Many processes of one simulated launch receive the same bytes (the
// RPDTAB, the launch's host list) and each would decode its own copy. The
// decoders are pure functions of their input, so a value decoded from
// bytes equal to those of a value still alive can be shared instead.
// SharedDecodes remembers live immutable values by the exact bytes they
// decode from. Entries hold no strong reference: a value lives as long as
// its last holder, and afterwards its bytes decode afresh.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace lmon {

template <typename T>
class SharedDecodes {
 public:
  /// `capacity` bounds the remembered entries (and so the bytes kept for
  /// comparison); the oldest entry makes room for a new one.
  explicit SharedDecodes(std::size_t capacity) : capacity_(capacity) {}

  /// The live value remembered under bytes equal to `bytes` (same size and
  /// a full memcmp), or null.
  [[nodiscard]] std::shared_ptr<const T> find(
      std::span<const std::uint8_t> bytes) {
    std::erase_if(entries_, [](const Entry& e) { return e.value.expired(); });
    for (const Entry& e : entries_) {
      if (e.bytes.size() == bytes.size() &&
          std::memcmp(e.bytes.data(), bytes.data(), bytes.size()) == 0) {
        return e.value.lock();
      }
    }
    return nullptr;
  }

  /// Remembers `value` as what `bytes` decode to. Only a successful decode
  /// of exactly these bytes may be remembered.
  void remember(std::span<const std::uint8_t> bytes,
                const std::shared_ptr<const T>& value) {
    if (entries_.size() == capacity_) entries_.erase(entries_.begin());
    entries_.push_back({Bytes(bytes.begin(), bytes.end()), value});
  }

 private:
  struct Entry {
    Bytes bytes;
    std::weak_ptr<const T> value;
  };
  std::size_t capacity_;
  std::vector<Entry> entries_;
};

}  // namespace lmon
