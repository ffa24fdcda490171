#include "comm/host_list.hpp"

#include "common/argparse.hpp"
#include "common/shared_decode.hpp"

namespace lmon::comm {

namespace {
thread_local std::uint64_t decode_count = 0;
}  // namespace

SharedDecodes<HostList::Body>& HostList::shared() {
  // A launch's list is remembered under its two forms; a few launches (or
  // sessions) are alive at once.
  thread_local SharedDecodes<Body> cache(8);
  return cache;
}

const HostList::Body HostList::kEmpty{{}};

HostList::Body::Body(std::vector<std::string> n) : names(std::move(n)) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(names.size()));
  for (const auto& h : names) w.str(h);
  wire = std::move(w).take();
  csv = join_csv(names);
  index.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& h = names[i];
    index.try_emplace(h, static_cast<std::uint32_t>(i));
    if (h.empty() || h.find(',') != std::string::npos) csv_exact = false;
  }
}

HostList::HostList(std::vector<std::string> names)
    : body_(std::make_shared<const Body>(std::move(names))) {}

std::optional<std::size_t> HostList::index_of(std::string_view host) const {
  const auto& index = body().index;
  const auto it = index.find(host);
  if (it == index.end()) return std::nullopt;
  return it->second;
}

std::uint64_t HostList::decodes() noexcept { return decode_count; }

HostList HostList::decoded(std::vector<std::string> names) {
  decode_count += 1;
  auto body = std::make_shared<const Body>(std::move(names));
  shared().remember(body->wire, body);
  if (body->csv_exact) shared().remember(as_bytes(body->csv), body);
  return HostList(std::move(body));
}

std::optional<HostList> HostList::read(ByteReader& r) {
  const auto section = r.rest();
  const auto count = r.u32();
  if (!count) return std::nullopt;
  for (std::uint32_t i = 0; i < *count; ++i) {
    if (!r.str_view()) return std::nullopt;
  }
  const auto bytes = section.first(section.size() - r.rest().size());
  if (auto body = shared().find(bytes)) return HostList(std::move(body));

  ByteReader names_reader(bytes.subspan(4));
  std::vector<std::string> names;
  names.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    names.emplace_back(*names_reader.str_view());
  }
  return decoded(std::move(names));
}

HostList HostList::from_csv(std::string_view csv) {
  if (auto body = shared().find(as_bytes(csv))) return HostList(std::move(body));
  return decoded(split_csv(csv));
}

}  // namespace lmon::comm
