#include "src/util/serde.hpp"

namespace bridge::util {

void Writer::bytes(std::span<const std::byte> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  raw({p, s.size()});
}

void Writer::raw(std::span<const std::byte> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::span<const std::byte> Reader::take(std::size_t n) {
  if (n > remaining()) {
    throw StatusError(corrupt("serde: read past end of buffer"));
  }
  auto span = data_.subspan(pos_, n);
  pos_ += n;
  return span;
}

std::vector<std::byte> Reader::bytes() {
  std::uint32_t n = u32();
  auto span = take(n);
  return {span.begin(), span.end()};
}

std::uint32_t Reader::count(std::size_t min_elem_bytes) {
  std::uint32_t n = u32();
  if (static_cast<std::uint64_t>(n) * min_elem_bytes > remaining()) {
    throw StatusError(corrupt("serde: element count exceeds payload"));
  }
  return n;
}

std::string Reader::str() {
  std::uint32_t n = u32();
  auto span = take(n);
  return {reinterpret_cast<const char*>(span.data()), span.size()};
}

}  // namespace bridge::util
