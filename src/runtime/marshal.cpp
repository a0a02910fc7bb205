#include "runtime/marshal.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/assert.hpp"

namespace wishbone::runtime {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& in, std::size_t at) {
  return static_cast<std::uint32_t>(in[at]) |
         (static_cast<std::uint32_t>(in[at + 1]) << 8) |
         (static_cast<std::uint32_t>(in[at + 2]) << 16) |
         (static_cast<std::uint32_t>(in[at + 3]) << 24);
}

}  // namespace

std::vector<std::uint8_t> marshal(const Frame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(5 + f.wire_bytes());
  put_u32(out, static_cast<std::uint32_t>(f.size()));
  out.push_back(static_cast<std::uint8_t>(f.encoding()));
  if (f.encoding() == Encoding::kInt16) {
    for (float x : f.samples()) {
      const double clamped =
          std::clamp(static_cast<double>(std::nearbyint(x)), -32768.0, 32767.0);
      const auto v = static_cast<std::int16_t>(clamped);
      const auto u = static_cast<std::uint16_t>(v);
      out.push_back(static_cast<std::uint8_t>(u & 0xff));
      out.push_back(static_cast<std::uint8_t>(u >> 8));
    }
  } else {
    for (float x : f.samples()) {
      std::uint32_t bits = 0;
      static_assert(sizeof bits == sizeof x);
      std::memcpy(&bits, &x, sizeof bits);
      put_u32(out, bits);
    }
  }
  return out;
}

Frame unmarshal(const std::vector<std::uint8_t>& bytes) {
  std::vector<float> samples;
  const Encoding enc = unmarshal_into(bytes, samples);
  return Frame(std::move(samples), enc);
}

Encoding unmarshal_into(const std::vector<std::uint8_t>& bytes,
                        std::vector<float>& samples) {
  WB_REQUIRE(bytes.size() >= 5, "unmarshal: truncated header");
  const std::uint32_t count = get_u32(bytes, 0);
  const auto enc_raw = bytes[4];
  WB_REQUIRE(enc_raw == static_cast<std::uint8_t>(Encoding::kInt16) ||
                 enc_raw == static_cast<std::uint8_t>(Encoding::kFloat32),
             "unmarshal: unknown encoding");
  const Encoding enc = static_cast<Encoding>(enc_raw);
  const std::size_t value_bytes = static_cast<std::size_t>(enc);
  WB_REQUIRE(bytes.size() == 5 + static_cast<std::size_t>(count) * value_bytes,
             "unmarshal: payload size mismatch");
  samples.resize(count);
  if (enc == Encoding::kInt16) {
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t at = 5 + 2 * static_cast<std::size_t>(i);
      const auto u = static_cast<std::uint16_t>(
          bytes[at] | (static_cast<std::uint16_t>(bytes[at + 1]) << 8));
      samples[i] = static_cast<float>(static_cast<std::int16_t>(u));
    }
  } else {
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t bits = get_u32(bytes, 5 + 4 * static_cast<std::size_t>(i));
      float x = 0.0f;
      std::memcpy(&x, &bits, sizeof x);
      samples[i] = x;
    }
  }
  return enc;
}

std::vector<std::vector<std::uint8_t>> packetize(
    const std::vector<std::uint8_t>& bytes, std::size_t payload_bytes) {
  WB_REQUIRE(payload_bytes >= 1, "packetize: payload must be >= 1 byte");
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t at = 0; at < bytes.size(); at += payload_bytes) {
    const std::size_t n = std::min(payload_bytes, bytes.size() - at);
    out.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     bytes.begin() + static_cast<std::ptrdiff_t>(at + n));
  }
  if (out.empty()) out.emplace_back();  // empty frame -> one empty packet
  return out;
}

std::vector<std::uint8_t> reassemble(
    const std::vector<std::vector<std::uint8_t>>& packets) {
  std::vector<std::uint8_t> out;
  for (const auto& p : packets) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace wishbone::runtime
