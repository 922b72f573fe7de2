#include "util/hash.h"

#include <cstdio>

namespace fmnet::util {

namespace {
constexpr std::uint64_t kPrime = 0x100000001b3ULL;

std::uint64_t fnv_step(std::uint64_t h, const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kPrime;
  }
  return h;
}

std::string hex32(std::uint64_t a, std::uint64_t b) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return std::string(buf);
}
}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  return fnv_step(seed, bytes.data(), bytes.size());
}

std::string stable_key(std::string_view bytes) {
  StreamHasher h;
  h.update(bytes.data(), bytes.size());
  return h.hex();
}

void StreamHasher::update(const char* data, std::size_t n) {
  // Both lanes advance in one pass over the bytes, so their two
  // multiply chains overlap instead of running back to back; the digest
  // is the same as hashing each lane separately.
  std::uint64_t a = a_;
  std::uint64_t b = b_;
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<unsigned char>(data[i]);
    a = (a ^ c) * kPrime;
    b = (b ^ c) * kPrime;
  }
  a_ = a;
  b_ = b;
}

std::string StreamHasher::hex() const { return hex32(a_, b_); }

}  // namespace fmnet::util
