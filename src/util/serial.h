// Minimal binary (de)serialisation helpers for pipeline artifacts.
//
// The artifact store persists campaign ground truth and prepared datasets
// as raw little-endian host dumps: PODs verbatim, vectors as a u64 length
// followed by the elements. Floating-point values round-trip bit-exactly,
// which the engine's warm-cache == cold-run guarantee depends on. Integrity
// against truncation/corruption is handled one level up by the artifact
// store's content checksum, so readers here only check stream health.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/check.h"

namespace fmnet::util {

class BinWriter {
 public:
  explicit BinWriter(std::ostream& out) : out_(out) {}

  template <class T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  template <class T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(static_cast<std::uint64_t>(v.size()));
    out_.write(reinterpret_cast<const char*>(v.data()),
               static_cast<std::streamsize>(v.size() * sizeof(T)));
  }

  void str(const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    out_.write(s.data(), static_cast<std::streamsize>(s.size()));
  }

  bool good() const { return out_.good(); }

 private:
  std::ostream& out_;
};

class BinReader {
 public:
  explicit BinReader(std::istream& in) : in_(in) {}

  template <class T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    in_.read(reinterpret_cast<char*>(&v), sizeof(T));
    FMNET_CHECK(in_.good(), "truncated artifact stream");
    return v;
  }

  /// The length prefix is untrusted, so elements are read in chunks of at
  /// most kChunkBytes: a forged length fails on the first short read, with
  /// at most one chunk allocated — never the 2^32 elements it claims.
  template <class T>
  std::vector<T> vec(std::uint64_t max_elems = (1ULL << 32)) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = pod<std::uint64_t>();
    FMNET_CHECK_LE(n, max_elems);
    constexpr std::uint64_t kChunk =
        std::max<std::uint64_t>(1, kChunkBytes / sizeof(T));
    std::vector<T> v;
    while (v.size() < n) {
      const std::size_t have = v.size();
      v.resize(have + static_cast<std::size_t>(std::min(n - have, kChunk)));
      in_.read(reinterpret_cast<char*>(v.data() + have),
               static_cast<std::streamsize>((v.size() - have) * sizeof(T)));
      FMNET_CHECK(in_.good(), "truncated artifact stream");
    }
    return v;
  }

  std::string str(std::uint64_t max_len = (1ULL << 24)) {
    const auto n = pod<std::uint64_t>();
    FMNET_CHECK_LE(n, max_len);
    std::string s(static_cast<std::size_t>(n), '\0');
    in_.read(s.data(), static_cast<std::streamsize>(s.size()));
    FMNET_CHECK(in_.good() || n == 0, "truncated artifact stream");
    return s;
  }

 private:
  static constexpr std::uint64_t kChunkBytes = 1ULL << 20;

  std::istream& in_;
};

}  // namespace fmnet::util
