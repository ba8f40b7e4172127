// Low-level binary checkpoint framing: one type-driven little-endian
// codec, CRC32-protected named sections, and the file header (magic +
// schema version) every .dpoaf checkpoint starts with.
//
// The byte-level layout is specified normatively in
// docs/CHECKPOINT_FORMAT.md; this header is the single implementation of
// its encoding rules. Everything here is deliberately dependency-free
// (util/check only) so any subsystem can serialize into the same
// container.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace dpoaf::ckpt {

/// Thrown on any malformed, truncated, corrupted, or incompatible
/// checkpoint input. The message always names the failing section or
/// field so operators can tell CRC damage from version skew at a glance.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// File magic: the first four bytes of every checkpoint file.
inline constexpr char kMagic[4] = {'D', 'P', 'A', 'F'};

/// Schema version written by this build. Readers reject files with a
/// *newer* version (see docs/CHECKPOINT_FORMAT.md "Versioning rules").
inline constexpr std::uint32_t kSchemaVersion = 1;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes.
/// crc32("123456789") == 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Field list of a record type stored on the wire. Specialize with
/// `static void fields(auto& io, auto& r) { io(r.a, r.b, ...); }`, the
/// fields in wire order; the same list then encodes and decodes.
template <class T>
struct Record;

namespace wire {

/// std::array and std::pair: their elements back to back, no prefix.
template <class T>
concept TupleLike = requires { std::tuple_size<T>::value; };

/// std::string and std::vector: u64 element count, then the elements.
template <class T>
concept Sized = requires(T& t) {
  t.resize(std::size_t{});
  t.begin();
};

/// Fixed-width scalars: integers and enums little-endian at sizeof(T),
/// floating point as the same-width integer holding its bit pattern.
template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

template <class T>
using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

/// The fewest bytes one element of T can take on the wire: the count
/// check's divisor, so a count the payload cannot hold fails before any
/// allocation.
template <class T>
inline constexpr std::size_t kMinBytes = Scalar<T> ? sizeof(T) : 1;

}  // namespace wire

/// Append-only encoder. `w(a, b, ...)` writes each value by its type (see
/// wire:: above), so payloads round-trip bit-exactly — the property the
/// resume tests depend on.
class ByteWriter {
 public:
  template <class... Ts>
  void operator()(const Ts&... values) {
    (put(values), ...);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_floating_point_v<T>) {
      put(std::bit_cast<wire::Bits<T>>(v));
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      const auto u = static_cast<std::make_unsigned_t<T>>(v);
      for (std::size_t i = 0; i < sizeof(T); ++i)
        buf_.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
    } else if constexpr (wire::TupleLike<T>) {
      std::apply([this](const auto&... xs) { (put(xs), ...); }, v);
    } else if constexpr (wire::Sized<T>) {
      put(static_cast<std::uint64_t>(v.size()));
      for (const auto& x : v) put(x);
    } else {
      Record<T>::fields(*this, v);
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked decoder over a section payload: `r(a, b, ...)` reads
/// each value in place by its type. Every overrun throws CheckpointError
/// naming the context passed to the constructor, so a truncated section
/// is reported as such rather than read as garbage.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size, std::string context)
      : data_(data), size_(size), context_(std::move(context)) {}

  template <class... Ts>
  void operator()(Ts&... values) {
    (get(values), ...);
  }

  /// `n` as a size, once the remaining bytes can hold `n` elements of at
  /// least `elem_bytes` each; throws CheckpointError otherwise. Every
  /// count read from the file passes here before anything is allocated.
  [[nodiscard]] std::size_t count(std::uint64_t n,
                                  std::size_t elem_bytes) const;

  [[nodiscard]] std::size_t remaining() const { return size_ - off_; }
  /// Assert the payload was consumed exactly — trailing bytes mean the
  /// writer and reader disagree about the section layout.
  void expect_done() const;

 private:
  template <class T>
  void get(T& v) {
    if constexpr (std::is_floating_point_v<T>) {
      wire::Bits<T> bits = 0;
      get(bits);
      v = std::bit_cast<T>(bits);
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u{};
      get(u);
      v = static_cast<T>(u);
    } else if constexpr (std::is_integral_v<T>) {
      using U = std::make_unsigned_t<T>;
      need(sizeof(T));
      U u = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i)
        u = static_cast<U>(u | static_cast<U>(U{data_[off_ + i]} << (8 * i)));
      off_ += sizeof(T);
      v = static_cast<T>(u);
    } else if constexpr (wire::TupleLike<T>) {
      std::apply([this](auto&... xs) { (get(xs), ...); }, v);
    } else if constexpr (wire::Sized<T>) {
      std::uint64_t n = 0;
      get(n);
      v.resize(count(n, wire::kMinBytes<typename T::value_type>));
      for (auto& x : v) get(x);
    } else {
      Record<T>::fields(*this, v);
    }
  }

  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  std::string context_;
};

/// One named, CRC-protected unit of a checkpoint file. Tags are exactly
/// four ASCII characters (e.g. "META", "WPOL").
struct Section {
  std::string tag;
  std::vector<std::uint8_t> payload;
};

/// Assemble a complete checkpoint image: header (magic, version, section
/// count) followed by each section as tag + u64 payload size + payload +
/// CRC32(payload).
[[nodiscard]] std::vector<std::uint8_t> pack_sections(
    const std::vector<Section>& sections);

/// Parse and validate a checkpoint image: checks magic, rejects files
/// whose schema version is newer than kSchemaVersion, bounds-checks every
/// section, and verifies every payload CRC. Throws CheckpointError.
[[nodiscard]] std::vector<Section> unpack_sections(const std::uint8_t* data,
                                                   std::size_t size);

}  // namespace dpoaf::ckpt
