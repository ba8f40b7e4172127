#include "ckpt/format.hpp"

#include <array>

#include "util/check.hpp"

namespace dpoaf::ckpt {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

// Tag, u64 payload size and u32 CRC: the fixed prefix of every section,
// and so the fewest bytes a section can take.
constexpr std::size_t kSectionPrefixBytes = 16;

using Tag = std::array<char, 4>;

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// ------------------------------------------------------------ reader ----

void ByteReader::need(std::size_t n) const {
  if (remaining() < n)
    throw CheckpointError("truncated checkpoint data in " + context_);
}

std::size_t ByteReader::count(std::uint64_t n, std::size_t elem_bytes) const {
  // Divide rather than multiply: n * elem_bytes could overflow on hostile
  // input.
  if (n > remaining() / elem_bytes)
    throw CheckpointError("truncated checkpoint data in " + context_);
  return static_cast<std::size_t>(n);
}

void ByteReader::expect_done() const {
  if (off_ != size_)
    throw CheckpointError("trailing bytes after " + context_ +
                          " (writer/reader layout mismatch)");
}

// ---------------------------------------------------------- sections ----

std::vector<std::uint8_t> pack_sections(const std::vector<Section>& sections) {
  ByteWriter w;
  w(std::to_array(kMagic), kSchemaVersion,
    static_cast<std::uint32_t>(sections.size()));
  for (const Section& s : sections) {
    DPOAF_CHECK_MSG(s.tag.size() == 4, "section tags are exactly 4 bytes");
    // Layout: tag, size, crc, payload — the CRC sits in the fixed-size
    // prefix so a truncated payload can never be mistaken for its CRC.
    w(Tag{s.tag[0], s.tag[1], s.tag[2], s.tag[3]},
      static_cast<std::uint64_t>(s.payload.size()),
      crc32(s.payload.data(), s.payload.size()));
    for (const std::uint8_t b : s.payload) w(b);
  }
  return w.take();
}

std::vector<Section> unpack_sections(const std::uint8_t* data,
                                     std::size_t size) {
  ByteReader r(data, size, "checkpoint header");
  Tag magic{};
  r(magic);
  if (magic != std::to_array(kMagic))
    throw CheckpointError("bad magic: not a dpoaf checkpoint file");
  std::uint32_t version = 0;
  r(version);
  if (version > kSchemaVersion)
    throw CheckpointError(
        "checkpoint schema version " + std::to_string(version) +
        " is newer than this build supports (" +
        std::to_string(kSchemaVersion) + ")");
  std::uint32_t count = 0;
  r(count);
  std::vector<Section> out(r.count(count, kSectionPrefixBytes));
  for (Section& s : out) {
    Tag tag{};
    std::uint64_t payload_size = 0;
    std::uint32_t stored_crc = 0;
    r(tag, payload_size, stored_crc);
    s.tag.assign(tag.begin(), tag.end());
    if (r.remaining() < payload_size)
      throw CheckpointError("truncated checkpoint file in section " + s.tag);
    s.payload.resize(static_cast<std::size_t>(payload_size));
    for (std::uint8_t& b : s.payload) r(b);
    const std::uint32_t actual_crc = crc32(s.payload.data(), s.payload.size());
    if (actual_crc != stored_crc)
      throw CheckpointError("CRC mismatch in section " + s.tag +
                            " (stored " + std::to_string(stored_crc) +
                            ", computed " + std::to_string(actual_crc) +
                            "): checkpoint is corrupted");
  }
  if (r.remaining() != 0)
    throw CheckpointError("trailing bytes after the last checkpoint section");
  return out;
}

}  // namespace dpoaf::ckpt
