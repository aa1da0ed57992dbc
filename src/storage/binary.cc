#include "storage/binary.h"

#include <cstdio>
#include <cstring>

#include "common/strings.h"
#include "drivers/extents.h"
#include "dtd/dtd.h"

namespace cxml::storage {

namespace {

constexpr char kMagic[4] = {'C', 'X', 'G', '1'};
constexpr uint32_t kFormatVersion = 1;

/// Little-endian byte writer.
class ByteWriter {
 public:
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  void Str(std::string_view s) {
    U64(s.size());
    out_.append(s);
  }
  void Raw(const char* data, size_t n) { out_.append(data, n); }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian reader.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint32_t> U32() {
    if (pos_ + 4 > data_.size()) return Eof();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(
               static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    if (pos_ + 8 > data_.size()) return Eof();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  Result<std::string> Str() {
    CXML_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > data_.size() - pos_) return Eof();
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t Remaining() const { return data_.size() - pos_; }

 private:
  Status Eof() const {
    return status::ParseError(
        "truncated GODDAG snapshot (unexpected end of data)");
  }
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::string> Save(const goddag::Goddag& g) {
  if (g.cmh() == nullptr) {
    return status::FailedPrecondition(
        "Save requires a GODDAG with a bound CMH (the snapshot embeds "
        "the hierarchy DTDs)");
  }
  ByteWriter w;
  w.Raw(kMagic, 4);
  w.U32(kFormatVersion);
  w.Str(g.root_tag());
  w.Str(g.content());
  w.U32(static_cast<uint32_t>(g.num_hierarchies()));
  for (goddag::HierarchyId h = 0; h < g.num_hierarchies(); ++h) {
    const cmh::Hierarchy& hierarchy = g.cmh()->hierarchy(h);
    w.Str(hierarchy.name);
    w.Str(hierarchy.dtd.ToString());
  }
  std::vector<drivers::LogicalElement> elements =
      drivers::ExtractExtents(g);
  w.U64(elements.size());
  for (const auto& el : elements) {
    w.U32(el.hierarchy);
    w.Str(el.tag);
    w.U32(static_cast<uint32_t>(el.attrs.size()));
    for (const auto& a : el.attrs) {
      w.Str(a.name);
      w.Str(a.value);
    }
    w.U64(el.chars.begin);
    w.U64(el.chars.end);
  }
  return w.Take();
}

Result<LoadedGoddag> Load(std::string_view bytes) {
  if (bytes.size() < 8 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return status::ParseError(
        "not a GODDAG snapshot (bad magic; expected 'CXG1')");
  }
  ByteReader r(bytes.substr(4));
  CXML_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kFormatVersion) {
    return status::Unimplemented(StrFormat(
        "GODDAG snapshot version %u is not supported (this build reads "
        "version %u)",
        version, kFormatVersion));
  }
  CXML_ASSIGN_OR_RETURN(std::string root_tag, r.Str());
  CXML_ASSIGN_OR_RETURN(std::string content, r.Str());
  CXML_ASSIGN_OR_RETURN(uint32_t num_h, r.U32());
  // Every hierarchy costs at least two length-prefixed strings (16
  // bytes of headers); a count the remaining bytes cannot possibly
  // hold is hostile, not truncated — reject before looping.
  if (num_h > r.Remaining() / 16 + 1) {
    return status::ParseError("snapshot hierarchy count exceeds data size");
  }

  auto cmh = std::make_shared<cmh::ConcurrentHierarchies>(root_tag);
  for (uint32_t h = 0; h < num_h; ++h) {
    CXML_ASSIGN_OR_RETURN(std::string name, r.Str());
    CXML_ASSIGN_OR_RETURN(std::string dtd_text, r.Str());
    auto dtd = dtd::ParseDtd(dtd_text);
    if (!dtd.ok()) {
      return dtd.status().WithContext(
          StrCat("snapshot DTD of hierarchy '", name, "'"));
    }
    CXML_RETURN_IF_ERROR(
        cmh->AddHierarchy(std::move(name), std::move(dtd).value())
            .status());
  }

  CXML_ASSIGN_OR_RETURN(uint64_t element_count, r.U64());
  std::vector<drivers::LogicalElement> elements;
  // Guard against hostile counts before reserving: an element encodes
  // to at least 32 fixed bytes (hierarchy + tag header + attr count +
  // extent), so a count the remaining bytes cannot hold is corrupt.
  if (element_count > r.Remaining() / 32 + 1) {
    return status::ParseError("snapshot element count exceeds data size");
  }
  elements.reserve(element_count);
  for (uint64_t i = 0; i < element_count; ++i) {
    drivers::LogicalElement el;
    CXML_ASSIGN_OR_RETURN(el.hierarchy, r.U32());
    if (el.hierarchy >= num_h) {
      return status::ParseError(StrFormat(
          "snapshot element %llu references hierarchy %u of %u",
          static_cast<unsigned long long>(i), el.hierarchy, num_h));
    }
    CXML_ASSIGN_OR_RETURN(el.tag, r.Str());
    CXML_ASSIGN_OR_RETURN(uint32_t attr_count, r.U32());
    if (attr_count > r.Remaining() / 16 + 1) {
      return status::ParseError(
          "snapshot attribute count exceeds data size");
    }
    for (uint32_t a = 0; a < attr_count; ++a) {
      xml::Attribute attr;
      CXML_ASSIGN_OR_RETURN(attr.name, r.Str());
      CXML_ASSIGN_OR_RETURN(attr.value, r.Str());
      el.attrs.push_back(std::move(attr));
    }
    CXML_ASSIGN_OR_RETURN(el.chars.begin, r.U64());
    CXML_ASSIGN_OR_RETURN(el.chars.end, r.U64());
    if (el.chars.begin > el.chars.end || el.chars.end > content.size()) {
      return status::ParseError(
          StrCat("snapshot element '", el.tag, "' has an invalid extent"));
    }
    elements.push_back(std::move(el));
  }
  if (!r.AtEnd()) {
    return status::ParseError("trailing bytes after GODDAG snapshot");
  }

  auto g = drivers::BuildGoddagFromExtents(*cmh, std::move(content),
                                           std::move(elements));
  if (!g.ok()) return g.status().WithContext("reconstructing snapshot");
  LoadedGoddag out;
  out.cmh = std::move(cmh);
  out.g = std::make_unique<goddag::Goddag>(std::move(g).value());
  return out;
}

namespace {

/// Compaction thresholds: the structural clone shares the arena and the
/// pools verbatim — garbage included — so without a pressure valve a
/// long-lived document whose edits keep getting rejected (normal
/// traffic) would grow them monotonically across versions. The old
/// Save/Load clone rebuilt a clean copy every time; we keep that
/// property amortized instead, with both checks O(1) from counters the
/// Goddag keeps:
///  * once detached arena slots (edit-rollback and leaf-coalescing
///    garbage: node ids are never reused within one Goddag) outnumber
///    attached nodes, one clone takes the snapshot path and starts the
///    next version from a compact arena;
///  * once dead pool entries (left behind by lists that moved as they
///    grew) outnumber the rest, the copy repacks its pools.
bool ShouldCompactArena(const goddag::Goddag& g) {
  constexpr size_t kMinArenaForCompaction = 1024;
  size_t arena = g.arena_size();
  size_t attached = 1 + g.num_leaves() + g.num_elements();
  return arena >= kMinArenaForCompaction && arena > 2 * attached;
}

bool ShouldCompactPools(const goddag::Goddag& g) {
  constexpr size_t kMinPoolForCompaction = 4096;
  size_t entries = g.pool_entries();
  return entries >= kMinPoolForCompaction &&
         entries < 2 * g.dead_pool_entries();
}

}  // namespace

Result<LoadedGoddag> Clone(const goddag::Goddag& g) {
  if (g.cmh() == nullptr) {
    return status::FailedPrecondition(
        "Clone requires a GODDAG with a bound CMH (the copy carries "
        "its schema)");
  }
  if (ShouldCompactArena(g)) return CloneViaSnapshot(g);
  LoadedGoddag out;
  out.cmh = g.cmh()->weak_from_this().lock();
  if (out.cmh == nullptr) out.cmh = g.cmh()->Clone();
  out.g = std::make_unique<goddag::Goddag>(g.Clone(out.cmh.get()));
  if (ShouldCompactPools(*out.g)) out.g->CompactPools();
  return out;
}

Result<LoadedGoddag> CloneViaSnapshot(const goddag::Goddag& g) {
  CXML_ASSIGN_OR_RETURN(std::string bytes, Save(g));
  auto copy = Load(bytes);
  if (!copy.ok()) return copy.status().WithContext("cloning GODDAG");
  return copy;
}

Status SaveToFile(const goddag::Goddag& g, const std::string& path) {
  CXML_ASSIGN_OR_RETURN(std::string bytes, Save(g));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return status::NotFound(StrCat("cannot open '", path, "' for writing"));
  }
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  int close_rc = std::fclose(f);
  if (written != bytes.size() || close_rc != 0) {
    return status::Internal(StrCat("short write to '", path, "'"));
  }
  return Status::Ok();
}

Result<LoadedGoddag> LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return status::NotFound(StrCat("cannot open '", path, "'"));
  }
  std::string bytes;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, n);
  }
  // A read error mid-file would otherwise surface as a confusing
  // "truncated snapshot" — name the I/O failure instead.
  bool read_failed = std::ferror(f) != 0;
  std::fclose(f);
  if (read_failed) {
    return status::Internal(StrCat("read error on '", path, "'"));
  }
  return Load(bytes);
}

}  // namespace cxml::storage
