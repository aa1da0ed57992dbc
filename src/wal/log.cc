#include "wal/log.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>

#include "common/strings.h"
#include "net/frame.h"

namespace cxml::wal {

namespace {

constexpr char kSegmentMagic[4] = {'C', 'X', 'W', '1'};

bool IsPlainChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

Status Errno(std::string_view what, const std::string& path) {
  return status::Internal(
      StrCat(what, " '", path, "': ", strerror(errno)));
}

void AppendHeaderU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendHeaderU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint64_t HeaderU64(std::string_view data, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(
             static_cast<uint8_t>(data[pos + static_cast<size_t>(i)]))
         << (8 * i);
  }
  return v;
}

uint32_t HeaderU32(std::string_view data, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(
             static_cast<uint8_t>(data[pos + static_cast<size_t>(i)]))
         << (8 * i);
  }
  return v;
}

std::string SegmentHeader(uint64_t base_version) {
  std::string header;
  header.append(kSegmentMagic, 4);
  AppendHeaderU32(&header, kSegmentFormatVersion);
  AppendHeaderU64(&header, base_version);
  return header;
}

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write to", path);
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Status FsyncDirOf(const std::string& path) {
  size_t slash = path.rfind('/');
  std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open directory", dir);
  int rc = fsync(fd);
  close(fd);
  if (rc != 0) return Errno("fsync directory", dir);
  return Status::Ok();
}

std::string EncodeDocDir(std::string_view name) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (IsPlainChar(c) && !(out.empty() && c == '.')) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[(static_cast<uint8_t>(c) >> 4) & 0xF]);
      out.push_back(kHex[static_cast<uint8_t>(c) & 0xF]);
    }
  }
  return out;
}

Result<std::string> DecodeDocDir(std::string_view dir) {
  std::string out;
  out.reserve(dir.size());
  for (size_t i = 0; i < dir.size(); ++i) {
    if (dir[i] != '%') {
      out.push_back(dir[i]);
      continue;
    }
    if (i + 2 >= dir.size()) {
      return status::ParseError(
          StrCat("truncated escape in WAL directory name '", dir, "'"));
    }
    int hi = HexValue(dir[i + 1]);
    int lo = HexValue(dir[i + 2]);
    if (hi < 0 || lo < 0) {
      return status::ParseError(
          StrCat("bad escape in WAL directory name '", dir, "'"));
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

std::string CheckpointFileName(uint64_t version) {
  return StrFormat("checkpoint-%020llu.cxg1",
                   static_cast<unsigned long long>(version));
}

std::string SegmentFileName(uint64_t base_version) {
  return StrFormat("wal-%020llu.log",
                   static_cast<unsigned long long>(base_version));
}

namespace {

/// The zero-padded file names carry 20 digits (fixed width keeps
/// lexicographic order = numeric order) but the wire parser caps at
/// 19; drop the padding before handing the digits over.
bool ParsePaddedU64(std::string_view digits, uint64_t* out) {
  if (digits.empty()) return false;
  while (digits.size() > 1 && digits.front() == '0') digits.remove_prefix(1);
  return net::ParseDecimalU64(digits, out);
}

}  // namespace

bool ParseCheckpointFileName(std::string_view name, uint64_t* version) {
  if (!StartsWith(name, "checkpoint-") || !EndsWith(name, ".cxg1")) {
    return false;
  }
  std::string_view digits =
      name.substr(11, name.size() - 11 - 5);  // between prefix and suffix
  return ParsePaddedU64(digits, version);
}

bool ParseSegmentFileName(std::string_view name, uint64_t* base_version) {
  if (!StartsWith(name, "wal-") || !EndsWith(name, ".log")) return false;
  std::string_view digits = name.substr(4, name.size() - 4 - 4);
  return ParsePaddedU64(digits, base_version);
}

Status EnsureDir(const std::string& path) {
  if (path.empty()) {
    return status::InvalidArgument("empty directory path");
  }
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    partial = path.substr(0, i == path.size() ? i : i + 1);
    if (partial.empty() || partial == "/") continue;
    if (mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) {
      return Errno("mkdir", partial);
    }
  }
  return Status::Ok();
}

Result<std::vector<std::string>> ListDir(const std::string& path) {
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) return Errno("opendir", path);
  std::vector<std::string> names;
  while (struct dirent* entry = readdir(dir)) {
    std::string_view name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.emplace_back(name);
  }
  closedir(dir);
  return names;
}

Result<std::string> ReadFileBytes(const std::string& path) {
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
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Errno("read", path);
  return bytes;
}

Status WriteFileDurable(const std::string& path, std::string_view bytes) {
  std::string tmp = StrCat(path, ".tmp");
  int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) return Errno("open", tmp);
  Status written = WriteAll(fd, bytes, tmp);
  if (written.ok() && fsync(fd) != 0) written = Errno("fsync", tmp);
  close(fd);
  if (!written.ok()) {
    unlink(tmp.c_str());
    return written;
  }
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    unlink(tmp.c_str());
    return Errno("rename", tmp);
  }
  return FsyncDirOf(path);
}

Status RemoveDirRecursive(const std::string& path) {
  auto entries = ListDir(path);
  if (!entries.ok()) {
    // Already gone is success for a removal.
    struct stat st;
    if (stat(path.c_str(), &st) != 0 && errno == ENOENT) {
      return Status::Ok();
    }
    return entries.status();
  }
  for (const std::string& name : *entries) {
    std::string child = StrCat(path, "/", name);
    struct stat st;
    if (lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      CXML_RETURN_IF_ERROR(RemoveDirRecursive(child));
    } else if (unlink(child.c_str()) != 0 && errno != ENOENT) {
      return Errno("unlink", child);
    }
  }
  if (rmdir(path.c_str()) != 0 && errno != ENOENT) {
    return Errno("rmdir", path);
  }
  return Status::Ok();
}

Result<std::unique_ptr<SegmentWriter>> SegmentWriter::Create(
    const std::string& path, uint64_t base_version) {
  int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0666);
  if (fd < 0) return Errno("create segment", path);
  std::string header = SegmentHeader(base_version);
  Status written = WriteAll(fd, header, path);
  if (written.ok() && fsync(fd) != 0) written = Errno("fsync", path);
  if (written.ok()) written = FsyncDirOf(path);
  if (!written.ok()) {
    close(fd);
    unlink(path.c_str());
    return written;
  }
  return std::unique_ptr<SegmentWriter>(
      new SegmentWriter(fd, path, base_version, header.size()));
}

SegmentWriter::~SegmentWriter() {
  if (fd_ >= 0) close(fd_);
}

Status SegmentWriter::Append(std::string_view bytes) {
  if (auto torn = fault::Injector::Check(injector_, "wal.append_torn")) {
    // Simulate a crash mid-record: land only the schedule's prefix on
    // disk, then fail without advancing the committed size — exactly
    // the state a power cut inside write(2) leaves behind.
    size_t keep = torn.value < bytes.size()
                      ? static_cast<size_t>(torn.value)
                      : bytes.size();
    (void)WriteAll(fd_, bytes.substr(0, keep), path_);
    return status::Internal(
        StrFormat("injected torn append (%zu of %zu bytes) on '%s'", keep,
                  bytes.size(), path_.c_str()));
  }
  CXML_RETURN_IF_ERROR(WriteAll(fd_, bytes, path_));
  size_ += bytes.size();
  return Status::Ok();
}

Status SegmentWriter::Fsync() {
  if (fault::Injector::Check(injector_, "wal.fsync")) {
    return status::Internal(
        StrCat("injected fsync failure on '", path_, "'"));
  }
  if (fsync(fd_) != 0) return Errno("fsync segment", path_);
  return Status::Ok();
}

Status SegmentWriter::TruncateToCommitted() {
  if (ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
    return Errno("truncate segment", path_);
  }
  if (lseek(fd_, 0, SEEK_END) < 0) return Errno("seek segment", path_);
  return Status::Ok();
}

Result<SegmentData> ReadSegment(const std::string& path) {
  CXML_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  if (bytes.size() < kSegmentHeaderBytes ||
      memcmp(bytes.data(), kSegmentMagic, 4) != 0) {
    return status::ParseError(
        StrCat("not a WAL segment (bad magic): '", path, "'"));
  }
  uint32_t format = HeaderU32(bytes, 4);
  if (format != kSegmentFormatVersion) {
    return status::Unimplemented(StrFormat(
        "WAL segment format %u is not supported (this build reads %u)",
        format, kSegmentFormatVersion));
  }
  SegmentData data;
  data.base_version = HeaderU64(bytes, 8);
  data.scan = ScanRecords(
      std::string_view(bytes).substr(kSegmentHeaderBytes));
  return data;
}

}  // namespace cxml::wal
